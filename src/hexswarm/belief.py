"""Three-valued belief algebra.

An agent's world model assigns one of three truth values to each of n
propositions, numbered 1..n. Beyond plain true/false, the third value
``Unknown`` lets an agent represent missing information explicitly; it is
the identity element of the pairwise fusion operator, while a head-on
disagreement between two certain values collapses back to ``Unknown``.

Beliefs are immutable. Internally a belief is two Python-int bitmasks over
its n propositions, bit i standing for proposition i+1: ``known`` marks the
certain propositions and ``true`` (a subset of ``known``) those believed
true. Fusion, evidence updates, certainty and the error metric are then a
few bitwise operations and popcounts each. The int8 code array (FALSE=0,
UNKNOWN=1, TRUE=2) that the fusion table ``_FUSION`` acts on is still
available, built on demand, as the read-only ``codes`` property.

The hidden state of the world is a ``GroundTruth``: a belief that is
certain about every proposition, so one class states the three-valued
vector for both.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np


class TruthValue(IntEnum):
    """Truth value of a single proposition."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2


FALSE = TruthValue.FALSE
UNKNOWN = TruthValue.UNKNOWN
TRUE = TruthValue.TRUE

_SYMBOL_TO_CODE = {"0": 0, "u": 1, "1": 2}

# Pairwise fusion, indexed [a, b]: Unknown is the identity, agreement is
# preserved, and contradiction between certain values yields Unknown.
# fuse_beliefs applies the same operator to every proposition at once.
_FUSION = np.array(
    [
        [0, 0, 1],
        [0, 1, 2],
        [1, 2, 2],
    ],
    dtype=np.int8,
)


def _masks(values: Iterable[TruthValue | int]) -> tuple[int, int, int]:
    """(n, known, true) bitmasks of a sequence of truth value codes."""
    n = known = true = 0
    for code in values:
        if code not in (0, 1, 2):
            raise ValueError("truth value codes must be 0 (false), 1 (unknown) or 2 (true)")
        if code != 1:
            known |= 1 << n
            if code == 2:
                true |= 1 << n
        n += 1
    return n, known, true


def _digits(n: int, known: int, true: int) -> bytes:
    """One ASCII digit per proposition, proposition 1 first: 0 for Unknown,
    1 for false, 2 for true."""
    # Reading a mask's binary digits as hexadecimal gives every bit its own
    # nibble, so adding known and its subset true cannot carry.
    spread = int(format(known, "b"), 16) + int(format(true, "b"), 16)
    return format(spread, f"0{n}x").encode()[::-1]


_DIGIT_TO_CODE = bytes.maketrans(b"012", b"\x01\x00\x02")
_DIGIT_TO_SYMBOL = bytes.maketrans(b"012", b"u01")


class Belief:
    """An immutable n-tuple of truth values, one per proposition.

    Proposition indices are 1-based throughout the public API, matching
    the usual p_1..p_n numbering of the model. ``known`` and ``true`` are
    the bitmasks described in the module docstring. Equality and the hash
    read only ``n`` and the masks, so a ``GroundTruth`` equals, and hashes
    like, the certain belief with the same values.
    """

    __slots__ = ("n", "known", "true")

    def __init__(self, values: Iterable[TruthValue | int]):
        n, known, true = _masks(values)
        if n == 0:
            raise ValueError("a belief needs at least one proposition")
        self.n = n
        self.known = known
        self.true = true

    @classmethod
    def _from_masks(cls, n: int, known: int, true: int) -> "Belief":
        # Internal fast path: caller guarantees true is a subset of known.
        self = object.__new__(cls)
        self.n = n
        self.known = known
        self.true = true
        return self

    @staticmethod
    def unknown(n: int) -> "Belief":
        """The totally uncertain belief over n propositions."""
        return Belief._from_masks(n, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "Belief":
        """Parse a compact belief string over the alphabet {0, u, 1}."""
        try:
            return cls([_SYMBOL_TO_CODE[c] for c in text])
        except KeyError as exc:
            raise ValueError(f"invalid belief symbol {exc.args[0]!r}") from None

    @property
    def codes(self) -> np.ndarray:
        """Read-only int8 array of codes (FALSE=0, UNKNOWN=1, TRUE=2)."""
        return np.frombuffer(_digits(self.n, self.known, self.true).translate(_DIGIT_TO_CODE), dtype=np.int8)

    def to_string(self) -> str:
        """One symbol per proposition, proposition 1 first: 0, u or 1."""
        return _digits(self.n, self.known, self.true).translate(_DIGIT_TO_SYMBOL).decode()

    def value_at(self, index: int) -> TruthValue:
        """Truth value of proposition ``index`` (1-based)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"proposition index {index} out of range 1..{self.n}")
        bit = 1 << (index - 1)
        if not self.known & bit:
            return UNKNOWN
        return TRUE if self.true & bit else FALSE

    def certainty(self) -> int:
        """Number of propositions with a certain (non-Unknown) value."""
        return self.known.bit_count()

    def is_certain(self) -> bool:
        return self.known == (1 << self.n) - 1

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Belief):
            return NotImplemented
        return self.n == other.n and self.known == other.known and self.true == other.true

    def __hash__(self) -> int:
        return hash((self.n, self.known, self.true))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()!r})"


class GroundTruth(Belief):
    """The hidden state of the world: a belief certain about every proposition.

    ``true`` has bit i set when proposition i+1 is true, and ``known`` has
    every bit set. Being a ``Belief``, a ground truth is hashable, equals
    the plain ``Belief`` with the same values, and prints as
    ``GroundTruth('…')`` over the symbols 0 and 1.
    """

    __slots__ = ()

    def __init__(self, values: Iterable[TruthValue | int]):
        super().__init__(values)
        if not self.is_certain():
            raise ValueError("ground truth values must be certain (false or true)")

    @classmethod
    def from_bools(cls, flags: Sequence[bool]) -> "GroundTruth":
        return cls([2 if f else 0 for f in flags])

    def as_belief(self) -> Belief:
        """The plain ``Belief`` with this ground truth's values."""
        return Belief._from_masks(self.n, self.known, self.true)


def fuse_value(a: TruthValue, b: TruthValue) -> TruthValue:
    """Fuse two truth values with the pairwise operator (see _FUSION)."""
    return TruthValue(int(_FUSION[a, b]))


def fuse_beliefs(a: Belief, b: Belief) -> Belief:
    """Element-wise fusion of two beliefs of equal length (see _FUSION).

    A proposition is known in the result when either side knows it, unless
    both know it with opposite values; its value is then the one known.
    """
    if a.n != b.n:
        raise ValueError(f"belief length mismatch: {a.n} vs {b.n}")
    ka, kb = a.known, b.known
    known = (ka | kb) & ~(ka & kb & (a.true ^ b.true))
    return Belief._from_masks(a.n, known, (a.true | b.true) & known)


def is_evidence(e: Belief) -> bool:
    """True when ``e`` is certain about exactly one proposition."""
    return e.known.bit_count() == 1


def update_with_evidence(belief: Belief, evidence: Belief) -> Belief:
    """Incorporate a single-proposition observation into a belief.

    Evidence must be Unknown everywhere except at exactly one index, so
    the update can only touch that one proposition.
    """
    if belief.n != evidence.n:
        raise ValueError(f"belief length mismatch: {belief.n} vs {evidence.n}")
    if not is_evidence(evidence):
        raise ValueError("evidence must be certain about exactly one proposition")
    return fuse_beliefs(belief, evidence)


def uncertain_indices(belief: Belief) -> set[int]:
    """The 1-based indices of all propositions the belief is unsure about."""
    return {i + 1 for i in range(belief.n) if not belief.known >> i & 1}


def belief_error(belief: Belief, truth: GroundTruth) -> float:
    """Mean absolute numeric difference between a belief and the truth.

    Each proposition contributes |v - t| with the numeric reading
    {0, 0.5, 1}: 1 when certain and wrong, 0.5 when Unknown, 0 when right.
    An exactly matching belief scores 0; a totally uncertain one scores
    0.5; the worst possible (certain and wrong everywhere) scores 1. The
    sum of such terms is exact in floating point, so the result does not
    depend on summation order.
    """
    if len(belief) != len(truth):
        raise ValueError(f"belief length mismatch: {len(belief)} vs {len(truth)}")
    wrong = (belief.known & (belief.true ^ truth.true)).bit_count()
    unknown = belief.n - belief.known.bit_count()
    return (wrong + 0.5 * unknown) / belief.n
