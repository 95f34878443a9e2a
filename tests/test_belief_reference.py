"""Differential tests: the bitmask belief operations against the reference
model's int8 code statements (FALSE=0, UNKNOWN=1, TRUE=2) of fusion, error,
evidence and the target pick. Lengths run past 128 so that the masks span
more than two 64-bit words.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_model import error, evidence, fuse, pick_target

from hexswarm.agent import select_target
from hexswarm.belief import (
    Belief,
    GroundTruth,
    TruthValue,
    belief_error,
    fuse_beliefs,
    is_evidence,
    update_with_evidence,
)
from hexswarm.environment import NoiseModel, observe

lengths = st.integers(1, 140)


def code_lists(n, values=(0, 1, 2)):
    return st.lists(st.sampled_from(values), min_size=n, max_size=n)


def belief_pairs():
    return lengths.flatmap(lambda n: st.tuples(code_lists(n), code_lists(n)))


def belief_and_truth():
    return lengths.flatmap(lambda n: st.tuples(code_lists(n), code_lists(n, (0, 2))))


def belief_and_evidence():
    def build(n):
        evidence = st.tuples(st.integers(0, n - 1), st.sampled_from([0, 2])).map(
            lambda iv: [iv[1] if j == iv[0] else 1 for j in range(n)]
        )
        return st.tuples(code_lists(n), evidence)

    return lengths.flatmap(build)


@given(belief_pairs())
def test_fuse_beliefs_matches_table(pair):
    a, b = Belief(pair[0]), Belief(pair[1])
    assert fuse_beliefs(a, b) == fuse(a, b)


@given(belief_and_evidence())
def test_update_with_evidence_matches_table(pair):
    belief, seen = Belief(pair[0]), Belief(pair[1])
    assert is_evidence(seen) == (np.count_nonzero(seen.codes != 1) == 1)
    assert update_with_evidence(belief, seen) == fuse(belief, seen)


@given(lengths.flatmap(code_lists))
def test_certainty_and_evidence_match_codes(codes):
    belief = Belief(codes)
    array = np.array(codes, dtype=np.int8)
    assert belief.certainty() == array.size - np.count_nonzero(array == 1)
    assert belief.is_certain() == (not (array == 1).any())
    assert is_evidence(belief) == (np.count_nonzero(array != 1) == 1)


@given(belief_and_truth())
def test_belief_error_matches_numeric_mean_exactly(pair):
    belief, truth = Belief(pair[0]), GroundTruth(pair[1])
    assert belief_error(belief, truth) == error(belief.codes, truth)


@given(lengths.flatmap(code_lists))
def test_round_trips(codes):
    belief = Belief(codes)
    assert np.array_equal(belief.codes, np.array(codes, dtype=np.int8))
    assert Belief(belief.codes) == belief
    assert Belief.from_string(belief.to_string()) == belief
    assert belief.to_string() == "".join("0u1"[c] for c in codes)
    assert [belief.value_at(i + 1) for i in range(len(codes))] == [TruthValue(c) for c in codes]


@given(lengths.flatmap(lambda n: code_lists(n, (0, 2))))
def test_ground_truth_round_trips(codes):
    """A ground truth is a certain ``Belief``: it equals and hashes like its
    plain copy, and prints one bit per proposition, proposition 1 first."""
    truth = GroundTruth(codes)
    text = "".join("0?1"[c] for c in codes)
    assert np.array_equal(truth.codes, np.array(codes, dtype=np.int8))
    assert GroundTruth(truth.codes) == truth
    assert truth.to_string() == text == format(truth.true, f"0{truth.n}b")[::-1]
    assert repr(truth) == f"GroundTruth({text!r})"
    assert isinstance(truth, Belief)
    plain = truth.as_belief()
    assert type(plain) is Belief and np.array_equal(plain.codes, truth.codes)
    assert truth == plain and hash(truth) == hash(plain)
    for index in (0, truth.n + 1):
        with pytest.raises(ValueError, match="out of range"):
            truth.value_at(index)


@given(lengths.flatmap(code_lists))
def test_equal_beliefs_hash_equal(codes):
    a, b = Belief(codes), Belief(list(codes))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, fuse_beliefs(a, b)}) == 1


def test_equality_needs_equal_length():
    assert Belief.unknown(3) != Belief.unknown(4)
    assert GroundTruth([0, 0]) != GroundTruth([0])


@pytest.mark.parametrize("make", [lambda: Belief.from_string("0u1" * 50), lambda: GroundTruth([2, 0] * 70)])
def test_codes_is_read_only_int8(make):
    codes = make().codes
    assert codes.dtype == np.int8
    with pytest.raises(ValueError):
        codes[0] = 1


@given(
    beliefs=st.lists(lengths.flatmap(code_lists), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_target_matches_flatnonzero_draw(beliefs, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for codes in beliefs:
        belief = Belief(codes)
        assert select_target(belief, rng) == pick_target(belief, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# Lengths on each side of a byte, the reference arena (126 cells) and one
# whose mask spans more than seven 64-bit words.
EDGE_LENGTHS = [1, 7, 8, 9, 126, 468]


def unknown_patterns(n):
    """Code lists of length n: every proposition Unknown, Unknowns only in
    the last (partial) byte, Unknowns in alternate bytes only, and Unknowns
    on both sides of every fourth byte boundary."""
    tail = n % 8 or min(n, 8)
    boundaries = {i for b in range(8, n, 32) for i in (b - 1, b)}
    return {
        "all": [1] * n,
        "last-byte": [2] * (n - tail) + [1] * tail,
        "alternate-bytes": [1 if i // 8 % 2 == 0 else 0 for i in range(n)],
        "boundaries": [1 if i in boundaries else 2 for i in range(n)],
    }


@pytest.mark.parametrize(
    "codes",
    [
        pytest.param([2] * 40 + [1] + [0] * 85, id="one-unknown"),
        pytest.param([0] * 120 + [1] * 6, id="n126-unknowns-in-last-partial-byte"),
        pytest.param([2] * 112 + [1] * 14, id="n126-k-from-8-into-last-partial-byte"),
        # Byte boundaries at k = 8, 16 (after a byte with no Unknown) and 24.
        pytest.param([1] * 16 + [0] * 8 + [1] * 16 + [2] * 86, id="k-from-8-on-byte-boundaries"),
        *(
            pytest.param(codes, id=f"n{n}-{name}")
            for n in EDGE_LENGTHS
            for name, codes in unknown_patterns(n).items()
            # 400 seeds draw every k only when there are few candidates.
            if 1 <= codes.count(1) <= 40
        ),
    ],
)
def test_select_target_edge_cases(codes):
    belief = Belief(codes)
    seen = set()
    for seed in range(400):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = select_target(belief, rng)
        assert got == pick_target(belief, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        seen.add(got)
    assert seen == {i + 1 for i, code in enumerate(codes) if code == 1}  # every k was drawn


class FixedDraw:
    """Stands in for the generator: every bounded draw returns ``k``."""

    def __init__(self, k):
        self.k = k
        self.bounds = []

    def integers(self, bound):
        self.bounds.append(bound)
        return self.k


@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_select_target_picks_every_k(n):
    for codes in unknown_patterns(n).values():
        candidates = [i + 1 for i, code in enumerate(codes) if code == 1]
        belief = Belief(codes)
        if not candidates:
            assert select_target(belief, FixedDraw(0)) is None
        for k, expected in enumerate(candidates):
            draw = FixedDraw(k)
            assert select_target(belief, draw) == expected
            assert draw.bounds == ([] if len(candidates) == 1 else [len(candidates)])


@given(
    truth=lengths.flatmap(lambda n: code_lists(n, (0, 2))),
    data=st.data(),
    eps=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_observe_matches_code_reference(truth, data, eps, seed):
    truth = GroundTruth(truth)
    index = data.draw(st.integers(1, len(truth)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert observe(index, truth, NoiseModel(eps), rng) == evidence(index, truth, eps, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
