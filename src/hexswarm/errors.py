"""Shared exception type and the one table of config rules, which
``SimConfig``, ``SweepSpec`` and the constructors all check through."""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    """A configuration value is missing, malformed or out of range."""


class Rule(NamedTuple):
    """An integer (bools excluded) or a finite real, in [low, high] (high
    None for no upper bound), or above 0 when ``positive``."""

    integer: bool
    low: float = 0
    high: float | None = None
    positive: bool = False


RULES = {
    # complete_graph holds m(m-1)/2 edges at about 0.3 KB each: 144 MB at m = 1000.
    "m": Rule(True, 2, 1000),
    # build_grid holds 3r(r+1) cells at about 0.39 KB each: 104 MB at r = 300.
    "hex_disc_radius": Rule(True, 1, 300),
    "C_r": Rule(False, positive=True),
    "C_f": Rule(False, 0.0, 1.0),
    "epsilon": Rule(False, 0.0, 0.5),
    "max_ticks": Rule(True, 1),
    "speed": Rule(False, positive=True),
    # 64 bits, the range of derive_seed. A run echoes its seed into its
    # record, which cannot print an int of more than 4,300 digits.
    "seed": Rule(True, 0, 2**64 - 1),
    "sample_every": Rule(True, 1),
    "repeats": Rule(True, 1),
    "base_seed": Rule(True, 0, 2**64 - 1),
}


def shown(value: object, show: Callable[[object], str] = repr) -> str:
    """``show(value)``, or the size of an int past 64 bits: converting an
    int of more than 4,300 digits to a string raises ValueError."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return show(value)


def check(name: str, value: object) -> None:
    """Raise ConfigError, naming ``name``, unless ``value`` meets ``RULES[name]``."""
    rule = RULES[name]
    try:
        if rule.integer:
            valid = isinstance(value, numbers.Integral)
        else:
            valid = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int too large to convert to a float
        valid = False
    if not valid or isinstance(value, bool):
        kind = "an integer" if rule.integer else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {shown(value)}")
    if rule.positive:
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {shown(value, str)}")
    elif value < rule.low:
        raise ConfigError(f"{name} out of range: need {name} >= {rule.low}, got {shown(value, str)}")
    elif rule.high is not None and value > rule.high:
        raise ConfigError(f"{name} out of range: need {name} <= {rule.high}, got {shown(value, str)}")


def check_lattice(m: int, k: int) -> None:
    """Raise ConfigError unless k is a ring-lattice degree for m agents:
    even, so each agent has k/2 neighbours a side, and in [2, m-2]."""
    if k % 2 != 0 or not 2 <= k <= m - 2:
        raise ConfigError(f"topology lattice k must be even and in [2, m-2], got k={k} for m={m}")
