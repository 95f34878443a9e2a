"""Hexagonal arena: cell geometry, hidden ground truth, noisy observation.

The arena is a pointy-top hexagonal disc of cells in axial coordinates.
The central cell is the launch pad at the world origin, where every agent
starts; it carries no proposition and is not stored. Every other cell
corresponds to one proposition an agent can investigate, and ``HexGrid``
holds only their centers. A disc of radius r holds 3r(r+1)+1 cells, so
the default r=6 gives the launch pad plus n=126 investigable locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import Belief, GroundTruth
from .errors import ConfigError, check

# World-units scale: adjacent cell centers sit sqrt(3)*CIRCUMRADIUS apart,
# so the smallest communication radius of interest (20) spans roughly one
# cell neighbourhood. ``agent._LEG_MARGIN`` is derived for this scale.
CIRCUMRADIUS = 10.0

# An agent counts as "at" a cell when within this distance of its center.
ARRIVAL_RADIUS = 1.0


class HexGrid:
    """Immutable disc of hexagonal cells around the launch pad at (0, 0).

    ``centers[i - 1]`` is the world position of proposition cell i; plain
    tuples keep the per-tick lookups off the numpy scalar path.
    """

    def __init__(self, centers: list[tuple[float, float]]):
        self.centers = tuple(centers)

    @property
    def n(self) -> int:
        """Number of propositions (investigable cells)."""
        return len(self.centers)

    def center_of(self, index: int) -> tuple[float, float]:
        """World coordinates of the center of proposition cell ``index``."""
        if not 1 <= index <= len(self.centers):
            raise ValueError(f"cell index {index} out of range 1..{len(self.centers)}")
        return self.centers[index - 1]


def _axial_to_world(q: int, r: int) -> tuple[float, float]:
    # Pointy-top layout.
    x = CIRCUMRADIUS * math.sqrt(3.0) * (q + r / 2.0)
    y = CIRCUMRADIUS * 1.5 * r
    return x, y


def build_grid(hex_disc_radius: int) -> HexGrid:
    """Build the hexagonal disc arena.

    The disc of radius r contains every axial coordinate (q, r') with
    max(|q|, |r'|, |q+r'|) <= r. The center cell is the launch pad and is
    left out; the centers of the remaining 3r(r+1) cells are numbered 1..n
    in (r', q) order.
    """
    check("hex_disc_radius", hex_disc_radius)

    centers = []
    radius = hex_disc_radius
    for r in range(-radius, radius + 1):
        for q in range(max(-radius, -radius - r), min(radius, radius - r) + 1):
            if (q, r) != (0, 0):
                centers.append(_axial_to_world(q, r))
    return HexGrid(centers)


@dataclass(frozen=True)
class NoiseModel:
    """Observation channel that reports the wrong value with probability epsilon."""

    epsilon: float

    def __post_init__(self):
        check("epsilon", self.epsilon)


def sample_ground_truth(n: int, rng: np.random.Generator) -> GroundTruth:
    """Draw a world state: each proposition independently true or false."""
    if n < 1:
        raise ConfigError(f"proposition count must be >= 1, got {n}")
    return GroundTruth.from_bools(rng.random(n) < 0.5)


def observe(index: int, truth: GroundTruth, noise: NoiseModel, rng: np.random.Generator) -> Belief:
    """Gather evidence about one proposition.

    Returns an evidence-form belief: Unknown everywhere except ``index``,
    which holds the true value with probability 1 - epsilon and the
    flipped value otherwise.
    """
    n = truth.n
    if not 1 <= index <= n:
        raise ValueError(f"proposition index {index} out of range 1..{n}")
    bit = 1 << (index - 1)
    true = truth.true & bit
    if rng.random() < noise.epsilon:
        true ^= bit
    return Belief._from_masks(n, bit, true)
