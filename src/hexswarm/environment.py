"""Hexagonal arena: cell geometry, hidden ground truth, noisy observation.

The arena is a pointy-top hexagonal disc of cells in axial coordinates.
The central cell is the launch pad and carries no proposition; every
other cell corresponds to one proposition an agent can investigate.
A disc of radius r holds 3r(r+1)+1 cells, so the default r=6 gives one
launch cell plus n=126 investigable locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import Belief, GroundTruth
from .errors import ConfigError

# World-units scale: adjacent cell centers sit sqrt(3)*circumradius apart,
# so the smallest communication radius of interest (20) spans roughly one
# cell neighbourhood.
DEFAULT_CIRCUMRADIUS = 10.0

# An agent counts as "at" a cell when within this distance of its center.
ARRIVAL_RADIUS = 1.0


@dataclass(frozen=True)
class HexCell:
    """One arena cell. ``index`` is the 1-based proposition index; the
    launch cell uses index 0."""

    index: int
    q: int
    r: int
    x: float
    y: float


class HexGrid:
    """Immutable disc of hexagonal cells centered on the launch pad."""

    def __init__(self, cells: list[HexCell], launch: HexCell, circumradius: float):
        self.cells = tuple(cells)
        self.launch = launch
        self.circumradius = circumradius
        # Cell centers indexed by proposition index - 1, read-only; plain
        # tuples keep the per-tick lookups off the numpy scalar path.
        self.centers = tuple((c.x, c.y) for c in cells)

    @property
    def n(self) -> int:
        """Number of propositions (investigable cells)."""
        return len(self.cells)

    def center_of(self, index: int) -> tuple[float, float]:
        """World coordinates of the center of proposition cell ``index``."""
        if not 1 <= index <= len(self.cells):
            raise ValueError(f"cell index {index} out of range 1..{len(self.cells)}")
        return self.centers[index - 1]

    def to_table(self) -> str:
        """Plain-text dump: one ``index q r x y`` row per cell, launch first."""
        rows = ["# index q r x y"]
        for c in (self.launch, *self.cells):
            rows.append(f"{c.index} {c.q} {c.r} {c.x!r} {c.y!r}")
        return "\n".join(rows) + "\n"


def _axial_to_world(q: int, r: int, circumradius: float) -> tuple[float, float]:
    # Pointy-top layout.
    x = circumradius * math.sqrt(3.0) * (q + r / 2.0)
    y = circumradius * 1.5 * r
    return x, y


def build_grid(hex_disc_radius: int, circumradius: float = DEFAULT_CIRCUMRADIUS) -> HexGrid:
    """Build the hexagonal disc arena.

    The disc of radius r contains every axial coordinate (q, r') with
    max(|q|, |r'|, |q+r'|) <= r. The center cell becomes the launch pad;
    the remaining 3r(r+1) cells are numbered 1..n in (r', q) order.
    """
    if hex_disc_radius < 1:
        raise ConfigError(f"hex_disc_radius must be >= 1, got {hex_disc_radius}")
    if circumradius <= 0:
        raise ConfigError(f"circumradius must be positive, got {circumradius}")

    coords = []
    radius = hex_disc_radius
    for r in range(-radius, radius + 1):
        for q in range(max(-radius, -radius - r), min(radius, radius - r) + 1):
            if (q, r) != (0, 0):
                coords.append((q, r))

    cells = [
        HexCell(i, q, r, *_axial_to_world(q, r, circumradius))
        for i, (q, r) in enumerate(coords, start=1)
    ]
    launch = HexCell(0, 0, 0, 0.0, 0.0)
    return HexGrid(cells, launch, circumradius)


@dataclass(frozen=True)
class NoiseModel:
    """Observation channel that reports the wrong value with probability epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 0.5:
            raise ConfigError(f"epsilon must be in [0, 0.5], got {self.epsilon}")


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
    n = len(truth)
    if not 1 <= index <= n:
        raise ValueError(f"proposition index {index} out of range 1..{n}")
    bit = 1 << (index - 1)
    true = truth.true & bit
    if rng.random() < noise.epsilon:
        true ^= bit
    return Belief._from_masks(n, bit, true)
