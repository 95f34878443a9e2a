"""Parameter sweeps: repeated seeded runs, aggregation, CSV output.

A sweep is the Cartesian product of topology, C_r, C_f and epsilon value
lists, each cell repeated ``repeats`` times. Every (cell, trial) pair gets
its own seed derived through a stable hash of (base_seed, cell index,
trial index), so re-running a sweep reproduces every trial exactly and the
result is independent of how many workers execute it.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .engine import RunRecord, SimConfig, parse_topology, run
from .errors import ConfigError, check

SWEEP_RESULTS_COLUMNS = [
    "topology", "k", "C_r", "C_f", "epsilon",
    "trial", "seed", "steady_state_error", "terminal_tick", "converged",
]
CELL_SUMMARY_COLUMNS = [
    "topology", "k", "C_r", "C_f", "epsilon",
    "mean_error", "ci95", "mean_terminal_tick", "consensus_fraction",
]
TRAJECTORY_COLUMNS = ["topology", "k", "C_r", "C_f", "epsilon", "tick", "mean_error", "ci95"]


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


@dataclass
class SweepSpec:
    """A grid of parameter cells plus the fixed single-run settings."""

    topology: list[str] = field(default_factory=lambda: ["complete"])
    C_r: list[float] = field(default_factory=lambda: [20.0])
    C_f: list[float] = field(default_factory=lambda: [0.1])
    epsilon: list[float] = field(default_factory=lambda: [0.0])
    repeats: int = 50
    base_seed: int = 0
    m: int = 20
    hex_disc_radius: int = 6
    max_ticks: int = 30_000
    speed: float = 5.0
    sample_every: int = 100

    def __post_init__(self):
        self.topology = _as_list(self.topology)
        self.C_r = _as_list(self.C_r)
        self.C_f = _as_list(self.C_f)
        self.epsilon = _as_list(self.epsilon)

    def validate(self) -> None:
        for name in ("topology", "C_r", "C_f", "epsilon"):
            if not getattr(self, name):
                raise ConfigError(f"sweep list {name} must not be empty")
        check("repeats", self.repeats)
        check("base_seed", self.base_seed)
        # A trial's config differs from its cell's only in the derived seed,
        # which is always a valid one, so checking each cell once suffices.
        for cell in self.cells():
            self.run_config(cell, self.base_seed).validate()
        # Only after the per-cell checks, which reject bools and unhashable
        # entries. Equal values (20 and 20.0) would sweep one cell twice.
        for name in ("topology", "C_r", "C_f", "epsilon"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep list {name} repeats a value: {values!r}")

    def cells(self) -> list[tuple[str, float, float, float]]:
        """Parameter cells in deterministic (topology, C_r, C_f, epsilon) order."""
        return list(product(self.topology, self.C_r, self.C_f, self.epsilon))

    def run_config(self, cell: tuple[str, float, float, float], seed: int) -> SimConfig:
        """The single-run config of one cell of this sweep, with ``seed``."""
        topology, c_r, c_f, eps = cell
        return SimConfig(
            m=self.m,
            hex_disc_radius=self.hex_disc_radius,
            C_r=c_r,
            C_f=c_f,
            epsilon=eps,
            topology=topology,
            max_ticks=self.max_ticks,
            speed=self.speed,
            seed=seed,
            sample_every=self.sample_every,
        )


def derive_seed(base_seed: int, cell_index: int, trial: int) -> int:
    """Stable 64-bit seed for one (cell, trial) pair."""
    ss = np.random.SeedSequence([base_seed, cell_index, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def expand(spec: SweepSpec) -> list[tuple[SimConfig, int]]:
    """All (run config, trial index) pairs, cell-major then trial order.

    Record position p in the output corresponds to cell p // repeats and
    trial p % repeats, which is how downstream grouping works.
    """
    spec.validate()
    tasks: list[tuple[SimConfig, int]] = []
    for cell_index, cell in enumerate(spec.cells()):
        for trial in range(spec.repeats):
            seed = derive_seed(spec.base_seed, cell_index, trial)
            tasks.append((spec.run_config(cell, seed), trial))
    return tasks


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[RunRecord]:
    """Execute every trial of the sweep; output order matches expand()."""
    configs = [config for config, _ in expand(spec)]
    # The pool may start all of its workers at the first submit, so ask for
    # no more than there are trials.
    workers = min(workers, len(configs))
    if workers <= 1:
        return [run(config) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, configs, chunksize=1))


def group_by_cell(spec: SweepSpec, records: Sequence[RunRecord]) -> list[list[RunRecord]]:
    """Chunk an expand()-ordered record list back into per-cell groups."""
    r = spec.repeats
    if len(records) != len(spec.cells()) * r:
        raise ValueError(
            f"expected {len(spec.cells()) * r} records for this spec, got {len(records)}"
        )
    return [list(records[i : i + r]) for i in range(0, len(records), r)]


def _ci95(values: Sequence[float]) -> float:
    if len(values) < 2 or len(set(values)) == 1:
        return 0.0
    return 1.96 * float(np.std(values, ddof=1)) / sqrt(len(values))


def _cell_columns(config: dict) -> tuple[str, int, float, float, float]:
    """(topology tag, connectivity k, C_r, C_f, epsilon) as written to the CSV outputs."""
    kind = parse_topology(config["topology"])[0]
    return kind, SimConfig(**config).connectivity(), config["C_r"], config["C_f"], config["epsilon"]


@dataclass
class CellSummary:
    """Aggregate statistics over the repeated trials of one parameter cell."""

    topology: str
    k: int
    C_r: float
    C_f: float
    epsilon: float
    mean_error: float
    ci95: float
    mean_terminal_tick: float
    consensus_fraction: float
    trial_errors: tuple[float, ...]
    degenerate: bool  # single-trial cell: the CI width is not meaningful

    def describe(self) -> str:
        note = " (single trial)" if self.degenerate else ""
        return (
            f"topology={self.topology} k={self.k} C_r={self.C_r:g} C_f={self.C_f:g} "
            f"epsilon={self.epsilon:g} mean_error={self.mean_error:.4f} "
            f"ci95={self.ci95:.4f} mean_terminal_tick={self.mean_terminal_tick:.0f} "
            f"consensus={self.consensus_fraction:.2f}{note}"
        )


def aggregate(grouped: Sequence[Sequence[RunRecord]]) -> list[CellSummary]:
    """Per-cell mean steady-state error, 95% CI, timing and consensus rate."""
    summaries = []
    for records in grouped:
        if not records:
            raise ValueError("cannot aggregate an empty cell group")
        errors = [r.steady_state_error for r in records]
        summaries.append(
            CellSummary(
                *_cell_columns(records[0].config),
                mean_error=float(np.mean(errors)),
                ci95=_ci95(errors),
                mean_terminal_tick=float(np.mean([r.terminal_tick for r in records])),
                consensus_fraction=float(np.mean([r.converged for r in records])),
                trial_errors=tuple(errors),
                degenerate=len(records) == 1,
            )
        )
    return summaries


def mean_trajectories(
    grouped: Sequence[Sequence[RunRecord]], sample_every: int
) -> list[tuple[str, int, float, float, float, int, float, float]]:
    """Pointwise mean-error trajectory rows for every cell.

    Trajectories are aligned on the shared sampling grid; a run that
    converged early contributes its final error to all later ticks.

    Each cell is reduced in one pass over its grid ticks, with ``aggregate``'s
    CI rule (0.0 for one trial or equal values). Every grid tick's trials
    are one contiguous row, so numpy sums each in the same order as
    ``np.mean`` and ``np.std`` of that tick alone.
    """
    rows = []
    for records in grouped:
        if not records:
            raise ValueError("cannot aggregate an empty cell group")
        cell = _cell_columns(records[0].config)
        horizon = max(r.terminal_tick for r in records)
        grid_ticks = list(range(0, horizon + 1, sample_every))
        if grid_ticks[-1] != horizon:
            grid_ticks.append(horizon)
        per_run = []
        for r in records:
            sampled_at = np.array([p.tick for p in r.trajectory])
            values = np.array([p.average_error for p in r.trajectory])
            # last sample at or before each grid tick; trajectories start at 0
            idx = np.searchsorted(sampled_at, grid_ticks, side="right") - 1
            per_run.append(values[idx])
        cols = np.ascontiguousarray(np.stack(per_run).T)
        n = len(records)
        if n == 1:
            ci95 = np.zeros(len(grid_ticks))
        else:
            constant = (cols == cols[:, :1]).all(axis=1)
            ci95 = np.where(constant, 0.0, 1.96 * cols.std(axis=1, ddof=1) / np.sqrt(n))
        rows.extend(
            (*cell, t, mean, ci) for t, mean, ci in zip(grid_ticks, cols.mean(axis=1).tolist(), ci95.tolist())
        )
    return rows


def _write_csv(path, columns: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_sweep_results(path, spec: SweepSpec, records: Sequence[RunRecord]) -> None:
    """Per-trial rows in expand() order."""
    _write_csv(path, SWEEP_RESULTS_COLUMNS, (
        [
            *_cell_columns(r.config), position % spec.repeats, r.config["seed"],
            r.steady_state_error, r.terminal_tick, "true" if r.converged else "false",
        ]
        for position, r in enumerate(records)
    ))


def write_cell_summary(path, summaries: Iterable[CellSummary]) -> None:
    _write_csv(path, CELL_SUMMARY_COLUMNS, (
        [
            s.topology, s.k, s.C_r, s.C_f, s.epsilon,
            s.mean_error, s.ci95, s.mean_terminal_tick, s.consensus_fraction,
        ]
        for s in summaries
    ))


def write_trajectories(path, rows: Iterable[tuple]) -> None:
    _write_csv(path, TRAJECTORY_COLUMNS, rows)
