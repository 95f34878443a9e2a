"""Parameter sweeps: repeated seeded runs, aggregation, CSV output.

A sweep is the Cartesian product of topology, C_r, C_f and epsilon value
lists (``AXES``), each cell repeated ``repeats`` times. Its fixed settings
and the axes' defaults are ``SimConfig``'s. Every (cell, trial) pair gets
its own seed derived through a stable hash of (base_seed, cell index,
trial index), so re-running a sweep reproduces every trial exactly and the
result is independent of how many workers execute it.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .engine import RunRecord, SimConfig, parse_topology, run
from .errors import ConfigError, check

# The run settings a sweep crosses, in cell order.
AXES = ("topology", "C_r", "C_f", "epsilon")
# The run settings a sweep holds fixed: every other one but the seed.
_FIXED = tuple(f.name for f in fields(SimConfig) if f.name not in AXES and f.name != "seed")

CELL_COLUMNS = ["topology", "k", "C_r", "C_f", "epsilon"]
SWEEP_RESULTS_COLUMNS = [*CELL_COLUMNS, "trial", "seed", "steady_state_error", "terminal_tick", "converged"]
CELL_SUMMARY_COLUMNS = [*CELL_COLUMNS, "mean_error", "ci95", "mean_terminal_tick", "consensus_fraction"]
TRAJECTORY_COLUMNS = [*CELL_COLUMNS, "tick", "mean_error", "ci95"]


@dataclass
class SweepSpec:
    """A grid of parameter cells plus the fixed single-run settings. Each
    fixed setting defaults to ``SimConfig``'s default, and each axis to a
    one-value list of it; a scalar axis value is taken as a one-value list."""

    topology: list[str] = field(default_factory=lambda: [SimConfig.topology])
    C_r: list[float] = field(default_factory=lambda: [SimConfig.C_r])
    C_f: list[float] = field(default_factory=lambda: [SimConfig.C_f])
    epsilon: list[float] = field(default_factory=lambda: [SimConfig.epsilon])
    repeats: int = 50
    base_seed: int = 0
    m: int = SimConfig.m
    hex_disc_radius: int = SimConfig.hex_disc_radius
    max_ticks: int = SimConfig.max_ticks
    speed: float = SimConfig.speed
    sample_every: int = SimConfig.sample_every

    def __post_init__(self):
        for name in AXES:
            value = getattr(self, name)
            setattr(self, name, list(value) if isinstance(value, (list, tuple)) else [value])

    def validate(self) -> None:
        for name in AXES:
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
        for name in AXES:
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep list {name} repeats a value: {values!r}")

    def cells(self) -> list[tuple[str, float, float, float]]:
        """Parameter cells in deterministic ``AXES`` order."""
        return list(product(*(getattr(self, name) for name in AXES)))

    def run_config(self, cell: tuple[str, float, float, float], seed: int) -> SimConfig:
        """The single-run config of one cell of this sweep, with ``seed``."""
        return SimConfig(**{name: getattr(self, name) for name in _FIXED}, **dict(zip(AXES, cell)), seed=seed)


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
    check("workers", workers)
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


def _mean_ci95(cols: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and 95% CI half-width of each row of a (rows, trials) array. The
    half-width is 0.0 for one trial or a row of equal values. Each row is
    contiguous, so numpy sums it in the same order as ``np.mean`` and
    ``np.std`` of that row alone."""
    n = cols.shape[1]
    if n == 1:
        ci95 = np.zeros(len(cols))
    else:
        constant = (cols == cols[:, :1]).all(axis=1)
        ci95 = np.where(constant, 0.0, 1.96 * cols.std(axis=1, ddof=1) / np.sqrt(n))
    return cols.mean(axis=1).tolist(), ci95.tolist()


def _cell_columns(config: dict) -> tuple[str, int, float, float, float]:
    """(topology tag, connectivity k, C_r, C_f, epsilon) as written to the CSV
    outputs; k is the interaction-network degree, m-1 when complete."""
    kind, k = parse_topology(config["topology"])
    if kind == "complete":
        k = config["m"] - 1
    return kind, k, config["C_r"], config["C_f"], config["epsilon"]


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
        (mean_error,), (ci95,) = _mean_ci95(np.array([errors]))
        summaries.append(
            CellSummary(
                *_cell_columns(records[0].config),
                mean_error=mean_error,
                ci95=ci95,
                mean_terminal_tick=float(np.mean([r.terminal_tick for r in records])),
                consensus_fraction=float(np.mean([r.converged for r in records])),
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

    A cell's grid ticks are reduced at once by ``_mean_ci95``, the mean and
    CI rule of ``aggregate``.
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
        means, ci95 = _mean_ci95(np.ascontiguousarray(np.stack(per_run).T))
        rows.extend((*cell, t, mean, ci) for t, mean, ci in zip(grid_ticks, means, ci95))
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
    _write_csv(path, CELL_SUMMARY_COLUMNS, ([getattr(s, c) for c in CELL_SUMMARY_COLUMNS] for s in summaries))


def write_trajectories(path, rows: Iterable[tuple]) -> None:
    _write_csv(path, TRAJECTORY_COLUMNS, rows)
