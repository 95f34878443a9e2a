"""Tests for sweep expansion, aggregation and CSV output."""

import csv
import dataclasses
import math
from itertools import product

import numpy as np
import pytest
import reference_model
from hypothesis import given
from hypothesis import strategies as st

from hexswarm import experiment
from hexswarm.engine import RunRecord, SimConfig, TrajectoryPoint
from hexswarm.errors import ConfigError
from hexswarm.experiment import (
    AXES,
    CELL_SUMMARY_COLUMNS,
    SWEEP_RESULTS_COLUMNS,
    TRAJECTORY_COLUMNS,
    SweepSpec,
    aggregate,
    derive_seed,
    expand,
    group_by_cell,
    mean_trajectories,
    run_sweep,
    write_cell_summary,
    write_sweep_results,
    write_trajectories,
)

TINY = dict(m=4, hex_disc_radius=1, max_ticks=400, sample_every=50)


def fake_record(topology="complete", m=4, C_r=20.0, C_f=0.1, epsilon=0.1, seed=1,
                errors=(0.5, 0.2), terminal=100, converged=False):
    # Rows evenly spaced from tick 0, the last at the terminal tick.
    last = len(errors) - 1
    trajectory = [TrajectoryPoint(t * terminal // last if last else terminal, e, 0.0, 0)
                  for t, e in enumerate(errors)]
    config = dict(m=m, hex_disc_radius=1, C_r=C_r, C_f=C_f, epsilon=epsilon,
                  topology=topology, max_ticks=400, speed=5.0, seed=seed, sample_every=50)
    return RunRecord(config=config, trajectory=trajectory, converged=converged)


class TestExpand:
    def test_cartesian_product_count(self):
        spec = SweepSpec(topology=["complete"], C_r=[20, 100], C_f=[0, 1],
                         epsilon=[0.1], repeats=50, **TINY)
        assert len(expand(spec)) == 200

    def test_singletons(self):
        spec = SweepSpec(topology=["complete"], C_r=[20], C_f=[0.1],
                         epsilon=[0.0], repeats=1, **TINY)
        assert len(expand(spec)) == 1

    def test_deterministic_seed_assignment(self):
        spec = SweepSpec(topology=["complete"], C_r=[20, 40], C_f=[0.1],
                         epsilon=[0.0, 0.3], repeats=3, base_seed=17, **TINY)
        seeds_a = [c.seed for c, _ in expand(spec)]
        seeds_b = [c.seed for c, _ in expand(spec)]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)

    def test_trial_order_within_cells(self):
        spec = SweepSpec(topology=["complete"], C_r=[20], C_f=[0.1],
                         epsilon=[0.0, 0.3], repeats=2, **TINY)
        trials = [trial for _, trial in expand(spec)]
        assert trials == [0, 1, 0, 1]
        epsilons = [c.epsilon for c, _ in expand(spec)]
        assert epsilons == [0.0, 0.0, 0.3, 0.3]

    def test_empty_list_rejected(self):
        spec = SweepSpec(topology=[], C_r=[20], C_f=[0.1], epsilon=[0.0], **TINY)
        with pytest.raises(ConfigError, match="topology"):
            expand(spec)

    @pytest.mark.parametrize(
        "field,value",
        [("repeats", 2.5), ("repeats", True), ("base_seed", 1.0), ("base_seed", -1), ("base_seed", 2**64),
         pytest.param("base_seed", -10**5000, id="base_seed--10**5000"), ("repeats", 100_001),
         pytest.param("repeats", 10**5000, id="repeats-10**5000")],
    )
    def test_malformed_repeats_and_base_seed_rejected(self, field, value):
        spec = SweepSpec(**{field: value}, **TINY)
        with pytest.raises(ConfigError, match=field):
            spec.validate()

    def test_upper_bounds_are_inclusive(self):
        # Checked without expanding: 100,000 trials take minutes to run.
        SweepSpec(repeats=100_000, base_seed=2**64 - 1, **TINY).validate()

    @pytest.mark.parametrize(
        "field,value",
        [("m", "abc"), ("speed", float("nan")), ("C_r", [20, float("nan")]), ("topology", [5]),
         ("topology", ["lattice:3"]), ("epsilon", [0.0, 0.7])],
    )
    def test_malformed_cell_or_fixed_field_rejected(self, field, value):
        spec = SweepSpec(**{**TINY, field: value})
        with pytest.raises(ConfigError, match=field):
            spec.validate()

    @pytest.mark.parametrize(
        "field,value",
        [("epsilon", [0.1, 0.1]), ("C_r", [20, 20.0]), ("C_f", [0.0, 0.5, 0]),
         ("topology", ["complete", "lattice:2", "complete"])],
    )
    def test_repeated_value_rejected(self, field, value):
        spec = SweepSpec(**{**TINY, field: value})
        with pytest.raises(ConfigError, match=f"sweep list {field} repeats a value"):
            spec.validate()

    @pytest.mark.parametrize("value", [[True, True], [[20], [20]]])
    def test_entry_type_checked_before_repeats(self, value):
        spec = SweepSpec(**{**TINY, "C_r": value})
        with pytest.raises(ConfigError, match="C_r must be a finite number"):
            spec.validate()

    def test_scalars_normalized_to_lists(self):
        spec = SweepSpec(topology="complete", C_r=20, C_f=0.1, epsilon=0.0,
                         repeats=1, **TINY)
        assert len(expand(spec)) == 1

    def test_every_fixed_setting_reaches_every_cell(self):
        fixed = dict(m=6, hex_disc_radius=2, max_ticks=700, speed=2.5, sample_every=35)
        assert set(fixed) == {f.name for f in dataclasses.fields(SimConfig)} - {*AXES, "seed"}
        assert all(value != getattr(SimConfig, name) for name, value in fixed.items())
        axes = dict(topology=["complete", "lattice:2"], C_r=[15.0, 30.0], C_f=[0.2], epsilon=[0.0, 0.1])
        spec = SweepSpec(**axes, repeats=2, base_seed=3, **fixed)
        assert expand(spec) == [
            (SimConfig(**fixed, topology=t, C_r=c_r, C_f=c_f, epsilon=eps, seed=derive_seed(3, index, trial)), trial)
            for index, (t, c_r, c_f, eps) in enumerate(product(*axes.values()))
            for trial in range(2)
        ]

    def test_default_spec_is_simconfig_default(self):
        spec = SweepSpec()
        (cell,) = spec.cells()
        assert spec.run_config(cell, SimConfig.seed) == SimConfig()

    def test_derive_seed_is_stable(self):
        assert derive_seed(5, 2, 7) == derive_seed(5, 2, 7)
        assert derive_seed(5, 2, 7) != derive_seed(5, 2, 8)
        assert derive_seed(5, 2, 7) != derive_seed(6, 2, 7)


class TestAggregate:
    def test_zero_variance(self):
        records = [fake_record(errors=(0.5, 0.1)) for _ in range(3)]
        (summary,) = aggregate([records])
        assert summary.mean_error == pytest.approx(0.1)
        assert summary.ci95 == 0.0
        assert not summary.degenerate

    def test_hand_computed_ci(self):
        # trials 0.0 and 0.2: sample std dev sqrt(0.02), half-width
        # 1.96 * sqrt(0.02) / sqrt(2) = 0.196
        records = [fake_record(errors=(0.5, 0.0)), fake_record(errors=(0.5, 0.2))]
        (summary,) = aggregate([records])
        assert summary.mean_error == pytest.approx(0.1)
        assert summary.ci95 == pytest.approx(1.96 * math.sqrt(0.02) / math.sqrt(2))
        assert summary.ci95 == pytest.approx(0.196)

    @given(st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 0.5]) | st.floats(0, 1), min_size=1, max_size=200))
    def test_matches_per_cell_reference(self, errors):
        (summary,) = aggregate([[fake_record(errors=(0.5, e)) for e in errors]])
        assert (summary.mean_error, summary.ci95) == (float(np.mean(errors)), reference_model.ci95(errors))

    def test_single_trial_flagged_degenerate(self):
        (summary,) = aggregate([[fake_record()]])
        assert summary.ci95 == 0.0
        assert summary.degenerate

    def test_consensus_fraction_and_terminal(self):
        records = [
            fake_record(converged=True, terminal=100),
            fake_record(converged=False, terminal=300),
        ]
        (summary,) = aggregate([records])
        assert summary.consensus_fraction == 0.5
        assert summary.mean_terminal_tick == 200.0

    def test_complete_topology_k_column(self):
        (summary,) = aggregate([[fake_record(topology="complete", m=20)]])
        assert summary.k == 19
        (summary,) = aggregate([[fake_record(topology="lattice:4", m=20)]])
        assert summary.k == 4

    def test_cell_columns_connectivity(self):
        # k is the interaction-network degree: m-1 when complete.
        config = fake_record(m=20).config
        assert experiment._cell_columns(config)[:2] == ("complete", 19)
        assert experiment._cell_columns({**config, "topology": "lattice:4"})[:2] == ("lattice", 4)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([[]])


class TestMeanTrajectories:
    def test_carry_forward_of_early_convergers(self):
        early = fake_record(errors=(0.5, 0.0), terminal=50, converged=True)
        late = fake_record(errors=(0.5, 0.3, 0.2), terminal=100)
        rows = mean_trajectories([[early, late]], sample_every=50)
        values = {tick: mean for (_, _, _, _, _, tick, mean, _) in rows}
        assert values[0] == 0.5
        # early run holds its final 0.0 at tick 100 while the late one reaches 0.2
        assert values[100] == pytest.approx(0.1)

    def test_grid_includes_terminal(self):
        record = fake_record(errors=(0.5, 0.2), terminal=130)
        rows = mean_trajectories([[record]], sample_every=50)
        ticks = [r[5] for r in rows]
        assert ticks == [0, 50, 100, 130]

    @pytest.mark.filterwarnings("error")
    def test_single_trial_ci_is_zero(self):
        rows = mean_trajectories([[fake_record(errors=(0.5, 0.3, 0.2), terminal=100)]], sample_every=50)
        assert [r[6:] for r in rows] == [(0.5, 0.0), (0.3, 0.0), (0.2, 0.0)]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_tick_reduction(self, seed):
        # Trial counts span numpy's plain (< 8) and pairwise (>= 8) summation.
        # Each cell starts at one shared value, and its trials often repeat
        # one other value: constant ticks whose mean is inexact (0.1, 1/3)
        # have a nonzero computed std, so they test the CI's equal-values rule.
        rng = np.random.default_rng(seed)
        grouped = []
        for repeats in [*range(1, 21), 31, 64, 127, 128, 200]:
            start, repeated = rng.choice([0.5, 0.1, 1 / 3, 0.7], size=2)
            repeat_share = rng.choice([0.0, 0.5, 0.95, 1.0])
            records = []
            for _ in range(repeats):
                terminal = int(rng.integers(0, 400))
                ticks = sorted({*range(0, terminal + 1, 50), terminal})
                errors = np.where(rng.random(len(ticks)) < repeat_share, repeated, rng.random(len(ticks)))
                errors[0] = start
                trajectory = [TrajectoryPoint(t, e, 0.0, 0) for t, e in zip(ticks, errors.tolist())]
                records.append(RunRecord(config=fake_record().config, trajectory=trajectory, converged=False))
            grouped.append(records)
        rows = mean_trajectories(grouped, sample_every=50)
        assert list(map(repr, rows)) == list(map(repr, reference_model.trajectory_rows(grouped, 50)))


@pytest.fixture(scope="module")
def tiny_sweep():
    spec = SweepSpec(topology=["complete"], C_r=[30.0], C_f=[0.0, 0.5],
                     epsilon=[0.0], repeats=2, base_seed=3, **TINY)
    return spec, run_sweep(spec, workers=1)


class TestRunSweepAndCsv:
    def test_order_matches_expand(self, tiny_sweep):
        spec, records = tiny_sweep
        expected = [c.seed for c, _ in expand(spec)]
        assert [r.config["seed"] for r in records] == expected

    def test_reproducible(self, tiny_sweep):
        spec, records = tiny_sweep
        again = run_sweep(spec, workers=1)
        assert [r.to_json() for r in again] == [r.to_json() for r in records]

    def test_parallel_matches_serial(self, tiny_sweep):
        spec, records = tiny_sweep
        parallel = run_sweep(spec, workers=2)
        assert [r.to_json() for r in parallel] == [r.to_json() for r in records]

    @pytest.mark.parametrize("workers,pool_size", [(3, 3), (64, 4)])
    def test_pool_no_larger_than_the_trial_count(self, tiny_sweep, monkeypatch, workers, pool_size):
        spec, records = tiny_sweep
        sizes = []

        class RecordingPool:
            """Records the requested size and runs the trials in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        pooled = run_sweep(spec, workers=workers)
        assert sizes == [pool_size]
        assert [r.to_json() for r in pooled] == [r.to_json() for r in records]

    @pytest.mark.parametrize("workers", [0, 65, pytest.param(10**5000, id="10**5000")])
    def test_worker_count_past_the_bounds_starts_no_pool(self, tiny_sweep, monkeypatch, workers):
        def no_pool(max_workers):
            raise AssertionError("pool built")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match="workers out of range"):
            run_sweep(tiny_sweep[0], workers=workers)

    def test_group_by_cell_shape(self, tiny_sweep):
        spec, records = tiny_sweep
        grouped = group_by_cell(spec, records)
        assert len(grouped) == 2
        assert all(len(g) == 2 for g in grouped)

    def test_csv_schemas(self, tiny_sweep, tmp_path):
        spec, records = tiny_sweep
        grouped = group_by_cell(spec, records)
        write_sweep_results(tmp_path / "sweep_results.csv", spec, records)
        write_cell_summary(tmp_path / "cell_summary.csv", aggregate(grouped))
        write_trajectories(
            tmp_path / "trajectories.csv", mean_trajectories(grouped, spec.sample_every)
        )

        with open(tmp_path / "sweep_results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_RESULTS_COLUMNS
        assert len(rows) == 1 + len(records)
        assert [r[5] for r in rows[1:]] == ["0", "1", "0", "1"]
        assert all(r[9] in ("true", "false") for r in rows[1:])

        with open(tmp_path / "cell_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CELL_SUMMARY_COLUMNS
        assert len(rows) == 3

        with open(tmp_path / "trajectories.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAJECTORY_COLUMNS
        assert len(rows) > 2
