"""Tests for sweep expansion, aggregation and CSV output."""

import csv
import math

import pytest

from hexswarm.engine import RunRecord, TrajectoryPoint
from hexswarm.errors import ConfigError
from hexswarm.experiment import (
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
    trajectory = [
        TrajectoryPoint(t * terminal // (len(errors) - 1) if len(errors) > 1 else 0, e, 0.0, 0)
        for t, e in enumerate(errors)
    ]
    config = dict(m=m, hex_disc_radius=1, C_r=C_r, C_f=C_f, epsilon=epsilon,
                  topology=topology, max_ticks=400, speed=5.0, seed=seed, sample_every=50)
    return RunRecord(config=config, trajectory=trajectory, terminal_tick=terminal,
                     converged=converged, steady_state_error=errors[-1])


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
        "field,value", [("repeats", 2.5), ("repeats", True), ("base_seed", 1.0), ("base_seed", -1)]
    )
    def test_malformed_repeats_and_base_seed_rejected(self, field, value):
        spec = SweepSpec(**{field: value}, **TINY)
        with pytest.raises(ConfigError, match=field):
            spec.validate()

    def test_scalars_normalized_to_lists(self):
        spec = SweepSpec(topology="complete", C_r=20, C_f=0.1, epsilon=0.0,
                         repeats=1, **TINY)
        assert len(expand(spec)) == 1

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

    def test_single_trial_flagged_degenerate(self):
        (summary,) = aggregate([[fake_record()]])
        assert summary.ci95 == 0.0
        assert summary.degenerate

    def test_mean_within_trial_range(self):
        records = [fake_record(errors=(0.5, e)) for e in (0.05, 0.2, 0.35)]
        (summary,) = aggregate([records])
        assert min(summary.trial_errors) <= summary.mean_error <= max(summary.trial_errors)

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
