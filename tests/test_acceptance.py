"""Acceptance suite: the quantitative anchors and property gates.

Each criterion runs at reference scale (20 agents, 126 cells, up to
30,000 ticks, 50 seeds per cell) and prints one PASS/FAIL line directly
to the terminal. The whole module takes several minutes on one core.
"""

import numpy as np

from hexswarm.belief import (
    FALSE,
    TRUE,
    UNKNOWN,
    Belief,
    TruthValue,
    fuse_value,
    is_evidence,
    uncertain_indices,
    update_with_evidence,
)
from hexswarm import engine
from hexswarm.engine import SimConfig, average_error, initialize, tick
from hexswarm.environment import NoiseModel, observe, sample_ground_truth
from hexswarm.experiment import SweepSpec, aggregate, group_by_cell, run_sweep
from hexswarm.network import complete_graph, eligible_edges, physical_edges, ring_lattice

REPEATS = 50
BASE = dict(m=20, hex_disc_radius=6, max_ticks=30_000, sample_every=100, repeats=REPEATS)


def sweep_cells(**kwargs):
    spec = SweepSpec(**{**BASE, **kwargs})
    records = run_sweep(spec, workers=1)
    return spec, aggregate(group_by_cell(spec, records))


def report(capsys, number, name, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"\n[{verdict}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_asocial_baseline(capsys):
    # With communication off, steady-state error should sit at the noise level.
    spec, cells = sweep_cells(
        topology=["complete"], C_r=[20.0], C_f=[0.0], epsilon=[0.1, 0.3], base_seed=101
    )
    deviations = {c.epsilon: abs(c.mean_error - c.epsilon) for c in cells}
    detail = ", ".join(
        f"eps={c.epsilon:g}: mean={c.mean_error:.4f} (|delta|={deviations[c.epsilon]:.4f})"
        for c in cells
    )
    report(capsys, 1, "asocial baseline", all(d <= 0.03 for d in deviations.values()), detail)


def test_criterion_2_noise_free_learning(capsys):
    spec, cells = sweep_cells(
        topology=["complete"], C_r=[20.0], C_f=[0.1], epsilon=[0.0], base_seed=102
    )
    (cell,) = cells
    passed = cell.mean_error <= 0.02 and cell.consensus_fraction >= 0.9
    detail = f"mean_error={cell.mean_error:.4f}, consensus_fraction={cell.consensus_fraction:.2f}"
    report(capsys, 2, "noise-free learning", passed, detail)


def test_criterion_3_error_correction_below_noise(capsys):
    spec, cells = sweep_cells(
        topology=["complete"], C_r=[20.0], C_f=[0.025], epsilon=[0.3], base_seed=103
    )
    (cell,) = cells
    upper = cell.mean_error + cell.ci95
    passed = cell.mean_error < 0.3 and upper < 0.3
    detail = f"mean_error={cell.mean_error:.4f}, CI upper={upper:.4f} (noise 0.3)"
    report(capsys, 3, "error correction below noise", passed, detail)


def test_criterion_4_less_is_more(capsys):
    spec, cells = sweep_cells(
        topology=["lattice:2", "lattice:4", "lattice:8", "lattice:16"],
        C_r=[20.0], C_f=[1.0], epsilon=[0.3], base_seed=104,
    )
    by_k = {c.k: c.mean_error for c in cells}
    ks = [2, 4, 8, 16]
    increasing = all(by_k[a] < by_k[b] for a, b in zip(ks, ks[1:]))
    ratio = by_k[2] / by_k[16]
    passed = increasing and ratio <= 0.5
    detail = (
        ", ".join(f"k={k}: {by_k[k]:.4f}" for k in ks)
        + f"; strictly increasing={increasing}, error(2)/error(16)={ratio:.3f}"
    )
    report(capsys, 4, "less-is-more ordering", passed, detail)


def test_criterion_5_convergence_time_tradeoff(capsys):
    spec, cells = sweep_cells(
        topology=["lattice:2", "lattice:16"],
        C_r=[20.0], C_f=[0.2], epsilon=[0.3], base_seed=105,
    )
    by_k = {c.k: c for c in cells}
    slower = by_k[2].mean_terminal_tick > by_k[16].mean_terminal_tick
    better = by_k[2].mean_error < by_k[16].mean_error
    detail = (
        f"k=2: tick={by_k[2].mean_terminal_tick:.0f} err={by_k[2].mean_error:.4f}; "
        f"k=16: tick={by_k[16].mean_terminal_tick:.0f} err={by_k[16].mean_error:.4f}"
    )
    report(capsys, 5, "convergence-time trade-off", slower and better, detail)


def test_criterion_6_physical_layer_flatness(capsys):
    spec, cells = sweep_cells(
        topology=["complete"], C_r=[20.0, 60.0, 100.0], C_f=[0.1], epsilon=[0.1], base_seed=106
    )
    errors = {c.C_r: c.mean_error for c in cells}
    spread = max(errors.values()) - min(errors.values())
    detail = ", ".join(f"C_r={r:g}: {e:.4f}" for r, e in errors.items()) + f"; spread={spread:.4f}"
    report(capsys, 6, "physical-layer flatness", spread <= 0.05, detail)


class TestCriterion7Properties:
    """Exhaustive/randomized property gates, all at zero tolerance."""

    def test_fusion_operator_laws(self, capsys):
        table = {
            (FALSE, FALSE): FALSE, (FALSE, UNKNOWN): FALSE, (FALSE, TRUE): UNKNOWN,
            (UNKNOWN, FALSE): FALSE, (UNKNOWN, UNKNOWN): UNKNOWN, (UNKNOWN, TRUE): TRUE,
            (TRUE, FALSE): UNKNOWN, (TRUE, UNKNOWN): TRUE, (TRUE, TRUE): TRUE,
        }
        ok = all(fuse_value(a, b) is expected for (a, b), expected in table.items())
        ok &= all(fuse_value(a, b) is fuse_value(b, a) for a in TruthValue for b in TruthValue)
        ok &= all(fuse_value(a, a) is a and fuse_value(a, UNKNOWN) is a for a in TruthValue)
        ok &= fuse_value(TRUE, FALSE) is UNKNOWN and fuse_value(FALSE, TRUE) is UNKNOWN
        report(capsys, 7, "fusion operator laws", ok, "9-case table, commutativity, "
               "idempotence, identity, disagreement")

    def test_evidence_form_and_locality(self, capsys):
        rng = np.random.default_rng(1234)
        truth = sample_ground_truth(126, rng)
        ok = True
        for _ in range(2000):
            i = int(rng.integers(126)) + 1
            eps = float(rng.choice([0.0, 0.1, 0.3, 0.5]))
            evidence = observe(i, truth, NoiseModel(eps), rng)
            ok &= is_evidence(evidence)
            ok &= uncertain_indices(evidence) == set(range(1, 127)) - {i}
            belief = Belief(rng.integers(0, 3, size=126))
            updated = update_with_evidence(belief, evidence)
            ok &= bool(np.all(np.delete(updated.codes, i - 1) == np.delete(belief.codes, i - 1)))
        report(capsys, 7, "evidence form and locality", ok, "2000 randomized observations")

    def test_eligible_edge_containment_and_monotonicity(self, capsys):
        rng = np.random.default_rng(99)
        ok = True
        for _ in range(300):
            m = int(rng.integers(4, 21))
            pts = rng.uniform(-100, 100, size=(m, 2))
            r_small, r_large = sorted(rng.uniform(1, 120, size=2))
            small = physical_edges(pts, r_small)
            large = physical_edges(pts, r_large)
            ok &= small <= large
            network = ring_lattice(m, 2) if rng.random() < 0.5 else complete_graph(m)
            broadcasting = {int(i) for i in rng.choice(m, size=m // 2, replace=False)}
            elig = eligible_edges(large, network, broadcasting)
            ok &= elig <= large and elig <= network.edges
            ok &= all(i in broadcasting and j in broadcasting for i, j in elig)
        report(capsys, 7, "eligible-edge containment and monotonicity", ok, "300 random layouts")

    def test_matching_validity_per_tick(self, capsys, monkeypatch):
        config = SimConfig(m=20, hex_disc_radius=2, C_r=60.0, C_f=1.0,
                           epsilon=0.3, max_ticks=500, seed=31)
        # The fusion phase calls engine.on_fusion once for each agent of a pair.
        seen, on_fusion = [], engine.on_fusion

        def noting(agent, *args):
            seen.append(agent.id)
            return on_fusion(agent, *args)

        monkeypatch.setattr(engine, "on_fusion", noting)
        state = initialize(config)
        ok = True
        for _ in range(500):
            seen.clear()
            fused = state.fusion_events
            tick(state)
            ok &= len(seen) == len(set(seen)) == 2 * (state.fusion_events - fused)
        report(capsys, 7, "matching validity per tick", ok, "500 ticks, no agent fused twice")

    def test_initialization_error_exactly_half(self, capsys):
        state = initialize(SimConfig(seed=8))
        err = average_error([a.belief for a in state.agents], state.truth)
        report(capsys, 7, "initialization error exactly 0.5", err == 0.5, f"error={err!r}")

    def test_bit_exact_determinism_across_workers(self, capsys):
        spec_kwargs = dict(
            topology=["complete"], C_r=[30.0], C_f=[0.3], epsilon=[0.1],
            repeats=4, base_seed=55, m=6, hex_disc_radius=2,
            max_ticks=2000, sample_every=100,
        )
        records_1 = run_sweep(SweepSpec(**spec_kwargs), workers=1)
        records_8 = run_sweep(SweepSpec(**spec_kwargs), workers=8)
        ok = [r.to_json() for r in records_1] == [r.to_json() for r in records_8]
        report(capsys, 7, "bit-exact determinism, workers 1 vs 8", ok,
               f"{len(records_1)} runs compared byte for byte")
