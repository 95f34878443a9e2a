"""The benchmark's tracer (perfbench/tracer.py) wraps hexswarm functions by
module attribute name, and its counting hooks read beliefs through their
int8 ``codes``. A refactor that drops or renames one of those bindings, or
changes what ``codes`` holds, would break the traced benchmark pass; this
catches it here. The tracer also requires one ``tick`` call per tick of a
run, which an idle asocial run must keep."""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from hexswarm import engine
from hexswarm.belief import Belief, GroundTruth, fuse_beliefs
from hexswarm.environment import NoiseModel, observe

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,attr", [(mod, attr) for mod, attr, _ in tracer.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(tracer.hexswarm_modules()[module], attr, None))


def test_collapse_hook_counts_certain_disagreements():
    a = Belief.from_string("01u10u" * 25)
    b = Belief.from_string("10uu01" * 25)
    # Per block of six: two certain disagreements and one certain agreement.
    assert tracer._collapses(a, b) == 50
    assert tracer._collapses(a, a) == 0
    assert tracer._collapses(a, Belief.unknown(len(a))) == 0


def test_fusion_hook_accumulates_collapses():
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    a, b = Belief.from_string("1u0"), Belief.from_string("011")  # collapses at 1 and 3
    tracer._count_fusion(counters, (a, b), fuse_beliefs(a, b))
    tracer._count_fusion(counters, (b, a), fuse_beliefs(b, a))
    assert counters["belief.contradiction_collapses"] == 4


def test_observe_hook_counts_noisy_flips():
    truth = GroundTruth.from_bools([True, False] * 70)
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    rng = np.random.default_rng(0)
    for index in (1, 2, 130, 140):
        tracer._count_observe(counters, (index, truth), observe(index, truth, NoiseModel(0.0), rng))
    assert counters["environment.noisy_flips"] == 0
    flips = 0
    for index in range(1, 141):
        evidence = observe(index, truth, NoiseModel(0.5), rng)
        flips += evidence.value_at(index) is not truth.value_at(index)
        tracer._count_observe(counters, (index, truth), evidence)
    assert 0 < flips < 140
    assert counters["environment.noisy_flips"] == flips


def test_idle_asocial_run_keeps_traced_counts(tmp_path):
    # An asocial run that goes idle still calls tick once per tick, so the
    # traced run agrees with its record (check_run) and counts the same
    # ticks, arrivals and flips as the same run kept on the full path.
    config = engine.SimConfig(m=6, hex_disc_radius=2, C_f=0.0, epsilon=0.1, max_ticks=2000, seed=3)
    runs = []
    with tracer.Tracer(tmp_path) as traced:
        for on_tick in (None, lambda state, sampled: None):
            before = traced.snapshot()
            start = time.perf_counter_ns()
            record = engine.run(config, on_tick)
            wall = time.perf_counter_ns() - start
            dstats, dcounters = traced.delta(before)
            summary = tracer.run_summary(dstats, wall, record.terminal_tick, record.trajectory[-1].fusion_events, True)
            assert tracer.check_run(summary) == []
            runs.append((record.to_json(), summary["calls"], dcounters))
    (idle_json, idle_calls, idle_counters), (full_json, full_calls, full_counters) = runs
    assert idle_json == full_json
    assert idle_calls["engine.tick"] == json.loads(idle_json)["summary"]["terminal_tick"] == config.max_ticks
    for name in ("engine.tick", "agent.on_arrival", "environment.observe", "belief.update_with_evidence"):
        assert idle_calls[name] == full_calls[name], name
    assert idle_counters == full_counters
