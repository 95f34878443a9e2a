"""Tests for the per-tick engine: initialization, pairing, termination."""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
import reference_model
from hypothesis import given, settings
from hypothesis import strategies as st
from run_differential import assert_run_matches_model

from hexswarm import agent as agent_module
from hexswarm import engine
from hexswarm.agent import Mode
from hexswarm.belief import Belief, GroundTruth, uncertain_indices
from hexswarm.engine import (
    SimConfig,
    average_error,
    consensus_reached,
    initialize,
    parse_topology,
    run,
    tick,
)
from hexswarm.environment import CIRCUMRADIUS
from hexswarm.errors import ConfigError
from hexswarm.network import ring_lattice

FAST = dict(m=6, hex_disc_radius=2, C_r=20.0, C_f=0.2, epsilon=0.1, max_ticks=2000, seed=11)


class TestConfig:
    def test_defaults_match_reference_scenario(self):
        config = SimConfig()
        assert config.m == 20
        assert config.hex_disc_radius == 6
        assert config.max_ticks == 30_000
        config.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("m", 1),
            ("hex_disc_radius", 0),
            ("C_r", 0.0),
            ("C_f", 1.2),
            ("C_f", -0.1),
            ("epsilon", 0.6),
            ("max_ticks", 0),
            ("speed", 0.0),
            ("sample_every", 0),
            ("topology", "smallworld"),
            ("topology", "lattice:3"),
            ("topology", "lattice:20"),
            ("topology", 5),
            ("m", True),
            ("C_f", float("inf")),
            ("C_r", 10**400),
            ("m", 1001),
            ("hex_disc_radius", 301),
            ("m", 100_000_000),
            ("hex_disc_radius", 100_000_000),
            # Past Python's 4,300-digit string limit: the message must not
            # print the value.
            pytest.param("m", 10**5000, id="m-10**5000"),
            pytest.param("seed", -10**5000, id="seed--10**5000"),
            pytest.param("seed", 10**5000, id="seed-10**5000"),
            pytest.param("C_r", 10**5000, id="C_r-10**5000"),
            pytest.param("epsilon", 10**5000, id="epsilon-10**5000"),
            pytest.param("topology", 10**5000, id="topology-10**5000"),
            ("seed", 2**64),
            ("max_ticks", 2**64),
            ("sample_every", 2**64),
            pytest.param("max_ticks", 10**5000, id="max_ticks-10**5000"),
            pytest.param("sample_every", 10**5000, id="sample_every-10**5000"),
        ],
    )
    def test_validation_names_the_field(self, field, value):
        config = dataclasses.replace(SimConfig(), **{field: value})
        with pytest.raises(ConfigError, match=re.escape(field)):
            config.validate()

    def test_upper_bounds_are_inclusive(self):
        # Checked without building: initialize at these sizes allocates
        # hundreds of MB.
        SimConfig(m=1000, hex_disc_radius=300).validate()
        SimConfig(m=1000, topology="lattice:998").validate()
        SimConfig(seed=2**64 - 1).validate()
        SimConfig(max_ticks=2**64 - 1, sample_every=2**64 - 1).validate()

    def test_parse_topology(self):
        assert parse_topology("complete") == ("complete", None)
        assert parse_topology("lattice:8") == ("lattice", 8)
        for tag in ("lattice:x", "lattice:", "lattice:+2", "lattice:2_0", "lattice:\u0662", "lattice: 2",
                    "lattice:02", "lattice:002", "lattice:" + "1" * 5000):
            with pytest.raises(ConfigError):
                parse_topology(tag)


class TestInitialize:
    def test_reference_scale(self):
        state = initialize(SimConfig(seed=3))
        assert len(state.agents) == 20
        assert state.grid.n == 126
        assert average_error([a.belief for a in state.agents], state.truth) == 0.5

    def test_agents_start_at_launch_fully_uncertain(self):
        state = initialize(SimConfig(**FAST))
        for agent in state.agents:
            assert (agent.x, agent.y) == (0.0, 0.0)
            assert agent.belief.certainty() == 0
            assert agent.mode is Mode.EXPLORING
            assert 1 <= agent.dest <= state.grid.n

    def test_lattice_topology_applied(self):
        state = initialize(SimConfig(m=20, hex_disc_radius=2, topology="lattice:2", seed=0))
        assert state.network.upper == ring_lattice(20, 2).upper

    def test_same_seed_identical_state(self):
        a = initialize(SimConfig(**FAST))
        b = initialize(SimConfig(**FAST))
        assert a.truth == b.truth
        for agent_a, agent_b in zip(a.agents, b.agents):
            assert (agent_a.x, agent_a.y) == (agent_b.x, agent_b.y)
            assert agent_a.dest == agent_b.dest
            assert agent_a.belief == agent_b.belief


def force_broadcasters(state, ids, position=(0.0, 0.0)):
    """Put the given agents in broadcasting mode at one spot; park the rest
    exploring far away, over a thousand units from their drawn targets, so
    that they neither arrive nor broadcast on the next tick."""
    for agent in state.agents:
        if agent.id in ids:
            agent.mode = Mode.BROADCASTING
            agent.x, agent.y = position
        else:
            agent.x, agent.y = 900.0, 900.0
            agent.mode = Mode.EXPLORING


def noting_pairs(monkeypatch):
    """Wrap ``engine.on_fusion`` to note each fused pair (i, j), in the order
    the fusion phase forms them, in the list returned: the phase calls it
    for i and then for its partner j."""
    pairs, halves, real = [], [], engine.on_fusion

    def noting(agent, partner_belief, rng):
        halves.append(agent.id)
        if len(halves) == 2:
            pairs.append(tuple(halves))
            halves.clear()
        return real(agent, partner_belief, rng)

    monkeypatch.setattr(engine, "on_fusion", noting)
    return pairs


class TestTickPairing:
    def test_two_broadcasters_fuse_once(self, monkeypatch):
        pairs = noting_pairs(monkeypatch)
        state = initialize(SimConfig(**FAST))
        force_broadcasters(state, {0, 1})
        tick(state)
        assert state.fusion_events == 1
        assert pairs == [(0, 1)]

    def test_three_broadcasters_exactly_one_pair(self, monkeypatch):
        # Under greedy seeded matching the first visited agent pairs with one
        # of the other two; the third then has no unmatched partner left.
        pairs = noting_pairs(monkeypatch)
        for seed in range(10):
            config = SimConfig(**{**FAST, "seed": seed})
            state = initialize(config)
            force_broadcasters(state, {0, 1, 2})
            pairs.clear()
            tick(state)
            assert state.fusion_events == 1
            [(i, j)] = pairs
            remaining = {0, 1, 2} - {i, j}
            assert len(remaining) == 1
            leftover = state.agents[remaining.pop()]
            assert leftover.mode is Mode.BROADCASTING

    def test_no_broadcasters_no_fusion(self):
        state = initialize(SimConfig(**FAST))
        tick(state)
        assert state.fusion_events == 0

    def test_matching_is_valid_each_tick(self, monkeypatch):
        config = SimConfig(m=10, hex_disc_radius=2, C_r=40.0, C_f=1.0, epsilon=0.3,
                           max_ticks=300, seed=5)
        pairs = noting_pairs(monkeypatch)
        state = initialize(config)
        for _ in range(300):
            pairs.clear()
            fused = state.fusion_events
            tick(state)
            flattened = [i for pair in pairs for i in pair]
            assert len(flattened) == len(set(flattened))
            assert len(pairs) == state.fusion_events - fused
        assert state.fusion_events

    def test_interaction_layer_gates_fusion(self):
        # Broadcasting agents 0 and 5 are not lattice-adjacent in a k=2 ring
        # of 10, so proximity alone must not let them fuse.
        config = SimConfig(m=10, hex_disc_radius=2, topology="lattice:2",
                           C_r=20.0, C_f=0.2, epsilon=0.0, max_ticks=10, seed=2)
        state = initialize(config)
        force_broadcasters(state, {0, 5})
        tick(state)
        assert state.fusion_events == 0
        assert state.agents[0].mode is Mode.BROADCASTING

    def test_asocial_runs_never_fuse_even_when_saturated(self):
        config = SimConfig(m=4, hex_disc_radius=1, C_r=200.0, C_f=0.0,
                           epsilon=0.0, max_ticks=1500, seed=7)
        state = initialize(config)
        for _ in range(1500):
            tick(state)
            assert state.fusion_events == 0
        assert all(a.mode is Mode.SATURATED for a in state.agents)


CELL_SPACING = math.sqrt(3) * CIRCUMRADIUS


class TestFusionPhaseMatchesEdgeSetReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_single_phase(self, data):
        m = data.draw(st.integers(2, 14))
        topology = data.draw(st.sampled_from(["complete"] + [f"lattice:{k}" for k in range(2, m - 1, 2)]))
        config = SimConfig(m=m, hex_disc_radius=2, topology=topology,
                           C_r=data.draw(st.sampled_from([CELL_SPACING, 20.0, 35.0])),
                           seed=data.draw(st.integers(0, 2**32 - 1)))
        state = initialize(config)
        n = state.grid.n
        # Cell centers put many pairs at exactly the cell spacing apart.
        centers = [(0.0, 0.0)] + [state.grid.center_of(i) for i in range(1, n + 1)]
        spot = st.one_of(st.sampled_from(centers), st.tuples(st.floats(-40, 40), st.floats(-40, 40)))
        # Only states an engine path makes: saturated exactly when the belief
        # is certain, with a waypoint or none yet; any other agent heads for
        # one of its Unknown propositions. Saturated agents often agree.
        certain = st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n)
        beliefs = st.just(data.draw(certain)) | certain | st.lists(st.integers(0, 2), min_size=n, max_size=n)
        for agent in state.agents:
            agent.x, agent.y = data.draw(spot)
            agent.belief = Belief(data.draw(beliefs))
            if agent.belief.is_certain():
                agent.mode, agent.dest = Mode.SATURATED, data.draw(st.none() | st.integers(1, n))
            else:
                agent.mode = data.draw(st.sampled_from([Mode.EXPLORING, Mode.BROADCASTING]))
                agent.dest = data.draw(st.sampled_from(sorted(uncertain_indices(agent.belief))))
        broadcasters = [a.id for a in state.agents if a.mode is not Mode.EXPLORING]
        expected = copy.deepcopy(state)
        expected.rng = np.random.default_rng()
        expected.rng.bit_generator.state = state.rng.bit_generator.state

        expected.last_fusions = []
        with pytest.MonkeyPatch.context() as patch:
            pairs = noting_pairs(patch)
            engine._run_fusion_phase(state)
        if len(broadcasters) < 2:
            # No pair to find: nothing is drawn and nothing fuses.
            assert state.rng.bit_generator.state == expected.rng.bit_generator.state
            assert state.fusion_events == 0 and pairs == []
        reference_model.fusion_phase(expected, broadcasters)
        assert pairs == expected.last_fusions
        assert state.fusion_events == expected.fusion_events
        assert state.rng.bit_generator.state == expected.rng.bit_generator.state
        assert [a.log_line(0) for a in state.agents] == [a.log_line(0) for a in expected.agents]
        assert [a.dest for a in state.agents] == [a.dest for a in expected.agents]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m=10, topology="lattice:2", C_f=1.0, epsilon=0.3, seed=3),
            dict(m=12, topology="complete", C_r=CELL_SPACING, C_f=0.5, epsilon=0.1, seed=8),
            dict(m=9, topology="lattice:4", C_r=35.0, C_f=0.2, epsilon=0.0, seed=21),
            # Nearly every pair is eligible on every tick.
            dict(m=12, topology="complete", C_r=100.0, C_f=1.0, epsilon=0.1, seed=5),
        ],
    )
    def test_whole_run(self, overrides):
        config = SimConfig(hex_disc_radius=2, max_ticks=1500, sample_every=10, **overrides)
        record, _ = assert_run_matches_model(config)
        assert record["summary"]["fusion_events"] > 0


class TestRunMatchesTwoLoopReference:
    @pytest.mark.parametrize(
        "overrides,converges",
        [
            (dict(m=4, hex_disc_radius=1, C_f=0.0, epsilon=0.0, seed=21), True),
            (dict(m=4, hex_disc_radius=1, C_f=0.0, epsilon=0.0, seed=5, sample_every=1), True),
            (dict(m=6, hex_disc_radius=2, C_f=0.2, epsilon=0.1, seed=11), True),
            (dict(m=5, hex_disc_radius=2, C_r=25.0, C_f=0.5, epsilon=0.3, topology="lattice:2", seed=2024,
                  sample_every=1), True),
            (dict(m=10, hex_disc_radius=2, C_f=1.0, epsilon=0.3, topology="lattice:2", seed=3), True),
            (dict(m=7, hex_disc_radius=2, C_f=0.1, speed=1.3, seed=4), True),
            (dict(m=8, hex_disc_radius=2, C_r=40.0, C_f=0.1, speed=17.0, seed=9, sample_every=7), True),
            (dict(seed=42), True),
            (dict(m=5, hex_disc_radius=2, C_f=0.0, epsilon=0.3, seed=7, max_ticks=1237), False),
            # Idles to max_ticks with a row on every tick: the model samples
            # each row afresh, while run fills the idle tail's rows from one sample.
            (dict(m=5, hex_disc_radius=2, C_f=0.0, epsilon=0.3, seed=7, max_ticks=1237, sample_every=1), False),
        ],
    )
    def test_record_bytes(self, overrides, converges):
        config = SimConfig(**{"max_ticks": 5000, "sample_every": 50, **overrides})
        record, _ = assert_run_matches_model(config)
        assert record["summary"]["converged"] is converges
        if not converges:
            assert record["summary"]["terminal_tick"] == config.max_ticks


@st.composite
def small_configs(draw):
    m = draw(st.integers(2, 8))
    topology = draw(st.sampled_from(["complete"] + (["lattice:2"] if m >= 4 else [])))
    return SimConfig(m=m, hex_disc_radius=draw(st.integers(1, 2)), topology=topology,
                     C_r=draw(st.sampled_from([CELL_SPACING, 20.0, 40.0])),
                     C_f=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                     epsilon=draw(st.sampled_from([0.0, 0.1, 0.3])),
                     speed=draw(st.sampled_from([1.3, 5.0, 17.0])),
                     max_ticks=400, seed=draw(st.integers(0, 2**32 - 1)))


class TestConvergenceSkip:
    @settings(max_examples=60, deadline=None)
    @given(config=small_configs())
    def test_quiet_ticks_change_no_mode_or_belief(self, config):
        # run() checks convergence only after a tick with an arrival or a
        # fusion; that is exact only while nothing else changes a mode or a
        # belief.
        previous, fused = [], [0]

        def on_tick(state, sampled):
            current = [(a.mode, a.belief) for a in state.agents]
            if state.tick_index and not state.last_arrivals and state.fusion_events == fused[0]:
                assert current == previous, f"tick {state.tick_index}"
            previous[:] = current
            fused[0] = state.fusion_events

        run(config, on_tick)

    @settings(max_examples=60, deadline=None)
    @given(config=small_configs())
    def test_ticks_without_an_informative_fusion_change_no_belief(self, config):
        # run() checks convergence only after a tick with an arrival or a
        # fusion of different beliefs (informative_fusion). That is exact
        # only while a tick with neither changes no belief and saturates no
        # agent; and the flag is set only when a fusion changed a belief.
        previous = []

        def on_tick(state, sampled):
            current = [(a.mode is Mode.SATURATED, a.belief) for a in state.agents]
            if state.tick_index and not state.last_arrivals:
                changed = [new != old for (_, old), (_, new) in zip(previous, current)]
                assert any(changed) is state.informative_fusion, f"tick {state.tick_index}"
                if not state.informative_fusion:
                    became = [not was and now for (was, _), (now, _) in zip(previous, current)]
                    assert not any(became), f"tick {state.tick_index}"
            previous[:] = current

        run(config, on_tick)


class TestTracerCallCounts:
    """The call-count equalities the benchmark's tracer (``check_run`` in
    perfbench/tracer.py) demands of every traced run, checked on untraced
    runs, so a fast path that stops calling one of these fails here too."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(topology="lattice:2", C_f=1.0, epsilon=0.3, seed=0),
            dict(topology="lattice:2", C_f=1.0, epsilon=0.3, seed=1),
            dict(topology="complete", C_f=0.1, seed=0),
            dict(topology="complete", C_f=0.1, epsilon=0.1, seed=2),
        ],
    )
    def test_counts(self, monkeypatch, overrides):
        calls = dict.fromkeys(["on_arrival", "observe", "update_with_evidence", "tick"], 0)
        for module, name in [(engine, "on_arrival"), (engine, "tick"), (agent_module, "observe"),
                             (agent_module, "update_with_evidence")]:
            def counted(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        # One entry per on_fusion call: whether it is a no-op half, a
        # saturated agent fused with its own certain belief.
        fusion_halves = []
        real_fusion = engine.on_fusion

        def noting_fusion(agent, partner_belief, rng):
            own = agent.belief
            fusion_halves.append(agent.mode is Mode.SATURATED and own.is_certain() and own == partner_belief)
            return real_fusion(agent, partner_belief, rng)

        monkeypatch.setattr(engine, "on_fusion", noting_fusion)
        record = run(SimConfig(max_ticks=3000, **overrides))
        assert any(fusion_halves)
        assert len(fusion_halves) == 2 * record.trajectory[-1].fusion_events
        assert calls["observe"] == calls["update_with_evidence"] == calls["on_arrival"] > 0
        assert calls["tick"] == record.terminal_tick


class TestIdleMatchesFullPath:
    @pytest.mark.parametrize(
        "overrides,idles",
        [
            # eps=0: every saturated agent knows the truth, so the run
            # converges at the last saturation and never idles.
            (dict(m=4, hex_disc_radius=1, epsilon=0.0, seed=21), False),
            # eps>0: saturates at tick 156, idles to max_ticks.
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3), True),
            # sample_every does not divide max_ticks; saturates at tick 146.
            (dict(m=5, hex_disc_radius=2, epsilon=0.3, seed=7, max_ticks=1237, sample_every=50), True),
            # max_ticks ends the run before the saturation tick (156).
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, max_ticks=120), False),
            # C_f > 0: saturated agents broadcast, so the run never idles.
            (dict(m=6, hex_disc_radius=2, C_f=0.2, epsilon=0.1, seed=11), False),
            # Idle boundaries of the seed-3 run above, which goes idle at tick
            # 156: on a row (156 = 13 * 12); one tick after a row, so the
            # tail's first row is a fresh sample; a row on every tick; no row
            # before max_ticks; no tail; a one-tick tail.
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, sample_every=12), True),
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, sample_every=155), True),
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, sample_every=1), True),
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, sample_every=5000), True),
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, max_ticks=156), True),
            (dict(m=6, hex_disc_radius=2, epsilon=0.1, seed=3, max_ticks=157), True),
        ],
    )
    def test_record_bytes(self, overrides, idles):
        config = SimConfig(**{"C_f": 0.0, "max_ticks": 2000, "sample_every": 30, **overrides})
        assert assert_run_matches_model(config)[1] is idles

    @settings(max_examples=60, deadline=None)
    @given(config=small_configs(), max_ticks=st.integers(1, 800), sample_every=st.integers(1, 150))
    def test_any_small_config(self, config, max_ticks, sample_every):
        assert_run_matches_model(dataclasses.replace(config, max_ticks=max_ticks, sample_every=sample_every))

    def test_idle_ticks_report_no_events(self, monkeypatch):
        # Saturates at tick 156, idles to max_ticks.
        config = SimConfig(m=6, hex_disc_radius=2, C_f=0.0, epsilon=0.1, seed=3, max_ticks=2000)
        seen = []
        real_tick = engine.tick

        def recording_tick(state):
            was_idle = state.idle
            real_tick(state)
            seen.append((was_idle, state.last_arrivals))

        monkeypatch.setattr(engine, "tick", recording_tick)
        record = run(config)
        assert record.terminal_tick == 2000 and record.trajectory[-1].fusion_events == 0
        idle_ticks = [arrivals for was_idle, arrivals in seen if was_idle]
        assert len(idle_ticks) == 2000 - 156
        assert all(arrivals == [] for arrivals in idle_ticks)


class TestConsensus:
    def test_unanimous_certain(self):
        beliefs = [Belief.from_string("10")] * 3
        assert consensus_reached(beliefs)

    def test_identical_but_uncertain(self):
        beliefs = [Belief.from_string("u0")] * 3
        assert not consensus_reached(beliefs)

    def test_one_dissenter(self):
        beliefs = [Belief.from_string("10")] * 2 + [Belief.from_string("11")]
        assert not consensus_reached(beliefs)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            consensus_reached([])


class TestAverageError:
    def test_perfect_population(self):
        truth = GroundTruth.from_bools([True, False])
        assert average_error([truth.as_belief()] * 4, truth) == 0.0

    def test_all_unknown_is_exactly_half(self):
        truth = GroundTruth.from_bools([True, False, True])
        assert average_error([Belief.unknown(3)] * 5, truth) == 0.5

    def test_arithmetic_mean(self):
        truth = GroundTruth.from_bools([True] * 10)
        b1 = Belief.from_string("00" + "1" * 8)  # two wrong of ten: error 0.2
        b2 = Belief.from_string("0000" + "1" * 6)  # four wrong of ten: error 0.4
        assert average_error([b1, b2], truth) == pytest.approx(0.3)

    def test_empty_population_rejected(self):
        truth = GroundTruth.from_bools([True])
        with pytest.raises(ValueError, match="nonempty"):
            average_error([], truth)


class TestRun:
    def test_noise_free_asocial_reaches_zero_error(self):
        record = run(SimConfig(m=4, hex_disc_radius=1, C_r=20.0, C_f=0.0,
                               epsilon=0.0, max_ticks=3000, seed=21))
        assert record.converged
        assert record.steady_state_error == 0.0

    def test_deterministic_records(self):
        config = SimConfig(**FAST)
        a, b = run(config), run(config)
        assert a.to_json() == b.to_json()

    def test_trajectory_shape(self):
        record = run(SimConfig(**FAST))
        ticks = [p.tick for p in record.trajectory]
        assert ticks[0] == 0
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == len(ticks)
        assert ticks[-1] == record.terminal_tick
        assert record.steady_state_error == record.trajectory[-1].average_error
        assert record.trajectory[0].average_error == 0.5

    def test_consensus_is_absorbing(self):
        # continue ticking a converged state: error and beliefs must not move
        config = SimConfig(m=4, hex_disc_radius=1, C_r=60.0, C_f=0.5,
                           epsilon=0.0, max_ticks=3000, seed=13)
        record = run(config)
        assert record.converged
        state = initialize(config)
        for _ in range(record.terminal_tick):
            tick(state)
        beliefs = [a.belief for a in state.agents]
        assert consensus_reached(beliefs)
        frozen = average_error(beliefs, state.truth)
        for _ in range(200):
            tick(state)
        assert average_error([a.belief for a in state.agents], state.truth) == frozen
        assert consensus_reached([a.belief for a in state.agents])

    def test_record_serialization_shape(self):
        record = run(SimConfig(m=4, hex_disc_radius=1, C_f=0.0, epsilon=0.0,
                               max_ticks=500, seed=2))
        doc = json.loads(record.to_json())
        assert set(doc) == {"config", "trajectory", "summary"}
        assert doc["config"]["m"] == 4
        assert doc["summary"]["terminal_tick"] == record.terminal_tick
        assert doc["summary"]["converged"] == record.converged
        assert len(doc["trajectory"][0]) == 4
