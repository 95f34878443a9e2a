"""Tests for the per-tick engine: initialization, pairing, termination."""

import copy
import dataclasses
import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexswarm import engine
from hexswarm.agent import Mode, advance_position, at_target, on_arrival, on_fusion
from hexswarm.belief import Belief, GroundTruth
from hexswarm.engine import (
    RunRecord,
    SimConfig,
    average_error,
    consensus_reached,
    initialize,
    parse_topology,
    run,
    tick,
)
from hexswarm.environment import DEFAULT_CIRCUMRADIUS
from hexswarm.errors import ConfigError
from hexswarm.network import eligible_edges, physical_edges

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

    def test_parse_topology(self):
        assert parse_topology("complete") == ("complete", None)
        assert parse_topology("lattice:8") == ("lattice", 8)
        for tag in ("lattice:x", "lattice:", "lattice:+2", "lattice:2_0", "lattice:\u0662", "lattice: 2",
                    "lattice:02", "lattice:002", "lattice:" + "1" * 5000):
            with pytest.raises(ConfigError):
                parse_topology(tag)

    def test_connectivity(self):
        assert SimConfig(topology="complete", m=20).connectivity() == 19
        assert SimConfig(topology="lattice:4", m=20).connectivity() == 4


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
            assert 1 <= agent.target <= state.grid.n

    def test_lattice_topology_applied(self):
        state = initialize(SimConfig(m=20, hex_disc_radius=2, topology="lattice:2", seed=0))
        assert all(state.network.degree(i) == 2 for i in range(20))

    def test_same_seed_identical_state(self):
        a = initialize(SimConfig(**FAST))
        b = initialize(SimConfig(**FAST))
        assert a.truth == b.truth
        for agent_a, agent_b in zip(a.agents, b.agents):
            assert (agent_a.x, agent_a.y) == (agent_b.x, agent_b.y)
            assert agent_a.target == agent_b.target
            assert agent_a.belief == agent_b.belief


def force_broadcasters(state, ids, position=(0.0, 0.0)):
    """Put the given agents in broadcasting mode at one spot; park the rest far away."""
    for agent in state.agents:
        if agent.id in ids:
            agent.mode = Mode.BROADCASTING
            agent.x, agent.y = position
        else:
            agent.x, agent.y = 900.0, 900.0
            agent.target = None
            agent.mode = Mode.EXPLORING


class TestTickPairing:
    def test_two_broadcasters_fuse_once(self):
        state = initialize(SimConfig(**FAST))
        force_broadcasters(state, {0, 1})
        tick(state)
        assert state.fusion_events == 1
        assert state.last_fusions == [(0, 1)]

    def test_three_broadcasters_exactly_one_pair(self):
        # Under greedy seeded matching the first visited agent pairs with one
        # of the other two; the third then has no unmatched partner left.
        for seed in range(10):
            config = SimConfig(**{**FAST, "seed": seed})
            state = initialize(config)
            force_broadcasters(state, {0, 1, 2})
            tick(state)
            assert state.fusion_events == 1
            (i, j) = state.last_fusions[0]
            remaining = {0, 1, 2} - {i, j}
            assert len(remaining) == 1
            leftover = state.agents[remaining.pop()]
            assert leftover.mode is Mode.BROADCASTING

    def test_no_broadcasters_no_fusion(self):
        state = initialize(SimConfig(**FAST))
        tick(state)
        assert state.fusion_events == 0

    def test_matching_is_valid_each_tick(self):
        config = SimConfig(m=10, hex_disc_radius=2, C_r=40.0, C_f=1.0, epsilon=0.3,
                           max_ticks=300, seed=5)
        state = initialize(config)
        for _ in range(300):
            tick(state)
            flattened = [i for pair in state.last_fusions for i in pair]
            assert len(flattened) == len(set(flattened))

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


def reference_fusion_phase(state, broadcasters):
    """The edge-set fusion phase: all-pairs proximity, set filtering, and an
    adjacency built from the sorted eligible edges."""
    agents = state.agents
    phys = physical_edges([(a.x, a.y) for a in agents], state.config.C_r)
    elig = eligible_edges(phys, state.network, set(broadcasters))
    if not elig:
        return
    adjacency = {}
    for i, j in sorted(elig):
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    matched = set()
    for i in state.rng.permutation(broadcasters):
        i = int(i)
        if i in matched or i not in adjacency:
            continue
        candidates = [j for j in adjacency[i] if j not in matched]
        if not candidates:
            continue
        j = candidates[int(state.rng.integers(len(candidates)))]
        belief_i, belief_j = agents[i].belief, agents[j].belief
        on_fusion(agents[i], belief_j, state.rng)
        on_fusion(agents[j], belief_i, state.rng)
        matched.update((i, j))
        state.fusion_events += 1
        state.last_fusions.append((i, j))


CELL_SPACING = math.sqrt(3) * DEFAULT_CIRCUMRADIUS


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
        for agent in state.agents:
            agent.x, agent.y = data.draw(spot)
            agent.mode = data.draw(st.sampled_from(list(Mode)))
            agent.belief = Belief(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        broadcasters = [a.id for a in state.agents if a.mode is not Mode.EXPLORING]
        assume(len(broadcasters) >= 2)  # tick() skips the phase otherwise
        expected = copy.deepcopy(state)

        engine._run_fusion_phase(state, broadcasters)
        reference_fusion_phase(expected, broadcasters)
        assert state.last_fusions == expected.last_fusions
        assert state.fusion_events == expected.fusion_events
        assert state.rng.bit_generator.state == expected.rng.bit_generator.state
        assert [a.log_line(0) for a in state.agents] == [a.log_line(0) for a in expected.agents]
        assert [a.target for a in state.agents] == [a.target for a in expected.agents]

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
    def test_whole_run(self, overrides, monkeypatch):
        config = SimConfig(hex_disc_radius=2, max_ticks=1500, sample_every=10, **overrides)
        record = run(config).to_json()
        monkeypatch.setattr(engine, "_run_fusion_phase", reference_fusion_phase)
        assert record == run(config).to_json()
        assert json.loads(record)["summary"]["fusion_events"] > 0


def reference_tick(state):
    """The tick with phases 1-2 as two per-agent loops: every agent moves by
    advance_position, then every agent at_target handles its arrival."""
    cfg, agents, rng = state.config, state.agents, state.rng
    state.last_fusions = []
    for agent in agents:
        advance_position(agent, state.grid, rng)
    for agent in agents:
        if agent.target is not None and at_target(agent, state.grid):
            on_arrival(agent, state.truth, state.noise, cfg.C_f, rng)
    if cfg.C_f > 0:
        broadcasters = [a.id for a in agents if a.mode is not Mode.EXPLORING]
        if len(broadcasters) >= 2:
            engine._run_fusion_phase(state, broadcasters)
    state.tick_index += 1
    return state


def reference_run(config):
    """engine.run with reference_tick and the convergence check after every tick."""
    state = initialize(config)
    trajectory = [engine._sample(state)]
    converged = False
    for t in range(1, config.max_ticks + 1):
        reference_tick(state)
        converged = all(a.mode is Mode.SATURATED for a in state.agents) and consensus_reached(
            [a.belief for a in state.agents]
        )
        if t % config.sample_every == 0 or converged or t == config.max_ticks:
            trajectory.append(engine._sample(state))
        if converged:
            break
    return RunRecord(
        config=dataclasses.asdict(config),
        trajectory=trajectory,
        terminal_tick=state.tick_index,
        converged=converged,
        steady_state_error=trajectory[-1].average_error,
    )


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
            # Idles to max_ticks with a row on every tick: reference_run samples
            # each row afresh, while run repeats rows taken without a change.
            (dict(m=5, hex_disc_radius=2, C_f=0.0, epsilon=0.3, seed=7, max_ticks=1237, sample_every=1), False),
        ],
    )
    def test_record_bytes(self, overrides, converges):
        config = SimConfig(**{"max_ticks": 5000, "sample_every": 50, **overrides})
        record = run(config)
        assert record.to_json() == reference_run(config).to_json()
        assert record.converged is converges
        if not converges:
            assert record.terminal_tick == config.max_ticks


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
        previous = []

        def on_tick(state, sampled):
            current = [(a.mode, a.belief) for a in state.agents]
            if state.tick_index and not state.last_arrivals and not state.last_fusions:
                assert current == previous, f"tick {state.tick_index}"
            previous[:] = current

        run(config, on_tick)


def full_path_run(config):
    """run() with a no-op on_tick, which keeps it off the idle path; also
    returns the first tick after which every agent was saturated (or None)."""
    first_saturated = []

    def on_tick(state, sampled):
        if not first_saturated and all(a.mode is Mode.SATURATED for a in state.agents):
            first_saturated.append(state.tick_index)

    record = run(config, on_tick)
    return record, (first_saturated or [None])[0]


def count_move_calls(monkeypatch):
    calls = []
    move_agents = engine.move_agents

    def counted(*args):
        calls.append(None)
        return move_agents(*args)

    monkeypatch.setattr(engine, "move_agents", counted)
    return calls


def expected_move_calls(config, record, first_saturated):
    """Ticks that move the agents: all of them, unless an asocial run
    saturated every agent without converging and idled after that tick."""
    if config.C_f == 0 and not record.converged and first_saturated is not None:
        return first_saturated
    return record.terminal_tick


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
        ],
    )
    def test_record_bytes(self, overrides, idles, monkeypatch):
        config = SimConfig(**{"C_f": 0.0, "max_ticks": 2000, "sample_every": 30, **overrides})
        expected, first_saturated = full_path_run(config)
        calls = count_move_calls(monkeypatch)
        assert run(config).to_json() == expected.to_json()
        assert len(calls) == expected_move_calls(config, expected, first_saturated)
        assert (len(calls) < expected.terminal_tick) is idles

    @settings(max_examples=60, deadline=None)
    @given(config=small_configs(), max_ticks=st.integers(1, 800), sample_every=st.integers(1, 150))
    def test_any_small_config(self, config, max_ticks, sample_every):
        config = dataclasses.replace(config, max_ticks=max_ticks, sample_every=sample_every)
        expected, first_saturated = full_path_run(config)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_move_calls(monkeypatch)
            assert run(config).to_json() == expected.to_json()
        assert len(calls) == expected_move_calls(config, expected, first_saturated)


    def test_idle_ticks_report_no_events(self, monkeypatch):
        # Saturates at tick 156, idles to max_ticks.
        config = SimConfig(m=6, hex_disc_radius=2, C_f=0.0, epsilon=0.1, seed=3, max_ticks=2000)
        seen = []
        real_tick = engine.tick

        def recording_tick(state):
            was_idle = state.idle
            real_tick(state)
            seen.append((was_idle, state.last_arrivals, state.last_fusions))

        monkeypatch.setattr(engine, "tick", recording_tick)
        assert run(config).terminal_tick == 2000
        idle_ticks = [(arrivals, fusions) for was_idle, arrivals, fusions in seen if was_idle]
        assert len(idle_ticks) == 2000 - 156
        assert all(arrivals == [] and fusions == [] for arrivals, fusions in idle_ticks)


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
