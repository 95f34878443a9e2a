"""Tests for the per-agent state machine."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexswarm.agent import (
    AgentState,
    Mode,
    advance_position,
    at_target,
    move_agents,
    on_arrival,
    on_fusion,
    select_target,
)
from hexswarm.belief import Belief, GroundTruth, uncertain_indices
from hexswarm.environment import ARRIVAL_RADIUS, NoiseModel, build_grid


def make_agent(belief, mode=Mode.EXPLORING, target=None, x=0.0, y=0.0, speed=5.0):
    return AgentState(id=0, x=x, y=y, belief=belief, mode=mode, target=target, speed=speed)


class TestSelectTarget:
    def test_single_uncertain_index(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert select_target(Belief.from_string("u1"), rng) == 1

    def test_fully_certain_returns_none(self):
        assert select_target(Belief.from_string("10"), np.random.default_rng(0)) is None

    def test_uniform_over_uncertain(self):
        rng = np.random.default_rng(42)
        draws = [select_target(Belief.from_string("uu"), rng) for _ in range(10_000)]
        assert set(draws) == {1, 2}
        assert draws.count(1) / 10_000 == pytest.approx(0.5, abs=0.02)

    @given(
        beliefs=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=40), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sorted_set_draw(self, beliefs, seed):
        # Reference: a uniform draw over the sorted set of uncertain indices.
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for codes in beliefs:
            belief = Belief(codes)
            candidates = sorted(uncertain_indices(belief))
            expected = candidates[int(ref_rng.integers(len(candidates)))] if candidates else None
            got = select_target(belief, rng)
            assert got == expected
            assert type(got) is type(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestOnArrival:
    def test_noise_free_observation_lands(self):
        truth = GroundTruth.from_bools([True, False, True])
        agent = make_agent(Belief.unknown(3), target=1)
        on_arrival(agent, truth, NoiseModel(0.0), 0.0, np.random.default_rng(0))
        assert agent.belief.value_at(1) is truth.value_at(1)
        assert agent.belief.certainty() == 1

    def test_comm_freq_zero_never_broadcasts(self):
        truth = GroundTruth.from_bools([True, False, True])
        rng = np.random.default_rng(3)
        for _ in range(50):
            agent = make_agent(Belief.unknown(3), target=2)
            on_arrival(agent, truth, NoiseModel(0.0), 0.0, rng)
            assert agent.mode is Mode.EXPLORING

    def test_comm_freq_one_always_broadcasts(self):
        truth = GroundTruth.from_bools([True, False, True])
        rng = np.random.default_rng(3)
        for _ in range(50):
            agent = make_agent(Belief.unknown(3), target=2)
            on_arrival(agent, truth, NoiseModel(0.0), 1.0, rng)
            assert agent.mode is Mode.BROADCASTING

    def test_new_target_is_uncertain_index(self):
        truth = GroundTruth.from_bools([True, False, True])
        agent = make_agent(Belief.unknown(3), target=2)
        on_arrival(agent, truth, NoiseModel(0.0), 0.0, np.random.default_rng(1))
        assert agent.target in (1, 3)

    def test_saturation_on_last_observation(self):
        truth = GroundTruth.from_bools([True, False])
        agent = make_agent(Belief.from_string("1u"), target=2)
        on_arrival(agent, truth, NoiseModel(0.0), 1.0, np.random.default_rng(0))
        assert agent.mode is Mode.SATURATED
        assert agent.target is None
        assert agent.belief.is_certain()

    def test_broadcasting_persists_through_arrival(self):
        truth = GroundTruth.from_bools([True, False, True])
        agent = make_agent(Belief.unknown(3), mode=Mode.BROADCASTING, target=1)
        on_arrival(agent, truth, NoiseModel(0.0), 0.0, np.random.default_rng(0))
        assert agent.mode is Mode.BROADCASTING

    def test_requires_target(self):
        truth = GroundTruth.from_bools([True])
        agent = make_agent(Belief.unknown(1))
        with pytest.raises(ValueError, match="without a target"):
            on_arrival(agent, truth, NoiseModel(0.0), 0.0, np.random.default_rng(0))

    def test_certainty_never_decreases(self):
        truth = GroundTruth.from_bools([True] * 6)
        rng = np.random.default_rng(9)
        agent = make_agent(Belief.unknown(6), target=1)
        for _ in range(6):
            before = agent.belief.certainty()
            on_arrival(agent, truth, NoiseModel(0.5), 0.5, rng)
            assert agent.belief.certainty() >= before
            if agent.target is None:
                break
        assert agent.mode is Mode.SATURATED


class TestOnFusion:
    def test_disagreement_demotes_to_exploring(self):
        agent = make_agent(Belief.from_string("1u"), mode=Mode.BROADCASTING, target=2)
        on_fusion(agent, Belief.from_string("0u"), np.random.default_rng(0))
        assert agent.belief == Belief.from_string("uu")
        assert agent.mode is Mode.EXPLORING
        assert agent.target in (1, 2)

    def test_identical_saturated_stays_saturated(self):
        agent = make_agent(Belief.from_string("11"), mode=Mode.SATURATED)
        agent.waypoint = 4
        on_fusion(agent, Belief.from_string("11"), np.random.default_rng(0))
        assert agent.belief == Belief.from_string("11")
        assert agent.mode is Mode.SATURATED
        assert agent.waypoint == 4

    def test_fill_in_saturates(self):
        agent = make_agent(Belief.from_string("u1"), mode=Mode.BROADCASTING, target=1)
        on_fusion(agent, Belief.from_string("01"), np.random.default_rng(0))
        assert agent.belief == Belief.from_string("01")
        assert agent.mode is Mode.SATURATED
        assert agent.target is None

    def test_target_reselected_when_settled_by_fusion(self):
        agent = make_agent(Belief.from_string("uu1"), mode=Mode.BROADCASTING, target=1)
        on_fusion(agent, Belief.from_string("0u1"), np.random.default_rng(0))
        assert agent.belief == Belief.from_string("0u1")
        assert agent.target == 2

    def test_target_kept_while_still_uncertain(self):
        agent = make_agent(Belief.from_string("uu"), mode=Mode.BROADCASTING, target=2)
        on_fusion(agent, Belief.from_string("1u"), np.random.default_rng(0))
        assert agent.target == 2

    def test_saturated_demoted_by_disagreement(self):
        agent = make_agent(Belief.from_string("10"), mode=Mode.SATURATED)
        agent.waypoint = 2
        on_fusion(agent, Belief.from_string("00"), np.random.default_rng(0))
        assert agent.belief == Belief.from_string("u0")
        assert agent.mode is Mode.EXPLORING
        assert agent.waypoint is None
        assert agent.target == 1

    def test_certainty_decreases_only_on_disagreement(self):
        agent = make_agent(Belief.from_string("10u"), mode=Mode.BROADCASTING, target=3)
        before = agent.belief.certainty()
        on_fusion(agent, Belief.from_string("10u"), np.random.default_rng(0))
        assert agent.belief.certainty() == before


class TestAdvancePosition:
    def test_lands_exactly_when_close(self):
        grid = build_grid(2)
        cx, cy = grid.center_of(5)
        agent = make_agent(Belief.unknown(grid.n), target=5, x=cx - 3.0, y=cy)
        advance_position(agent, grid, np.random.default_rng(0))
        assert (agent.x, agent.y) == (cx, cy)
        assert at_target(agent, grid)

    def test_halfway_when_far(self):
        grid = build_grid(2)
        cx, cy = grid.center_of(5)
        agent = make_agent(Belief.unknown(grid.n), target=5, x=cx - 10.0, y=cy)
        advance_position(agent, grid, np.random.default_rng(0))
        assert agent.x == pytest.approx(cx - 5.0)
        assert agent.y == pytest.approx(cy)

    def test_saturated_redraws_waypoint_on_arrival(self):
        grid = build_grid(2)
        agent = make_agent(Belief.from_string("1" * grid.n), mode=Mode.SATURATED)
        rng = np.random.default_rng(1)
        advance_position(agent, grid, rng)
        first = agent.waypoint
        assert first is not None
        # walk until the waypoint is reached and redrawn
        for _ in range(100):
            before = agent.waypoint
            cx, cy = grid.center_of(before)
            advance_position(agent, grid, rng)
            if (agent.x, agent.y) == (cx, cy):
                assert agent.waypoint is not None
                return
        pytest.fail("saturated agent never reached its waypoint")

    @given(
        x=st.floats(-100, 100, allow_nan=False),
        y=st.floats(-100, 100, allow_nan=False),
        speed=st.floats(0.1, 20, allow_nan=False),
        target=st.integers(1, 18),
    )
    def test_displacement_bounded_by_speed(self, x, y, speed, target):
        grid = build_grid(2)
        agent = make_agent(Belief.unknown(grid.n), target=target, x=x, y=y, speed=speed)
        advance_position(agent, grid, np.random.default_rng(0))
        moved = math.hypot(agent.x - x, agent.y - y)
        assert moved <= speed + 1e-9


@st.composite
def populations(draw):
    """A grid and agents in every mode, placed where the move and arrival
    comparisons are closest: on cell centers, ARRIVAL_RADIUS (or one step
    plus ARRIVAL_RADIUS) short of their destination, and with speeds equal
    to the distance to it."""
    grid = build_grid(draw(st.integers(1, 3)))
    n = grid.n
    cells = st.integers(1, n)
    agents = []
    for i in range(draw(st.integers(1, 12))):
        mode = draw(st.sampled_from(list(Mode)))
        target = draw(st.none() | cells)
        waypoint = draw(st.none() | cells)
        dest = waypoint if mode is Mode.SATURATED else target
        speed = draw(st.sampled_from([0.5, 1.0, 5.0, 17.0]) | st.floats(0.1, 40))
        anchor = grid.center_of(draw(cells)) if dest is None else grid.center_of(dest)
        dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.28, 0.96)]))
        x, y = draw(st.sampled_from([
            anchor,
            (0.0, 0.0),
            (anchor[0] - ARRIVAL_RADIUS * dx, anchor[1] - ARRIVAL_RADIUS * dy),
            (anchor[0] - (ARRIVAL_RADIUS + speed) * dx, anchor[1] - (ARRIVAL_RADIUS + speed) * dy),
        ]) | st.tuples(st.floats(-80, 80), st.floats(-80, 80)))
        if draw(st.booleans()):
            # dist == speed exactly, whenever the destination is not drawn in the pass
            speed = math.hypot(anchor[0] - x, anchor[1] - y) or speed
        agents.append(AgentState(id=i, x=x, y=y, belief=Belief.unknown(n), mode=mode,
                                 target=target, waypoint=waypoint, speed=speed))
    return grid, agents


class TestMoveAgents:
    @settings(max_examples=300, deadline=None)
    @given(population=populations(), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_agent_reference(self, population, seed):
        grid, agents = population
        expected = copy.deepcopy(agents)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        arrived = move_agents(agents, grid, rng)
        for agent in expected:
            advance_position(agent, grid, ref_rng)
        expected_arrived = [a.id for a in expected if at_target(a, grid)]

        assert [a.id for a in arrived] == expected_arrived
        assert all(a is agents[a.id] for a in arrived)
        assert [(a.x, a.y, a.waypoint, a.target, a.mode) for a in agents] == [
            (a.x, a.y, a.waypoint, a.target, a.mode) for a in expected
        ]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_arrival_at_exactly_the_radius(self):
        grid = build_grid(2)
        cx, cy = grid.center_of(5)
        on_edge = make_agent(Belief.unknown(grid.n), target=5, x=cx - ARRIVAL_RADIUS - 0.5, y=cy, speed=0.5)
        short = make_agent(Belief.unknown(grid.n), target=5, x=cx - ARRIVAL_RADIUS - 0.75, y=cy, speed=0.5)
        assert move_agents([on_edge, short], grid, np.random.default_rng(0)) == [on_edge]
        assert on_edge.x == cx - ARRIVAL_RADIUS


class TestLogLine:
    def test_fields(self):
        agent = make_agent(Belief.from_string("0u1"), x=1.25, y=-2.5)
        parts = agent.log_line(17).split()
        assert parts == ["17", "0", "1.250", "-2.500", "exploring", "2", "0u1"]
