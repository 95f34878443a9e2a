"""Certified legs (``agent.certify_leg``) against stepping them with the
reference model's ``move``, tick by tick: the same arrival tick, the same
snap onto the center and the same draws, or no certification at all. And
their replay (``agent.replay_leg``) against stepping: the same position,
bit for bit, on every tick mid-leg."""

import copy
import dataclasses
import math

import numpy as np
import pytest
import reference_model

from hexswarm import engine
from hexswarm.agent import (
    _LEG_MARGIN,
    _MAX_LEG_STEPS,
    AgentState,
    Mode,
    advance_position,
    certify_leg,
    move_agents,
    replay_leg,
)
from hexswarm.belief import UNKNOWN, Belief
from hexswarm.engine import SimConfig
from hexswarm.environment import ARRIVAL_RADIUS, HexGrid, _axial_to_world, build_grid
from hexswarm.errors import RULES

SPEEDS = (5.0, 3.7, 17.0)
# Every mode's legs certified, where the engine's policy may name fewer.
ALL = frozenset(Mode)


def explorers(legs, grid, speed):
    """One exploring agent per (x, y, target) leg, with ids in list order."""
    return [
        AgentState(i, x, y, Belief.unknown(grid.n), dest=target, speed=speed)
        for i, (x, y, target) in enumerate(legs)
    ]


def arrivals(agents, move):
    """Per agent id, the first tick t (from 0) on which ``move(moving, t)``
    reports it arrived, and its position then; each agent moves until then."""
    found, moving, t = {}, list(agents), 0
    while moving:
        for agent in move(moving, t):
            found[agent.id] = (t, agent.x, agent.y)
        moving = [a for a in moving if a.id not in found]
        t += 1
    return found


def stepped(agents, grid):
    """Arrivals of copies of ``agents`` stepped by the reference model."""
    rng = np.random.default_rng(0)
    return arrivals(copy.deepcopy(agents), lambda moving, t: reference_model.move(moving, grid, rng))


def certified(agents, grid, start=0):
    """Arrivals of copies of ``agents`` after ``certify_leg`` with the first
    step on tick ``start``, moved by ``move_agents``; and the ids certified."""
    agents = copy.deepcopy(agents)
    for agent in agents:
        certify_leg(agent, grid.centers, start, ALL)
    rng = np.random.default_rng(0)
    found = arrivals(agents, lambda moving, t: move_agents(moving, grid, rng, now=start + t))
    for agent in agents:
        if agent.landing >= 0:
            # A certified agent lands on its landing tick, on the center.
            assert found[agent.id] == (agent.landing - start, *grid.centers[agent.dest - 1])
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    return found, {a.id for a in agents if a.landing >= 0}


def assert_agrees(legs, grid, speed, start=0):
    """Certified legs arrive as stepped ones do; returns the ids certified
    and the stepped arrivals."""
    agents = explorers(legs, grid, speed)
    expected = stepped(agents, grid)
    found, ids = certified(agents, grid, start)
    assert found == expected
    return ids, expected


@pytest.mark.parametrize("speed", SPEEDS)
def test_legs_from_centers_and_band_arrivals(speed):
    grid = build_grid(6)
    centers = grid.centers
    starts = [(0.0, 0.0), *centers]
    legs = [(x, y, dest) for x, y in starts for dest in range(1, grid.n + 1) if (x, y) != centers[dest - 1]]
    ids, arrived = assert_agrees(legs, grid, speed)
    # Most legs are certified; a leg that ends in the arrival band is not.
    assert 0.4 < len(ids) / len(legs) < 0.9
    on_center = set(centers)
    band = sorted({(x, y) for t, x, y in arrived.values() if (x, y) not in on_center})
    assert band
    band_legs = [(x, y, dest) for x, y in band[:: max(1, len(band) // 40)] for dest in range(1, grid.n + 1)]
    ids, _ = assert_agrees(band_legs, grid, speed, start=7)
    assert ids


def test_far_corners_of_the_largest_arena():
    """The largest coordinates ``run`` accepts: corners of the largest disc
    ``errors.RULES`` allows, with the same centers as ``build_grid`` gives
    them. They stay below 2**13, the coordinate bound ``_LEG_MARGIN`` is
    derived for, so raising the arena cap or the cell size past that
    derivation fails here."""
    R = RULES["hex_disc_radius"].high
    corners = [(R, 0), (-R, 0), (0, R), (0, -R), (R, -R), (-R, R), (R - 1, -(R // 2)), (1, 0), (-2, 1)]
    grid = HexGrid([_axial_to_world(q, r) for q, r in corners])
    assert 5000 < max(abs(v) for c in grid.centers for v in c) < 2**13
    legs = [(x, y, dest) for x, y in [(0.0, 0.0), *grid.centers] for dest in range(1, grid.n + 1)
            if (x, y) != grid.centers[dest - 1]]
    for speed in SPEEDS:
        ids, _ = assert_agrees(legs, grid, speed)
        assert ids


def test_tiny_speed_certifies_only_legs_within_the_step_bound():
    """A target leg at a speed of at most ARRIVAL_RADIUS ends in the arrival
    band and is never certified. At speed 1e-3, a waypoint leg of 34.6 units
    takes more than ``_MAX_LEG_STEPS`` steps and is stepped; the legs of 17.3
    and 30 units are certified or not by the closed form, and a certified
    one snaps on its landing tick when stepped."""
    grid = build_grid(2)
    speed = 1e-3
    explorer = explorers([(0.0, 0.0, 1)], grid, speed)[0]
    certify_leg(explorer, grid.centers, 0, ALL)
    assert explorer.landing == -1
    certain = Belief.from_string("1" * grid.n)
    legs = [AgentState(i, 0.0, 0.0, certain, mode=Mode.SATURATED, dest=i + 1, speed=speed) for i in range(grid.n)]
    agents = copy.deepcopy(legs)
    for agent in agents:
        certify_leg(agent, grid.centers, 0, ALL)
    over = [(math.hypot(*grid.centers[a.dest - 1]) - speed) / speed >= _MAX_LEG_STEPS for a in agents]
    assert sum(over) == 6
    assert all(a.landing == -1 for a, o in zip(agents, over) if o)
    landings = {a.id: a.landing for a in agents if a.landing >= 0}
    assert landings
    moving = [a for a in legs if a.id in landings]
    rng, t = np.random.default_rng(0), 0
    while moving:
        reference_model.move(moving, grid, rng)
        for agent in moving:
            if agent.dest != agent.id + 1:
                assert (t, agent.x, agent.y) == (landings[agent.id], *grid.centers[agent.id])
        moving = [a for a in moving if a.dest == a.id + 1]
        t += 1


def test_exact_ties_are_not_certified():
    grid = build_grid(6)
    top = grid.centers.index((0.0, 30.0)) + 1  # cell (-1, 2), exactly 30 above the launch pad
    ties = [
        (0.0, 0.0, top),  # a center leg of 30 at speed 5: rest == speed
        (0.0, 15.0, top),  # 15 at speed 5: rest == speed
        (0.0, 19.0, top),  # 11 at speed 5: rest == ARRIVAL_RADIUS, a band arrival
        (0.0, 19.0 - _LEG_MARGIN / 2, top),  # rest == ARRIVAL_RADIUS + _LEG_MARGIN / 2
    ]
    agents = explorers(ties, grid, 5.0)
    for agent in agents:
        certify_leg(agent, grid.centers, 0, ALL)
    assert [a.landing for a in agents] == [-1] * len(ties)
    assert [a.y for a in agents] == [y for _, y, _ in ties]
    # The rest == ARRIVAL_RADIUS leg arrives in the band, off the center.
    assert stepped(explorers(ties[2:3], grid, 5.0), grid)[0] == (1, 0.0, 30.0 - ARRIVAL_RADIUS)
    # Past the margin the same leg is certified.
    assert assert_agrees([(0.0, 19.0 - 2 * _LEG_MARGIN, top)], grid, 5.0)[0] == {0}
    # Every center leg whose length is a multiple of the speed is a tie.
    centers = [(0.0, 0.0), *grid.centers]
    multiples = [(x, y, d) for x, y in centers for d in range(1, grid.n + 1)
                 if round(math.hypot(x - grid.centers[d - 1][0], y - grid.centers[d - 1][1]), 9) in (30.0, 60.0, 90.0)]
    assert len(multiples) > 100
    agents = explorers(multiples, grid, 5.0)
    for agent in agents:
        certify_leg(agent, grid.centers, 0, ALL)
    assert all(a.landing == -1 for a in agents)


@pytest.mark.parametrize("speed", SPEEDS + (0.9,))
def test_wandering_agents_draw_as_stepping_ones_do(speed):
    """With saturated agents certified, every waypoint leg is certified where
    it is drawn: the waypoints, the draws and the position whenever an agent
    is not on a certified leg match stepping, tick by tick."""
    grid = build_grid(3)
    certain = Belief.from_string("1" * grid.n)
    agents = [
        AgentState(i, *grid.centers[(7 * i) % grid.n], certain, mode=Mode.SATURATED,
                   dest=None if i % 2 else 1 + (11 * i) % grid.n, speed=speed)
        for i in range(12)
    ]
    expected = copy.deepcopy(agents)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    legs = set()
    for t in range(300):
        assert move_agents(agents, grid, rng, now=t, certified=ALL) == []
        reference_model.move(expected, grid, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [a.dest for a in agents] == [a.dest for a in expected]
        for a, b in zip(agents, expected):
            if a.landing <= t:
                assert (a.x, a.y) == (b.x, b.y)
            legs.add((a.id, a.landing))
    assert len(legs) > 20


SOCIAL = [
    SimConfig(m=8, hex_disc_radius=3, C_f=0.0, epsilon=0.1, max_ticks=1500, seed=2),
    SimConfig(m=8, hex_disc_radius=3, C_f=0.3, epsilon=0.1, max_ticks=1500, seed=4, speed=3.7),
    SimConfig(m=10, hex_disc_radius=3, C_f=1.0, epsilon=0.3, topology="lattice:2", max_ticks=1500, seed=6),
    SimConfig(m=8, hex_disc_radius=2, C_f=0.05, C_r=100.0, speed=17.0, max_ticks=1500, seed=8),
]


@pytest.mark.parametrize("config", SOCIAL, ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_observed_runs_keep_every_position(config):
    """``run`` with a callback, and ``tick`` called directly, step every
    agent on every tick, as the reference model does."""
    expected = []
    reference_model.run(config, lambda state, _: expected.append([(a.x, a.y) for a in state.agents]))
    seen = []
    engine.run(config, lambda state, _: seen.append([(a.x, a.y, a.landing) for a in state.agents]))
    assert [[p[:2] for p in row] for row in seen] == expected
    assert {p[2] for row in seen for p in row} == {-1}
    state = engine.initialize(config)
    ticked = [[(a.x, a.y) for a in state.agents]]
    for _ in range(len(expected) - 1):
        engine.tick(state)
        ticked.append([(a.x, a.y) for a in state.agents])
    assert ticked == expected


@pytest.mark.parametrize("config", SOCIAL[1:], ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_unobserved_social_runs_certify_explorers_only(config, monkeypatch):
    """Without a callback, broadcasters and saturated agents of a social run
    step, and an agent that a fusion leaves exploring starts a leg that is
    certified as ``certify_leg`` certifies it from where the fusion left it."""
    fused = []
    restarted = 0

    def on_fusion(agent, belief, rng):
        engine_on_fusion(agent, belief, rng)
        fused.append((agent, copy.deepcopy(agent)))

    def checked_tick(state):
        nonlocal restarted
        now = state.tick_index
        tick(state)
        assert all(a.landing <= now for a in state.agents if a.mode is not Mode.EXPLORING)
        for agent, found in fused:
            if found.mode is Mode.EXPLORING:
                certify_leg(found, state.grid.centers, now + 1, frozenset({Mode.EXPLORING}))
                assert (agent.x, agent.y, agent.landing) == (found.x, found.y, found.landing)
                restarted += found.landing > now
        fused.clear()

    engine_on_fusion, tick = engine.on_fusion, engine.tick
    monkeypatch.setattr(engine, "on_fusion", on_fusion)
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config)
    monkeypatch.undo()
    assert restarted
    assert record.to_json() == reference_model.run(config).to_json()


@pytest.mark.parametrize("observed", [False, True], ids=["no observer", "on_row"])
@pytest.mark.parametrize("config", SOCIAL, ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_run_certifies_at_every_leg_start(config, observed, monkeypatch):
    """``engine.run`` itself, with no observer and with ``on_row``, starts
    waiting legs (``landing`` past the tick) at every place a leg starts:
    the first targets, an arrival that leaves the agent exploring, a fusion
    in a social run, and an asocial waypoint, both a first one (first step this tick) and one
    drawn on a snap (first step next tick). No broadcasting agent, and no
    saturated agent of a social run, ever waits."""
    social = config.C_f > 0
    arrived, fused, sites = set(), set(), set()

    def on_arrival(agent, *args):
        arrived.add(agent.id)
        return engine_on_arrival(agent, *args)

    def on_fusion(agent, *args):
        fused.add(agent.id)
        return engine_on_fusion(agent, *args)

    def checked_tick(state):
        now = state.tick_index
        if now == 0 and any(a.landing > 0 for a in state.agents):
            sites.add("first targets")
        before = [a.landing for a in state.agents]
        arrived.clear()
        fused.clear()
        tick(state)
        for agent, landing in zip(state.agents, before):
            waits = agent.landing > now
            assert not (waits and (agent.mode is Mode.BROADCASTING or social and agent.mode is Mode.SATURATED))
            if waits and agent.landing != landing:
                if agent.id in fused:
                    sites.add("fusion")
                elif agent.id in arrived:
                    sites.add("arrival")
                else:
                    assert agent.mode is Mode.SATURATED
                    sites.add("first waypoint" if agent.departure == now else "waypoint")

    engine_on_arrival, engine_on_fusion, tick = engine.on_arrival, engine.on_fusion, engine.tick
    monkeypatch.setattr(engine, "on_arrival", on_arrival)
    monkeypatch.setattr(engine, "on_fusion", on_fusion)
    monkeypatch.setattr(engine, "tick", checked_tick)
    engine.run(config, on_row=(lambda state: None) if observed else None)
    expected = {"first targets", "fusion"} if social else {"first targets", "first waypoint", "waypoint"}
    if config.C_f < 1:  # at C_f = 1 every arrival broadcasts
        expected.add("arrival")
    assert sites == expected


def replays_as_stepped(agent, grid, start, ticks=None):
    """Certify ``agent`` with its first step on tick ``start`` and check that
    ``replay_leg`` puts it, on each of the ``ticks`` from ``start`` (zero
    steps) to its landing tick (all its steps before the snap), where
    stepping a copy that many times does. Returns whether it was certified."""
    stepping = copy.deepcopy(agent)
    certify_leg(agent, grid.centers, start, ALL)
    if agent.landing < 0:
        return False
    assert agent.origin == (stepping.x, stepping.y) and agent.departure == start
    center = (agent.x, agent.y)
    rng = np.random.default_rng(0)
    wanted = range(start, agent.landing + 1) if ticks is None else sorted(start + j for j in ticks)
    now = start
    for t in wanted:
        for _ in range(t - now):
            advance_position(stepping, grid, rng)
        now = t
        replay_leg(agent, grid, t)
        assert (agent.x, agent.y) == (stepping.x, stepping.y), t
        assert (agent.x, agent.y) != center
    # One more step snaps onto the center, on the landing tick.
    advance_position(stepping, grid, rng)
    assert (now == agent.landing) == ((stepping.x, stepping.y) == center)
    return True


@pytest.mark.parametrize("speed", SPEEDS)
def test_replay_matches_stepping_on_every_tick_mid_leg(speed):
    """Target legs and wander legs from the launch pad, every center and
    points off the centers, to every center of a radius-3 grid."""
    grid = build_grid(3)
    starts = [(0.0, 0.0), *grid.centers, *[(x + 1.3, y - 0.7) for x, y in grid.centers[::3]]]
    certain = Belief.from_string("1" * grid.n)
    certified = {Mode.EXPLORING: 0, Mode.SATURATED: 0}
    for x, y in starts:
        for dest in range(1, grid.n + 1):
            if (x, y) == grid.centers[dest - 1]:
                continue
            explorer = AgentState(0, x, y, Belief.unknown(grid.n), dest=dest, speed=speed)
            wanderer = AgentState(1, x, y, certain, mode=Mode.SATURATED, dest=dest, speed=speed)
            for agent in (explorer, wanderer):
                certified[agent.mode] += replays_as_stepped(agent, grid, start=11)
    assert min(certified.values()) > 100


def test_replay_at_a_tiny_speed():
    """At speed 1e-3 only wander legs certify, of up to 2**15 steps; the
    replay is checked at zero steps, a few steps and up to the landing."""
    grid = build_grid(2)
    certain = Belief.from_string("1" * grid.n)
    done = 0
    for dest in range(1, grid.n + 1):
        agent = AgentState(0, 0.0, 0.0, certain, mode=Mode.SATURATED, dest=dest, speed=1e-3)
        probe = copy.deepcopy(agent)
        certify_leg(probe, grid.centers, 3, ALL)
        if probe.landing < 0:
            continue
        k = probe.landing - 3
        done += replays_as_stepped(agent, grid, start=3, ticks={0, 1, 2, 777, k // 2, k - 1, k})
    assert done >= 6


ROWS = SOCIAL + [dataclasses.replace(c, sample_every=7, max_ticks=700) for c in SOCIAL]


@pytest.mark.parametrize("config", ROWS, ids=lambda c: f"C_f={c.C_f},speed={c.speed},every={c.sample_every}")
def test_rows_show_stepped_positions(config, monkeypatch):
    """``run(config, on_row=f)`` shows on every row the positions the
    reference model has on that row, although certified agents wait on
    their centers; after each call every agent's position and landing are
    back as the last tick left them. The record equals ``run(config)``'s,
    and the generator ends in the model's state: an asocial run with an
    observer does not idle. On every row an agent is saturated exactly when
    its belief is certain, and any other heads for a target it is uncertain
    about."""
    expected, model = [], []

    def on_tick(state, sampled):
        model[:] = [state]
        if sampled:
            expected.append([(a.x, a.y) for a in state.agents])

    reference_model.run(config, on_tick)

    def snapshot(state):
        return [(a.x, a.y, a.landing) for a in state.agents]

    left, seen, replayed, states = [], [], [], []

    def checked_tick(state):
        if left:
            assert snapshot(state) == left[-1]
        tick(state)
        left[:] = [snapshot(state)]

    def on_row(state):
        seen.append([(a.x, a.y) for a in state.agents])
        replayed.append(bool(left) and [p[:2] for p in left[-1]] != seen[-1])
        for a in state.agents:
            assert (a.mode is Mode.SATURATED) == a.belief.is_certain()
            assert a.mode is Mode.SATURATED or a.belief.value_at(a.dest) is UNKNOWN
        states[:] = [state]

    tick = engine.tick
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config, on_row=on_row)
    assert seen == expected
    assert snapshot(states[0]) == left[-1]
    if config.sample_every == 7:
        assert any(replayed)  # so frequent rows find some agent mid-leg
    assert states[0].rng.bit_generator.state == model[0].rng.bit_generator.state
    monkeypatch.undo()
    assert record.to_json() == engine.run(config).to_json()
