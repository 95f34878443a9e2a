"""Certified legs (``agent.move_agents`` with a ``certified`` set) against
stepping them with the reference model's ``move``, tick by tick: the same
arrival tick, the same snap onto the center and the same draws, or no
certification at all. Each leg is tried once, on its first move tick. And
the bound ``run`` sets under ``on_row``: a certified leg lands before the
next row, so no row finds an agent mid-leg."""

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
    move_agents,
    on_fusion,
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
    """Arrivals of copies of ``agents`` moved by ``move_agents`` with every
    mode certified, the first move on tick ``start``; and the ids of the
    agents that waited on a certified leg."""
    agents = copy.deepcopy(agents)
    rng = np.random.default_rng(0)
    landings = {}

    def move(moving, t):
        now = start + t
        arrived = move_agents(moving, grid, rng, now=now, certified=ALL)
        for agent in moving:
            if agent.landing > now:
                if now == start:
                    landings[agent.id] = agent.landing
                # Tried once, on the leg's first move tick: no later tick starts a wait.
                assert landings.get(agent.id) == agent.landing
        return arrived

    found = arrivals(agents, move)
    for i, landing in landings.items():
        # A certified agent lands on its landing tick, on the center.
        assert found[i] == (landing - start, *grid.centers[agents[i].dest - 1])
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    return found, set(landings)


def first_move(agents, grid, start=0):
    """One move of copies of ``agents`` by ``move_agents`` on tick ``start``,
    with every mode certified: no agent waits, and each has stepped, with the
    same draws, as the reference model's ``move`` steps it. Returns the
    moved copies."""
    moved, expected = copy.deepcopy(agents), copy.deepcopy(agents)
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    move_agents(moved, grid, rng, now=start, certified=ALL)
    reference_model.move(expected, grid, ref_rng)
    assert [a.landing > start for a in moved] == [False] * len(moved)
    assert [(a.x, a.y, a.dest) for a in moved] == [(a.x, a.y, a.dest) for a in expected]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return moved


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
    first_move(explorers([(0.0, 0.0, 1)], grid, speed), grid)
    certain = Belief.from_string("1" * grid.n)
    legs = [AgentState(i, 0.0, 0.0, certain, mode=Mode.SATURATED, dest=i + 1, speed=speed) for i in range(grid.n)]
    agents = copy.deepcopy(legs)
    move_agents(agents, grid, np.random.default_rng(0), now=0, certified=ALL)
    over = [(math.hypot(*grid.centers[a.dest - 1]) - speed) / speed >= _MAX_LEG_STEPS for a in agents]
    assert sum(over) == 6
    first_move([a for a, o in zip(legs, over) if o], grid)
    landings = {a.id: a.landing for a in agents if a.landing > 0}
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
    moved = first_move(explorers(ties, grid, 5.0), grid)
    assert all((a.x, a.y) != grid.centers[top - 1] for a in moved)  # none placed on the center
    # The rest == ARRIVAL_RADIUS leg arrives in the band, off the center.
    assert stepped(explorers(ties[2:3], grid, 5.0), grid)[0] == (1, 0.0, 30.0 - ARRIVAL_RADIUS)
    # Past the margin the same leg is certified.
    assert assert_agrees([(0.0, 19.0 - 2 * _LEG_MARGIN, top)], grid, 5.0)[0] == {0}
    # Every center leg whose length is a multiple of the speed is a tie.
    centers = [(0.0, 0.0), *grid.centers]
    multiples = [(x, y, d) for x, y in centers for d in range(1, grid.n + 1)
                 if round(math.hypot(x - grid.centers[d - 1][0], y - grid.centers[d - 1][1]), 9) in (30.0, 60.0, 90.0)]
    assert len(multiples) > 100
    first_move(explorers(multiples, grid, 5.0), grid)


def test_a_leg_past_the_step_bound_is_stepped_to_its_snap():
    """A wander leg at speed 1e-3 of more than ``_MAX_LEG_STEPS`` steps is
    tried once, on its first move tick, and stepped to its snap as the
    reference model steps it. It never waits, not even once fewer than
    ``_MAX_LEG_STEPS`` steps remain: ``landing`` keeps that first tick until
    the snap draws the next waypoint, and then reads -1."""
    grid = build_grid(2)
    speed = 1e-3
    dest = next(d for d in range(1, grid.n + 1)
                if (math.hypot(*grid.centers[d - 1]) - speed) / speed >= _MAX_LEG_STEPS)
    certain = Belief.from_string("1" * grid.n)
    agent = AgentState(0, 0.0, 0.0, certain, mode=Mode.SATURATED, dest=dest, speed=speed)
    expected = copy.deepcopy(agent)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    now = 0
    while agent.dest == dest:
        move_agents([agent], grid, rng, now=now, certified=ALL)
        reference_model.move([expected], grid, ref_rng)
        assert (agent.x, agent.y, agent.dest) == (expected.x, expected.y, expected.dest)
        assert agent.landing == (0 if agent.dest == dest else -1)
        now += 1
    assert now > _MAX_LEG_STEPS
    assert (agent.x, agent.y) == grid.centers[dest - 1]


def test_a_band_leg_is_marked_tried_until_it_arrives():
    """A target leg that ends in the arrival band is tried on its first move
    tick (7 here) and stepped as the reference model steps it: ``landing``
    keeps that tick until the agent arrives in the band, off the center, and
    then reads -1, so the next leg is fresh."""
    grid = build_grid(6)
    top = grid.centers.index((0.0, 30.0)) + 1
    # 25.5 at speed 5: the fifth step ends 0.5 from the center.
    agent = explorers([(0.0, 4.5, top)], grid, 5.0)[0]
    expected = copy.deepcopy(agent)
    now = 7
    while not move_agents([agent], grid, None, now=now, certified=ALL):
        assert not reference_model.move([expected], grid, None)
        assert (agent.x, agent.y, agent.landing) == (expected.x, expected.y, 7)
        now += 1
    assert reference_model.move([expected], grid, None) == [expected]
    assert (agent.x, agent.y, agent.landing) == (expected.x, expected.y, -1)
    assert now == 11 and (agent.x, agent.y) != grid.centers[top - 1]


def test_a_fusion_leaves_a_broadcaster_a_fresh_leg():
    """A broadcaster stepping a leg it tried on an earlier tick, which a
    fusion leaves exploring, waits after the next move tick exactly when the
    closed form certifies the leg from where the fusion left it: k =
    ceil((d - speed) / speed) steps, the last ending rest = d - k * speed
    from the center, more than the margin clear of the arrival band and of
    the speed. It then lands on tick now + k."""
    grid = build_grid(3)
    speed, now = 5.0, 10
    outcomes = {True: 0, False: 0}
    for x, y in [(0.0, 0.0), (1.3, -0.7), *grid.centers[::2]]:
        for dest in range(1, grid.n + 1):
            cx, cy = grid.centers[dest - 1]
            d = math.hypot(cx - x, cy - y)
            if d <= speed:
                continue
            agent = AgentState(0, x, y, Belief.unknown(grid.n), speed, Mode.BROADCASTING, dest, landing=3)
            # An all-Unknown partner leaves the belief and the target as they
            # are, so the fusion draws nothing.
            on_fusion(agent, Belief.unknown(grid.n), None)
            assert (agent.mode, agent.dest, agent.landing) == (Mode.EXPLORING, dest, -1)
            move_agents([agent], grid, None, now=now, certified=frozenset({Mode.EXPLORING}))
            k = math.ceil((d - speed) / speed)
            certifies = ARRIVAL_RADIUS + _LEG_MARGIN < d - k * speed < speed - _LEG_MARGIN
            assert agent.landing == (now + k if certifies else now)
            outcomes[certifies] += 1
    assert min(outcomes.values()) > 20


@pytest.mark.parametrize("speed", SPEEDS + (0.9,))
def test_wandering_agents_draw_as_stepping_ones_do(speed):
    """With saturated agents certified, every waypoint leg is tried on its
    first move tick: the waypoints, the draws and the position whenever an
    agent is not waiting on a certified leg match stepping, tick by tick."""
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
            else:
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
    seen, waiting = [], []

    def on_tick(state, _):
        seen.append([(a.x, a.y) for a in state.agents])
        # The last move tick is tick_index - 1: no agent waits past it.
        waiting.extend(a.id for a in state.agents if a.landing >= state.tick_index)

    engine.run(config, on_tick)
    assert seen == expected
    assert waiting == []
    state = engine.initialize(config)
    ticked = [[(a.x, a.y) for a in state.agents]]
    for _ in range(len(expected) - 1):
        engine.tick(state)
        ticked.append([(a.x, a.y) for a in state.agents])
        waiting.extend(a.id for a in state.agents if a.landing >= state.tick_index)
    assert ticked == expected
    assert waiting == []


@pytest.mark.parametrize("config", SOCIAL[1:], ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_unobserved_social_runs_certify_explorers_only(config, monkeypatch):
    """Without a callback, broadcasters and saturated agents of a social run
    step, and an agent that a fusion leaves exploring starts a fresh leg that
    the next move tick certifies as ``move_agents`` certifies a fresh
    exploring leg from where the fusion left it."""
    fused = []
    restarted = 0

    def on_fusion(agent, belief, rng):
        engine_on_fusion(agent, belief, rng)
        fused.append((agent, copy.deepcopy(agent)))

    def checked_move(agents, grid, rng, now, certified, next_row):
        nonlocal restarted
        arrived = move_agents(agents, grid, rng, now, certified, next_row)
        for agent, found in fused:
            if found.mode is Mode.EXPLORING:
                # An explorer draws nothing: no generator is needed.
                move_agents([found], grid, None, now, frozenset({Mode.EXPLORING}), next_row)
                assert (agent.x, agent.y, agent.landing) == (found.x, found.y, found.landing)
                restarted += found.landing > now
        fused.clear()
        return arrived

    def checked_tick(state):
        now = state.tick_index
        tick(state)
        assert all(a.landing <= now for a in state.agents if a.mode is not Mode.EXPLORING)

    engine_on_fusion, tick = engine.on_fusion, engine.tick
    monkeypatch.setattr(engine, "on_fusion", on_fusion)
    monkeypatch.setattr(engine, "move_agents", checked_move)
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config)
    monkeypatch.undo()
    assert restarted
    assert record.to_json() == reference_model.run(config).to_json()


@pytest.mark.parametrize("observed", [False, True], ids=["no observer", "on_row"])
@pytest.mark.parametrize("config", SOCIAL, ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_run_certifies_at_every_leg_start(config, observed, monkeypatch):
    """``engine.run`` itself, with no observer and with ``on_row``, starts
    waiting legs (``landing`` past the tick) from every place a leg starts,
    on the leg's first move tick: the first targets (tick 0), the previous
    tick's arrival that left the agent exploring or its fusion in a social
    run, and an asocial waypoint, both a first one (drawn this tick) and one
    drawn on the previous tick's snap. A waiting leg was fresh (``landing``
    -1) when that tick began. No broadcasting agent, and no saturated agent
    of a social run, ever waits."""
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
        before = [(a.landing, a.dest) for a in state.agents]
        last_arrived, last_fused = set(arrived), set(fused)
        arrived.clear()
        fused.clear()
        tick(state)
        for agent, (landing, dest) in zip(state.agents, before):
            waits = agent.landing > now
            assert not (waits and (agent.mode is Mode.BROADCASTING or social and agent.mode is Mode.SATURATED))
            if waits and agent.landing != landing:
                assert landing == -1
                if now == 0:
                    sites.add("first targets")
                elif dest is None:
                    assert agent.mode is Mode.SATURATED
                    sites.add("first waypoint")
                elif agent.id in last_fused:
                    sites.add("fusion")
                elif agent.id in last_arrived:
                    sites.add("arrival")
                else:
                    assert agent.mode is Mode.SATURATED
                    sites.add("waypoint")

    engine_on_arrival, engine_on_fusion, tick = engine.on_arrival, engine.on_fusion, engine.tick
    monkeypatch.setattr(engine, "on_arrival", on_arrival)
    monkeypatch.setattr(engine, "on_fusion", on_fusion)
    monkeypatch.setattr(engine, "tick", checked_tick)
    engine.run(config, on_row=(lambda state: None) if observed else None)
    expected = {"first targets", "fusion"} if social else {"first targets", "first waypoint", "waypoint"}
    if config.C_f < 1:  # at C_f = 1 every arrival broadcasts
        expected.add("arrival")
    assert sites == expected


ROWS = SOCIAL + [dataclasses.replace(c, sample_every=7, max_ticks=700) for c in SOCIAL]


@pytest.mark.parametrize("config", ROWS, ids=lambda c: f"C_f={c.C_f},speed={c.speed},every={c.sample_every}")
def test_rows_show_stepped_positions(config, monkeypatch):
    """``run(config, on_row=f)`` shows on every row the positions the
    reference model has on that row: no agent waits on a certified leg at a
    row, while some wait between later rows too. The record equals ``run(config)``'s,
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
    seen, waited, states = [], [], []

    def checked_tick(state):
        tick(state)
        waited.extend(state.tick_index for a in state.agents if a.landing >= state.tick_index)

    def on_row(state):
        seen.append([(a.x, a.y) for a in state.agents])
        # The last move tick is tick_index - 1: nobody waits past it.
        assert [a.id for a in state.agents if a.landing >= state.tick_index] == []
        for a in state.agents:
            assert (a.mode is Mode.SATURATED) == a.belief.is_certain()
            assert a.mode is Mode.SATURATED or a.belief.value_at(a.dest) is UNKNOWN
        states[:] = [state]

    tick = engine.tick
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config, on_row=on_row)
    assert seen == expected
    assert waited
    if config.sample_every == 7:  # legs still wait between rows after the first
        assert max(waited) > 7
    assert states[0].rng.bit_generator.state == model[0].rng.bit_generator.state
    monkeypatch.undo()
    assert record.to_json() == engine.run(config).to_json()


@pytest.mark.parametrize("speed", SPEEDS)
def test_a_leg_landing_on_the_next_row_is_stepped(speed):
    """Legs from the launch pad that ``move_agents`` certifies on tick
    ``now`` with no bound, landing on tick ``now + k``: with ``next_row =
    now + k`` each is stepped and marked tried, as the reference model steps
    it, and with ``next_row = now + k + 1`` it is certified as before."""
    grid = build_grid(3)
    now, certified = 20, 0
    for dest in range(1, grid.n + 1):
        agent = AgentState(0, 0.0, 0.0, Belief.unknown(grid.n), speed, dest=dest)
        unbounded = copy.deepcopy(agent)
        move_agents([unbounded], grid, None, now=now, certified=ALL)
        if unbounded.landing <= now:  # stepped, or snapped at once
            continue
        certified += 1
        k = unbounded.landing - now
        on_row, before = copy.deepcopy(agent), copy.deepcopy(agent)
        move_agents([on_row], grid, None, now=now, certified=ALL, next_row=now + k)
        reference_model.move([agent], grid, None)
        assert (on_row.x, on_row.y, on_row.landing) == (agent.x, agent.y, now)
        move_agents([before], grid, None, now=now, certified=ALL, next_row=now + k + 1)
        assert (before.x, before.y, before.landing) == (unbounded.x, unbounded.y, now + k)
    assert certified > 10


@pytest.mark.parametrize("config", SOCIAL, ids=lambda c: f"C_f={c.C_f},speed={c.speed}")
def test_a_row_on_every_tick_certifies_nothing(config, monkeypatch):
    """At ``sample_every=1`` every tick is a row, so the next row is always
    the next tick and no leg lands before it: ``run`` with ``on_row`` steps
    every agent, and its record is that of ``run`` without an observer."""
    config = dataclasses.replace(config, sample_every=1, max_ticks=600)
    waited = []

    def checked_tick(state):
        now = state.tick_index
        tick(state)
        waited.extend(a.id for a in state.agents if a.landing > now)

    tick = engine.tick
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config, on_row=lambda state: None)
    monkeypatch.undo()
    assert waited == []
    assert record.to_json() == engine.run(config).to_json()


@pytest.mark.parametrize(
    "config,freezes",
    [
        # All saturate at tick 156 and disagree; the run never converges.
        (SimConfig(m=6, hex_disc_radius=2, C_f=0.0, epsilon=0.1, seed=3, max_ticks=2000, sample_every=30), True),
        (SimConfig(m=8, hex_disc_radius=3, C_f=0.0, epsilon=0.1, seed=2, max_ticks=900, sample_every=7), True),
        # Converges off a row, on the tick its last agent saturates.
        (SimConfig(m=4, hex_disc_radius=1, C_f=0.0, epsilon=0.0, seed=21, max_ticks=3000, sample_every=50), False),
    ],
)
def test_asocial_rows_wait_on_saturated_legs_only_once_frozen(config, freezes, monkeypatch):
    """Under ``on_row`` an asocial run certifies no saturated leg until its
    agents are all saturated without consensus: from then on it can no
    longer converge, so no row can come off the schedule, and ``run`` adds
    saturated agents to the set before the next tick; their legs then wait
    between rows. A run that converges never adds them."""
    saturated_at, frozen_at, waits = [], [], {False: 0, True: 0}

    def checked_tick(state):
        now, frozen = state.tick_index, Mode.SATURATED in state.certified
        if frozen and not frozen_at:
            frozen_at.append(now)
        tick(state)
        waiting = [a.id for a in state.agents if a.mode is Mode.SATURATED and a.landing > now]
        assert frozen or waiting == []
        waits[frozen] += len(waiting)
        if not saturated_at and all(a.mode is Mode.SATURATED for a in state.agents):
            saturated_at.append(state.tick_index)

    tick = engine.tick
    monkeypatch.setattr(engine, "tick", checked_tick)
    record = engine.run(config, on_row=lambda state: None)
    monkeypatch.undo()
    assert record.converged is not freezes
    assert record.to_json() == engine.run(config).to_json()
    if freezes:
        assert frozen_at == saturated_at and waits[True] > 0
    else:
        assert frozen_at == [] and saturated_at == [record.terminal_tick]
