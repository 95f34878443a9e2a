"""Per-agent state machine.

An agent cycles through: pick an uncertain proposition, travel to its
cell, observe it (possibly erroneously), then with probability comm_freq
start broadcasting its belief while travelling to the next cell. A
broadcasting agent keeps broadcasting until it actually fuses with a
partner. Once its belief is fully certain the agent saturates: it stops
looking for evidence and instead wanders between random cells,
broadcasting continuously to pull the rest of the population toward
consensus.

The tick moves the population with ``move_agents``, one pass that advances
every agent and detects arrivals exactly as ``advance_position`` and
``at_target`` do per agent; the reference model in
``tests/reference_model.py`` moves with those, and the tests compare the two.
On a leg's first move tick, ``move_agents`` may replace the leg's steps by
its closed form (the policy is in the ``engine`` module docstring): nothing
reads a certified agent's position before it lands, so none is kept
mid-leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .belief import (
    Belief,
    GroundTruth,
    fuse_beliefs,
    update_with_evidence,
)
from .environment import ARRIVAL_RADIUS, HexGrid, NoiseModel, observe

# The one rounding margin of a straight leg's closed form. From the leg's
# first computed distance d, stepping snaps on the center after k =
# ceil((d - speed) / speed) steps, the last of which ends rest = d - k*speed
# from it. Each step rounds the subtraction from the center, hypot (under 1
# ulp), the scale, the product and the add once. With X a bound on every
# coordinate and u = 2**-53, the step changes the exact distance by speed
# within about 6u*speed + 1.5u*X, and speed is below the step's distance, at
# most 3X. So after j steps the computed distance is d - j*speed within
# (20j + 18)u*X, and rest's own rounding adds under 6u*X. The arena cap of
# ``errors.RULES`` (hex_disc_radius <= 300, at ``environment.CIRCUMRADIUS`` 10)
# gives X < 5200 < 2**13, so for every j <= _MAX_LEG_STEPS = 2**15 the error
# stays below (20 * 2**15 + 24) * 2**-40 < 6e-7 < _LEG_MARGIN. It bounds
# a certified leg's k steps and the arrival band (j = 1), both in
# ``move_agents``. A leg of more steps (a small speed) is stepped.
_LEG_MARGIN = 1e-6
_MAX_LEG_STEPS = 2**15


class Mode(Enum):
    EXPLORING = "exploring"
    BROADCASTING = "broadcasting"
    SATURATED = "saturated"

    # Members are singletons: an identity hash is exact and runs in C, where
    # Enum's own is Python code, 150 ns more per test against a set of modes.
    __hash__ = object.__hash__


# Per-tick code reads these module constants: a global read is several
# times cheaper than looking up an Enum member.
EXPLORING = Mode.EXPLORING
BROADCASTING = Mode.BROADCASTING
SATURATED = Mode.SATURATED

# _POPCOUNT[b] is the number of set bits in the byte b, a ``bytes.translate``
# table; _SET_BITS[b] lists the positions (0-7) of those bits in ascending
# order.
_POPCOUNT = bytes(b.bit_count() for b in range(256))
_SET_BITS = tuple(bytes(j for j in range(8) if b >> j & 1) for b in range(256))


@dataclass(slots=True)
class AgentState:
    """Plain mutable state of one agent.

    ``dest`` is the one cell the agent heads for: the target proposition it
    travels to investigate, or once saturated its wander waypoint (None
    until the first is drawn). ``landing`` is -1 for a fresh leg, not yet
    tried for certification (``move_agents``); the tick it was tried on,
    for a leg that is stepped; and, while the agent waits on a certified
    leg, the later tick on which it lands.
    """

    id: int
    x: float
    y: float
    belief: Belief
    speed: float
    mode: Mode = EXPLORING
    dest: int | None = None
    landing: int = -1

    def log_line(self, tick: int) -> str:
        """One trace line: tick, id, x, y, mode, certainty, belief string."""
        return (
            f"{tick} {self.id} {self.x:.3f} {self.y:.3f} "
            f"{self.mode.value} {self.belief.certainty()} {self.belief.to_string()}"
        )


def select_target(belief: Belief, rng: np.random.Generator) -> int | None:
    """Uniform draw over the propositions the belief is uncertain about.

    The candidates are the Unknown propositions in ascending index order;
    one ``rng.integers(count)`` draw picks the k-th of them (0-based). The
    Unknown mask is read as little-endian bytes: whole bytes are skipped by
    their popcount (``_POPCOUNT``) until k falls inside one, and
    ``_SET_BITS`` gives the k-th set bit of that byte, so the pick costs one
    pass over at most ``ceil(n / 8)`` bytes whatever k is. A lone
    Unknown is returned without a draw: ``integers(1)`` returns 0 without
    consuming the generator, so skipping it changes no later draw.
    """
    n = belief.n
    unknown = ~belief.known & ((1 << n) - 1)
    count = unknown.bit_count()
    if count == 1:
        return unknown.bit_length()
    if not count:
        return None
    k = int(rng.integers(count))
    data = unknown.to_bytes((n + 7) >> 3, "little")
    for i, ones in enumerate(data.translate(_POPCOUNT)):
        if k < ones:
            return 8 * i + _SET_BITS[data[i]][k] + 1
        k -= ones


def on_arrival(
    agent: AgentState,
    truth: GroundTruth,
    noise: NoiseModel,
    comm_freq: float,
    rng: np.random.Generator,
) -> AgentState:
    """Gather evidence at the target cell and pick the next destination.

    RNG is consumed in a fixed order: observation flip, then target draw,
    then the broadcast roll. An agent that was already broadcasting stays
    broadcasting (the communicating state ends only through fusion); one
    whose belief becomes fully certain saturates instead, with no waypoint
    yet. A saturated agent has no target, so it cannot arrive.
    """
    if agent.mode is SATURATED or agent.dest is None:
        raise ValueError(f"agent {agent.id} arrived without a target")
    evidence = observe(agent.dest, truth, noise, rng)
    agent.belief = update_with_evidence(agent.belief, evidence)
    if agent.belief.is_certain():
        agent.mode = SATURATED
        agent.dest = None
        return agent
    agent.dest = select_target(agent.belief, rng)
    if agent.mode is EXPLORING and rng.random() < comm_freq:
        agent.mode = BROADCASTING
    return agent


def on_fusion(agent: AgentState, partner_belief: Belief, rng: np.random.Generator) -> AgentState:
    """Adopt the fused belief after an exchange with one partner.

    Fusing ends the communicating state: the agent drops back to exploring
    unless the fused belief is fully certain, in which case it saturates.
    One that saturates here has no waypoint yet; one already saturated
    keeps its waypoint, on which its later draws depend. An agent left
    exploring draws a fresh target if it was saturated (a waypoint is not a
    target) or if fusion settled the proposition it was travelling to.

    A saturated agent whose certain belief equals the partner's returns at
    once: the fused belief would be its own, so it keeps its belief, mode,
    waypoint and leg. Any other agent's leg is fresh again (``landing =
    -1``): ``move_agents`` tries it from here, as a fusion may leave it in
    a certified mode. Under the engine's policy an agent that can fuse
    never waits, and a saturated one is never certified, so keeping its
    leg as tried changes nothing.
    """
    belief = agent.belief
    if (
        agent.mode is SATURATED
        and partner_belief.known == belief.known
        and partner_belief.true == belief.true
        and belief.is_certain()
    ):
        return agent
    fused = fuse_beliefs(belief, partner_belief)
    agent.belief = fused
    agent.landing = -1
    wandering = agent.mode is SATURATED
    if fused.is_certain():
        if not wandering:
            agent.mode = SATURATED
            agent.dest = None
        return agent
    agent.mode = EXPLORING
    if wandering or fused.known >> (agent.dest - 1) & 1:
        agent.dest = select_target(fused, rng)
    return agent


def advance_position(agent: AgentState, grid: HexGrid, rng: np.random.Generator) -> AgentState:
    """Move up to ``speed`` units straight toward the current destination.

    A saturated agent draws a random cell as its waypoint when it has none
    and redraws it on reaching it. Movement never overshoots ``dest``.
    This is the reference for the movement half of ``move_agents``, which
    the tick uses instead.
    """
    dest = agent.dest
    if dest is None:  # only a saturated agent, before its first waypoint
        dest = agent.dest = int(rng.integers(grid.n)) + 1
    cx, cy = grid.center_of(dest)
    dx = cx - agent.x
    dy = cy - agent.y
    dist = math.hypot(dx, dy)
    if dist <= agent.speed:
        agent.x = cx
        agent.y = cy
        if agent.mode is SATURATED:
            agent.dest = int(rng.integers(grid.n)) + 1
    else:
        scale = agent.speed / dist
        agent.x += dx * scale
        agent.y += dy * scale
    return agent


def at_target(agent: AgentState, grid: HexGrid) -> bool:
    """True when the agent is within the arrival radius of its target cell.

    A saturated agent has no target (its ``dest`` is a waypoint), so it is
    never at one. This is the reference for the arrival half of
    ``move_agents``.
    """
    if agent.mode is SATURATED:
        return False
    cx, cy = grid.center_of(agent.dest)
    return math.hypot(cx - agent.x, cy - agent.y) <= ARRIVAL_RADIUS


def move_agents(
    agents: list[AgentState],
    grid: HexGrid,
    rng: np.random.Generator,
    now: int = 0,
    certified: frozenset[Mode] = frozenset(),
    next_row: float = math.inf,
) -> list[AgentState]:
    """Phases 1-2 of the tick: move every agent, then say who arrived.

    Agents are visited in list (id) order. Each one moves exactly as
    ``advance_position`` moves it, with the same arithmetic and the same
    waypoint draws in the same order, and then counts as arrived exactly
    when ``at_target`` would say so of its new position. Returns the
    arrived agents in list order; no arrival is handled here, so every
    movement draw of a tick comes before every arrival draw.

    ``now`` is the tick's index. A fresh leg (``landing`` -1, see
    ``AgentState``) is tried once, on its first move tick, from the
    distance just computed. If the agent's mode is in ``certified`` (the
    ``engine`` module docstring's policy) and the leg's closed form is far
    enough from every threshold (``_LEG_MARGIN``) that stepping would snap
    onto the center on tick ``now + k`` and, for a target, arrive nowhere
    before, and if that tick comes before ``next_row`` (the next tick whose
    positions an observer reads, so that it never finds the agent mid-leg),
    the agent is placed on the center with ``landing = now + k``. It is
    passed over until that tick, where it snaps from distance 0 with the
    same draws as a stepped leg. Any other leg is stepped, with ``landing =
    now`` marking it tried. A snap or an arrival sets ``landing`` back to
    -1, as ``on_fusion`` does. With the default ``certified`` every agent
    steps; the default ``next_row`` sets no bound.

    A saturated agent's ``dest`` is a waypoint, not a target, so it never
    arrives. Any other agent holds a target (no engine path leaves it
    without one), so its arrival test needs no ``hypot``: one that snapped
    onto the center sits at distance 0, and one that stepped from farther
    than ``speed + ARRIVAL_RADIUS + _LEG_MARGIN`` is out of reach. Only the
    band in between takes the exact ``at_target`` test.

    Destinations are proposition indices the agents hold, always in
    1..n, so centers are read without ``center_of``'s range check.
    """
    centers = grid.centers
    n = len(centers)
    # A local, because the global and attribute lookup of math.hypot is a
    # measurable share of this loop.
    hypot = math.hypot
    reach = ARRIVAL_RADIUS + _LEG_MARGIN
    arrived = []
    for agent in agents:
        landing = agent.landing
        if landing > now:
            continue
        dest = agent.dest
        if dest is None:  # a saturated agent's first waypoint
            dest = agent.dest = int(rng.integers(n)) + 1
        cx, cy = centers[dest - 1]
        dx = cx - agent.x
        dy = cy - agent.y
        dist = hypot(dx, dy)
        speed = agent.speed
        if dist <= speed:
            agent.x = cx
            agent.y = cy
            agent.landing = -1
            if agent.mode is SATURATED:
                agent.dest = int(rng.integers(n)) + 1
            else:  # snapped onto the target's center
                arrived.append(agent)
            continue
        if landing < 0:
            agent.landing = now
            mode = agent.mode
            if mode in certified:
                steps = (dist - speed) / speed
                if steps < _MAX_LEG_STEPS:
                    k = math.ceil(steps)
                    rest = dist - k * speed
                    # The last step ends rest from a target: no arrival before landing.
                    low = _LEG_MARGIN if mode is SATURATED else reach
                    if low < rest < speed - _LEG_MARGIN and now + k < next_row:
                        agent.x = cx
                        agent.y = cy
                        agent.landing = now + k
                        continue
        scale = speed / dist
        agent.x += dx * scale
        agent.y += dy * scale
        if dist > speed + reach or agent.mode is SATURATED:
            continue
        if hypot(cx - agent.x, cy - agent.y) <= ARRIVAL_RADIUS:
            agent.landing = -1
            arrived.append(agent)
    return arrived
