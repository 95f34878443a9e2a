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
every agent and detects arrivals. ``advance_position`` and ``at_target``
are its per-agent reference: the pass does exactly their arithmetic and
draws, and the tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .belief import (
    UNKNOWN,
    Belief,
    GroundTruth,
    fuse_beliefs,
    update_with_evidence,
)
from .environment import ARRIVAL_RADIUS, HexGrid, NoiseModel, observe

DEFAULT_SPEED = 5.0


class Mode(Enum):
    EXPLORING = "exploring"
    BROADCASTING = "broadcasting"
    SATURATED = "saturated"


@dataclass(slots=True)
class AgentState:
    """Plain mutable state of one agent.

    ``target`` is the proposition the agent is travelling to investigate
    (None once the belief is fully certain); ``waypoint`` is the wander
    destination used instead while saturated.
    """

    id: int
    x: float
    y: float
    belief: Belief
    mode: Mode = Mode.EXPLORING
    target: int | None = None
    waypoint: int | None = None
    speed: float = DEFAULT_SPEED

    def log_line(self, tick: int) -> str:
        """One trace line: tick, id, x, y, mode, certainty, belief string."""
        return (
            f"{tick} {self.id} {self.x:.3f} {self.y:.3f} "
            f"{self.mode.value} {self.belief.certainty()} {self.belief.to_string()}"
        )


def select_target(belief: Belief, rng: np.random.Generator) -> int | None:
    """Uniform draw over the propositions the belief is uncertain about.

    The candidates are the Unknown propositions in ascending index order;
    one ``rng.integers(count)`` draw picks the k-th of them.
    """
    unknown = ~belief.known & ((1 << belief.n) - 1)
    count = unknown.bit_count()
    if not count:
        return None
    for _ in range(int(rng.integers(count))):
        unknown &= unknown - 1  # clear the lowest set bit
    return (unknown & -unknown).bit_length()


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
    whose belief becomes fully certain saturates instead.
    """
    if agent.target is None:
        raise ValueError(f"agent {agent.id} arrived without a target")
    evidence = observe(agent.target, truth, noise, rng)
    agent.belief = update_with_evidence(agent.belief, evidence)
    if agent.belief.is_certain():
        agent.mode = Mode.SATURATED
        agent.target = None
        return agent
    agent.target = select_target(agent.belief, rng)
    if agent.mode is Mode.EXPLORING and rng.random() < comm_freq:
        agent.mode = Mode.BROADCASTING
    return agent


def on_fusion(agent: AgentState, partner_belief: Belief, rng: np.random.Generator) -> AgentState:
    """Adopt the fused belief after an exchange with one partner.

    Fusing ends the communicating state: the agent drops back to exploring
    unless the fused belief is fully certain, in which case it saturates.
    If fusion settled the proposition the agent was travelling to (or the
    agent had none), a fresh target is drawn.
    """
    fused = fuse_beliefs(agent.belief, partner_belief)
    agent.belief = fused
    if fused.is_certain():
        agent.mode = Mode.SATURATED
        agent.target = None
        return agent
    agent.mode = Mode.EXPLORING
    agent.waypoint = None
    if agent.target is None or fused.value_at(agent.target) is not UNKNOWN:
        agent.target = select_target(fused, rng)
    return agent


def advance_position(agent: AgentState, grid: HexGrid, rng: np.random.Generator) -> AgentState:
    """Move up to ``speed`` units straight toward the current destination.

    Saturated agents head for a randomly drawn cell center and redraw it
    on arrival; everyone else heads for their target cell. Movement never
    overshoots the destination. This is the reference for the movement
    half of ``move_agents``, which the tick uses instead.
    """
    if agent.mode is Mode.SATURATED:
        if agent.waypoint is None:
            agent.waypoint = int(rng.integers(grid.n)) + 1
        dest = agent.waypoint
    else:
        dest = agent.target
        if dest is None:
            return agent
    cx, cy = grid.center_of(dest)
    dx = cx - agent.x
    dy = cy - agent.y
    dist = math.hypot(dx, dy)
    if dist <= agent.speed:
        agent.x = cx
        agent.y = cy
        if agent.mode is Mode.SATURATED:
            agent.waypoint = int(rng.integers(grid.n)) + 1
    else:
        scale = agent.speed / dist
        agent.x += dx * scale
        agent.y += dy * scale
    return agent


def at_target(agent: AgentState, grid: HexGrid) -> bool:
    """True when the agent is within the arrival radius of its target cell.

    This is the reference for the arrival half of ``move_agents``.
    """
    if agent.target is None:
        return False
    cx, cy = grid.center_of(agent.target)
    return math.hypot(cx - agent.x, cy - agent.y) <= ARRIVAL_RADIUS


def move_agents(agents: list[AgentState], grid: HexGrid, rng: np.random.Generator) -> list[AgentState]:
    """Phases 1-2 of the tick: move every agent, then say who arrived.

    Agents are visited in list (id) order. Each one moves exactly as
    ``advance_position`` moves it, with the same arithmetic and the same
    waypoint draws in the same order, and then counts as arrived exactly
    when ``at_target`` would say so of its new position. Returns the
    arrived agents in list order; no arrival is handled here, so every
    movement draw of a tick comes before every arrival draw.

    Destinations are proposition indices the agents hold, always in
    1..n, so centers are read without ``center_of``'s range check.
    """
    centers = grid.centers
    n = len(centers)
    # Locals, because global and enum attribute lookups are a measurable
    # share of this loop.
    hypot = math.hypot
    saturated_mode = Mode.SATURATED
    arrived = []
    for agent in agents:
        target = agent.target
        saturated = agent.mode is saturated_mode
        if saturated:
            dest = agent.waypoint
            if dest is None:
                dest = agent.waypoint = int(rng.integers(n)) + 1
        elif target is None:
            continue
        else:
            dest = target
        cx, cy = centers[dest - 1]
        x = agent.x
        y = agent.y
        dx = cx - x
        dy = cy - y
        dist = hypot(dx, dy)
        speed = agent.speed
        if dist <= speed:
            x = cx
            y = cy
            if saturated:
                agent.waypoint = int(rng.integers(n)) + 1
        else:
            scale = speed / dist
            x += dx * scale
            y += dy * scale
        agent.x = x
        agent.y = y
        if target is None:
            continue
        if target != dest:
            cx, cy = centers[target - 1]
        if hypot(cx - x, cy - y) <= ARRIVAL_RADIUS:
            arrived.append(agent)
    return arrived
