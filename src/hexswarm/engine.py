"""Single-run simulation engine.

Each tick applies a fixed phase order:

1. every agent advances toward its destination, in id order;
2. agents that reached their target cell gather evidence and retarget,
   in id order. Phases 1-2 are one pass, ``agent.move_agents``, that
   moves every agent and collects the arrivals; ``on_arrival`` then runs
   on those;
3. each broadcasting agent, in ascending id order, is linked to those of
   its higher-id interaction neighbours that also broadcast;
4. of those linked pairs, the ones within ``C_r`` of each other at the
   new positions are eligible. Phases 3-4 are one pass over the agents,
   ``network.eligible_partners``, so distance is tested only for pairs
   the interaction network allows;
5. broadcasting agents are visited in seeded-random order and greedily
   matched into fusing pairs, each pair fusing mutually at most once per
   tick;
6. saturated agents rejoin the broadcast pool for the next tick.

A run is a pure function of its config (seed included): one PCG64
generator drives every random draw, consumed in the phase/agent order
above, so identical configs reproduce identical records byte for byte.
``initialize`` builds it as a ``LemireGenerator``, whose values and state
are those of ``np.random.default_rng(seed)``.

Communication frequency 0 is the asocial special case: nobody, saturated
agents included, ever broadcasts, so no fusion can occur. With no eligible
pair, as with fewer than two broadcasters, phase 5 draws nothing.

``run`` checks for convergence only after a tick with an arrival or a
fusion of two different beliefs (``SimState.informative_fusion``). Only
arrivals and fusions change a mode or a belief, and a fusion of equal
beliefs changes no belief and saturates no agent, so it cannot complete
convergence.

An asocial run whose agents are all saturated can no longer change: a
saturated agent heads for a wander waypoint, not a target, so none
arrives, and nobody broadcasts. If it has not
converged by then it never will, so ``run`` sets ``SimState.idle`` and
every later tick only counts: ``tick`` advances the tick counter and
returns, agents stop wandering and the generator is no longer drawn
from. ``run`` then leaves its per-tick loop, calls ``tick`` once per
remaining tick so that the number of calls equals the terminal tick, and
appends the remaining rows at once, all with the values of the idle state.
Nothing in the ``RunRecord`` shows this. ``run`` never idles when given
an observer (``on_tick`` or ``on_row``), since an observer may read the
positions of wandering agents.

The certification policy. Phases 3-4 read only the positions of
broadcasters, saturated agents included when ``C_f > 0``. So ``run``
decides which modes' straight legs skip their steps,
``SimState.certified``: none with ``on_tick``, which may read every
position; exploring when ``C_f > 0``; exploring and saturated when
``C_f == 0``. Phase 1 (``agent.move_agents``) tries each leg once, on
its first move tick, and the engine touches no leg itself. A certified
agent waits on the leg's center, and phase 1 passes it over until the
tick on which stepping would snap it there, when it lands, draws and
arrives in its id-order place; a leg too close to a threshold for its
closed form to be certain of that tick is stepped. An agent that can
fuse is a broadcaster, so it never waits. So the record and every draw
are unchanged, and positions mid-leg are not kept.

``on_row`` reads every position on each trajectory row, so with it no
row may find an agent waiting. ``run`` keeps the next row's tick in
``SimState.next_row``, and phase 1 certifies only a leg that lands
before it. The terminal row of a converged run comes on an unscheduled
tick; every agent is saturated then, so ``on_row`` leaves saturated legs
stepped until an asocial run freezes (below), when it can no longer
converge and ``run`` adds them to the set. ``tick`` called directly,
with the set left empty, steps every agent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .agent import (
    EXPLORING,
    SATURATED,
    AgentState,
    Mode,
    move_agents,
    on_arrival,
    on_fusion,
    select_target,
)
from .belief import Belief, GroundTruth, belief_error
from .environment import HexGrid, NoiseModel, build_grid, sample_ground_truth
from .errors import ConfigError, check, check_lattice, shown
from .network import InteractionNetwork, complete_graph, eligible_partners, ring_lattice

# The per-agent movement and edge-set reference functions stay bound here
# although the tick no longer calls them: the benchmark's tracer
# (perfbench/tracer.py) wraps ``hexswarm.engine.advance_position``,
# ``at_target``, ``physical_edges`` and ``eligible_edges`` by name.
from .agent import advance_position, at_target  # noqa: F401
from .network import eligible_edges, physical_edges  # noqa: F401


class LemireGenerator(np.random.Generator):
    """A ``Generator`` whose single-bound ``integers(n)`` skips numpy's
    argument handling, which costs several times the draw itself.

    For one positional ``int`` n in [2, 2**32 - 1] it makes numpy's own
    draw: 32-bit Lemire rejection over the bit generator's C
    ``next_uint32``, as numpy does for an int64 bound below 2**32. Going
    through that C function keeps the half-word ``has_uint32`` buffer in
    the bit generator's state, so the values, the state after each call and
    every later ``random`` or ``shuffle`` are those of a plain
    ``Generator``. It returns a Python int where numpy returns an int64.
    Every other call is numpy's. The fast path does not take the bit
    generator's lock, so two threads must not draw from one instance at
    once; a run draws from its own generator in one thread.
    """

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        super().__init__(bit_generator)
        c = self.bit_generator.ctypes
        self._next_uint32 = c.next_uint32
        self._state = c.state

    def integers(self, *args, **kwargs):
        if len(args) == 1 and not kwargs:
            n = args[0]
            if type(n) is int and 2 <= n <= 0xFFFFFFFF:
                m = self._next_uint32(self._state) * n
                if m & 0xFFFFFFFF < n:
                    threshold = (0x100000000 - n) % n
                    while m & 0xFFFFFFFF < threshold:
                        m = self._next_uint32(self._state) * n
                return m >> 32
        return super().integers(*args, **kwargs)


def parse_topology(topology: str) -> tuple[str, int | None]:
    """Split a topology tag into (kind, k): "complete" or "lattice:<k>",
    where k is written in ASCII decimal digits only, without a leading zero
    (no sign, underscore or other script), so the tag echoed into outputs
    names k plainly and each k has one tag."""
    if topology == "complete":
        return "complete", None
    if topology.startswith("lattice:"):
        k = topology[len("lattice:"):]
        try:
            if k.isascii() and k.isdigit() and k == str(int(k)):
                return "lattice", int(k)
        except ValueError:  # more digits than int() converts
            pass
    raise ConfigError(f"topology must be 'complete' or 'lattice:<k>', got {topology!r}")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a single run. ``C_r`` is the communication radius in
    world units, ``C_f`` the probability of entering the broadcasting
    state after gathering evidence."""

    m: int = 20
    hex_disc_radius: int = 6
    C_r: float = 20.0
    C_f: float = 0.1
    epsilon: float = 0.0
    topology: str = "complete"
    max_ticks: int = 30_000
    speed: float = 5.0
    seed: int = 0
    sample_every: int = 100

    def validate(self) -> None:
        for f in fields(self):
            if f.name != "topology":
                check(f.name, getattr(self, f.name))
        if not isinstance(self.topology, str):
            raise ConfigError(f"topology must be a string, got {shown(self.topology)}")
        kind, k = parse_topology(self.topology)
        if kind == "lattice":
            check_lattice(self.m, k)


class TrajectoryPoint(NamedTuple):
    tick: int
    average_error: float
    mean_certainty: float
    fusion_events: int


@dataclass
class SimState:
    """Mutable state of one run in progress."""

    config: SimConfig
    grid: HexGrid
    truth: GroundTruth
    network: InteractionNetwork
    noise: NoiseModel
    agents: list[AgentState]
    rng: np.random.Generator
    tick_index: int = 0
    fusion_events: int = 0
    # Agents that arrived at their target cell (in id order) during the
    # most recent tick.
    last_arrivals: list[AgentState] = field(default_factory=list)
    # Whether the most recent tick fused a pair whose beliefs differed, the
    # only kind of fusion that changes a belief. ``run`` skips the
    # convergence check when this is False and ``last_arrivals`` is empty.
    informative_fusion: bool = False
    # Set by ``run`` once no tick can change a mode or a belief, when it
    # also leaves ``last_arrivals`` empty; ``tick`` then only advances
    # ``tick_index``.
    idle: bool = False
    # The modes whose legs are certified, and the tick before which a
    # certified leg must land: the policy in the module docstring.
    certified: frozenset[Mode] = frozenset()
    next_row: float = math.inf


@dataclass
class RunRecord:
    """Outcome of a single run: config echo, sampled trajectory, summary.

    Trajectory rows are (tick, average error, mean certainty fraction,
    cumulative fusion events), strictly increasing in tick and always
    including tick 0 and the terminal tick. The last row therefore holds
    the terminal tick and the steady-state error, and both are read from it.
    """

    config: dict
    trajectory: list[TrajectoryPoint]
    converged: bool

    @property
    def terminal_tick(self) -> int:
        return self.trajectory[-1].tick

    @property
    def steady_state_error(self) -> float:
        return self.trajectory[-1].average_error

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "trajectory": [list(p) for p in self.trajectory],
            "summary": {
                "terminal_tick": self.terminal_tick,
                "converged": self.converged,
                "steady_state_error": self.steady_state_error,
                "fusion_events": self.trajectory[-1].fusion_events,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def initialize(config: SimConfig) -> SimState:
    """Set up a run: arena, world state, network, and m fresh agents.

    All agents start on the launch pad at (0, 0) with totally uncertain
    beliefs and a freshly drawn target each. The generator is consumed in
    the order: ground truth, then per-agent initial targets.
    """
    config.validate()
    grid = build_grid(config.hex_disc_radius)
    rng = LemireGenerator(np.random.PCG64(config.seed))
    truth = sample_ground_truth(grid.n, rng)
    kind, k = parse_topology(config.topology)
    if kind == "complete":
        network = complete_graph(config.m)
    else:
        network = ring_lattice(config.m, k)
    noise = NoiseModel(config.epsilon)
    agents = [
        AgentState(id=i, x=0.0, y=0.0, belief=Belief.unknown(grid.n), speed=config.speed)
        for i in range(config.m)
    ]
    for agent in agents:
        agent.dest = select_target(agent.belief, rng)
    return SimState(config, grid, truth, network, noise, agents, rng)


def consensus_reached(beliefs: list[Belief]) -> bool:
    """True when all beliefs are identical and contain no Unknown entries."""
    if not beliefs:
        raise ValueError("consensus_reached needs a nonempty population")
    first = beliefs[0]
    if not first.is_certain():
        return False
    return all(b == first for b in beliefs[1:])


def average_error(beliefs: list[Belief], truth: GroundTruth) -> float:
    """Population mean of per-belief error against the ground truth."""
    if not beliefs:
        raise ValueError("average_error needs a nonempty population")
    return sum(belief_error(b, truth) for b in beliefs) / len(beliefs)


def _run_fusion_phase(state: SimState) -> None:
    agents = state.agents
    # Each partner list is in ascending id order, which the candidate draw
    # below depends on.
    order, adjacency = eligible_partners(agents, state.config.C_r, state.network)
    if not adjacency:
        return
    rng = state.rng
    matched: set[int] = set()
    # Shuffling the fresh id list in place makes the same draws, and gives
    # the same order, as indexing it through rng.permutation(len(order)):
    # both swap by one random_interval draw per position, last to first.
    rng.shuffle(order)
    for i in order:
        if i in matched or i not in adjacency:
            continue
        candidates = [j for j in adjacency[i] if j not in matched]
        if not candidates:
            continue
        # integers(1) returns 0 without consuming the generator, so a lone
        # candidate is taken without a draw.
        j = candidates[0] if len(candidates) == 1 else candidates[int(rng.integers(len(candidates)))]
        belief_i = agents[i].belief
        belief_j = agents[j].belief
        # Masks compared inline: Belief.__eq__ is a Python-level call.
        if belief_i.known != belief_j.known or belief_i.true != belief_j.true:
            state.informative_fusion = True
        on_fusion(agents[i], belief_j, rng)
        on_fusion(agents[j], belief_i, rng)
        matched.add(i)
        matched.add(j)
        state.fusion_events += 1


def tick(state: SimState) -> SimState:
    """Advance the simulation by one time step (see module docstring).

    An idle state (``SimState.idle``) only advances ``tick_index``: its
    ``last_arrivals`` was emptied when it went idle and stays empty.
    """
    if state.idle:
        state.tick_index += 1
        return state
    cfg = state.config
    agents = state.agents
    rng = state.rng
    state.informative_fusion = False
    state.last_arrivals = move_agents(agents, state.grid, rng, state.tick_index, state.certified, state.next_row)
    for agent in state.last_arrivals:
        on_arrival(agent, state.truth, state.noise, cfg.C_f, rng)

    if cfg.C_f > 0:
        _run_fusion_phase(state)

    state.tick_index += 1
    return state


def _sample(state: SimState) -> TrajectoryPoint:
    beliefs = [a.belief for a in state.agents]
    n = state.grid.n
    mean_cert = sum(b.certainty() for b in beliefs) / (len(beliefs) * n)
    return TrajectoryPoint(
        state.tick_index,
        average_error(beliefs, state.truth),
        mean_cert,
        state.fusion_events,
    )


def run(
    config: SimConfig,
    on_tick: Callable[[SimState, bool], None] | None = None,
    on_row: Callable[[SimState], None] | None = None,
) -> RunRecord:
    """Run to unanimous consensus or the tick cap, sampling metrics on the way.

    ``on_tick(state, sampled)``, when given, is called once after
    ``initialize`` and once after every tick. ``sampled`` is True exactly
    when that tick is a trajectory row: tick 0, every ``sample_every``-th
    tick and the terminal tick. ``on_row(state)``, when given, is called
    only on those: after ``initialize`` and after every row tick. Either
    observes the state and must not change it; ``hexswarm trace`` uses
    ``on_tick`` and ``hexswarm run`` ``on_row`` to write agent trace lines.

    Without an observer, an asocial run (``C_f == 0``) that has every agent
    saturated but has not converged goes idle (see the module docstring):
    its remaining ticks only count up to ``max_ticks``, in a bare loop, and
    its remaining rows repeat one sample. The record is the same either
    way; only the generator's use after that point differs. With ``on_row``
    alone, that point instead adds saturated agents to the certified set.
    The certification policy (module docstring) is decided here, and
    ``SimState.next_row`` advanced after each row, so ``on_row`` sees every
    agent where stepping would have it.
    """
    state = initialize(config)
    # Under on_row saturated legs wait only once the run is frozen (below).
    modes = (
        () if on_tick is not None
        else (EXPLORING,) if config.C_f > 0 or on_row is not None
        else (EXPLORING, SATURATED)
    )
    state.certified = frozenset(modes)
    trajectory = [_sample(state)]
    if on_row is not None:
        on_row(state)
        state.next_row = min(config.sample_every, config.max_ticks)
    if on_tick is not None:
        on_tick(state, True)
    converged = False
    for t in range(1, config.max_ticks + 1):
        tick(state)
        # Modes and beliefs change only in on_arrival and on_fusion. At tick
        # 0 every belief is Unknown, so the run has not converged then. A
        # fusion of equal beliefs changes no belief: it leaves two saturated
        # agents as they were, or turns two broadcasters into explorers. So
        # a tick with neither an arrival nor an informative fusion saturates
        # no agent and changes no belief, and cannot newly converge: the
        # check is needed only after a tick with one.
        if state.last_arrivals or state.informative_fusion:
            # Arrivals first: an unsaturated arrival, the usual case, skips the full scan.
            arrivals_saturated = all(a.mode is SATURATED for a in state.last_arrivals)
            saturated = arrivals_saturated and all(a.mode is SATURATED for a in state.agents)
            converged = saturated and consensus_reached([a.belief for a in state.agents])
            # Asocial and all saturated: no agent arrives or broadcasts
            # again, so nothing changes before max_ticks. Emptying the
            # arrival list here leaves the idle ticks nothing to reset.
            # on_row reads the wandering agents on each row, but the run can
            # no longer converge on a tick that is not one.
            if saturated and not converged and config.C_f == 0 and on_tick is None:
                if on_row is None:
                    state.idle = True
                    state.last_arrivals = []
                    break
                state.certified = frozenset((EXPLORING, SATURATED))
        sampled = t % config.sample_every == 0 or converged or t == config.max_ticks
        if sampled:
            trajectory.append(_sample(state))
            if on_row is not None:
                on_row(state)
                state.next_row = min(t + config.sample_every, config.max_ticks)
        if on_tick is not None:
            on_tick(state, sampled)
        if converged:
            break
    if state.idle:
        # Idle since tick t, which has no row yet; later ticks only count.
        for _ in range(config.max_ticks - t):
            tick(state)
        last = _sample(state)
        every = config.sample_every
        trajectory += [last._replace(tick=s) for s in range(t + (-t) % every, config.max_ticks, every)]
        trajectory.append(last)
    return RunRecord(config=asdict(config), trajectory=trajectory, converged=converged)
