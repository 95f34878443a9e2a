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
   new positions are eligible. Phases 3-4 are one pass,
   ``network.eligible_partners``, so distance is tested only for pairs
   the interaction network allows;
5. broadcasting agents are visited in seeded-random order and greedily
   matched into fusing pairs, each pair fusing mutually at most once per
   tick;
6. saturated agents rejoin the broadcast pool for the next tick.

A run is a pure function of its config (seed included): one PCG64
generator drives every random draw, consumed in the phase/agent order
above, so identical configs reproduce identical records byte for byte.
``initialize`` builds it as a ``LemireGenerator``: each single-bound
``integers(n)`` runs numpy's own 32-bit Lemire draw over the bit
generator's C ``next_uint32`` without ``Generator.integers``' argument
handling, so the values and the generator state are those of
``np.random.default_rng(seed)``, and ``random``/``shuffle`` stay numpy's.

Communication frequency 0 is the asocial special case: nobody, saturated
agents included, ever broadcasts, so no fusion can occur. Phases 3..5 are
skipped entirely whenever fewer than two agents are broadcasting, which
leaves no observable trace because nothing in them consumes randomness.

``run`` checks for convergence only after a tick with an arrival or a
fusion, the only events that change a mode or a belief, and a trajectory
row taken with neither since the previous row repeats that row's values.

An asocial run whose agents are all saturated can no longer change: no
agent has a target, so none arrives, and nobody broadcasts. If it has not
converged by then it never will, so ``run`` sets ``SimState.idle`` and
every later tick only counts: ``tick`` advances the tick counter and
returns, agents stop wandering and the generator is no longer drawn
from. ``run`` still calls ``tick`` once per tick, so that the number of
``tick`` calls equals the terminal tick. Nothing in the ``RunRecord``
shows this. ``run`` never idles when given an ``on_tick`` callback, since
a callback may observe positions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .agent import EXPLORING, SATURATED, AgentState, move_agents, on_arrival, on_fusion, select_target
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

    def connectivity(self) -> int:
        """Interaction-network degree: k for a lattice, m-1 when complete."""
        kind, k = parse_topology(self.topology)
        return self.m - 1 if kind == "complete" else k


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
    # Fusion pairs formed and agents that arrived at their target cell
    # (in id order) during the most recent tick; ``run`` skips the
    # convergence check when both are empty.
    last_fusions: list[tuple[int, int]] = field(default_factory=list)
    last_arrivals: list[AgentState] = field(default_factory=list)
    # Set by ``run`` once no tick can change a mode or a belief, when it
    # also leaves both lists above empty; ``tick`` then only advances
    # ``tick_index``.
    idle: bool = False


@dataclass
class RunRecord:
    """Outcome of a single run: config echo, sampled trajectory, summary.

    Trajectory rows are (tick, average error, mean certainty fraction,
    cumulative fusion events), strictly increasing in tick and always
    including tick 0 and the terminal tick.
    """

    config: dict
    trajectory: list[TrajectoryPoint]
    terminal_tick: int
    converged: bool
    steady_state_error: float

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

    All agents start on the launch cell with totally uncertain beliefs and
    a freshly drawn target each. The generator is consumed in the order:
    ground truth, then per-agent initial targets.
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
    launch = grid.launch
    agents = [
        AgentState(id=i, x=launch.x, y=launch.y, belief=Belief.unknown(grid.n), speed=config.speed)
        for i in range(config.m)
    ]
    for agent in agents:
        agent.target = select_target(agent.belief, rng)
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


def _run_fusion_phase(state: SimState, broadcasters: list[int]) -> None:
    agents = state.agents
    # Each partner list is in ascending id order, which the candidate draw
    # below depends on.
    adjacency = eligible_partners(broadcasters, agents, state.config.C_r, state.network)
    if not adjacency:
        return
    rng = state.rng
    matched: set[int] = set()
    # Shuffling the id list in place makes the same draws, and gives the
    # same order, as indexing it through rng.permutation(len(broadcasters)):
    # both swap by one random_interval draw per position, last to first.
    order = broadcasters.copy()
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
        on_fusion(agents[i], belief_j, rng)
        on_fusion(agents[j], belief_i, rng)
        matched.add(i)
        matched.add(j)
        state.fusion_events += 1
        state.last_fusions.append((i, j))


def tick(state: SimState) -> SimState:
    """Advance the simulation by one time step (see module docstring).

    An idle state (``SimState.idle``) only advances ``tick_index``: its
    ``last_arrivals`` and ``last_fusions`` were emptied when it went idle
    and stay empty.
    """
    if state.idle:
        state.tick_index += 1
        return state
    cfg = state.config
    agents = state.agents
    rng = state.rng
    state.last_fusions = []
    state.last_arrivals = move_agents(agents, state.grid, rng)
    for agent in state.last_arrivals:
        on_arrival(agent, state.truth, state.noise, cfg.C_f, rng)

    if cfg.C_f > 0:
        broadcasters = [a.id for a in agents if a.mode is not EXPLORING]
        if len(broadcasters) >= 2:
            _run_fusion_phase(state, broadcasters)

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


def run(config: SimConfig, on_tick: Callable[[SimState, bool], None] | None = None) -> RunRecord:
    """Run to unanimous consensus or the tick cap, sampling metrics on the way.

    ``on_tick(state, sampled)``, when given, is called once after
    ``initialize`` and once after every tick. ``sampled`` is True exactly
    when that tick is a trajectory row: tick 0, every ``sample_every``-th
    tick and the terminal tick. It observes the state and must not change
    it; the CLI uses it to write agent trace lines.

    Without ``on_tick``, an asocial run (``C_f == 0``) that has every agent
    saturated but has not converged goes idle (see the module docstring):
    its remaining ticks only count up to ``max_ticks``. The record is the
    same either way; only the generator's use after that point differs.
    """
    state = initialize(config)
    trajectory = [_sample(state)]
    if on_tick is not None:
        on_tick(state, True)
    converged = False
    # Whether an arrival or a fusion happened since the last trajectory row.
    changed = False
    for t in range(1, config.max_ticks + 1):
        tick(state)
        # Modes and beliefs change only in on_arrival and on_fusion. At tick
        # 0 every belief is Unknown, so the run has not converged then, and a
        # tick with neither an arrival nor a fusion leaves every mode and
        # belief as the previous (unconverged) tick had them, so it cannot
        # newly converge: the check is needed only after a tick with one.
        if state.last_arrivals or state.last_fusions:
            changed = True
            saturated = all(a.mode is SATURATED for a in state.agents)
            converged = saturated and consensus_reached([a.belief for a in state.agents])
            # Asocial and all saturated: no agent arrives or broadcasts
            # again, so nothing changes before max_ticks. The fusion list is
            # empty (C_f == 0); emptying the arrival list here leaves the idle
            # ticks nothing to reset.
            if saturated and not converged and config.C_f == 0 and on_tick is None:
                state.idle = True
                state.last_arrivals = []
        sampled = t % config.sample_every == 0 or converged or t == config.max_ticks
        if sampled:
            # A row depends only on beliefs and the fusion count, which change
            # only with an arrival or a fusion, so without one since the last
            # row the values repeat.
            trajectory.append(_sample(state) if changed else trajectory[-1]._replace(tick=t))
            changed = False
        if on_tick is not None:
            on_tick(state, sampled)
        if converged:
            break
    return RunRecord(
        config=asdict(config),
        trajectory=trajectory,
        terminal_tick=state.tick_index,
        converged=converged,
        steady_state_error=trajectory[-1].average_error,
    )
