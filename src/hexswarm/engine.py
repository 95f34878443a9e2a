"""Single-run simulation engine.

Each tick applies a fixed phase order:

1. every agent advances toward its destination, in id order;
2. agents that reached their target cell gather evidence and retarget,
   in id order. Phases 1-2 are one pass, ``agent.move_agents``, that
   moves every agent and collects the arrivals; ``on_arrival`` then runs
   on those;
3. proximity is computed from the new positions, among the currently
   broadcasting agents only;
4. it is intersected with the interaction network's boolean matrix,
   giving the eligible pairs;
5. broadcasting agents are visited in seeded-random order and greedily
   matched into fusing pairs, each pair fusing mutually at most once per
   tick;
6. saturated agents rejoin the broadcast pool for the next tick.

A run is a pure function of its config (seed included): one PCG64
generator drives every random draw, consumed in the phase/agent order
above, so identical configs reproduce identical records byte for byte.

Communication frequency 0 is the asocial special case: nobody, saturated
agents included, ever broadcasts, so no fusion can occur. Phases 3..5 are
skipped entirely whenever fewer than two agents are broadcasting, which
leaves no observable trace because nothing in them consumes randomness.

``run`` checks for convergence only after a tick with an arrival or a
fusion, the only events that change a mode or a belief.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .agent import AgentState, Mode, move_agents, on_arrival, on_fusion, select_target
from .belief import Belief, GroundTruth, belief_error
from .environment import HexGrid, NoiseModel, build_grid, sample_ground_truth
from .errors import ConfigError
from .network import InteractionNetwork, complete_graph, eligible_matrix, ring_lattice

# The per-agent movement and edge-set reference functions stay bound here
# although the tick no longer calls them: the benchmark's tracer
# (perfbench/tracer.py) wraps ``hexswarm.engine.advance_position``,
# ``at_target``, ``physical_edges`` and ``eligible_edges`` by name.
from .agent import advance_position, at_target  # noqa: F401
from .network import eligible_edges, physical_edges  # noqa: F401


def parse_topology(topology: str) -> tuple[str, int | None]:
    """Split a topology tag into (kind, k): "complete" or "lattice:<k>",
    where k is written in ASCII decimal digits only (no sign, underscore or
    other script), so the tag echoed into outputs names k plainly."""
    if topology == "complete":
        return "complete", None
    if topology.startswith("lattice:"):
        k = topology[len("lattice:"):]
        if k.isascii() and k.isdigit():
            return "lattice", int(k)
    raise ConfigError(f"topology must be 'complete' or 'lattice:<k>', got {topology!r}")


def require_int(name: str, value: object) -> None:
    """Raise ConfigError unless ``value`` is an integer (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_finite(name: str, value: object) -> None:
    """Raise ConfigError unless ``value`` is a finite real number (bools excluded)."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int too large to convert to a float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


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
        for name in ("m", "hex_disc_radius", "max_ticks", "seed", "sample_every"):
            require_int(name, getattr(self, name))
        for name in ("C_r", "C_f", "epsilon", "speed"):
            require_finite(name, getattr(self, name))
        if not isinstance(self.topology, str):
            raise ConfigError(f"topology must be a string, got {self.topology!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if self.hex_disc_radius < 1:
            raise ConfigError(f"hex_disc_radius must be >= 1, got {self.hex_disc_radius}")
        if self.C_r <= 0:
            raise ConfigError(f"C_r must be positive, got {self.C_r}")
        if not 0.0 <= self.C_f <= 1.0:
            raise ConfigError(f"C_f must be in [0, 1], got {self.C_f}")
        if not 0.0 <= self.epsilon <= 0.5:
            raise ConfigError(f"epsilon must be in [0, 0.5], got {self.epsilon}")
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks must be >= 1, got {self.max_ticks}")
        if self.speed <= 0:
            raise ConfigError(f"speed must be positive, got {self.speed}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        kind, k = parse_topology(self.topology)
        if kind == "lattice":
            if k % 2 != 0 or not 2 <= k <= self.m - 2:
                raise ConfigError(
                    f"topology lattice k must be even and in [2, m-2], got k={k} for m={self.m}"
                )

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
    rng = np.random.default_rng(config.seed)
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
    ids = np.array(broadcasters)
    positions = np.array([(agents[i].x, agents[i].y) for i in broadcasters])
    elig = eligible_matrix(positions, state.config.C_r, state.network.matrix[ids][:, ids])
    rows, cols = np.nonzero(elig)
    if not len(rows):
        return
    # np.nonzero is row-major, so each agent's partners come in ascending id
    # order, which the candidate draw below depends on.
    adjacency: dict[int, list[int]] = {}
    for p, q in zip(rows.tolist(), cols.tolist()):
        adjacency.setdefault(broadcasters[p], []).append(broadcasters[q])
    matched: set[int] = set()
    order = state.rng.permutation(broadcasters)
    for i in order:
        i = int(i)
        if i in matched or i not in adjacency:
            continue
        candidates = [j for j in adjacency[i] if j not in matched]
        if not candidates:
            continue
        j = candidates[int(state.rng.integers(len(candidates)))]
        belief_i = agents[i].belief
        belief_j = agents[j].belief
        on_fusion(agents[i], belief_j, state.rng)
        on_fusion(agents[j], belief_i, state.rng)
        matched.add(i)
        matched.add(j)
        state.fusion_events += 1
        state.last_fusions.append((i, j))


def tick(state: SimState) -> SimState:
    """Advance the simulation by one time step (see module docstring)."""
    cfg = state.config
    agents = state.agents
    rng = state.rng
    state.last_fusions = []

    state.last_arrivals = move_agents(agents, state.grid, rng)
    for agent in state.last_arrivals:
        on_arrival(agent, state.truth, state.noise, cfg.C_f, rng)

    if cfg.C_f > 0:
        broadcasters = [a.id for a in agents if a.mode is not Mode.EXPLORING]
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
    """
    state = initialize(config)
    trajectory = [_sample(state)]
    if on_tick is not None:
        on_tick(state, True)
    converged = False
    for t in range(1, config.max_ticks + 1):
        tick(state)
        # Modes and beliefs change only in on_arrival and on_fusion. At tick
        # 0 every belief is Unknown, so the run has not converged then, and a
        # tick with neither an arrival nor a fusion leaves every mode and
        # belief as the previous (unconverged) tick had them, so it cannot
        # newly converge: the check is needed only after a tick with one.
        if state.last_arrivals or state.last_fusions:
            converged = all(a.mode is Mode.SATURATED for a in state.agents) and consensus_reached(
                [a.belief for a in state.agents]
            )
        sampled = t % config.sample_every == 0 or converged or t == config.max_ticks
        if sampled:
            trajectory.append(_sample(state))
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
