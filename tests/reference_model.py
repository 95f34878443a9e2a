"""README's "Model in one paragraph" and "Determinism" as slow, plain code,
which the tests check every fast path against: int8 code beliefs, per-agent
moves, edge-set pairing, a plain ``default_rng(seed)``, a convergence check
after every tick, a fresh sample for every row and no idle state. Only data
types and set-up come from ``hexswarm``."""

from dataclasses import asdict
from math import sqrt

import numpy as np

from hexswarm.agent import AgentState, Mode, advance_position, at_target
from hexswarm.belief import _FUSION, Belief, GroundTruth
from hexswarm.engine import RunRecord, SimState, TrajectoryPoint, parse_topology
from hexswarm.environment import NoiseModel, build_grid
from hexswarm.experiment import _cell_columns
from hexswarm.network import complete_graph, eligible_edges, physical_edges, ring_lattice

UNKNOWN = 1
NUMERIC = np.array([0.0, 0.5, 1.0])  # the error metric's reading of each code


def fuse(a, b):
    """The fusion table, proposition by proposition."""
    return Belief(_FUSION[a.codes, b.codes].tolist())


def error(codes, truth):
    """Mean distance of the codes' numeric readings from the truth's, per row."""
    return np.abs(NUMERIC[codes] - NUMERIC[truth.codes]).mean(axis=-1)


def evidence(index, truth, epsilon, rng):
    """Proposition ``index`` of the truth, flipped with probability epsilon."""
    codes, true = np.full(len(truth), UNKNOWN, dtype=np.int8), truth.codes[index - 1]
    codes[index - 1] = true if rng.random() >= epsilon else 2 - true
    return Belief(codes.tolist())


def pick_target(belief, rng):
    """One draw over the Unknown propositions in ascending order, or None."""
    unknown = np.flatnonzero(belief.codes == UNKNOWN) + 1
    return int(unknown[rng.integers(len(unknown))]) if len(unknown) else None


def adopt(agent, belief):
    """Take a belief; say if it is uncertain, else saturate the agent: its
    target is dropped, and a wanderer keeps its waypoint."""
    agent.belief = belief
    if UNKNOWN in belief.codes:
        return True
    if agent.mode is not Mode.SATURATED:
        agent.mode, agent.dest = Mode.SATURATED, None
    return False


def arrive(agent, state):
    """Observe the target, retarget, maybe start broadcasting."""
    rng, cfg = state.rng, state.config
    if adopt(agent, fuse(agent.belief, evidence(agent.dest, state.truth, cfg.epsilon, rng))):
        agent.dest = pick_target(agent.belief, rng)
        if agent.mode is Mode.EXPLORING and rng.random() < cfg.C_f:
            agent.mode = Mode.BROADCASTING


def fuse_with(agent, partner, rng):
    """Fusing ends broadcasting; a wanderer's waypoint, or a target now
    known, is replaced by a fresh target."""
    wanderer = agent.mode is Mode.SATURATED
    if adopt(agent, fuse(agent.belief, partner)):
        agent.mode = Mode.EXPLORING
        if wanderer or agent.belief.codes[agent.dest - 1] != UNKNOWN:
            agent.dest = pick_target(agent.belief, rng)


def move(agents, grid, rng):
    """Phases 1-2: every agent moves, then those at their target arrive."""
    for agent in agents:
        advance_position(agent, grid, rng)
    return [agent for agent in agents if at_target(agent, grid)]


def eligible_pairs(broadcasters, positions, radius, network):
    """Pairs within ``radius``, linked in ``network``, both broadcasting."""
    return eligible_edges(physical_edges(positions, radius), network, set(broadcasters))


def fusion_phase(state, broadcasters):
    """Phases 3-5: if any pair is eligible, broadcasters in permutation order
    each fuse with a draw over their unmatched partners, in id order."""
    agents, rng, partners, matched = state.agents, state.rng, {}, set()
    positions = [(a.x, a.y) for a in agents]
    for i, j in sorted(eligible_pairs(broadcasters, positions, state.config.C_r, state.network)):
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    if not partners:
        return
    for i in rng.permutation(broadcasters).tolist():
        candidates = [j for j in partners.get(i, []) if j not in matched]
        if i in matched or not candidates:
            continue
        j = candidates[rng.integers(len(candidates))]
        belief_i = agents[i].belief
        fuse_with(agents[i], agents[j].belief, rng)
        fuse_with(agents[j], belief_i, rng)
        matched.update((i, j))
        state.fusion_events += 1
        state.last_fusions.append((i, j))


def initialize(config):
    """Ground truth, then one target draw per agent, all at the launch cell."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    grid = build_grid(config.hex_disc_radius)
    truth = GroundTruth.from_bools(rng.random(grid.n) < 0.5)
    kind, k = parse_topology(config.topology)
    network = complete_graph(config.m) if kind == "complete" else ring_lattice(config.m, k)
    agents = [AgentState(i, 0.0, 0.0, Belief.unknown(grid.n), speed=config.speed) for i in range(config.m)]
    for agent in agents:
        agent.dest = pick_target(agent.belief, rng)
    return SimState(config, grid, truth, network, NoiseModel(config.epsilon), agents, rng)


def tick(state):
    """Move, arrive in id order, then fuse; nobody broadcasts when C_f is 0."""
    state.last_fusions = []
    state.last_arrivals = move(state.agents, state.grid, state.rng)
    for agent in state.last_arrivals:
        arrive(agent, state)
    if state.config.C_f > 0:
        fusion_phase(state, [a.id for a in state.agents if a.mode is not Mode.EXPLORING])
    state.tick_index += 1


def sample(state):
    """A trajectory row, and whether every agent holds one certain belief."""
    codes = np.array([a.belief.codes for a in state.agents])
    errors, certainty = error(codes, state.truth).tolist(), np.count_nonzero(codes != UNKNOWN) / codes.size
    point = TrajectoryPoint(state.tick_index, sum(errors) / len(errors), certainty, state.fusion_events)
    return point, bool(certainty == 1 and (codes == codes[0]).all())


def run(config, on_tick=None):
    """Tick to a unanimous, fully certain population or ``max_ticks``;
    ``on_tick(state, sampled)`` observes set-up and every tick."""
    state = initialize(config)
    trajectory = [sample(state)[0]]
    if on_tick:
        on_tick(state, True)
    for t in range(1, config.max_ticks + 1):
        tick(state)
        point, done = sample(state)
        sampled = t % config.sample_every == 0 or done or t == config.max_ticks
        if sampled:
            trajectory.append(point)
        if on_tick:
            on_tick(state, sampled)
        if done:
            break
    return RunRecord(asdict(config), trajectory, done)


def ci95(values):
    """A cell's 95% confidence half-width: 0.0 for one trial or equal values."""
    if len(values) < 2 or len(set(values)) == 1:
        return 0.0
    return 1.96 * float(np.std(values, ddof=1)) / sqrt(len(values))


def trajectory_rows(grouped, sample_every):
    """``mean_trajectories`` one grid tick at a time: each run's last row at
    or before the tick, then one ``np.mean`` and one ``ci95`` over the runs."""
    rows = []
    for records in grouped:
        horizon = max(r.terminal_tick for r in records)
        for t in sorted({*range(0, horizon + 1, sample_every), horizon}):
            at_t = [[p.average_error for p in r.trajectory if p.tick <= t][-1] for r in records]
            rows.append((*_cell_columns(records[0].config), t, float(np.mean(at_t)), ci95(at_t)))
    return rows
