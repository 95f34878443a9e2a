"""Outside-in tracer for the hexswarm benchmark.

Each hexswarm module calls its collaborators through its own module
globals: ``engine.tick`` calls the ``advance_position`` bound in
``hexswarm.engine``, ``agent.on_arrival`` calls the ``observe`` bound in
``hexswarm.agent``.  The tracer replaces those bindings with timing
wrappers while it is installed and restores them afterwards, so no file of
the package changes.

Per span name it keeps, in memory, the call count, total time, the time
covered by wrapped children and the set of parent names; self time is total
minus children.  Individual spans are kept only at the coarse boundaries in
``COARSE``, since an asocial run makes 600k ``advance_position`` calls.  A
sweep's worker processes write their per-run aggregates to small JSON files
that the parent merges after the pool has shut down.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name).  A function looked up from two modules
# is wrapped in both and shares one span name.
TARGETS = [
    ("engine", "run", "engine.run"),
    ("engine", "initialize", "engine.initialize"),
    ("cli", "initialize", "engine.initialize"),
    ("engine", "tick", "engine.tick"),
    ("cli", "tick", "engine.tick"),
    ("engine", "consensus_reached", "engine.consensus_reached"),
    ("engine", "average_error", "engine.average_error"),
    ("engine", "build_grid", "environment.build_grid"),
    ("engine", "advance_position", "agent.advance_position"),
    ("engine", "at_target", "agent.at_target"),
    ("engine", "on_arrival", "agent.on_arrival"),
    ("engine", "on_fusion", "agent.on_fusion"),
    ("engine", "select_target", "agent.select_target"),
    ("agent", "select_target", "agent.select_target"),
    ("agent", "observe", "environment.observe"),
    ("agent", "update_with_evidence", "belief.update_with_evidence"),
    ("agent", "fuse_beliefs", "belief.fuse_beliefs"),
    ("engine", "physical_edges", "network.physical_edges"),
    ("engine", "eligible_edges", "network.eligible_edges"),
    ("experiment", "expand", "experiment.expand"),
    ("cli", "run_sweep", "experiment.run_sweep"),
    ("cli", "aggregate", "experiment.aggregate"),
    ("cli", "mean_trajectories", "experiment.mean_trajectories"),
    ("cli", "write_sweep_results", "experiment.write_sweep_results"),
    ("cli", "write_cell_summary", "experiment.write_cell_summary"),
    ("cli", "write_trajectories", "experiment.write_trajectories"),
    ("cli", "main", "cli.main"),
]
COARSE = {"cli.main", "engine.run", "experiment.run_sweep"}
DUMP_DIR_ENV = "HEXSWARM_BENCH_TRACE_DIR"


def _collapses(a, b) -> int:
    # Both certain and opposite: the fusion operator yields Unknown.
    return int(np.count_nonzero(np.abs(a.codes - b.codes) == 2))


def _count_observe(counters, args, evidence):
    index, truth = args[0], args[1]
    if evidence.codes[index - 1] != truth.codes[index - 1]:
        counters["environment.noisy_flips"] += 1


def _count_fusion(counters, args, fused):
    counters["belief.contradiction_collapses"] += _collapses(args[0], args[1])


def _count_physical(counters, args, edges):
    counters["network.physical_edges.edges_out"] += len(edges)


def _count_eligible(counters, args, edges):
    counters["network.eligible_edges.edges_out"] += len(edges)
    counters["network.broadcasters"] += len(args[2])


HOOKS = {
    "environment.observe": _count_observe,
    "belief.fuse_beliefs": _count_fusion,
    "belief.update_with_evidence": _count_fusion,
    "network.physical_edges": _count_physical,
    "network.eligible_edges": _count_eligible,
}
COUNTERS = [
    "environment.noisy_flips",
    "belief.contradiction_collapses",
    "network.physical_edges.edges_out",
    "network.eligible_edges.edges_out",
    "network.broadcasters",
]

_active: Tracer | None = None


def hexswarm_modules() -> dict:
    from hexswarm import agent, cli, engine, experiment

    return {"agent": agent, "cli": cli, "engine": engine, "experiment": experiment}


class Tracer:
    """Aggregating span recorder; use as a context manager to install it."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, child_ns]
        self.parents: dict[str, set] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []  # (name, parent, pid, start_ns, end_ns)
        self.stack: list[list] = []  # open frames: [name, child_ns]
        self.runs: list[dict] = []  # one entry per sweep trial
        self.pid = os.getpid()
        self.in_worker = False
        self._saved: list[tuple] = []
        self._run = None

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        parents = self.parents.setdefault(name, set())
        hook = HOOKS.get(name)
        stack, counters, clock = self.stack, self.counters, time.perf_counter_ns
        spans = self.spans if name in COARSE else None

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            parents.add(parent)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if spans is not None:
                    spans.append((name, parent, os.getpid(), start, end))
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        global _active
        for mod, attr, name in TARGETS:
            module = modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        experiment = modules["experiment"]
        self._saved.append((experiment, "run", experiment.run))
        self._run = self._wrap("engine.run", experiment.run)
        experiment.run = sweep_trial
        os.environ[DUMP_DIR_ENV] = str(self.dump_dir)
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        os.environ.pop(DUMP_DIR_ENV, None)
        _active = None

    def __enter__(self) -> Tracer:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dump_dir.glob("*.json"):
            stale.unlink()
        self.install(hexswarm_modules())
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> tuple[dict, dict, int]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counters), len(self.spans))

    def delta(self, before) -> tuple[dict, dict]:
        stats, counters, _ = before
        dstats = {k: [a - b for a, b in zip(v, stats.get(k, (0, 0, 0)))] for k, v in self.stats.items()}
        dcounters = {k: v - counters.get(k, 0) for k, v in self.counters.items()}
        return dstats, dcounters

    def self_ns(self, name: str) -> int:
        _, total, child = self.stats.get(name, (0, 0, 0))
        return total - child

    def collect_worker_dumps(self) -> None:
        """Merge the aggregates that sweep workers wrote, then delete them."""
        for path in sorted(self.dump_dir.glob("*.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            for name, values in dump["stats"].items():
                stat = self.stats.setdefault(name, [0, 0, 0])
                for i, v in enumerate(values):
                    stat[i] += v
            for name, parents in dump["parents"].items():
                self.parents.setdefault(name, set()).update(parents)
            for name, v in dump["counters"].items():
                self.counters[name] += v
            self.spans.extend(tuple(s) for s in dump["spans"])
            self.runs.append(dump["run"])

    def summary(self) -> dict:
        """Per-name aggregates plus coarse spans, in a JSON-ready form."""
        return {
            "aggregates": {
                name: {
                    "calls": calls,
                    "total_ns": total,
                    "self_ns": total - child,
                    "parents": sorted(p or "" for p in self.parents.get(name, ())),
                }
                for name, (calls, total, child) in sorted(self.stats.items())
            },
            "counters": self.counters,
            "spans": [
                {"name": n, "parent": p, "pid": pid, "start_ns": s, "end_ns": e}
                for n, p, pid, s, e in self.spans
            ],
        }


def run_summary(dstats: dict, wall_ns: int, ticks: int | None, fusions: int | None, asocial: bool) -> dict:
    """What one run must agree with: its RunRecord and its outer wall time."""
    return {
        "calls": {name: v[0] for name, v in dstats.items()},
        "self_ns": sum(total - child for _, total, child in dstats.values()),
        "wall_ns": wall_ns,
        "ticks": ticks,
        "fusions": fusions,
        "asocial": asocial,
    }


def check_run(run: dict, tolerance: float = 0.005, slack_ns: int = 1_000_000) -> list[str]:
    """Consistency problems of one traced run; an empty list means none."""
    problems = []
    if abs(run["self_ns"] - run["wall_ns"]) > tolerance * run["wall_ns"] + slack_ns:
        problems.append(f"self times sum to {run['self_ns']} ns, traced wall is {run['wall_ns']} ns")
    if run["ticks"] is None:
        return problems
    calls = run["calls"]
    if calls.get("engine.tick", 0) != run["ticks"]:
        problems.append(f"engine.tick.calls {calls.get('engine.tick', 0)} != terminal ticks {run['ticks']}")
    arrivals = calls.get("agent.on_arrival", 0)
    for name in ("environment.observe", "belief.update_with_evidence"):
        if calls.get(name, 0) != arrivals:
            problems.append(f"{name}.calls {calls.get(name, 0)} != agent.on_arrival.calls {arrivals}")
    if calls.get("agent.on_fusion", 0) != 2 * run["fusions"]:
        problems.append(f"agent.on_fusion.calls {calls.get('agent.on_fusion', 0)} != 2 x fusion events {run['fusions']}")
    if run["asocial"] and calls.get("network.physical_edges", 0) != 0:
        problems.append("network.physical_edges called in an asocial run")
    return problems


def sweep_trial(config):
    """Stands in for ``experiment.run`` while tracing; picklable by reference.

    In a worker process the inherited (fork) or freshly installed (spawn)
    tracer records one trial and writes its aggregates to the dump
    directory; in the parent (one worker) the trial is recorded in place.
    """
    tracer = _active
    if tracer is None:
        tracer = Tracer(Path(os.environ[DUMP_DIR_ENV]))
        tracer.install(hexswarm_modules())
        tracer.in_worker = True
    if tracer.pid != os.getpid():
        tracer.pid = os.getpid()
        tracer.in_worker = True
    if tracer.in_worker:
        # The trial runs on behalf of the parent's run_sweep span.
        tracer.stack[:] = [["experiment.run_sweep", 0]]
    before = tracer.snapshot()
    start = time.perf_counter_ns()
    record = tracer._run(config)
    wall = time.perf_counter_ns() - start
    dstats, dcounters = tracer.delta(before)
    run = run_summary(dstats, wall, record.terminal_tick, record.trajectory[-1].fusion_events, config.C_f == 0)
    if not tracer.in_worker:
        tracer.runs.append(run)
        return record
    dump = {
        "stats": dstats,
        "parents": {k: sorted(p for p in v if p) for k, v in tracer.parents.items()},
        "counters": dcounters,
        "spans": tracer.spans[before[2]:],
        "run": run,
    }
    path = tracer.dump_dir / f"{os.getpid()}-{config.seed}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(dump))
    tmp.rename(path)
    return record
