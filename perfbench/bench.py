#!/usr/bin/env python3
"""Benchmark of the hexswarm simulator.

Run from the repository root:

    python3 perfbench/bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (README.md beside this file says why each exists):

    base-cli     ``hexswarm run`` on configs/base.json, in process, per seed
    lattice-cf1  ``engine.run`` on lattice:2 with C_f=1 and epsilon=0.3
    asocial      ``engine.run`` with C_f=0; the network layer is never called
    fig3-sweep   ``hexswarm sweep`` on a slice of configs/fig3.json, ten times

Every workload draws its run seeds (or the sweeps' base seeds) from --seed.
With ``--trace 0`` the workload's seed set runs, and is repeated until
--seconds have passed; every timing is scaled by a calibration kernel taken
next to it, and the end-to-end metrics are printed.  With
``--trace 1`` the seed set runs once plain and once under the outside-in
tracer of tracer.py, and the per-layer metrics are printed.

Each run's output is hashed and must match every other repetition of it
and, where references.json has an entry, the recorded reference.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance and the output digests.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the checkout holds no hexswarm source.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import prod
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from tracer import Tracer, check_run, run_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
MIN_REPS = 1
SETUP_PROBES = 5
SWEEP_WORKERS = min(2, os.cpu_count() or 1)
SWEEP_CSVS = ("sweep_results.csv", "cell_summary.csv", "trajectories.csv")
# calibrate() on the reference host: a 2-core x86 VM, Python 3.11, numpy 2.4.
CALIBRATION_REF_S = 0.006


class BenchError(Exception):
    """A run's output failed a check, or the checkout cannot be benchmarked."""


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli-run", "engine-run" or "cli-sweep"
    runs: int  # runs per repetition, each with its own seed (base seed for a sweep)
    params: dict  # config keys set on top of the preset (CLI --set for cli kinds)


# Sizes trade the spread between seed sets against run time: on the
# reference host base-cli, lattice-cf1 and fig3-sweep run once for 15-20 s,
# asocial (every run is 30,000 ticks) twice for 8 s.  Ten small sweeps
# replace one large one, whose time moved by 15% between repetitions.
# The run workloads start from configs/base.json: m=20, hex_disc_radius=6,
# max_ticks=30000, speed 5, sample_every 100, complete graph, C_r=20.
WORKLOADS = {
    "base-cli": Workload("cli-run", 56, {}),
    "lattice-cf1": Workload("engine-run", 18, {"topology": "lattice:2", "C_f": 1.0, "epsilon": 0.3}),
    "asocial": Workload("engine-run", 7, {"C_f": 0.0, "epsilon": 0.1}),
    "fig3-sweep": Workload(
        "cli-sweep", 10, {"topology": ["complete"], "C_r": [20], "C_f": [0, 0.1], "epsilon": [0.1], "repeats": 2}
    ),
}


@dataclass
class Outcome:
    wall_ns: int  # the library call alone; checks and hashing are outside it
    ticks: int
    fusions: int | None
    asocial: bool
    digests: dict
    output_bytes: int


@dataclass
class Item:
    label: str
    key: str  # hash of everything that determines the output
    execute: Callable[[], Outcome]


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_hexswarm() -> SimpleNamespace:
    """Import hexswarm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    for needed in (src / "hexswarm" / "__init__.py", ROOT / "configs" / "base.json", ROOT / "configs" / "fig3.json"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import hexswarm
    from hexswarm import cli, engine

    if Path(hexswarm.__file__).resolve().parent != src / "hexswarm":
        raise BenchError(f"hexswarm imported from {hexswarm.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, engine=engine)


def run_seeds(name: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def _set_args(params: dict) -> list[str]:
    return [arg for key, value in params.items() for arg in ("--set", f"{key}={json.dumps(value)}")]


def _call(fn, *args):
    start = time.perf_counter_ns()
    with redirect_stdout(io.StringIO()):
        result = fn(*args)
    return result, time.perf_counter_ns() - start


def _cli_run(hs, argv: list[str], out: Path) -> Outcome:
    for stale in ("run_record.json", "trace.log"):
        (out / stale).unlink(missing_ok=True)
    code, wall = _call(hs.cli.main, argv)
    if code != 0:
        raise BenchError(f"hexswarm {' '.join(argv)} exited {code}")
    text = (out / "run_record.json").read_text()
    log = (out / "trace.log").read_text()
    record = json.loads(text)
    logged = len(log.splitlines())
    if logged != record["config"]["m"] * len(record["trajectory"]):
        raise BenchError(f"trace.log has {logged} lines for {len(record['trajectory'])} samples")
    summary = record["summary"]
    return Outcome(
        wall,
        summary["terminal_tick"],
        summary["fusion_events"],
        record["config"]["C_f"] == 0,
        {"run_record": sha256(text.removesuffix("\n")), "trace.log": sha256(log)},
        len(text.encode()) + len(log.encode()),
    )


def _engine_run(hs, config: dict) -> Outcome:
    sim = hs.engine.SimConfig(**config)
    record, wall = _call(hs.engine.run, sim)
    return Outcome(
        wall,
        record.terminal_tick,
        record.trajectory[-1].fusion_events,
        sim.C_f == 0,
        {"run_record": sha256(record.to_json())},
        0,
    )


def _cli_sweep(hs, argv: list[str], out: Path, trials: int) -> Outcome:
    for stale in SWEEP_CSVS:
        (out / stale).unlink(missing_ok=True)
    code, wall = _call(hs.cli.main, argv)
    if code != 0:
        raise BenchError(f"hexswarm {' '.join(argv)} exited {code}")
    files = {name: (out / name).read_bytes() for name in SWEEP_CSVS}
    rows = list(csv.DictReader(io.StringIO(files["sweep_results.csv"].decode())))
    if len(rows) != trials:
        raise BenchError(f"sweep_results.csv has {len(rows)} rows, expected {trials}")
    return Outcome(
        wall,
        sum(int(row["terminal_tick"]) for row in rows),
        None,
        False,
        {name: sha256(data) for name, data in files.items()},
        sum(len(data) for data in files.values()),
    )


def make_items(hs, name: str, workload: Workload, seed: int) -> tuple[list[Item], dict]:
    """The workload's runs for one benchmark seed, plus its set-up payload."""
    out = WORK / name / "out"
    out.mkdir(parents=True, exist_ok=True)
    base_path = ROOT / "configs" / "base.json"
    base = json.loads(base_path.read_text())
    if workload.kind == "cli-sweep":
        fig3_path = ROOT / "configs" / "fig3.json"
        fig3 = json.loads(fig3_path.read_text())
        items, specs = [], []
        for base_seed in run_seeds(name, seed, workload.runs):
            spec = {**fig3, **workload.params, "base_seed": base_seed}
            specs.append(spec)
            trials = prod(len(spec[k]) for k in ("topology", "C_r", "C_f", "epsilon")) * spec["repeats"]
            argv = [
                "sweep", "--config", str(fig3_path), *_set_args(workload.params), "--seed", str(base_seed),
                "--workers", str(SWEEP_WORKERS), "--out", str(out),
            ]
            items.append(Item(
                f"base_seed={base_seed}",
                sha256(canonical({"kind": workload.kind, "spec": spec})),
                lambda argv=argv, trials=trials: _cli_sweep(hs, argv, out, trials),
            ))
        return items, {"sweeps": specs}
    items, configs = [], []
    for s in run_seeds(name, seed, workload.runs):
        config = {**base, **workload.params, "seed": s}
        configs.append(config)
        key = sha256(canonical({"kind": workload.kind, "config": config}))
        if workload.kind == "cli-run":
            argv = ["run", "--config", str(base_path), *_set_args(workload.params), "--seed", str(s), "--out", str(out)]
            execute = lambda argv=argv: _cli_run(hs, argv, out)
        else:
            execute = lambda config=config: _engine_run(hs, config)
        items.append(Item(f"seed={s}", key, execute))
    return items, {"runs": configs}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


class Checker:
    """Runs items, counting failures: an exception, a non-zero exit, or a
    digest that differs from the reference or from an earlier repetition."""

    def __init__(self, references: dict):
        self.references = references
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = set()

    def _fail(self, item: Item, why: str) -> None:
        self.failed += 1
        print(f"FAILED {item.label}: {why}", file=sys.stderr)

    def run(self, item: Item) -> Outcome | None:
        self.attempted += 1
        try:
            outcome = item.execute()
        except Exception as exc:  # a broken run is counted and reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self._fail(item, repr(exc))
            return None
        reference = self.references.get(item.key)
        if reference is not None:
            self.checked.add(item.key)
            if reference != outcome.digests:
                self._fail(item, f"digests {outcome.digests} differ from reference {reference}")
                return None
        if self.first.setdefault(item.label, outcome.digests) != outcome.digests:
            self._fail(item, "digests differ from an earlier repetition")
            return None
        return outcome


def _kernel() -> float:
    rng = np.random.default_rng(0)
    xs, ys = [0.0] * 20, [0.0] * 20
    targets = [(float(i * 7 % 13), float(i * 5 % 11)) for i in range(20)]
    iu, ju = np.triu_indices(20, k=1)
    pairs = 0
    start = time.perf_counter()
    for _ in range(60):
        for i in range(20):
            tx, ty = targets[i]
            dx, dy = tx - xs[i], ty - ys[i]
            dist = math.hypot(dx, dy)
            if dist <= 1.0:
                targets[i] = (float(rng.integers(40)), float(rng.integers(40)))
            else:
                step = min(1.0, 0.9 / dist)
                xs[i] += dx * step
                ys[i] += dy * step
        pts = np.array(list(zip(xs, ys)))
        deltas = pts[:, None, :] - pts[None, :, :]
        near = ((deltas * deltas).sum(axis=2) <= 100.0)[iu, ju]
        pairs += len({(int(i), int(j)) for i, j in zip(iu[near], ju[near])})
    return time.perf_counter() - start


def calibrate() -> float:
    """Median seconds of three runs of a fixed kernel shaped like a tick loop.

    A shared host can change speed by 2x within tens of seconds, and a
    plain wall time carries that drift.  The kernel mixes the same kinds of
    work as the simulator (interpreted per-agent moves, generator draws, a
    20x20 numpy distance test and a set of index pairs), so a timing
    divided by a calibration taken next to it keeps the program's cost and
    drops most of the host's drift.  The kernel never changes with hexswarm.
    """
    return statistics.median(_kernel() for _ in range(3))


def calibrate_parallel(processes: int) -> float:
    """Mean of ``calibrate()`` run at once in ``processes`` forked processes.

    A sweep keeps every core busy, so its timing is scaled by how fast the
    host runs that many kernels side by side, not one alone.  Fork, because
    a spawned interpreter costs more than the kernel; the pool and its
    threads are gone before the sweep forks its own workers.
    """
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return statistics.mean(pool.starmap(calibrate, [()] * processes))


def setup_seconds(payload: dict) -> float:
    """One cold start in a fresh interpreter; see setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        input=json.dumps(payload), capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def peak_rss_mb(with_workers: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def end_to_end(items: list[Item], checker: Checker, seconds: float, workload: Workload, payload: dict) -> tuple[dict, dict]:
    """Run the seed set MIN_REPS times, then again until ``seconds`` passed.

    Every timing is scaled by CALIBRATION_REF_S over the mean of the
    calibrations taken just before and just after it.  wall_s sums each
    run's median scaled time over the repetitions; setup_s is the median
    scaled cold start.  Returns the metrics and the unscaled figures.
    """
    scaled: dict[str, list[float]] = {item.label: [] for item in items}
    raw: dict[str, list[float]] = {item.label: [] for item in items}
    ticks: dict[str, int] = {}
    sweep = workload.kind == "cli-sweep"
    host_speed = (lambda: calibrate_parallel(SWEEP_WORKERS)) if sweep and SWEEP_WORKERS > 1 else calibrate
    calibrations = [host_speed()]
    start = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - start < seconds:
        gc.collect()
        for item in items:
            outcome = checker.run(item)
            calibrations.append(host_speed())
            if outcome is not None:
                wall = outcome.wall_ns / 1e9
                raw[item.label].append(wall)
                scaled[item.label].append(wall * CALIBRATION_REF_S * 2 / sum(calibrations[-2:]))
                ticks[item.label] = outcome.ticks
        reps += 1
    rss = peak_rss_mb(with_workers=sweep)
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        setup = setup_seconds(payload)
        raw_setups.append(setup)
        setups.append(setup * CALIBRATION_REF_S * 2 / (before + calibrate()))
    wall = sum(statistics.median(w) for w in scaled.values() if w)
    metrics = {
        "wall_s": (wall, "s"),
        "ticks_per_s": (sum(ticks.values()) / wall if wall else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    unscaled = {
        "repetitions": reps,
        "wall_s": sum(statistics.median(w) for w in raw.values() if w),
        "setup_s": statistics.median(raw_setups),
        "calibration_s": statistics.median(calibrations),
    }
    return metrics, unscaled


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], overhead: float, sweep: bool) -> dict:
    stats, counters = tracer.stats, tracer.counters

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total(name):
        return stats.get(name, (0, 0, 0))[1]

    def per_call_us(name):
        return _ratio(total(name), calls(name)) / 1e3

    ticks = calls("engine.tick")
    phys_out = counters["network.physical_edges.edges_out"]
    elig_out = counters["network.eligible_edges.edges_out"]
    writers = ("experiment.write_sweep_results", "experiment.write_cell_summary", "experiment.write_trajectories")
    metrics = {
        "engine.tick.calls": (ticks, "count"),
        "engine.tick.self_us": (_ratio(tracer.self_ns("engine.tick"), ticks) / 1e3, "us"),
        "engine.consensus_reached.calls": (calls("engine.consensus_reached"), "count"),
        "engine.consensus_reached.us": (per_call_us("engine.consensus_reached"), "us"),
        "engine.run.self_us": (_ratio(tracer.self_ns("engine.run"), ticks) / 1e3, "us"),
        "engine.average_error.us": (per_call_us("engine.average_error"), "us"),
        "engine.initialize.us": (per_call_us("engine.initialize"), "us"),
        "engine.fusions_per_eligible_edge": (_ratio(calls("agent.on_fusion") / 2, elig_out), "ratio"),
    }
    for fn in ("advance_position", "at_target", "on_arrival", "on_fusion", "select_target"):
        metrics[f"agent.{fn}.calls"] = (calls(f"agent.{fn}"), "count")
        metrics[f"agent.{fn}.us"] = (per_call_us(f"agent.{fn}"), "us")
    metrics.update({
        "environment.observe.calls": (calls("environment.observe"), "count"),
        "environment.observe.us": (per_call_us("environment.observe"), "us"),
        "environment.noisy_flips": (counters["environment.noisy_flips"], "count"),
        "environment.build_grid.us": (per_call_us("environment.build_grid"), "us"),
        "belief.fuse_beliefs.calls": (calls("belief.fuse_beliefs"), "count"),
        "belief.fuse_beliefs.us": (per_call_us("belief.fuse_beliefs"), "us"),
        "belief.update_with_evidence.calls": (calls("belief.update_with_evidence"), "count"),
        "belief.update_with_evidence.us": (per_call_us("belief.update_with_evidence"), "us"),
        "belief.contradiction_collapses": (counters["belief.contradiction_collapses"], "count"),
        "network.physical_edges.calls": (calls("network.physical_edges"), "count"),
        "network.physical_edges.us": (per_call_us("network.physical_edges"), "us"),
        "network.physical_edges.edges_out": (phys_out, "count"),
        "network.eligible_edges.calls": (calls("network.eligible_edges"), "count"),
        "network.eligible_edges.us": (per_call_us("network.eligible_edges"), "us"),
        "network.eligible_edges.edges_out": (elig_out, "count"),
        "network.broadcasters_mean": (_ratio(counters["network.broadcasters"], calls("network.eligible_edges")), "count"),
        "network.eligible_ratio": (_ratio(elig_out, phys_out), "ratio"),
        "experiment.expand.us": (per_call_us("experiment.expand"), "us"),
        "experiment.run_sweep.s": (_ratio(total("experiment.run_sweep"), calls("experiment.run_sweep")) / 1e9, "s"),
        "experiment.pool_efficiency": (
            _ratio(sum(run["wall_ns"] for run in tracer.runs), SWEEP_WORKERS * total("experiment.run_sweep")),
            "ratio",
        ),
        "experiment.aggregate.us": (per_call_us("experiment.aggregate"), "us"),
        "experiment.mean_trajectories.us": (per_call_us("experiment.mean_trajectories"), "us"),
        "experiment.write_csv.us": (_ratio(sum(total(w) for w in writers), calls("experiment.run_sweep")) / 1e3, "us"),
        "experiment.csv_bytes": (_ratio(sum(o.output_bytes for o in outcomes), len(outcomes)) if sweep else 0, "bytes"),
        "cli.main.s": (_ratio(total("cli.main"), calls("cli.main")) / 1e9, "s"),
        "cli.self_s": (_ratio(tracer.self_ns("cli.main"), calls("cli.main")) / 1e9, "s"),
        "cli.output_bytes": (_ratio(sum(o.output_bytes for o in outcomes), calls("cli.main")), "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return metrics


def traced(name: str, items: list[Item], checker: Checker, workload: Workload) -> tuple[dict, dict, list[str]]:
    """One plain pass, then one traced pass; per-layer metrics of the latter."""
    plain = [o for o in map(checker.run, items) if o is not None]
    outcomes, runs = [], []
    with Tracer(WORK / name / "trace") as tracer:
        for item in items:
            before = tracer.snapshot()
            outcome = checker.run(item)
            if outcome is None:
                continue
            dstats, _ = tracer.delta(before)
            if workload.kind == "cli-sweep":  # trials are checked one by one below
                runs.append(run_summary(dstats, outcome.wall_ns, None, None, False))
            else:
                runs.append(run_summary(dstats, outcome.wall_ns, outcome.ticks, outcome.fusions, outcome.asocial))
            outcomes.append(outcome)
        tracer.collect_worker_dumps()
    problems = [p for run in runs + tracer.runs for p in check_run(run)]
    if workload.kind == "cli-sweep":
        trial_ticks = sum(run["ticks"] for run in tracer.runs)
        if trial_ticks != sum(o.ticks for o in outcomes):
            problems.append(f"traced trials ran {trial_ticks} ticks, sweep_results.csv says otherwise")
    overhead = _ratio(sum(o.wall_ns for o in outcomes), sum(o.wall_ns for o in plain)) - 1
    return layer_metrics(tracer, outcomes, overhead, workload.kind == "cli-sweep"), tracer.summary(), problems


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(name: str, seed: int, payload: dict) -> dict:
    found = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hexswarm": found.group(1) if found else "unknown",
        "git_commit": _git_commit(),
        "config_hash": sha256(canonical(payload))[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hexswarm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hs = load_hexswarm()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    items, payload = make_items(hs, args.workload, workload, args.seed)
    checker = Checker(load_references())
    hs.engine.run(hs.engine.SimConfig(max_ticks=200))  # warm-up: first-call costs stay untimed
    problems: list[str] = []
    unscaled: dict = {}
    if args.trace:
        metrics, trace, problems = traced(args.workload, items, checker, workload)
        trace_file = WORK / args.workload / "trace.json"
        trace_file.write_text(json.dumps({"provenance": provenance(args.workload, args.seed, payload), **trace}))
    else:
        metrics, unscaled = end_to_end(items, checker, args.seconds, workload, payload)
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "provenance": provenance(args.workload, args.seed, payload),
        "unscaled": unscaled,
        "references_checked": len(checker.checked),
        "digests": checker.first,
    }))
    correct = checker.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
