#!/usr/bin/env python3
"""Timed sample of the paper's two sweep grids, this checkout against a parent.

Run from anywhere inside the repository:

    python3 tools/grid_sample.py --parent REF --out BENCH_<n>.json

The first ``TRIALS`` trials of every cell of ``configs/fig3.json`` and
``configs/fig4_5.json`` (the configs and seeds ``experiment.expand`` gives
them) are run one at a time with ``engine.run`` and timed with
``time.perf_counter``. Each trial is also scaled as ``perfbench/bench.py``
scales a run: by ``CALIBRATION_REF_S`` over the mean of the ``calibrate()``
just before and just after it, consecutive trials sharing one, both from
the tree's own ``perfbench/bench.py``. A pass runs the whole sample in a
fresh process, and ``bench_pairs.alternate`` runs ``PASSES`` pairs of
passes in the parent's and the change's trees, one process at a time: two
engine runs at once would each take about twice as long on a 2-core host.

A pass is a run shaped like a perfbench final line: ``attempted`` counts
its trials, ``failed`` those whose record digest (sha256 of
``RunRecord.to_json``) differs from the parent's first pass, ``metrics``
holds the scaled seconds per "<grid> <topology> C_f=<C_f>" group and
``unscaled`` the raw ones. The passes are merged into ``--out`` under
``workloads["grid_sample"]`` with ``bench_pairs``' parent and host checks,
and every group is judged by ``bench_pairs.summarize``. The exit code is 1
if any trial failed.

Only the standard library is used here; each pass imports the
``hexswarm`` and ``perfbench`` of the tree it times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import bench_pairs

GRIDS = ("fig3", "fig4_5")
TRIALS = 3
PASSES = 10

# Run by ``sys.executable -c`` in a tree, with that tree's ``src`` first on
# the path. It prints one JSON list of [grid, topology, C_f, cell index,
# trial, seconds, scaled seconds, record sha256] rows, in expand() order.
WORKER = """
import hashlib, json, sys, time
from pathlib import Path
sys.path.insert(0, "perfbench")
import bench, hexswarm
from bench import CALIBRATION_REF_S, calibrate
from hexswarm.engine import run
from hexswarm.experiment import SweepSpec, expand

trials, grids = int(sys.argv[1]), sys.argv[2:]
for module in (bench, hexswarm):
    if not Path(module.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        sys.exit(f"imported {module.__file__}, not the {module.__name__} of {Path.cwd()}")
rows, before = [], calibrate()
for grid in grids:
    spec = SweepSpec(**json.loads(Path("configs", grid + ".json").read_text()))
    for position, (config, trial) in enumerate(expand(spec)):
        if trial >= trials:
            continue
        start = time.perf_counter()
        record = run(config)
        seconds = time.perf_counter() - start
        after = calibrate()
        digest = hashlib.sha256(record.to_json().encode()).hexdigest()
        rows.append([grid, config.topology, config.C_f, position // spec.repeats, trial, seconds,
                     seconds * CALIBRATION_REF_S * 2 / (before + after), digest])
        before = after
print(json.dumps(rows))
"""


def sample(tree: Path) -> list[list]:
    """One pass over the sample in a fresh process in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", WORKER, str(TRIALS), *GRIDS], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"the sample in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def group_seconds(rows: list[list], column: int) -> dict[str, float]:
    """Total of ``column`` per "<grid> <topology> C_f=<C_f>" group, in first-seen order."""
    totals: dict[str, float] = {}
    for row in rows:
        key = f"{row[0]} {row[1]} C_f={row[2]:g}"
        totals[key] = totals.get(key, 0.0) + row[column]
    return totals


def as_run(rows: list[list], reference: list[str], tree_id: dict) -> dict:
    """A pass as a run shaped like perfbench's final line; a trial failed if
    its digest differs from its entry in ``reference``."""
    return {
        "attempted": len(rows),
        "failed": sum(row[7] != digest for row, digest in zip(rows, reference)) + abs(len(rows) - len(reference)),
        "metrics": {key: {"value": s, "unit": "s"} for key, s in group_seconds(rows, 6).items()},
        "unscaled": group_seconds(rows, 5),
        "provenance": {"trials_per_cell": TRIALS, **tree_id},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the commit to compare against")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to merge the result into")
    args = parser.parse_args(argv)

    parent_rev = bench_pairs.git("rev-parse", "--short", f"{args.parent}^{{commit}}")
    record = bench_pairs.open_record(args.out, parent_rev)
    reference: list[str] = []

    def measure(tree: Path, tree_id: dict) -> dict:
        rows = sample(tree)
        reference[:] = reference or [row[7] for row in rows]  # the first pass is the parent's
        return as_run(rows, reference, tree_id)

    runs = bench_pairs.alternate(parent_rev, args.out, PASSES, measure)
    bench_pairs.merge(args.out, record, "grid_sample", f"python3 tools/grid_sample.py --parent {parent_rev}", runs)
    groups = {key: "lower" for key in runs["parent"][0]["metrics"]}
    print(bench_pairs.format_summary(bench_pairs.summarize(runs["parent"], runs["change"], groups)))
    failed = sum(run["failed"] for side in runs.values() for run in side)
    print(f"trials whose record differs from the parent's first pass: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
