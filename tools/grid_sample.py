#!/usr/bin/env python3
"""Timed sample of the paper's two sweep grids, this checkout against a parent.

Run from anywhere inside the repository:

    python3 tools/grid_sample.py --parent REF --out BENCH_<n>.json

The first ``TRIALS`` trials of every cell of ``configs/fig3.json`` and
``configs/fig4_5.json`` (the configs and seeds ``experiment.expand`` gives
them) are run one at a time with ``engine.run`` and timed with
``time.perf_counter``. The parent's committed files and this checkout's
working-tree files are each put in a fresh temporary directory, as
``tools/bench_pairs.py`` does, and each tree runs the whole sample in its
own fresh process, one process at a time, ``PASSES`` times: the parent
first in odd passes and the change first in even ones. Two engine runs
at once would each take about twice as long on a 2-core host, so nothing
runs beside a pass.

Every trial's record is digested (sha256 of ``RunRecord.to_json``), and
the digests must agree between the trees and across passes: the script
exits 1 if they do not. The times are summed per group, a group being the
trials of one (grid, topology, C_f); each side's median over the passes is
reported with the change's relative difference and the number of passes it
was faster in. Groups the change made slower are listed under ``worse``.
The result is merged into ``--out`` under ``"grid_sample"``, next to the
``tools/bench_pairs.py`` entries already there.

Only the standard library is used here; the timed runs import the
``hexswarm`` of the tree they time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_worktree, extract, git, host, tree_ids

GRIDS = ("fig3", "fig4_5")
TRIALS = 3
PASSES = 5

# Run by ``sys.executable -c`` in a tree, with that tree's ``src`` first on
# the path. It prints one JSON list of [grid, topology, C_f, cell index,
# trial, seconds, record sha256] rows, in expand() order.
WORKER = """
import hashlib, json, sys, time
from pathlib import Path
import hexswarm
from hexswarm.engine import run
from hexswarm.experiment import SweepSpec, expand

trials, grids = int(sys.argv[1]), sys.argv[2:]
if not Path(hexswarm.__file__).resolve().is_relative_to(Path.cwd().resolve()):
    sys.exit(f"imported {hexswarm.__file__}, not the hexswarm of {Path.cwd()}")
rows = []
for grid in grids:
    spec = SweepSpec(**json.loads(Path("configs", grid + ".json").read_text()))
    for position, (config, trial) in enumerate(expand(spec)):
        if trial >= trials:
            continue
        start = time.perf_counter()
        record = run(config)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(record.to_json().encode()).hexdigest()
        rows.append([grid, config.topology, config.C_f, position // spec.repeats, trial, seconds, digest])
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


def group_seconds(rows: list[list]) -> dict[str, float]:
    """Total seconds per "<grid> <topology> C_f=<C_f>" group, in first-seen order."""
    totals: dict[str, float] = {}
    for grid, topology, c_f, _, _, seconds, _ in rows:
        key = f"{grid} {topology} C_f={c_f:g}"
        totals[key] = totals.get(key, 0.0) + seconds
    return totals


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]]) -> dict[str, dict]:
    """Per group: each side's median over the passes, the relative change of
    the medians and the passes the change was faster in."""
    summary = {}
    for key in parent[0]:
        p = [totals[key] for totals in parent]
        c = [totals[key] for totals in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        summary[key] = {
            "parent_s": round(p_med, 4),
            "change_s": round(c_med, 4),
            "change_frac": round((c_med - p_med) / p_med, 4),
            "faster_passes": sum(b < a for a, b in zip(p, c)),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the commit to compare against")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to merge the result into")
    args = parser.parse_args(argv)

    parent_rev = git("rev-parse", "--short", f"{args.parent}^{{commit}}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rows: dict[str, list[list[list]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="grid_sample_") as tmp:
        trees = {side: Path(tmp, side) for side in rows}
        extract(parent_rev, trees["parent"])
        copy_worktree(trees["change"], args.out)
        for n in range(1, PASSES + 1):
            for side in ("parent", "change") if n % 2 else ("change", "parent"):
                rows[side].append(sample(trees[side]))
            print(f"pass {n}/{PASSES}: parent {sum(r[5] for r in rows['parent'][-1]):.2f} s,"
                  f" change {sum(r[5] for r in rows['change'][-1]):.2f} s", file=sys.stderr)

    digests = {tuple(r[6] for r in run) for side in rows.values() for run in side}
    totals = {side: [group_seconds(run) for run in runs] for side, runs in rows.items()}
    groups = summarize(totals["parent"], totals["change"])
    result = {
        "command": f"python3 tools/grid_sample.py --parent {parent_rev}",
        "host": host(),
        "parent": parent_rev,
        "provenance": tree_ids(parent_rev, args.out),
        "trials_per_cell": TRIALS,
        "runs_per_pass": len(rows["parent"][0]),
        "passes": PASSES,
        "records_identical": len(digests) == 1,
        "total_s": {side: [round(sum(t.values()), 4) for t in runs] for side, runs in totals.items()},
        "groups": groups,
        "worse": [key for key, g in groups.items() if g["change_frac"] > 0],
    }
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record["grid_sample"] = result
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    for key, g in groups.items():
        print(f"{key:<28} parent {g['parent_s']:8.3f} s  change {g['change_s']:8.3f} s"
              f"  {100 * g['change_frac']:+6.1f}%  faster in {g['faster_passes']}/{PASSES}")
    print(f"records identical across trees and passes: {result['records_identical']}")
    print(f"worse: {', '.join(result['worse']) or 'none'}")
    return 0 if result["records_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
