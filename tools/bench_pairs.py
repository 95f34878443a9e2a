#!/usr/bin/env python3
"""Paired benchmark of this checkout against a parent commit.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent REF --workload W [--seed S] --pairs N --out BENCH_<n>.json

The parent's committed files are extracted (``git archive``) into a
temporary directory, and the change's into a sibling one: the working-tree
copy of every file ``git ls-files -co --exclude-standard`` lists, leaving
out the output file. Neither side runs in the checkout itself, so both
load the program from equally fresh files. ``alternate`` then runs a
measure N times in each tree, the parent first in odd pairs and the change
first in even ones. Here the measure is ``perfbench/bench.py --workload W
--seed S --seconds 14 --trace 0``; ``tools/grid_sample.py`` has another.
Each run's final JSON line is merged into the output file under
``workloads["W --seed S"]``, next to the entries already there, with the
``unscaled`` block of the line before it (the raw, uncalibrated wall and
setup times) and its ``provenance`` block (versions and config hash). In
that block ``git_commit`` names the tree that ran: the parent's full
commit id, or for the change this checkout's HEAD, with
``git_diff_sha256``, a sha256 of ``git diff HEAD --binary`` followed by
each untracked file's path and contents, leaving out the output file.
(``bench.py`` itself reads "unknown" in both extracts.) Both tools refuse
to merge into a file that holds runs against another parent or from
another host. The median, quartiles, wins, gain and loss rules and bound
test (see ``summarize``) of every end-to-end metric are printed, and for
wall_s and setup_s also each side's unscaled median.

Only the standard library is used, so the script runs under any Python
that can run the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 14
# The fewest pairs a gain can be claimed from; a loss is flagged from any number.
CLAIM_PAIRS = 10
PROTOCOL = (
    "alternating parent/change pairs, parent first in odd pairs; "
    "each list holds one run per pair, in pair order, shaped like perfbench's "
    "final JSON line with unscaled and provenance blocks"
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(runs: list[dict]) -> float:
    """The share of all attempted operations that failed, over ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def unscaled_median(runs: list[dict], name: str) -> float | None:
    """The median of ``name`` in the runs' ``unscaled`` blocks, or None when
    a run has none."""
    values = [run.get("unscaled", {}).get(name) for run in runs]
    return None if None in values else statistics.median(values)


def summarize(
    parent: list[dict], change: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict[str, dict]:
    """Per end-to-end metric: each side's median and quartiles, the relative
    change of the medians, the pairs the change won (ties count for
    neither) and whether the gain rule holds: there are at least
    ``CLAIM_PAIRS`` pairs, the change wins at least nine tenths of them, its
    median beats the parent's by more than the parent's interquartile range,
    its unscaled median (where both sides report one) beats the parent's
    too, and no larger share of its operations failed than of the
    parent's. The loss rule is its mirror: the change is worse in at least
    nine tenths of the pairs, and its median is worse by more than the
    interquartile range of both sides' runs pooled, each run taken as its
    distance from its own side's median. (Pooling the raw values would put
    the gap between the sides inside the range itself.)

    ``parent`` and ``change`` are the runs' final JSON lines in pair order;
    ``better`` maps each metric name to "lower" or "higher". A metric that
    every run also reports unscaled gets each side's ``unscaled_median``.
    A metric named in ``bounds``, with its ``bound`` from BENCHMARK.json,
    also gets ``bound_exceeded``: whether the change's median is worse than
    the parent's by more than that fraction of it. Unlike the loss rule,
    this test ignores the spread of the runs, so noise that is consistent
    but far inside the bound does not meet it.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonzero numbers of runs, got {len(parent)} and {len(change)}")
    fails_no_more = failed_share(change) <= failed_share(parent)
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        gain = sign * (p_med - c_med)
        raw = unscaled_median(parent, name), unscaled_median(change, name)
        pooled_q1, _, pooled_q3 = quartiles([v - p_med for v in p] + [v - c_med for v in c])
        summary[name] = {
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "change_frac": (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins,
            "pairs": len(p),
            "gain_rule_met": len(p) >= CLAIM_PAIRS and 10 * wins >= 9 * len(p) and gain > p_q3 - p_q1
            and fails_no_more and (None in raw or sign * (raw[0] - raw[1]) > 0),
            "loss_rule_met": 10 * losses >= 9 * len(p) and -gain > pooled_q3 - pooled_q1,
        }
        if bounds and name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["bound_exceeded"] = -gain > bounds[name] * abs(p_med)
        if None not in raw:
            summary[name]["parent"]["unscaled_median"], summary[name]["change"]["unscaled_median"] = raw
    return summary


def format_summary(summary: dict[str, dict]) -> str:
    lines = []
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        lines.append(
            f"{name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] ({100 * s['change_frac']:+.1f}%), "
            f"change better in {s['wins']}/{s['pairs']}, parent IQR {p['q3'] - p['q1']:.3g}, "
            f"gain rule {'met' if s['gain_rule_met'] else 'not met'}, "
            f"loss rule {'met' if s['loss_rule_met'] else 'not met'}"
            + (f", {'beyond' if s['bound_exceeded'] else 'within'} its {100 * s['bound']:g}% bound"
               if "bound" in s else "")
            + (f"; unscaled median parent {p['unscaled_median']:.4g} -> change {c['unscaled_median']:.4g}"
               if "unscaled_median" in p else "")
        )
    return "\n".join(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def extract(ref: str, into: Path) -> None:
    """Write the committed files of ``ref`` into ``into``."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into, filter="data")


def pathspec(out: Path | None) -> list[str]:
    """The git pathspec of the whole checkout, without ``out`` if inside it."""
    spec = ["--", "."]
    if out is not None and out.resolve().is_relative_to(ROOT):
        spec.append(f":(exclude){out.resolve().relative_to(ROOT).as_posix()}")
    return spec


def copy_worktree(into: Path, out: Path | None = None) -> None:
    """Copy into ``into`` the working-tree files of this checkout, tracked
    and untracked but not ignored, leaving out ``out`` and tracked files
    deleted from the working tree."""
    for path in filter(None, git("ls-files", "-co", "--exclude-standard", "-z", *pathspec(out)).split("\0")):
        if (ROOT / path).is_file():
            (into / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / path, into / path)


def tree_ids(parent_ref: str, out: Path) -> dict[str, dict]:
    """Per side, the ``provenance`` entries that name the tree it runs: the
    parent's full commit id, and this checkout's HEAD with a sha256 of its
    uncommitted changes, tracked and untracked. The output file ``out`` is
    left out, so every workload merged into it records the same digest."""
    spec = pathspec(out)
    digest = hashlib.sha256(subprocess.run(["git", "diff", "HEAD", "--binary", *spec], cwd=ROOT,
                                           capture_output=True, check=True).stdout)
    for path in sorted(filter(None, git("ls-files", "--others", "--exclude-standard", "-z", *spec).split("\0"))):
        digest.update(path.encode() + b"\0" + (ROOT / path).read_bytes())
    return {
        "parent": {"git_commit": git("rev-parse", f"{parent_ref}^{{commit}}")},
        "change": {"git_commit": git("rev-parse", "HEAD"), "git_diff_sha256": digest.hexdigest()},
    }


def bench(tree: Path, workload: str, seed: int, tree_id: dict) -> dict:
    """One benchmark run in ``tree``; returns its final JSON line with the
    ``unscaled`` and ``provenance`` blocks of the line before it added, the
    latter updated with ``tree_id`` (see ``tree_ids``)."""
    argv = [sys.executable, "perfbench/bench.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if len(lines) >= 2:
        before = json.loads(lines[-2])
        result["unscaled"] = before.get("unscaled", {})
        result["provenance"] = {**before.get("provenance", {}), **tree_id}
    if not result["correct"] or result["failed"]:
        print(f"warning: a run in {tree} reported correct={result['correct']}, failed={result['failed']}",
              file=sys.stderr)
    return result


def host() -> str:
    return (f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}")


def alternate(parent_rev: str, out: Path, pairs: int, measure: Callable[[Path, dict], dict]) -> dict[str, list[dict]]:
    """Each side's runs of ``measure(tree, tree_id)`` in its own tree, in pair
    order (see the module docstring); ``tree_id`` is that side's entry of
    ``tree_ids``. Each run is shaped like perfbench's final JSON line."""
    # Exit through the with block on SIGTERM too, so the trees are removed
    # and subprocess.run kills the process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ids = tree_ids(parent_rev, out)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp, side) for side in runs}
        extract(parent_rev, trees["parent"])
        copy_worktree(trees["change"], out)
        for pair in range(1, pairs + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                runs[side].append(measure(trees[side], ids[side]))
            name = next(iter(runs["parent"][-1]["metrics"]))
            print(f"pair {pair}/{pairs}: {name}", *(f"{side} {runs[side][-1]['metrics'][name]['value']:.3f}"
                                                    for side in runs), file=sys.stderr)
    return runs


def open_record(out: Path, parent_rev: str) -> dict:
    """The record in ``out``, or a new one, stamped with ``parent_rev``, this
    host and the protocol. Refuses one that holds runs against another
    parent or from another host, so every entry compares the same trees."""
    record = json.loads(out.read_text()) if out.is_file() else {}
    for field, value in (("parent", parent_rev), ("host", host())):
        if record.get(field, value) != value:
            raise SystemExit(f"{out} holds runs with {field} {record[field]!r}, not {value!r}")
    return {**record, "host": host(), "parent": parent_rev, "protocol": PROTOCOL}


def merge(out: Path, record: dict, key: str, command: str, runs: dict[str, list[dict]]) -> None:
    """Write ``record`` (from ``open_record``) into ``out`` with ``runs``
    (from ``alternate``) under ``workloads[key]``."""
    record.setdefault("workloads", {})[key] = {"command": command, "pairs": len(runs["parent"]), **runs}
    out.write_text(json.dumps(record, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to merge the runs into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent_rev = git("rev-parse", "--short", f"{args.parent}^{{commit}}")
    record = open_record(args.out, parent_rev)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    runs = alternate(parent_rev, args.out, args.pairs,
                     lambda tree, tree_id: bench(tree, args.workload, args.seed, tree_id))
    command = f"python3 perfbench/bench.py --workload {args.workload} --seed {args.seed} --seconds {SECONDS} --trace 0"
    merge(args.out, record, f"{args.workload} --seed {args.seed}", command, runs)
    print(format_summary(summarize(runs["parent"], runs["change"], better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
