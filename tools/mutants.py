#!/usr/bin/env python3
"""Mutation check of the fast paths: does the test suite catch each defect?

Run from anywhere inside the repository:

    python3 tools/mutants.py [--only ID [ID ...]]

``MUTANTS.json`` at the repository root lists the mutants. Each is an exact
text edit of one file under ``src/`` (``old`` -> ``new``, where ``old``
occurs exactly once) and the ``defect`` it stands for. For each one, the
checkout's working tree is copied to a fresh temporary directory
(``bench_pairs.copy_worktree``), the edit is applied there, and ``pytest -x
-q tests --ignore=tests/test_acceptance.py --ignore=tests/test_mutants.py``
runs in the copy. A failing run kills the mutant; a passing one lets it
survive. The unmutated copy runs first and must pass, or no result would
mean anything.

Each entry's ``result`` (killed or survived) and ``seconds`` are written
back into ``MUTANTS.json`` and printed as a table. ``--only`` runs the
unmutated copy and then only the named entries, and rewrites only their
``result`` and ``seconds``; every entry's ``old`` text is still checked.
A survivor is a missing test, unless the entry explains in ``equivalent``
why no output or state can differ. The exit code is 0 when every mutant is killed or explained, 1
otherwise, and 2 when an ``old`` text does not occur exactly once or the
unmutated tree fails.

Only the standard library is used. The suite runs once per mutant, about a
quarter hour in all (875 s for the unmutated tree and 38 mutants on a
shared 2-core x86_64 VM), so the check is kept out of the tier-1 tests; the
tier-1 test ``tests/test_mutants.py`` only checks that every ``old`` text
is still in place.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import copy_worktree

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "MUTANTS.json"
# tests/test_mutants.py is left out: it fails on any mutant, whose old text
# is gone from the copy, and so would kill every mutant whatever it breaks.
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests", "--ignore=tests/test_acceptance.py",
          "--ignore=tests/test_mutants.py"]
# A mutant that makes a test loop forever counts as killed once this passes.
TIMEOUT_S = 1800


def check_texts(mutants: list[dict], root: Path = ROOT) -> list[str]:
    """Problems with the list: an ``old`` text that does not occur exactly
    once in its file, or an edit that changes nothing."""
    problems = []
    for m in mutants:
        count = (root / m["file"]).read_text().count(m["old"])
        if count != 1:
            problems.append(f"{m['id']}: old text occurs {count} times in {m['file']}")
        if m["old"] == m["new"]:
            problems.append(f"{m['id']}: old and new are the same")
    return problems


def trial(mutant: dict | None) -> tuple[bool, float]:
    """Whether the suite passes in a fresh copy of the working tree with
    ``mutant`` applied (None: unmutated), and its wall time in seconds."""
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = Path(tmp) / "tree"
        copy_worktree(tree)
        if mutant is not None:
            path = tree / mutant["file"]
            path.write_text(path.read_text().replace(mutant["old"], mutant["new"]))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
            passed = proc.returncode == 0
        except subprocess.TimeoutExpired:
            passed = False
        return passed, round(time.perf_counter() - start, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="ID", help="run only these entries of MUTANTS.json")
    args = parser.parse_args(argv)
    record = json.loads(LIST.read_text())
    mutants = record["mutants"]
    problems = check_texts(mutants)
    if args.only:
        known = {m["id"] for m in mutants}
        problems += [f"{i}: no such entry in {LIST.name}" for i in args.only if i not in known]
        mutants = [m for m in mutants if m["id"] in args.only]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    passed, seconds = trial(None)
    if not passed:
        print(f"the unmutated tree fails the suite ({seconds} s); run it in the checkout to see why", file=sys.stderr)
        return 2
    print(f"unmutated: passed in {seconds} s", file=sys.stderr)
    for m in mutants:
        passed, m["seconds"] = trial(m)
        m["result"] = "survived" if passed else "killed"
        print(f"{m['id']}: {m['result']} in {m['seconds']} s", file=sys.stderr)
    LIST.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n")

    unexplained = [m["id"] for m in mutants if m["result"] == "survived" and not m.get("equivalent")]
    width = max(len(m["id"]) for m in mutants)
    for m in mutants:
        note = " (equivalent)" if m["result"] == "survived" and m.get("equivalent") else ""
        print(f"{m['id']:<{width}}  {m['result']:<8} {m['seconds']:>6.1f} s  {m['defect']}{note}")
    if unexplained:
        print(f"survived without an explanation: {', '.join(unexplained)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
