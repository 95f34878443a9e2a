"""The passes of tools/grid_sample.py, run and judged by tools/bench_pairs.py."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402
import grid_sample  # noqa: E402

from hexswarm.engine import run  # noqa: E402
from hexswarm.experiment import SweepSpec, expand  # noqa: E402


def row(grid, topology, c_f, seconds, digest="d"):
    return [grid, topology, c_f, 0, 0, 2 * seconds, seconds, digest]


def test_groups_sum_the_trials_of_one_grid_topology_and_c_f():
    rows = [
        ["fig3", "complete", 0.1, 0, 0, 1.0, 0.5, "a"],
        ["fig3", "complete", 0.025, 1, 0, 4.0, 2.0, "b"],
        ["fig3", "complete", 0.1, 2, 1, 2.0, 1.0, "c"],
        ["fig4_5", "complete", 0.1, 0, 0, 8.0, 4.0, "d"],
    ]
    assert grid_sample.group_seconds(rows, 5) == {
        "fig3 complete C_f=0.1": 3.0,
        "fig3 complete C_f=0.025": 4.0,
        "fig4_5 complete C_f=0.1": 8.0,
    }
    assert grid_sample.group_seconds(rows, 6) == {
        "fig3 complete C_f=0.1": 1.5,
        "fig3 complete C_f=0.025": 2.0,
        "fig4_5 complete C_f=0.1": 4.0,
    }


def test_a_pass_is_a_run_shaped_like_a_perfbench_final_line():
    rows = [row("fig3", "complete", 0, 1.0, "a"), row("fig3", "complete", 0, 2.0, "b"),
            row("fig4_5", "lattice:2", 0.1, 4.0, "c")]
    tree_id = {"git_commit": "1" * 40}
    assert grid_sample.as_run(rows, ["a", "x", "c"], tree_id) == {
        "attempted": 3,
        "failed": 1,
        "metrics": {"fig3 complete C_f=0": {"value": 3.0, "unit": "s"},
                    "fig4_5 lattice:2 C_f=0.1": {"value": 4.0, "unit": "s"}},
        "unscaled": {"fig3 complete C_f=0": 6.0, "fig4_5 lattice:2 C_f=0.1": 8.0},
        "provenance": {"trials_per_cell": grid_sample.TRIALS, **tree_id},
    }
    assert grid_sample.as_run(rows, ["a", "b"], tree_id)["failed"] == 1  # a trial the reference lacks


def test_ten_passes_each_ten_percent_faster_meet_the_gain_rule():
    def passes(scale):
        return [grid_sample.as_run([row("fig3", "complete", 0, scale * (1.0 + 0.01 * k)),
                                    row("fig4_5", "lattice:2", 1, scale * (2.0 + 0.02 * k))], ["d", "d"], {})
                for k in range(grid_sample.PASSES)]

    groups = {"fig3 complete C_f=0": "lower", "fig4_5 lattice:2 C_f=1": "lower"}
    summary = bench_pairs.summarize(passes(1.0), passes(0.9), groups)
    assert all(s["gain_rule_met"] and s["wins"] == grid_sample.PASSES for s in summary.values())
    assert all(s["change_frac"] == pytest.approx(-0.1) for s in summary.values())
    assert not any(s["gain_rule_met"] for s in bench_pairs.summarize(passes(1.0), passes(1.0), groups).values())


@pytest.fixture
def harness(monkeypatch):
    """Both tools with git, the trees and SIGTERM faked; returns the passes
    ``grid_sample.sample`` saw, as (side, pass index) pairs."""
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc1234")
    monkeypatch.setattr(bench_pairs, "tree_ids", lambda ref, out: {"parent": {}, "change": {}})
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, into: into.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda into, out: into.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    seen = []
    monkeypatch.setattr(grid_sample, "sample", lambda tree: seen.append((tree.name, len(seen))) or [
        row("fig3", "complete", 0, 1.0, "x" if len(seen) == 3 else "d"), row("fig3", "complete", 0, 1.0)])
    return seen


def test_a_differing_digest_fails_its_pass_and_the_tool(harness, tmp_path, capsys):
    out = tmp_path / "BENCH_1.json"
    assert grid_sample.main(["--parent", "abc1234", "--out", str(out)]) == 1
    assert harness[2] == ("change", 2)  # the change runs first in the second pair
    entry = json.loads(out.read_text())["workloads"]["grid_sample"]
    assert [r["failed"] for r in entry["change"]] == [0, 1] + [0] * (grid_sample.PASSES - 2)
    assert all(r["failed"] == 0 and r["attempted"] == 2 for r in entry["parent"])
    assert "record differs from the parent's first pass: 1" in capsys.readouterr().out


def test_both_tools_refuse_a_record_of_another_parent_or_host(harness, tmp_path, monkeypatch):
    out = tmp_path / "BENCH_1.json"
    for record in ({"parent": "fff0000", "host": bench_pairs.host()}, {"parent": "abc1234", "host": "elsewhere"}):
        out.write_text(json.dumps(record))
        with pytest.raises(SystemExit, match="holds runs with"):
            grid_sample.main(["--parent", "abc1234", "--out", str(out)])
    assert harness == []  # refused before any pass
    out.unlink()
    assert grid_sample.main(["--parent", "abc1234", "--out", str(out)]) == 1  # its third pass differs
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "fff0000")
    monkeypatch.setattr(bench_pairs, "bench", lambda *args: pytest.fail("ran a benchmark"))
    with pytest.raises(SystemExit, match="holds runs with parent 'abc1234', not 'fff0000'"):
        bench_pairs.main(["--parent", "fff0000", "--workload", "asocial", "--pairs", "1", "--out", str(out)])


def test_worker_runs_the_first_trials_of_every_cell():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", grid_sample.WORKER, "2", "smoke"], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    spec = SweepSpec(**json.loads((ROOT / "configs" / "smoke.json").read_text()))
    tasks = [(config, trial) for config, trial in expand(spec) if trial < 2]
    assert [row[:5] for row in rows] == [["smoke", c.topology, c.C_f, 0, t] for c, t in tasks]
    assert all(row[5] > 0 and row[6] > 0 for row in rows)
    assert [row[7] for row in rows] == [hashlib.sha256(run(c).to_json().encode()).hexdigest() for c, _ in tasks]


def test_worker_scales_each_trial_by_the_calibrations_around_it(tmp_path):
    """The tree's own ``calibrate`` runs once before the first trial and once
    after each; a trial's scaled time uses the two around it."""
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench.py").write_text(
        "import itertools\nCALIBRATION_REF_S = 0.5\ncalibrate = itertools.count(1.0).__next__\n")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    proc = subprocess.run([sys.executable, "-c", grid_sample.WORKER, "3", "smoke"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    assert len(rows) == 3
    assert [row[6] for row in rows] == [row[5] * 0.5 * 2 / (2 * k + 3) for k, row in enumerate(rows)]
