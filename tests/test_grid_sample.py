"""The sampling and summary of tools/grid_sample.py."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import grid_sample  # noqa: E402

from hexswarm.engine import run  # noqa: E402
from hexswarm.experiment import SweepSpec, expand  # noqa: E402


def test_groups_sum_the_trials_of_one_grid_topology_and_c_f():
    rows = [
        ["fig3", "complete", 0.1, 0, 0, 1.0, "a"],
        ["fig3", "complete", 0.025, 1, 0, 4.0, "b"],
        ["fig3", "complete", 0.1, 2, 1, 2.0, "c"],
        ["fig4_5", "complete", 0.1, 0, 0, 8.0, "d"],
    ]
    assert grid_sample.group_seconds(rows) == {
        "fig3 complete C_f=0.1": 3.0,
        "fig3 complete C_f=0.025": 4.0,
        "fig4_5 complete C_f=0.1": 8.0,
    }


def test_summary_takes_each_sides_median_over_the_passes():
    parent = [{"g": 4.0}, {"g": 5.0}, {"g": 4.5}]
    change = [{"g": 3.0}, {"g": 5.5}, {"g": 4.0}]
    assert grid_sample.summarize(parent, change) == {
        "g": {"parent_s": 4.5, "change_s": 4.0, "change_frac": round(-0.5 / 4.5, 4), "faster_passes": 2},
    }


def test_worker_runs_the_first_trials_of_every_cell():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", grid_sample.WORKER, "2", "smoke"], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    spec = SweepSpec(**json.loads((ROOT / "configs" / "smoke.json").read_text()))
    tasks = [(config, trial) for config, trial in expand(spec) if trial < 2]
    assert [row[:5] for row in rows] == [["smoke", c.topology, c.C_f, 0, t] for c, t in tasks]
    assert [row[6] for row in rows] == [hashlib.sha256(run(c).to_json().encode()).hexdigest() for c, _ in tasks]
