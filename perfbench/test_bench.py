"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at two runs (two sweeps for fig3-sweep) of at most 300 ticks."""
    monkeypatch.setattr(bench, "WORKLOADS", {
        name: dataclasses.replace(w, runs=2, params={**w.params, "max_ticks": 300})
        for name, w in bench.WORKLOADS.items()
    })
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


def run_main(capsys, *argv):
    code = bench.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_the_declared_metrics(tiny, capsys, workload, trace, section):
    code, result = run_main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_altered_reference_digest_is_a_failure(tiny, capsys, monkeypatch, tmp_path):
    hs = bench.load_hexswarm()
    items, _ = bench.make_items(hs, "asocial", bench.WORKLOADS["asocial"], 3)
    altered = {name: "0" * 64 for name in items[0].execute().digests}
    references = tmp_path / "references.json"
    references.write_text(json.dumps({items[0].key: altered, items[1].key: items[1].execute().digests}))
    monkeypatch.setattr(bench, "REFERENCES", references)

    code, result = run_main(capsys, "--workload", "asocial", "--seed", "3", "--seconds", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == bench.MIN_REPS  # the altered run, in every repetition


def test_references_cover_the_default_seed():
    hs = bench.load_hexswarm()
    references = bench.load_references()
    for name, workload in bench.WORKLOADS.items():
        items, _ = bench.make_items(hs, name, workload, bench.DEFAULT_SEED)
        assert all(item.key in references for item in items), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "asocial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
