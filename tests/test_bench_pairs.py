"""The pair loop, merge and summary of tools/bench_pairs.py, which reports
paired benchmark runs."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402
import grid_sample  # noqa: E402

BETTER = {"wall_s": "lower", "ticks_per_s": "higher"}


def runs(walls, failed=0, unscaled=None):
    return [
        {"attempted": 18, "failed": failed, "metrics": {"wall_s": {"value": w}, "ticks_per_s": {"value": 100 / w}},
         **({"unscaled": {"wall_s": u}} if unscaled else {})}
        for w, u in zip(walls, unscaled or walls)
    ]


def test_medians_quartiles_and_wins():
    parent = runs([4.0, 4.2, 3.9, 4.1, 4.0])
    change = runs([3.5, 3.6, 4.0, 3.4, 3.5])
    summary = bench_pairs.summarize(parent, change, BETTER)
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.1}
    assert wall["change"] == {"median": 3.5, "q1": 3.5, "q3": 3.6}
    assert wall["change_frac"] == pytest.approx(-0.125)
    assert (wall["wins"], wall["pairs"]) == (4, 5)  # the third pair is a loss
    assert not wall["gain_rule_met"]  # 4/5 is below nine tenths
    assert not wall["loss_rule_met"]
    # The higher-is-better metric counts the same pairs as wins.
    assert summary["ticks_per_s"]["wins"] == 4
    assert summary["ticks_per_s"]["change_frac"] > 0
    # The sides swapped: the change is worse in 4/5, below nine tenths.
    assert not any(s["loss_rule_met"] for s in bench_pairs.summarize(change, parent, BETTER).values())
    # Worse in 5/5 by 0.5 s, past the pooled spread of 0.1 s around each side's median.
    worse = bench_pairs.summarize(runs([3.5, 3.6, 3.7, 3.4, 3.5]), parent, BETTER)
    assert worse["wall_s"]["loss_rule_met"] and worse["ticks_per_s"]["loss_rule_met"]
    assert not worse["wall_s"]["gain_rule_met"]
    # Worse in 5/5 by no more than that spread.
    narrow = bench_pairs.summarize(runs([3.95, 4.15, 3.85, 4.05, 3.95]), parent, BETTER)
    assert narrow["wall_s"]["wins"] == 0
    assert not narrow["wall_s"]["loss_rule_met"]


def test_bound_test_reads_the_median_gap_against_the_bound():
    """A metric given a bound reports whether the change's median is worse by
    more than that fraction of the parent's, in either direction of better,
    whatever the spread; one without a bound reports nothing."""
    parent = runs([4.0, 4.3, 3.9, 4.1, 4.0])
    bounds = {"wall_s": 0.25, "ticks_per_s": 0.25}
    beyond = bench_pairs.summarize(parent, runs([5.2, 5.0, 5.1, 5.3, 5.1]), BETTER, bounds)  # +27.5%
    assert beyond["wall_s"]["bound"] == 0.25 and beyond["wall_s"]["bound_exceeded"]
    assert beyond["ticks_per_s"]["bound_exceeded"] is False  # ticks_per_s fell 21.6%
    within = bench_pairs.summarize(parent, runs([4.9, 4.8, 4.9, 5.0, 4.9]), BETTER, bounds)  # +22.5%
    assert not within["wall_s"]["bound_exceeded"]
    assert within["wall_s"]["loss_rule_met"]  # 5/5 worse, far past the spread
    faster = bench_pairs.summarize(parent, runs([2.0, 2.1, 2.0, 1.9, 2.0]), BETTER, bounds)
    assert not faster["wall_s"]["bound_exceeded"]
    assert faster["ticks_per_s"]["bound_exceeded"] is False  # twice the rate is a gain
    slower = bench_pairs.summarize(runs([2.0, 2.1, 2.0, 1.9, 2.0]), parent, BETTER, bounds)
    assert slower["ticks_per_s"]["bound_exceeded"]  # half the rate
    text = bench_pairs.format_summary(beyond).splitlines()
    assert text[0].endswith("loss rule met, beyond its 25% bound")
    assert text[1].endswith("loss rule met, within its 25% bound")
    unbounded = bench_pairs.summarize(parent, runs([5.2, 5.0, 5.1, 5.3, 5.1]), BETTER, {"wall_s": 0.3})
    assert "bound" not in unbounded["ticks_per_s"]
    assert not unbounded["wall_s"]["bound_exceeded"]
    assert bench_pairs.format_summary(unbounded).splitlines()[1].endswith("loss rule met")


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(runs([2.0, 2.0]), runs([2.0, 1.0]), BETTER)
    assert summary["wall_s"]["wins"] == 1


def test_gain_rule_needs_a_gap_wider_than_the_parent_iqr():
    walls = [3.0 + 0.1 * k for k in range(10)]  # IQR 0.45
    parent = runs(walls)
    clear = bench_pairs.summarize(parent, runs([w - 0.6 for w in walls]), BETTER)
    narrow = bench_pairs.summarize(parent, runs([w - 0.3 for w in walls]), BETTER)
    assert clear["wall_s"]["wins"] == narrow["wall_s"]["wins"] == 10
    assert clear["wall_s"]["gain_rule_met"]
    assert not narrow["wall_s"]["gain_rule_met"]


def test_gain_rule_needs_ten_pairs():
    """Five pairs can flag a loss but not claim a gain; ten clear wins can."""
    walls = [3.0 + 0.1 * k for k in range(10)]
    for n, met in ((9, False), (10, True)):
        assert bench_pairs.summarize(runs(walls[:n]), runs([w - 0.6 for w in walls[:n]]), BETTER)["wall_s"][
            "gain_rule_met"] is met
    assert bench_pairs.summarize(runs(walls[:5]), runs([w + 0.6 for w in walls[:5]]), BETTER)["wall_s"]["loss_rule_met"]


def test_gain_rule_needs_the_unscaled_median_to_move_the_same_way():
    walls = [3.0 + 0.1 * k for k in range(10)]
    faster = [w - 0.6 for w in walls]
    raw = [2 * w for w in walls]
    agreeing = bench_pairs.summarize(runs(walls, unscaled=raw), runs(faster, unscaled=[r - 0.1 for r in raw]), BETTER)
    assert agreeing["wall_s"]["gain_rule_met"]
    against = bench_pairs.summarize(runs(walls, unscaled=raw), runs(faster, unscaled=[r + 0.1 for r in raw]), BETTER)
    assert against["wall_s"]["wins"] == 10
    assert against["wall_s"]["change"]["unscaled_median"] > against["wall_s"]["parent"]["unscaled_median"]
    assert not against["wall_s"]["gain_rule_met"]
    assert against["ticks_per_s"]["gain_rule_met"]  # no unscaled figure to disagree


def test_gain_rule_fails_when_more_operations_fail():
    walls = [3.0 + 0.1 * k for k in range(10)]
    faster = [w - 0.6 for w in walls]
    failing = bench_pairs.summarize(runs(walls), runs(faster, failed=1), BETTER)
    assert failing["wall_s"]["wins"] == 10
    assert not failing["wall_s"]["gain_rule_met"]
    # Failing no more often than the parent does not block the gain.
    assert bench_pairs.summarize(runs(walls, failed=1), runs(faster, failed=1), BETTER)["wall_s"]["gain_rule_met"]


def test_single_pair_and_mismatched_lengths():
    summary = bench_pairs.summarize(runs([2.0]), runs([1.0]), BETTER)
    assert summary["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs([2.0]), runs([1.0, 1.0]), BETTER)


def test_unscaled_medians_beside_the_scaled_ones():
    parent, change = runs([4.0, 4.2, 3.9]), runs([3.5, 3.6, 3.4])
    for run, raw_setup in zip(parent + change, [0.30, 0.20, 0.25, 0.22, 0.40, 0.21]):
        run["metrics"]["setup_s"] = {"value": raw_setup / 2}
        run["unscaled"] = {"repetitions": 5, "wall_s": 2 * run["metrics"]["wall_s"]["value"], "setup_s": raw_setup}
    better = {**BETTER, "setup_s": "lower"}
    summary = bench_pairs.summarize(parent, change, better)
    assert summary["setup_s"]["parent"]["unscaled_median"] == 0.25
    assert summary["setup_s"]["change"]["unscaled_median"] == 0.22
    assert summary["setup_s"]["parent"]["median"] == 0.125
    assert summary["wall_s"]["change"]["unscaled_median"] == 7.0
    assert "unscaled_median" not in summary["ticks_per_s"]["parent"]  # no unscaled figure
    text = bench_pairs.format_summary(summary).splitlines()
    assert text[2].startswith("setup_s: parent 0.125 ")
    assert text[2].endswith("; unscaled median parent 0.25 -> change 0.22")
    # A run without an unscaled block (an older BENCH file) leaves the medians out.
    del change[0]["unscaled"]
    assert "unscaled_median" not in bench_pairs.summarize(parent, change, better)["setup_s"]["parent"]


def test_each_run_keeps_the_unscaled_and_provenance_blocks(monkeypatch, tmp_path):
    provenance = {"workload": "asocial", "seed": 9, "git_commit": "0123abc", "config_hash": "feed"}
    final = {"correct": True, "attempted": 7, "failed": 0, "metrics": {"wall_s": {"value": 0.3, "unit": "s"}}}
    stdout = "\n".join(json.dumps(line) for line in (
        {"provenance": provenance, "unscaled": {"wall_s": 0.6}, "references_checked": 7, "digests": {}}, final,
    ))
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        calls.append((argv, cwd))
        return subprocess.CompletedProcess(argv, 0, stdout + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    tree_id = {"git_commit": "4567def" * 5 + "4567", "git_diff_sha256": "ab" * 32}
    result = bench_pairs.bench(tmp_path, "asocial", 9, tree_id)
    assert result == {**final, "unscaled": {"wall_s": 0.6}, "provenance": {**provenance, **tree_id}}
    assert calls == [([sys.executable, "perfbench/bench.py", "--workload", "asocial", "--seed", "9",
                       "--seconds", "14", "--trace", "0"], tmp_path)]


def test_tree_ids_name_the_parent_commit_and_the_uncommitted_change(monkeypatch, tmp_path):
    """The parent is named by its full commit id, the change by HEAD and a
    sha256 of ``git diff HEAD --binary`` and of each untracked file, both
    without the output file inside the tree; one outside is not named."""
    (tmp_path / "new.py").write_bytes(b"x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a b.txt").write_bytes(b"two\n")
    inside = ("--", ".", ":(exclude)BENCH_1.json")
    outputs = {
        ("git", "diff", "HEAD", "--binary", *inside): b"diff --git a/src/x.py b/src/x.py\n",
        ("git", "ls-files", "--others", "--exclude-standard", "-z", *inside): "sub/a b.txt\0new.py\0",
        ("git", "diff", "HEAD", "--binary", "--", "."): b"diff --git a/src/x.py b/src/x.py\n",
        ("git", "ls-files", "--others", "--exclude-standard", "-z", "--", "."): "sub/a b.txt\0new.py\0",
        ("git", "rev-parse", "abc123^{commit}"): "1" * 40 + "\n",
        ("git", "rev-parse", "HEAD"): "2" * 40 + "\n",
    }
    calls = []

    def fake_run(argv, cwd, capture_output, check, text=False):
        calls.append(tuple(argv))
        assert cwd == tmp_path and capture_output and check
        out = outputs[tuple(argv)]
        assert isinstance(out, str) == text
        return subprocess.CompletedProcess(argv, 0, out, "" if text else b"")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    expected = hashlib.sha256(b"diff --git a/src/x.py b/src/x.py\n" + b"new.py\0x = 1\n" + b"sub/a b.txt\0two\n")
    ids = {
        "parent": {"git_commit": "1" * 40},
        "change": {"git_commit": "2" * 40, "git_diff_sha256": expected.hexdigest()},
    }
    assert bench_pairs.tree_ids("abc123", tmp_path / "BENCH_1.json") == ids
    assert bench_pairs.tree_ids("abc123", tmp_path.parent / "elsewhere.json") == ids
    assert set(calls) == set(outputs)


def test_neither_side_runs_in_the_checkout(monkeypatch, tmp_path):
    """Both tools' passes run through ``alternate``: the parent in its
    extract and the change in a copy of the working tree beside it, the
    parent first in odd pairs; both trees are removed afterwards."""
    filled, ran = {}, []

    def fake_extract(ref, into):
        into.mkdir(parents=True)
        (into / "from_git_archive").write_text(ref)
        filled["parent"] = into

    def fake_copy(into, out):
        into.mkdir(parents=True)
        (into / "from_worktree").write_text(str(out))
        filled["change"] = into

    def fake_bench(tree, workload, seed, tree_id):
        ran.append((tree_id["side"], tree))
        assert tree == filled[tree_id["side"]] and tree.is_dir()
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in ("wall_s", "ticks_per_s", "setup_s", "peak_rss_mb")}}

    def fake_sample(tree):
        side = "parent" if tree == filled["parent"] else "change"
        ran.append((side, tree))
        assert tree == filled[side] and tree.is_dir()
        return [["fig3", "complete", 0.1, 0, 0, 2.0, 1.0, "ab"]]

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc1234")
    monkeypatch.setattr(bench_pairs, "tree_ids", lambda ref, out: {"parent": {"side": "parent"},
                                                                    "change": {"side": "change"}})
    monkeypatch.setattr(bench_pairs, "extract", fake_extract)
    monkeypatch.setattr(bench_pairs, "copy_worktree", fake_copy)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(grid_sample, "sample", fake_sample)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--parent", "abc1234", "--workload", "asocial", "--pairs", "2", "--out", str(out)]) == 0
    assert grid_sample.main(["--parent", "abc1234", "--out", str(out)]) == 0
    assert [side for side, _ in ran] == ["parent", "change", "change", "parent"] + [
        "parent", "change", "change", "parent"] * (grid_sample.PASSES // 2)
    bench_trees, grid_trees = dict(ran[:4]), dict(ran[4:])
    for trees in (bench_trees, grid_trees):
        assert trees["parent"] != trees["change"] and trees["parent"].parent == trees["change"].parent
        for tree in trees.values():
            assert not tree.resolve().is_relative_to(bench_pairs.ROOT)
            assert not tree.exists()
    assert bench_trees["parent"] != grid_trees["parent"]
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["asocial --seed 0"]["pairs"] == 2
    assert workloads["grid_sample"]["pairs"] == grid_sample.PASSES


def test_copy_worktree_takes_tracked_and_untracked_files_but_not_ignored_ones(monkeypatch, tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    files = {".gitignore": "/out/\n", "src/a.py": "a = 1\n", "src/gone.py": "", "new.py": "b = 2\n",
             "out/skip.txt": "", "BENCH_1.json": "{}"}
    for path, text in files.items():
        (repo / path).parent.mkdir(parents=True, exist_ok=True)
        (repo / path).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", ".gitignore", "src"], cwd=repo, check=True)
    (repo / "src" / "a.py").write_text("a = 3\n")  # uncommitted edit
    (repo / "src" / "gone.py").unlink()  # tracked but deleted
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.copy_worktree(into, repo / "BENCH_1.json")
    copied = {p.relative_to(into).as_posix(): p.read_text() for p in into.rglob("*") if p.is_file()}
    assert copied == {".gitignore": "/out/\n", "src/a.py": "a = 3\n", "new.py": "b = 2\n"}
