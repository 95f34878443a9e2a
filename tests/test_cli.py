"""Tests for the command-line front end."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from run_differential import assert_run_matches_model

from hexswarm import cli, experiment
from hexswarm.cli import RUN_KEYS, SWEEP_KEYS, main, parse_and_validate
from hexswarm.engine import SimConfig, initialize, run

RUN_CONFIG = {
    "m": 4, "hex_disc_radius": 1, "C_r": 20, "C_f": 0.2,
    "epsilon": 0.1, "max_ticks": 300, "seed": 5, "sample_every": 50,
}


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RUN_CONFIG))
    return path


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "m": 4, "hex_disc_radius": 1, "topology": ["complete"],
        "C_r": [20], "C_f": [0.0, 0.5], "epsilon": [0.0],
        "repeats": 2, "base_seed": 9, "max_ticks": 300, "sample_every": 50,
    }))
    return path


class TestParsing:
    def test_subcommand_and_flags(self, run_config, tmp_path):
        inv = parse_and_validate([
            "run", "--config", str(run_config), "--out", str(tmp_path / "o"),
            "--set", "C_f=0.025", "--workers", "3", "--seed", "8",
        ])
        assert inv.subcommand == "run"
        assert inv.overrides == [("C_f", 0.025)]
        assert inv.workers == 3
        assert inv.seed == 8

    def test_consecutive_calls_share_no_state(self, run_config, capsys):
        """The parser is built once per process; one call's ``--set`` and
        ``--seed`` must not reach the next."""
        first = parse_and_validate(["run", "--set", "m=7", "--set", "C_f=0.5", "--seed", "3"])
        second = parse_and_validate(["trace"])
        assert (first.overrides, first.seed) == ([("m", 7), ("C_f", 0.5)], 3)
        assert (second.subcommand, second.overrides, second.seed, second.out) == ("trace", [], None, "out")
        assert cli._parser() is cli._parser()
        assert main(["validate", "--config", str(run_config), "--set", "m=9", "--seed", "4"]) == 0
        assert main(["validate", "--config", str(run_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("valid run config: m=9 ") and lines[0].endswith(" seed=4")
        assert lines[1].startswith("valid run config: m=4 ") and lines[1].endswith(" seed=5")

    def test_string_override_values(self):
        inv = parse_and_validate(["run", "--set", "topology=lattice:4"])
        assert inv.overrides == [("topology", "lattice:4")]

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["run", "--frobnicate"]) == 2

    def test_malformed_override(self):
        assert main(["validate", "--set", "oops"]) == 2


class TestValidate:
    def test_valid_run_config(self, run_config, capsys):
        assert main(["validate", "--config", str(run_config)]) == 0
        assert "valid run config" in capsys.readouterr().out

    def test_valid_sweep_config(self, sweep_config, capsys):
        assert main(["validate", "--config", str(sweep_config)]) == 0
        out = capsys.readouterr().out
        assert "valid sweep config" in out
        assert "4 runs" in out

    def test_writes_nothing(self, run_config, tmp_path, monkeypatch):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["validate", "--config", str(run_config)]) == 0
        assert os.listdir(workdir) == []

    def test_epsilon_out_of_range_exits_2(self, run_config, capsys):
        code = main(["validate", "--config", str(run_config), "--set", "epsilon=0.7"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    # validate builds no grid or network, so these sizes cost nothing here.
    @pytest.mark.parametrize("config", ["configs/base.json", "configs/smoke.json"])
    @pytest.mark.parametrize("key,bound", [("m", 1000), ("hex_disc_radius", 300)])
    def test_size_bound_exits_2_past_it(self, config, key, bound, capsys):
        assert main(["validate", "--config", config, "--set", f"{key}={bound}"]) == 0
        capsys.readouterr()
        for value in (bound + 1, 100_000_000):
            assert main(["validate", "--config", config, "--set", f"{key}={value}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {key} out of range: need {key} <= {bound}, got {value}\n"

    def test_unknown_key_named_in_error(self, run_config, capsys):
        code = main(["validate", "--config", str(run_config), "--set", "warp_factor=9"])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    # ids: the bare override for validate, "<override>-<subcommand>" otherwise
    @pytest.mark.parametrize(
        "subcommand,override",
        [
            pytest.param(
                subcommand,
                override,
                id=override if subcommand == "validate" else f"{override}-{subcommand}",
            )
            for subcommand in ("validate", "run", "trace")
            for override in (
                "m=abc",
                "hex_disc_radius=2.5",
                "seed=-1",
                "max_ticks=1.5",
                "sample_every=1.5",
                "speed=NaN",
                "C_r=NaN",
                # int() reads these as k=2, 10, 2, 2 and 2; only ASCII digits
                # without a leading zero are a k.
                "topology=lattice:+2",
                "topology=lattice:1_0",
                "topology=lattice:\u0662",
                "topology=lattice:02",
                "topology=lattice:002",
            )
        ],
    )
    def test_malformed_value_exits_2_with_one_line(self, subcommand, override, tmp_path, capsys):
        assert main([subcommand, "--set", override, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert override.split("=")[0] in err
        assert not (tmp_path / "out").exists()

    # Sweep-shaped configs: the fixed fields and every list entry must be
    # checked by validate exactly as sweep checks them.
    @pytest.mark.parametrize("subcommand", ["validate", "sweep"])
    @pytest.mark.parametrize(
        "override", ["m=abc", "C_r=[NaN]", "topology=[5]", "epsilon=[0.1,0.1]", "C_r=[20,20.0]"]
    )
    def test_malformed_sweep_value_exits_2_with_one_line(self, subcommand, override, tmp_path, capsys):
        argv = [subcommand, "--config", "configs/smoke.json", "--set", override,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert override.split("=")[0] in captured.err
        assert not (tmp_path / "out").exists()

    # json's decoder raises RecursionError past about a thousand levels.
    @pytest.mark.parametrize("subcommand", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("source", ["file", "override"])
    def test_deeply_nested_config_exits_2_with_one_line(self, subcommand, source, tmp_path, capsys):
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text("[" * 1500 + "]" * 1500)
            args = ["--config", str(path)]
        else:
            args = ["--set", "m=" + "[" * 5000 + "]" * 5000]
        assert main([subcommand, *args, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("nested too deeply to parse\n")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # json keeps the last of a repeated key, which would drop the first value
    # silently; a run file, a sweep file and a nested object each repeat one.
    @pytest.mark.parametrize("subcommand", ["validate", "run", "trace", "sweep"])
    @pytest.mark.parametrize(
        "text,key",
        [
            pytest.param('{"seed": 1, "seed": 2}', "seed", id="run-file"),
            pytest.param('{"m": 4, "C_f": [0.0, 0.5], "repeats": 2, "C_f": [0.1]}', "C_f", id="sweep-file"),
            pytest.param('{"m": 4, "topology": [{"k": 2, "k": 4}]}', "k", id="nested"),
        ],
    )
    def test_repeated_config_key_exits_2_with_one_line(self, subcommand, text, key, tmp_path, capsys):
        path = tmp_path / "repeats.json"
        path.write_text(text)
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key {key!r} appears more than once\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_override_keeps_the_last(self, run_config, capsys):
        argv = ["validate", "--config", str(run_config), "--set", "seed=1", "--set", "seed=2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(" seed=2\n")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_json_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 0, 1, 2, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)
override_values = st.one_of(
    json_values.map(json.dumps),  # json.dumps writes NaN and Infinity bare
    st.sampled_from(["NaN", "-Infinity", "true", "abc", "", "[", "1" * 5000]),
    st.text(max_size=6).map(lambda junk: f"lattice:{junk}"),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    overrides=st.lists(
        st.tuples(st.sampled_from(sorted(RUN_KEYS | SWEEP_KEYS | {"warp_factor"})), override_values),
        min_size=1,
        max_size=3,
    ),
    with_config=st.booleans(),
)
def test_validate_fuzzed_overrides_exit_0_or_2(overrides, with_config):
    argv = ["validate"] + (["--config", "configs/smoke.json"] if with_config else [])
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


class TestRunSubcommand:
    def test_writes_record_and_trace(self, run_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(run_config), "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["m"] == 4
        trace = (out / "trace.log").read_text().strip().split("\n")
        assert len(trace) >= 4
        first = trace[0].split()
        assert first[0] == "0" and first[1] == "0"
        assert "run finished" in capsys.readouterr().out

    def test_set_override_applied(self, run_config, tmp_path):
        out = tmp_path / "o2"
        assert main([
            "run", "--config", str(run_config), "--out", str(out), "--set", "C_f=0.025",
        ]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["C_f"] == 0.025

    def test_seed_flag_overrides(self, run_config, tmp_path):
        out = tmp_path / "o3"
        assert main(["run", "--config", str(run_config), "--out", str(out), "--seed", "77"]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["seed"] == 77

    def test_record_matches_engine_run(self, run_config, tmp_path):
        # run_record.json is engine.run()'s record; the trace log only observes it
        out = tmp_path / "o4"
        assert main(["run", "--config", str(run_config), "--out", str(out)]) == 0
        written = (out / "run_record.json").read_text()
        config = SimConfig(**json.loads(run_config.read_text()))
        assert written == run(config).to_json() + "\n"

    def test_run_rejects_sweep_config(self, sweep_config, capsys):
        assert main(["run", "--config", str(sweep_config)]) == 2
        assert "sweep" in capsys.readouterr().err

    # A sweep-only key makes a config a sweep just as a list value does.
    @pytest.mark.parametrize("subcommand", ["run", "trace"])
    @pytest.mark.parametrize(
        "override,cause",
        [("repeats=2", "'repeats' is a sweep-only key"), ("base_seed=1", "'base_seed' is a sweep-only key"),
         ("C_f=[0.1]", "'C_f' has a list value")],
    )
    def test_sweep_key_named_in_error(self, subcommand, override, cause, tmp_path, capsys):
        assert main([subcommand, "--set", override, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config describes a sweep ({cause}); use the sweep subcommand\n"
        assert not (tmp_path / "out").exists()

    def test_trace_covers_every_tick(self, run_config, tmp_path):
        out_run = tmp_path / "r"
        out_trace = tmp_path / "t"
        main(["run", "--config", str(run_config), "--out", str(out_run)])
        main(["trace", "--config", str(run_config), "--out", str(out_trace)])
        run_lines = (out_run / "trace.log").read_text().count("\n")
        trace_lines = (out_trace / "trace.log").read_text().count("\n")
        assert trace_lines > run_lines
        record = json.loads((out_trace / "run_record.json").read_text())
        assert trace_lines == 4 * (record["summary"]["terminal_tick"] + 1)


class TestTraceLogStreaming:
    @staticmethod
    def traced_peak(out, ticks):
        """Peak traced heap of an asocial ``trace`` run that never converges."""
        argv = ["trace", "--config", "configs/base.json", "--set", "C_f=0", "--set", "epsilon=0.1",
                "--set", f"max_ticks={ticks}", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_flat_in_ticks(self, tmp_path, capsys):
        # Imports and caches filled on first use would count toward the
        # short run otherwise.
        self.traced_peak(tmp_path / "warm", 1)
        short = self.traced_peak(tmp_path / "short", 500)
        long = self.traced_peak(tmp_path / "long", 2000)
        assert (tmp_path / "long" / "trace.log").read_text().count("\n") == 20 * 2001
        assert long - short < 256 * 1024

    @pytest.mark.parametrize("subcommand", ["run", "trace"])
    def test_failed_run_leaves_no_log(self, subcommand, run_config, tmp_path, monkeypatch):
        def failing_run(config, on_tick=None, on_row=None):
            # run passes on_row and trace on_tick; either writes a first row.
            if on_tick is not None:
                on_tick(initialize(config), True)
            else:
                on_row(initialize(config))
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "run", failing_run)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="run failed"):
            main([subcommand, "--config", str(run_config), "--out", str(out)])
        assert list(out.iterdir()) == []


# (overrides on RUN_CONFIG, how the run must end: "cap", "converged" or None)
REFERENCE_CASES = {
    **{f"seed{s}": ({"seed": s}, None) for s in range(8)},
    "cap-not-multiple": ({"C_f": 0.0, "epsilon": 0.3, "max_ticks": 237, "seed": 7}, "cap"),
    "sample-every-1": ({"sample_every": 1}, None),
    "asocial-cap": ({"C_f": 0.0, "epsilon": 0.3, "max_ticks": 200, "seed": 7}, "cap"),
    "social-converges": (
        {"m": 5, "C_r": 25.0, "C_f": 0.5, "epsilon": 0.3, "topology": "lattice:2",
         "max_ticks": 400, "seed": 2024, "sample_every": 40},
        "converged",
    ),
}


class TestRunLoopReference:
    @pytest.mark.parametrize("subcommand", ["run", "trace"])
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_outputs_match_reference_loop(self, subcommand, case):
        overrides, ending = REFERENCE_CASES[case]
        data = {**RUN_CONFIG, **overrides}
        record, _ = assert_run_matches_model(SimConfig(**data), (subcommand,))
        summary = record["summary"]
        if ending == "cap":
            assert not summary["converged"] and summary["terminal_tick"] == data["max_ticks"]
        elif ending == "converged":
            assert summary["converged"] and summary["terminal_tick"] % data["sample_every"] != 0


class TestSweepSubcommand:
    def test_writes_all_csvs(self, sweep_config, tmp_path, capsys):
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
        for name in ("sweep_results.csv", "cell_summary.csv", "trajectories.csv"):
            assert (out / name).exists()
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2  # one summary line per cell

    def test_worker_count_does_not_change_output(self, sweep_config, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out2),
                     "--workers", "2"]) == 0
        for name in ("sweep_results.csv", "cell_summary.csv", "trajectories.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, sweep_config, tmp_path, workers, capsys):
        argv = ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "out"),
                "--workers", workers]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "--workers" in err
        assert not (tmp_path / "out").exists()

    def test_workers_bounded_before_any_pool(self, sweep_config, tmp_path, monkeypatch, capsys):
        def no_pool(max_workers):
            raise AssertionError("pool built")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        assert main(["validate", "--config", str(sweep_config), "--workers", "64"]) == 0
        capsys.readouterr()
        argv = ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "out"), "--workers", "65"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --workers out of range: need --workers <= 64, got 65\n"
        assert not (tmp_path / "out").exists()

    def test_repeat_invocation_identical_bytes(self, sweep_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["sweep", "--config", str(sweep_config), "--out", str(out1)])
        main(["sweep", "--config", str(sweep_config), "--out", str(out2)])
        for name in ("sweep_results.csv", "cell_summary.csv", "trajectories.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestModuleEntry:
    """``python -m hexswarm`` is the ``hexswarm`` command."""

    root = Path(__file__).resolve().parent.parent

    def hexswarm(self, *args):
        path = os.pathsep.join(filter(None, [str(self.root / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "hexswarm", *args], cwd=self.root, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)

    def test_validate_exits_0(self):
        proc = self.hexswarm("validate", "--config", "configs/base.json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("valid run config")

    def test_bad_override_exits_2(self):
        proc = self.hexswarm("validate", "--config", "configs/base.json", "--set", "epsilon=0.9")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: epsilon out of range")


class TestPresets:
    @pytest.mark.parametrize("name", ["smoke.json", "fig3.json", "fig4_5.json"])
    def test_sweep_presets_validate(self, name, capsys):
        assert main(["validate", "--config", f"configs/{name}"]) == 0
        assert "valid sweep config" in capsys.readouterr().out

    def test_base_preset_validates_as_run(self, capsys):
        assert main(["validate", "--config", "configs/base.json"]) == 0
        assert "valid run config" in capsys.readouterr().out

    def test_smoke_preset_runs(self, tmp_path):
        out = tmp_path / "smoke"
        assert main(["sweep", "--config", "configs/smoke.json", "--out", str(out)]) == 0
        assert (out / "cell_summary.csv").exists()
