"""The whole-run differential against ``tests/reference_model.py``."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
import reference_model

from hexswarm import engine
from hexswarm.agent import Mode
from hexswarm.cli import main


def assert_run_matches_model(config, subcommands=("run", "trace")):
    """Compare ``engine.run`` without a callback, and each subcommand, with the
    model: the record JSON, ``trace.log`` and the final generator state. The
    run without a callback must idle exactly when the model ends asocial and
    unconverged after every agent saturated, and then end in the model's
    generator state of the first all-saturated tick: idle ticks draw nothing.
    Returns the record as a dict and whether that run idled."""
    logs, final, saturated, states = {"run": [], "trace": []}, [], [], []

    def log(state, sampled):
        final[:] = [state]
        if not saturated and all(a.mode is Mode.SATURATED for a in state.agents):
            saturated.append(state.rng.bit_generator.state)
        lines = [f"{a.log_line(state.tick_index)}\n" for a in state.agents]
        logs["trace"] += lines
        logs["run"] += lines if sampled else []

    expected = reference_model.run(config, log).to_json()
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        initialize = engine.initialize
        patch.setattr(engine, "initialize", lambda c: states.append(initialize(c)) or states[-1])
        assert engine.run(config).to_json() == expected
        (Path(tmp) / "run.json").write_text(json.dumps(asdict(config)))
        for subcommand in subcommands:
            out = Path(tmp) / subcommand
            assert main([subcommand, "--config", f"{tmp}/run.json", "--out", str(out)]) == 0
            assert (out / "run_record.json").read_text() == expected + "\n"
            assert (out / "trace.log").read_text() == "".join(logs[subcommand])
    record, end = json.loads(expected), final[0].rng.bit_generator.state
    idles = config.C_f == 0 and bool(saturated) and not record["summary"]["converged"]
    assert [s.idle for s in states] == [idles] + [False] * len(subcommands)
    assert [s.rng.bit_generator.state for s in states] == [saturated[0] if idles else end] + [end] * len(subcommands)
    return record, idles
