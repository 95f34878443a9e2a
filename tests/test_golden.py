"""Golden-trajectory regression guards.

These freeze the exact sampled output of two short runs. The tick phase
order (move, observe, proximity, eligibility, pairing) is part of the
engine's contract: reordering phases, changing when the generator is
consumed, or altering the matching policy will shift these values and
must be treated as a breaking change.
"""

import dataclasses
import hashlib
import json

import pytest

from hexswarm.cli import main
from hexswarm.engine import SimConfig, run

GOLDEN_SOCIAL = {
    "config": SimConfig(m=5, hex_disc_radius=1, C_r=25.0, C_f=0.5, epsilon=0.3,
                        topology="lattice:2", max_ticks=400, speed=5.0,
                        seed=2024, sample_every=40),
    "terminal_tick": 57,
    "converged": True,
    "trajectory": [
        (0, 0.5, 0.0, 0),
        (40, 0.3, 0.9333333333333333, 26),
        (57, 0.16666666666666666, 1.0, 48),
    ],
}

GOLDEN_ASOCIAL = {
    "config": SimConfig(m=4, hex_disc_radius=1, C_r=20.0, C_f=0.0, epsilon=0.3,
                        topology="complete", max_ticks=200, speed=5.0,
                        seed=7, sample_every=50),
    "terminal_tick": 200,
    "converged": False,
    "trajectory": [
        (0, 0.5, 0.0, 0),
        (50, 0.29166666666666663, 1.0, 0),
        (100, 0.29166666666666663, 1.0, 0),
        (150, 0.29166666666666663, 1.0, 0),
        (200, 0.29166666666666663, 1.0, 0),
    ],
}


def check_golden(golden):
    record = run(golden["config"])
    assert record.terminal_tick == golden["terminal_tick"]
    assert record.converged == golden["converged"]
    assert [tuple(p) for p in record.trajectory] == golden["trajectory"]


def test_golden_social_run():
    check_golden(GOLDEN_SOCIAL)


def test_golden_asocial_run():
    check_golden(GOLDEN_ASOCIAL)


# sha256 of trace.log written by `hexswarm run` (sampled ticks) and
# `hexswarm trace` (every tick) for the GOLDEN_SOCIAL config.
GOLDEN_SOCIAL_TRACE_LOG = {
    "run": "9bf7e8845c8edfd8d4de7b7407822ab7227bf07bccc88fb57edce2073ba2ae64",
    "trace": "f3c9b437237a4ffb0166274d31dfe1574a587c9e8525130da25ff430dbba7eb5",
}


@pytest.mark.parametrize("subcommand", list(GOLDEN_SOCIAL_TRACE_LOG))
def test_golden_social_trace_log(subcommand, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(dataclasses.asdict(GOLDEN_SOCIAL["config"])))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "trace.log").read_bytes()).hexdigest()
    assert digest == GOLDEN_SOCIAL_TRACE_LOG[subcommand]
