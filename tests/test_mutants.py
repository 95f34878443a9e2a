"""The mutant list of tools/mutants.py stays applicable to the source.

Running the mutants takes minutes, so that is left to the tool; this only
checks that each listed edit still finds its text, so the list cannot rot
as the source changes.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402

LISTED = json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]


@pytest.mark.parametrize("mutant", LISTED, ids=[m["id"] for m in LISTED])
def test_old_text_occurs_exactly_once_under_src(mutant):
    assert mutant["file"].startswith("src/hexswarm/")
    assert mutants.check_texts([mutant]) == []


def test_every_recorded_survivor_is_explained():
    # A new entry has no result until the tool has run it.
    assert len({m["id"] for m in LISTED}) == len(LISTED)
    assert all(m.get("result") in (None, "killed", "survived") for m in LISTED)
    assert [m["id"] for m in LISTED if m.get("result") == "survived" and not m.get("equivalent")] == []


def test_check_texts_reports_a_missing_or_repeated_text(tmp_path):
    (tmp_path / "f.py").write_text("a = 1\na = 1\nb = 2\n")
    entries = [
        {"id": "twice", "file": "f.py", "old": "a = 1", "new": "a = 0"},
        {"id": "gone", "file": "f.py", "old": "c = 3", "new": "c = 0"},
        {"id": "noop", "file": "f.py", "old": "b = 2", "new": "b = 2"},
    ]
    assert mutants.check_texts(entries, tmp_path) == [
        "twice: old text occurs 2 times in f.py",
        "gone: old text occurs 0 times in f.py",
        "noop: old and new are the same",
    ]


def test_only_rejects_an_unknown_id_before_running_anything(capsys):
    assert mutants.main(["--only", "no-such-mutant"]) == 2
    assert "no-such-mutant: no such entry" in capsys.readouterr().err
