"""Every config rule is written once, in ``errors.RULES``, and checked
through ``errors.check`` and ``errors.check_lattice``. Only the functions
listed here raise ``ConfigError`` themselves, so a range check written
inline anywhere else fails this test. The package's files are parsed, not
imported, so no module's import-time code runs inside the test."""

import ast
import dataclasses
from pathlib import Path

import hexswarm
from hexswarm.engine import SimConfig
from hexswarm.errors import RULES

EXPECTED = {
    # The rules.
    "errors.check",
    "errors.check_lattice",
    # No config field's range: the topology tag's syntax and type, empty or
    # repeated sweep lists and the proposition count.
    "engine.parse_topology",
    "engine.SimConfig.validate",
    "experiment.SweepSpec.validate",
    "environment.sample_ground_truth",
    # The CLI's override syntax, config I/O, a key repeated in a config file,
    # unknown keys and a sweep config given to run.
    "cli._parse_override",
    "cli._load_config_data",
    "cli._unique_keys",
    "cli._check_keys",
    "cli._build_run_config",
}


def config_error_raisers(path: Path) -> set[str]:
    """``module.[Class.]function`` of every function in the module file
    ``path`` whose own body raises ConfigError."""
    name = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    found.add(scope)
            visit(child, scope)

    visit(tree, name)
    return found


def test_only_the_listed_functions_raise_config_error():
    files = sorted(Path(hexswarm.__file__).parent.glob("*.py"))
    assert len(files) > 5
    assert set().union(*map(config_error_raisers, files)) == EXPECTED


def test_rules_cover_exactly_the_numeric_fields():
    run_fields = {f.name for f in dataclasses.fields(SimConfig)} - {"topology"}
    assert RULES.keys() == run_fields | {"repeats", "base_seed", "workers"}
