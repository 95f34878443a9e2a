"""A run draws from one generator, built in ``engine.initialize``: no other
code in ``hexswarm`` builds one, and only ``engine.LemireGenerator`` reaches
into its bit generator, so every bounded draw takes the one path that
``tests/test_generator_contract.py`` checks against numpy."""

import ast
import importlib
import inspect
import pkgutil

import hexswarm
from hexswarm.engine import LemireGenerator, SimConfig, initialize

CONSTRUCTORS = {"default_rng", "Generator", "PCG64", "LemireGenerator"}


def generator_uses(name: str) -> tuple[set[str], set[str]]:
    """``(builds, reads)`` in ``hexswarm.<name>``: ``scope.callee`` for each
    call of a name in CONSTRUCTORS, and ``scope`` for each ``.bit_generator``
    read, where scope is ``module.[Class.]function``."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"hexswarm.{name}")))
    builds, reads = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee in CONSTRUCTORS:
                    builds.add(f"{scope}.{callee}")
            if isinstance(child, ast.Attribute) and child.attr == "bit_generator":
                reads.add(scope)
            visit(child, scope)

    visit(tree, name)
    return builds, reads


def test_only_initialize_builds_a_generator():
    modules = [info.name for info in pkgutil.iter_modules(hexswarm.__path__)]
    uses = [generator_uses(name) for name in modules]
    assert set().union(*(builds for builds, _ in uses)) == {
        "engine.initialize.LemireGenerator",
        "engine.initialize.PCG64",
    }
    assert set().union(*(reads for _, reads in uses)) == {"engine.LemireGenerator.__init__"}


def test_initialize_builds_a_lemire_generator():
    assert type(initialize(SimConfig(m=4, hex_disc_radius=1)).rng) is LemireGenerator
