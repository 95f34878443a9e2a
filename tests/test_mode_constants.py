"""The per-tick code of ``agent`` and ``engine`` reads the module constants
EXPLORING/BROADCASTING/SATURATED, never a ``Mode.<member>`` lookup, which
costs several times a global read on every call."""

import ast
import inspect

import pytest

from hexswarm import agent, engine


def mode_lookups(module) -> list[str]:
    """``function:line`` of every ``Mode.<name>`` inside a function body."""
    found = []
    for func in ast.walk(ast.parse(inspect.getsource(module))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in func.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Mode":
                    found.append(f"{func.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("module", [agent, engine], ids=lambda module: module.__name__)
def test_no_mode_member_lookup_in_functions(module):
    assert mode_lookups(module) == []


def test_constants_are_the_members():
    assert (agent.EXPLORING, agent.BROADCASTING, agent.SATURATED) == tuple(agent.Mode)
