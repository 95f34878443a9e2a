"""``tests/reference_model.py`` states the model without the fast paths it
checks: it neither imports nor calls them, and reaches ``hexswarm`` only
through ``from hexswarm.<module> import <name>``, so no module object opens
a way to them. No other test module keeps a reference of its own: no
``reference_*`` function, and no code-array building block of the model's
(the fusion table, the numeric readings, a ``flatnonzero`` pick)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
FAST_PATHS = {
    "select_target", "move_agents", "on_arrival", "on_fusion", "eligible_partners", "fuse_beliefs",
    "update_with_evidence", "observe", "belief_error", "consensus_reached", "LemireGenerator",
}
# engine's own, importable only from hexswarm.engine or through the module,
# which the guard rejects; the model defines functions of these names.
ENGINE_LOOP = {"tick", "run", "initialize"}
RETIRED = {"flatnonzero_pick", "per_tick_rows"}
MODEL_BLOCKS = {"_FUSION", "NUMERIC", "flatnonzero"}


def fast_path_uses(source: str) -> list[str]:
    """Each import or use of a fast path, or import of a hexswarm module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "hexswarm"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hexswarm":
            names = {a.name for a in node.names}
            banned = FAST_PATHS | ENGINE_LOOP if node.module == "hexswarm.engine" else FAST_PATHS
            found += sorted(names if node.module == "hexswarm" else names & banned)
        elif isinstance(node, ast.Name) and node.id in FAST_PATHS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in FAST_PATHS:
            found.append(node.attr)
    return found


def test_model_uses_no_fast_path():
    assert fast_path_uses((TESTS / "reference_model.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from hexswarm.agent import Mode, select_target",
        "from hexswarm.engine import tick",
        "from hexswarm import engine",
        "import hexswarm.network",
        "x = belief_error(b, t)",
        "state.rng = LemireGenerator(bits)",
        "arrived = agent_module.move_agents(agents, grid, rng)",
    ],
)
def test_guard_sees(source):
    assert fast_path_uses(source)


def own_references(source: str) -> list[str]:
    """Each ``reference_*`` or retired function, and each use of a model block."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [node.name] if node.name.startswith("reference_") or node.name in RETIRED else []
        elif isinstance(node, ast.alias | ast.Name | ast.Attribute):
            name = getattr(node, "name", None) or getattr(node, "id", None) or node.attr
            found += [name] if name in MODEL_BLOCKS else []
    return found


@pytest.mark.parametrize(
    "source",
    [
        "def reference_tick(state): pass",
        "from hexswarm.belief import _FUSION",
        "NUMERIC = np.array([0.0, 0.5, 1.0])",
        "unknown = np.flatnonzero(codes == 1)",
    ],
)
def test_reference_guard_sees(source):
    assert own_references(source)


def test_no_other_module_keeps_a_reference():
    found = {
        path.name: own_references(path.read_text())
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "reference_model.py"
    }
    assert {name: refs for name, refs in found.items() if refs} == {}
