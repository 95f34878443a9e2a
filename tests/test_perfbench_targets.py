"""The benchmark's tracer (perfbench/tracer.py) wraps hexswarm functions by
module attribute name. A refactor that drops or renames one of those
bindings would break the traced benchmark pass; this catches it here."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,attr", [(mod, attr) for mod, attr, _ in tracer.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(tracer.hexswarm_modules()[module], attr, None))
