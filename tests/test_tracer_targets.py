"""The benchmark tracer wraps package functions by name; a target that no
longer resolves silently zeroes its layer's metrics.  ``TARGETS`` is read
from ``benchmarks/tracer.py`` as a literal, without importing it."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = [f"{module}.{func}" for module, func, _ in targets
               if not callable(getattr(importlib.import_module(f"noisebits.{module}"),
                                       func, None))]
    assert missing == []
