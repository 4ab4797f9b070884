"""Every function the benchmark tracer wraps still exists in bellkit.

``perfbench/tracer.py`` patches each ``(module, attribute)`` in ``TRACED``;
a name deleted or renamed in bellkit would break ``--trace 1``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    """The ``TRACED`` literal, read from the tracer's source without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"bellkit.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
