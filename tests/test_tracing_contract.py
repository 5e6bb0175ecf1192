"""The benchmark's tracer wraps pathdepth module attributes by name; each
must still exist, or a traced run would fail or measure nothing."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_pairs():
    """(owner expression, attribute) of every tracer.wrap call."""
    pairs = []
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            owner, attr = node.args[:2]
            pairs.append((ast.unparse(owner), attr.value))
    return pairs


def test_every_traced_attribute_exists():
    pairs = _wrapped_pairs()
    assert len(pairs) >= 10
    for owner, attr in pairs:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"pathdepth.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"
