"""The benchmark's tracer wraps pathdepth module attributes by name; each
must still exist, or a traced run would fail or measure nothing."""

import ast
import importlib
import importlib.util
from pathlib import Path

from pathdepth import betti, sdepth
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MonomialIdeal

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


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_counts_run(monkeypatch):
    # the counts run only in a traced benchmark pass otherwise: a count that
    # reads a renamed attribute would fail there and nowhere else
    tracing = _load_tracing()
    for owner, attr in _wrapped_pairs():
        module, *path = owner.split(".")
        obj = importlib.import_module(f"pathdepth.{module}")
        for name in path:
            obj = getattr(obj, name)
        # the same value, so that monkeypatch restores it after the test
        monkeypatch.setattr(obj, attr, getattr(obj, attr))
    # shape rows other tests left would skip the homology spans
    monkeypatch.setattr(betti, "SHAPE_ROWS", {})
    j, i = MonomialIdeal.whole_ring(9), cycle_ideal(9, 3)
    size = len(sdepth.CharPoset(j, i).elements)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    res = sdepth.stanley_depth(j, i)
    betti.hochster_betti(line_ideal(6, 2))
    assert tracer.stack == []
    assert all(0 < start <= end for _, start, end, *_ in tracer.spans)
    counts = {}
    for name, *_, count in tracer.spans:
        counts.setdefault(name, []).append(count)
    assert counts["sdepth.poset"] == [size]
    assert counts["sdepth"] == [res.nodes]
    assert {"sdepth.maximal", "sdepth.decide", "betti", "homology"} <= set(counts)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["sdepth.poset_elems"] == size
    assert metrics["sdepth.nodes"] == res.nodes
    assert metrics["betti.sigma_ranked"] == len(counts["homology"]) > 0
