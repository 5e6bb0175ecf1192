"""Spans around the calls into each pathdepth layer, recorded from outside.

Wrappers replace the module attributes through which the layers call each
other, so the program itself is unchanged.  Spans are kept in memory as
[name, start, end, parent index, instance id, work count] and written out
when the worker ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: str | None = None

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.instance, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, count=None, instance=None):
        """Replace owner.attr by a wrapper that records one span per call.

        ``count(args, result)`` gives the span's work count; ``instance(args)``
        names the instance for the span and everything below it.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            outer_instance = self.instance
            if instance is not None:
                self.instance = instance(args)
            span = self._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(span)
                self.instance = outer_instance
            if count is not None:
                span[5] = count(args, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance",
                                  "count"], "spans": self.spans}, fh)


def _cells(args, _result) -> int:
    rows, cols = np.shape(args[0])
    return rows * cols


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from pathdepth import betti, cli, homology, oracle, sdepth

    nodes = lambda args, res: res.nodes  # noqa: E731
    tracer.wrap(betti, "hochster_betti", "betti")
    tracer.wrap(betti, "reduced_homology_ranks", "homology",
                count=lambda args, res: len(args[0]))
    tracer.wrap(homology, "rank_bareiss", "linalg.rank_q", count=_cells)
    tracer.wrap(homology, "rank_mod_p", "linalg.rank_p", count=_cells)
    tracer.wrap(sdepth, "build_char_poset", "sdepth.poset",
                count=lambda args, res: len(res.elements))
    tracer.wrap(sdepth.CharPoset, "maximal_elements", "sdepth.maximal")
    tracer.wrap(sdepth, "sdepth_at_least", "sdepth.decide")
    tracer.wrap(sdepth, "stanley_depth", "sdepth", count=nodes)
    tracer.wrap(oracle, "stanley_depth", "sdepth", count=nodes)
    tracer.wrap(sdepth, "validate_decomposition", "sdepth.validate")
    tracer.wrap(oracle, "family_module", "ideals.build")
    tracer.wrap(oracle, "compute_row", "oracle.row",
                instance=lambda args: ":".join(map(str, args[:4])))
    tracer.wrap(cli, "verify_suite", "oracle.verify_suite")
    tracer.wrap(cli, "run_command", "cli")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith(("_s", ".s")) else "count"


def layer_metrics(spans: list[list], scale: float = 1.0) -> dict[str, float]:
    """Per-layer totals, self times and work counts from one pass's spans,
    with every duration multiplied by ``scale``.

    A span's self time is its duration minus that of its direct children;
    spans of one thread nest, so the children never overlap.
    """
    dur = [(end - start) * scale for _, start, end, _, _, _ in spans]
    own = list(dur)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]

    def pick(name, parent_name=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (
            parent_name is None or (s[3] >= 0 and spans[s[3]][0] == parent_name))]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_s(*names):
        return sum(own[i] for name in names for i in pick(name))

    def work(idx):
        return sum(spans[i][5] for i in idx)

    rank_q, rank_p = pick("linalg.rank_q"), pick("linalg.rank_p")
    solves, decides = pick("sdepth"), pick("sdepth.decide")
    poset = pick("sdepth.poset", "sdepth")
    decide_s = total(decides)
    return {
        "ideals.build_s": total(pick("ideals.build")),
        "betti.s": total(pick("betti")),
        "betti.self_s": self_s("betti"),
        "betti.sigma_ranked": len(pick("homology", "betti")),
        "homology.s": total(pick("homology")),
        "homology.self_s": self_s("homology"),
        "homology.faces": work(pick("homology")),
        "linalg.rank_q.calls": len(rank_q),
        "linalg.rank_q.s": total(rank_q),
        "linalg.rank_q.cells": work(rank_q),
        "linalg.rank_p.calls": len(rank_p),
        "linalg.rank_p.s": total(rank_p),
        "linalg.rank_p.cells": work(rank_p),
        "sdepth.poset_s": total(poset),
        "sdepth.poset_elems": work(poset),
        "sdepth.maximal_s": total(pick("sdepth.maximal")),
        "sdepth.decisions": len(decides),
        "sdepth.decide_s": decide_s,
        "sdepth.nodes": work(solves),
        "sdepth.nodes_per_s": work(solves) / decide_s if decide_s else 0.0,
        "sdepth.validate_s": total(pick("sdepth.validate")),
        "oracle.rows": len(pick("oracle.row")),
        "oracle.self_s": self_s("oracle.verify_suite", "oracle.row"),
        "cli.self_s": self_s("cli"),
    }
