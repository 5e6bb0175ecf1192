"""Workload instance lists, seeded generation and the answer checks.

A workload is a fixed list of instances.  The seed only shuffles the order
in which a pass visits them and, in ``sdepth_search``, picks the variable
relabelling; the engines see nothing but the generated ideals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from pathdepth.betti import GF2, RATIONALS, BettiTable
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MonomialIdeal, VarPermutation
from pathdepth.oracle import MATCH, SKIPPED, WITHIN_BOUNDS, expectation

PINNED_PATH = Path(__file__).with_name("pinned.json")

# node budget of the search-bound instances that are not expected to finish
NODE_BUDGET = 10_000

# the in-process verify run; row count 193 is pinned in pinned.json
VERIFY_ARGV = ["verify", "--suite", "all", "--n-min", "3", "--n-max", "9",
               "--format", "json"]


@dataclass(frozen=True)
class Spec:
    """One instance: ``graph:n:m`` plus the field (Betti) or budget (sdepth)."""

    kind: str                 # "betti" or "sdepth"
    graph: str                # "line", "cyc" or "max"
    n: int
    m: int | None = None
    field: str | None = None  # "Q" or "GF2" for Betti instances
    budget: int | None = None
    relabel: bool = False

    @property
    def label(self) -> str:
        base = ":".join(str(x) for x in (self.graph, self.n, self.m) if x is not None)
        if self.field:
            base += "/" + self.field
        if self.budget is not None:
            base += f"@{self.budget}"
        if self.relabel:
            base += "~relabelled"
        return base

    @property
    def family(self) -> tuple[str, int | None]:
        """The oracle family holding this instance's expectation, and its m."""
        if self.graph == "line":
            return "line", self.m
        if self.graph == "max":
            return "max", None
        names = {2: "j2", 3: "j3", self.n - 1: "jn1", self.n - 2: "jn2"}
        return names[self.m], self.m

    def expectation(self, quantity: str):
        family, m = self.family
        return expectation(family, self.n, quantity, m=m)

    def module(self, perm: VarPermutation | None = None):
        """The (J, I) pair; J = S means the quotient S/I."""
        n = self.n
        if self.graph == "max":
            j_ideal, i_ideal = line_ideal(n, 1), MonomialIdeal.zero(n)
        else:
            make = line_ideal if self.graph == "line" else cycle_ideal
            j_ideal, i_ideal = MonomialIdeal.whole_ring(n), make(n, self.m)
        if perm is not None:
            j_ideal, i_ideal = j_ideal.relabel(perm), i_ideal.relabel(perm)
        return j_ideal, i_ideal


def _betti(graph, n, m, fld):
    return Spec("betti", graph, n, m, field=fld)


def _sdepth(graph, n, m=None, budget=None, relabel=False):
    return Spec("sdepth", graph, n, m, budget=budget, relabel=relabel)


# Fixed subsets, chosen so that one pass fits several times into a run.
WORKLOADS: dict[str, list[Spec] | None] = {
    # n = 12 depth sweep: both fields, m = 2, 3, 7, 12.  Over Q, m = 12 is the
    # dense-Bareiss case (one 12-simplex boundary); m = 2 has the most σ.
    "depth_n12": [
        _betti("line", 12, 2, "Q"), _betti("line", 12, 12, "Q"),
        _betti("line", 12, 7, "GF2"), _betti("cyc", 12, 3, "GF2"),
    ],
    # a large poset and few nodes: poset build, maximal elements and per-k
    # search set-up dominate.  line:12:6, cyc:12:10 and cyc:14:3 behave alike
    # but take 5-9 s each, too long for several passes in one run.
    "sdepth_frontier": [_sdepth("max", 12)],
    # many nodes: the failing k = 7 decision of J_13,3 at a fixed budget, and
    # J_13,2 under a relabelling, since labels drive the branching order
    "sdepth_search": [
        _sdepth("cyc", 9, 3), _sdepth("cyc", 13, 2),
        _sdepth("cyc", 13, 3, budget=NODE_BUDGET),
        _sdepth("cyc", 13, 2, budget=NODE_BUDGET, relabel=True),
    ],
    # the whole harness in-process: small inputs, fixed per-call costs
    "verify_n9": None,
}


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def plan(workload: str, seed: int, pinned: dict) -> list[tuple[Spec, VarPermutation | None]]:
    """The instances of one pass, in seed order, with their relabellings.

    The relabelling of ``cyc:13:2`` comes from a pinned pool of random
    permutations (see pin.py) under which the engine at the time the
    benchmark was defined did not settle the instance within the budget.
    """
    rng = random.Random(seed)
    specs = list(WORKLOADS[workload])
    rng.shuffle(specs)
    out = []
    for spec in specs:
        perm = None
        if spec.relabel:
            perm = VarPermutation(tuple(rng.choice(pinned["relabel_pool"][spec.label])))
        out.append((spec, perm))
    return out


def field_of(spec: Spec):
    return RATIONALS if spec.field == "Q" else GF2


@dataclass
class Tally:
    """Answer verdicts of one pass: what error_frac and exact_frac count."""

    attempted: int = 0
    failed: int = 0
    sdepth_attempted: int = 0
    sdepth_exact: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")


def check_betti(spec: Spec, table: BettiTable, pinned_entries) -> str | None:
    """Depth against the closed form, then the table entrywise against the pin."""
    depth = table.n - table.projective_dimension()
    exp = spec.expectation("depth")
    if not exp.contains(depth):
        return f"depth {depth} outside expected [{exp.lo}, {exp.hi}]"
    want = {(i, s): b for i, s, b in pinned_entries}
    got = table.as_dict()
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return f"Betti table differs from pinned table at {diff[:3]}"
    return None


def check_sdepth(spec: Spec, result, validation, pinned_value: int) -> str | None:
    """An sdepth answer: certificate valid, value in the bounds and, for an
    unbudgeted instance, exact and equal to the pinned value."""
    if not validation:
        return f"certificate rejected: {validation.reason}"
    if result.certificate.claimed_sdepth != result.sdepth:
        return "certificate claims a different sdepth than the result"
    exp = spec.expectation("sdepth")
    if not exp.contains(result.sdepth):
        return f"sdepth {result.sdepth} outside expected [{exp.lo}, {exp.hi}]"
    if spec.budget is None:
        if not result.exact:
            return "inexact answer without a node budget"
        if result.sdepth != pinned_value:
            return f"sdepth {result.sdepth} differs from pinned {pinned_value}"
    return None


def check_verify(rc: int, text: str, pinned_rows, tally: Tally) -> None:
    """Every pinned harness row must come back with the pinned value, a
    passing status and a value inside its recomputed expectation."""
    try:
        rows = json.loads(text)
    except ValueError:
        rows = []
    got = {(r["family"], r["n"], r["m"], r["quantity"]): r for r in rows}
    extra = len(got) - len(pinned_rows)
    for family, n, m, quantity, computed in pinned_rows:
        row = got.get((family, n, m, quantity))
        label = f"verify {family}:{n}:{m}:{quantity}"
        if quantity == "sdepth":
            tally.sdepth_attempted += 1
            tally.sdepth_exact += bool(row and row["status"] != SKIPPED)
        tally.record(label, _verify_row_problem(rc, row, family, n, m,
                                                quantity, computed))
    if extra > 0:
        tally.record("verify", f"{extra} rows not in the pinned set")


def _verify_row_problem(rc, row, family, n, m, quantity, computed):
    if rc != 0:
        return f"verify run failed: {rc}"
    if row is None:
        return "row missing"
    if row["status"] not in (MATCH, WITHIN_BOUNDS):
        return f"status {row['status']}"
    if row["computed"] != computed:
        return f"computed {row['computed']} differs from pinned {computed}"
    if quantity in ("depth", "sdepth"):
        exp = expectation(family, n, quantity, m=m)
        if not exp.contains(row["computed"]):
            return f"computed {row['computed']} outside [{exp.lo}, {exp.hi}]"
    return None
