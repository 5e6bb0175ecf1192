"""Closed-form expectations and the verification harness.

Every numbered result about the line/cycle path ideal families is encoded
as an exact value or a two-sided bound, and the harness compares the depth
and Stanley depth engines against them instance by instance.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable

from .betti import Field, RATIONALS, depth_quotient
from .graphs import cycle_ideal, line_ideal
from .ideals import MonomialIdeal, TableCapExceeded
from .sdepth import stanley_depth


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def phi(n: int) -> int:
    """n - floor(n/4) - ceil(n/4), the value governing J_{n,3}."""
    if n < 3:
        raise ValueError("phi is defined for n >= 3")
    return n - n // 4 - ceil_div(n, 4)


@dataclass(frozen=True)
class Expectation:
    """Exact value (lo == hi) or inclusive bounds for a quantity."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty expectation interval")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi


QUANTITIES = ("depth", "sdepth")


@dataclass(frozen=True)
class Family:
    """One family of the paper: its module, its m and its closed form.

    ``m`` gives the path length from n (None for a module without one),
    or is itself None for the line family, whose m is free in 1..n and
    sampled by verify from ``suite_m_min``.
    The closed form holds for n >= ``n_min``; verify samples n from
    ``suite_n_min``, which can be larger.
    """

    name: str
    quantities: tuple[str, ...]
    n_min: int
    suite_n_min: int
    m: Callable[[int], int | None] | None
    module: Callable[[int, int | None], tuple[MonomialIdeal, MonomialIdeal]]
    closed_form: Callable[[int, int | None, str], Expectation]
    suite_m_min: int | None = None

    def row_m(self, n: int, m: int | None) -> int | None:
        """The m a row of this family carries."""
        return m if self.m is None else self.m(n)

    def suite_ms(self, n: int):
        """The m values verify samples at n."""
        return range(self.suite_m_min, n + 1) if self.m is None else (self.m(n),)


def _exact(v: int) -> Expectation:
    return Expectation(v, v)


def _line_form(n: int, m: int, quantity: str) -> Expectation:
    return _exact(n + 1 - (n + 1) // (m + 1) - ceil_div(n + 1, m + 1))


def _j2_form(n: int, m: int, quantity: str) -> Expectation:
    v = ceil_div(n - 1, 3)
    if quantity == "depth" or n % 3 in (0, 2):
        return _exact(v)
    return Expectation(v, ceil_div(n, 3))


def _j3_form(n: int, m: int, quantity: str) -> Expectation:
    v = phi(n)
    r = n % 4
    if quantity == "depth":
        return Expectation(v, v + 1) if r == 1 else _exact(v)
    return _exact(v) if r in (0, 3) else Expectation(v, v + 1)


def _cycle_quotient(n: int, m: int):
    return MonomialIdeal.whole_ring(n), cycle_ideal(n, m)


FAMILIES: dict[str, Family] = {
    "line": Family("I_{n,m}", QUANTITIES, 1, 2, None,
                   lambda n, m: (MonomialIdeal.whole_ring(n), line_ideal(n, m)),
                   _line_form, suite_m_min=2),
    "j2": Family("J_{n,2}", QUANTITIES, 3, 3, lambda n: 2, _cycle_quotient, _j2_form),
    "j3": Family("J_{n,3}", QUANTITIES, 3, 4, lambda n: 3, _cycle_quotient, _j3_form),
    "jn1": Family("J_{n,n-1}", QUANTITIES, 3, 3, lambda n: n - 1, _cycle_quotient,
                  lambda n, m, q: _exact(n - 2)),
    "jn2": Family("J_{n,n-2}", QUANTITIES, 5, 5, lambda n: n - 2, _cycle_quotient,
                  lambda n, m, q: Expectation(n - 3, n - 2)),
    "prop1": Family("J_{n,3}/I_{n,3}", ("sdepth",), 4, 4, lambda n: None,
                    lambda n, m: (cycle_ideal(n, 3), line_ideal(n, 3)),
                    lambda n, m, q: _exact(phi(n) + 1)),
    "max": Family("the maximal ideal", ("sdepth",), 1, 2, lambda n: None,
                  lambda n, m: (line_ideal(n, 1), MonomialIdeal.zero(n)),
                  lambda n, m, q: _exact(ceil_div(n, 2))),
}


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def expectation(family: str, n: int, quantity: str, m: int | None = None) -> Expectation:
    """The closed-form expectation for a family instance, if one is stated."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    fam = _family(family)
    if quantity not in fam.quantities:
        raise ValueError(f"only {' and '.join(fam.quantities)} is stated "
                         f"for {fam.name}")
    if n < fam.n_min:
        raise ValueError(f"{fam.name} needs n >= {fam.n_min}")
    if fam.m is None and (m is None or not 1 <= m <= n):
        raise ValueError(f"{fam.name} needs 1 <= m <= n")
    return fam.closed_form(n, fam.row_m(n, m), quantity)


def family_module(family: str, n: int, m: int | None = None):
    """The (J, I) module pair of a family instance; J = S means S/I."""
    fam = _family(family)
    return fam.module(n, fam.row_m(n, m))


MATCH = "MATCH"
WITHIN_BOUNDS = "WITHIN_BOUNDS"
VIOLATION = "VIOLATION"
SKIPPED = "SKIPPED"


@dataclass
class Row:
    family: str
    n: int
    m: int | None
    quantity: str
    expected_lo: int | None
    expected_hi: int | None
    computed: int | None
    status: str
    elapsed: float
    note: str = ""


@dataclass
class VerificationReport:
    rows: list[Row] = field(default_factory=list)

    @property
    def has_violation(self) -> bool:
        return any(r.status == VIOLATION for r in self.rows)

    def to_json_obj(self):
        return [
            {"family": r.family, "n": r.n, "m": r.m, "quantity": r.quantity,
             "expected": [r.expected_lo, r.expected_hi], "computed": r.computed,
             "status": r.status, "elapsed": round(r.elapsed, 4), "note": r.note}
            for r in self.rows
        ]

    def to_csv_lines(self):
        out = [",".join(f.name for f in fields(Row))]
        for r in self.rows:
            cells = astuple(replace(r, elapsed=f"{r.elapsed:.4f}"))
            out.append(",".join("" if x is None else str(x) for x in cells))
        return out

    def to_table_lines(self):
        out = [f"{'family':8} {'n':>3} {'m':>3} {'quantity':18} "
               f"{'expected':>10} {'computed':>8} {'status':14} note"]
        for r in self.rows:
            if r.expected_lo is None:
                exp = "-"
            elif r.expected_lo == r.expected_hi:
                exp = str(r.expected_lo)
            else:
                exp = f"[{r.expected_lo},{r.expected_hi}]"
            out.append(f"{r.family:8} {r.n:>3} {str(r.m or ''):>3} "
                       f"{r.quantity:18} {exp:>10} "
                       f"{str(r.computed if r.computed is not None else ''):>8} "
                       f"{r.status:14} {r.note}")
        return out


def compute_row(family: str, n: int, m: int | None, quantity: str,
                module: tuple[MonomialIdeal, MonomialIdeal],
                field_choice: Field = RATIONALS,
                node_budget: int | None = None) -> Row:
    """Evaluate one harness row: compute, compare, classify.

    ``module`` is the instance's (J, I) pair, from family_module.  A row
    the budget cuts, or that an engine refuses past its table cap, is
    SKIPPED; its note gives the reason.
    """
    start = time.perf_counter()
    exp = expectation(family, n, quantity, m=m)
    m = FAMILIES[family].row_m(n, m)
    j_ideal, i_ideal = module
    note = ""
    try:
        if quantity == "depth":
            computed = depth_quotient(i_ideal, field_choice)
        else:
            res = stanley_depth(j_ideal, i_ideal, node_budget=node_budget)
            computed = res.sdepth
            if not res.exact:
                note = f"budget exhausted; {res.sdepth} <= sdepth <= {res.upper}"
    except TableCapExceeded as exc:
        computed, note = None, str(exc)
    if note:  # the budget or the engine's table cap stopped the row
        status = SKIPPED
    elif exp.exact:
        status = MATCH if computed == exp.lo else VIOLATION
    elif exp.contains(computed):
        status = WITHIN_BOUNDS
        note = f"new data point: exact value {computed}"
    else:
        status = VIOLATION
    return Row(family, n, m, quantity, exp.lo, exp.hi, computed, status,
               time.perf_counter() - start, note)


def _suite_instances(suite: str, n_min: int, n_max: int):
    """(family, n, m, quantities) tuples for a suite selection, by family
    name, then n, then m: the order verify prints its rows in."""
    families = FAMILIES if suite == "all" else {suite: _family(suite)}
    return [(name, n, m, fam.quantities)
            for name, fam in sorted(families.items())
            for n in range(max(n_min, fam.suite_n_min), n_max + 1)
            for m in fam.suite_ms(n)]


def verify_suite(suite: str, n_min: int, n_max: int,
                 field_choice: Field = RATIONALS,
                 node_budget: int | None = None) -> VerificationReport:
    """Run a family suite and compare both engines against the expectations.

    Rows are computed one after another in the calling process; each
    engine decides how far it reaches (compute_row).  Each instance's
    (J, I) pair is built once, for all of its rows.  Each instance with
    both quantities computed also gets a stanley_inequality row:
    sdepth >= depth.
    """
    report = VerificationReport()
    for family, n, m, quantities in _suite_instances(suite, n_min, n_max):
        module = family_module(family, n, m)
        computed = {}
        for quantity in quantities:
            row = compute_row(family, n, m, quantity, module, field_choice,
                              node_budget)
            if row.status != SKIPPED:
                computed[quantity] = row.computed
            report.rows.append(row)
        if len(computed) == 2:
            gap = computed["sdepth"] - computed["depth"]
            report.rows.append(Row(family, n, m, "stanley_inequality", None,
                                   None, gap, MATCH if gap >= 0 else VIOLATION,
                                   0.0, "sdepth - depth"))
    return report
