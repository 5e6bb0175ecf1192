"""Exact Stanley depth of J/I via interval partitions of its characteristic poset.

The characteristic poset holds the variable subsets σ with x^σ in J but
not in I, ordered by inclusion.  A Stanley decomposition corresponds to a
partition of this poset into intervals [σ,τ]; the Stanley depth is the
best achievable minimum of |τ|.

The decision "sdepth >= k" is solved as an exact-cover problem: every
poset element of size < k must be covered by exactly one interval whose
top has size exactly k (an interval with a bigger top can always be cut
into top-size-k intervals covering the same small elements, so this loses
no generality).  Elements of size >= k left uncovered become singleton
intervals in the final certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .ideals import MonomialIdeal, monomial, monomial_vars, divides


class BudgetExceeded(Exception):
    """Raised internally when the node budget runs out."""


@dataclass(frozen=True)
class CharPoset:
    """Subsets σ with x^σ ∈ J \\ I, as bitmasks, ordered by inclusion."""

    n: int
    elements: frozenset[int]

    def maximal_elements(self) -> list[int]:
        out = []
        for s in self.elements:
            if not any(t != s and divides(s, t) for t in self.elements):
                out.append(s)
        return sorted(out)


@dataclass(frozen=True)
class Interval:
    """The interval [lower, upper] in the subset lattice."""

    lower: int
    upper: int

    def __post_init__(self):
        if not divides(self.lower, self.upper):
            raise ValueError("interval lower must divide upper")

    def members(self):
        diff = self.upper ^ self.lower
        sub = diff
        while True:
            yield self.lower | sub
            if sub == 0:
                return
            sub = (sub - 1) & diff


@dataclass
class StanleyCertificate:
    """An interval partition of a characteristic poset."""

    intervals: list[Interval]
    claimed_sdepth: int

    def to_dict(self) -> dict:
        return {
            "sdepth": self.claimed_sdepth,
            "intervals": [
                {"lower": list(monomial_vars(iv.lower)),
                 "upper": list(monomial_vars(iv.upper))}
                for iv in self.intervals
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict, n: int) -> "StanleyCertificate":
        """Certificate from its to_dict form; ValueError if malformed."""
        try:
            ivs = [Interval(monomial(d["lower"], n), monomial(d["upper"], n))
                   for d in data["intervals"]]
            return cls(ivs, int(data["sdepth"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc


@dataclass
class ValidationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


@dataclass
class SdepthResult:
    """Outcome of a Stanley depth computation.

    When the node budget runs out the result is a lower bound only and
    ``exact`` is False.
    """

    sdepth: int
    certificate: StanleyCertificate
    exact: bool
    nodes: int


def build_char_poset(j_ideal: MonomialIdeal, i_ideal: MonomialIdeal) -> CharPoset:
    """Characteristic poset of the pair I ⊆ J."""
    j_ideal.same_ambient(i_ideal)
    for g in i_ideal.gens:
        if not j_ideal.contains(g):
            raise ValueError("I is not contained in J")
    n = j_ideal.n
    elems = frozenset(s for s in range(1 << n)
                      if j_ideal.contains(s) and not i_ideal.contains(s))
    return CharPoset(n, elems)


class _CoverSearch:
    """Backtracking exact-cover search for the decision sdepth >= k.

    Poset elements are numbered and search state is a single bitmap of
    uncovered elements, so interval placement and the feasibility checks
    are a few big-int operations each.  Branching picks, among the
    uncovered elements of minimal size, the one with the fewest live
    candidate tops (ties go to lex order).  The size restriction matters
    for soundness: a minimal-size uncovered element must be the lower end
    of whatever interval covers it, since a strictly smaller lower end
    would itself still be uncovered.
    """

    def __init__(self, poset: CharPoset, k: int, budget=None):
        self.n = poset.n
        self.k = k
        self.budget = budget
        self.nodes = 0
        order = sorted(poset.elements, key=lambda s: (s.bit_count(), monomial_vars(s)))
        self.order = order
        self.index = {s: i for i, s in enumerate(order)}
        self.low = [s for s in order if s.bit_count() < k]
        self.low_indices = [self.index[s] for s in self.low]
        self.sizes = [s.bit_count() for s in order]
        tops = [s for s in order if s.bit_count() == k]
        self.elements = poset.elements
        # per low element: candidate (top, cube bitmap) pairs in lex order,
        # and the bitmap of candidate top positions for fast counting
        self.cands: dict[int, list[tuple[int, int]]] = {}
        self.cand_topbits: list[int] = [0] * len(order)
        for s in self.low:
            pairs = []
            bits = 0
            for t in tops:
                if not divides(s, t):
                    continue
                cube = self._cube_bitmap(s, t)
                if cube is None:
                    continue
                pairs.append((t, cube))
                bits |= 1 << self.index[t]
            self.cands[s] = pairs
            self.cand_topbits[self.index[s]] = bits
        self.memo_on = len(order) <= 4096
        self.failed: set[int] = set()
        # per-size bitmaps over element indices, for the level-count check
        self.level_masks = [0] * (k + 1)
        for i, s in enumerate(order):
            size = self.sizes[i]
            if size <= k:
                self.level_masks[size] |= 1 << i
        self.binom = [[comb(k - s, l - s) if l >= s else 0 for l in range(k)]
                      for s in range(k)]

    def _bump(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceeded

    def _cube_bitmap(self, lower: int, upper: int) -> int | None:
        diff = upper ^ lower
        cube = 0
        sub = diff
        while True:
            i = self.index.get(lower | sub)
            if i is None:
                return None  # interval leaves the poset
            cube |= 1 << i
            if sub == 0:
                return cube
            sub = (sub - 1) & diff

    def run(self) -> list[Interval] | None:
        if any(not c for c in self.cands.values()):
            return None
        full = (1 << len(self.order)) - 1
        return self._search(full, [])

    def _level_counts_feasible(self, uncovered: int) -> bool:
        """Exact counting invariant on the remaining cover problem.

        Every future interval is a full cube with |top| = k, so an interval
        whose lower has size s covers exactly C(k-s, l-s) elements of each
        size l < k.  Summing over a partition forces the number of future
        intervals per lower size, level by level (the system is triangular).
        A negative forced count, a count above that level's population, or a
        total above the number of free size-k elements is a contradiction.
        """
        k = self.k
        counts = [(self.level_masks[l] & uncovered).bit_count()
                  for l in range(k + 1)]
        forced = [0] * k
        total = 0
        for l in range(k):
            need = counts[l]
            for s in range(l):
                need -= forced[s] * self.binom[s][l]
            if need < 0 or need > counts[l]:
                return False
            forced[l] = need
            total += need
        return total <= counts[k]

    def _pick_branch(self, uncovered: int) -> tuple[int, int] | None:
        """Among uncovered minimal-size low elements, the one with fewest
        live tops.  Returns (element, live count), count 0 if some low
        element anywhere is stuck, or None if every low element is covered.
        The full scan doubles as a dead-element prune."""
        best = None
        best_count = -1
        min_size = -1
        for i in self.low_indices:
            if not uncovered >> i & 1:
                continue
            count = (self.cand_topbits[i] & uncovered).bit_count()
            if count == 0:
                return self.order[i], 0
            if min_size < 0:
                min_size = self.sizes[i]  # low_indices is (size, lex) sorted
            if self.sizes[i] == min_size and (best is None or count < best_count):
                best, best_count = self.order[i], count
        if best is None:
            return None
        return best, best_count

    def _search(self, uncovered: int, acc: list[Interval]) -> list[Interval] | None:
        self._bump()
        picked = self._pick_branch(uncovered)
        if picked is None:
            return list(acc)
        branch, live = picked
        if live == 0:
            return None
        if self.memo_on and uncovered in self.failed:
            return None
        if not self._level_counts_feasible(uncovered):
            if self.memo_on:
                self.failed.add(uncovered)
            return None
        for top, cube in self.cands[branch]:
            if cube & uncovered != cube:
                continue
            acc.append(Interval(branch, top))
            res = self._search(uncovered & ~cube, acc)
            if res is not None:
                return res
            acc.pop()
        if self.memo_on:
            self.failed.add(uncovered)
        return None


def sdepth_at_least(poset: CharPoset, k: int, budget=None):
    """A certificate with every interval top of size >= k, or None.

    Returns (certificate | None, nodes used).  Raises BudgetExceeded if the
    node budget runs out before the decision is settled.
    """
    if k < 0 or k > poset.n:
        raise ValueError(f"k={k} outside 0..{poset.n}")
    search = _CoverSearch(poset, k, budget=budget)
    intervals = search.run()
    if intervals is None:
        return None, search.nodes
    covered = set()
    for iv in intervals:
        covered.update(iv.members())
    singles = [Interval(s, s) for s in sorted(poset.elements - covered)]
    all_ivs = intervals + singles
    claimed = min((iv.upper.bit_count() for iv in all_ivs), default=k)
    return StanleyCertificate(all_ivs, claimed), search.nodes


def stanley_depth(j_ideal: MonomialIdeal, i_ideal: MonomialIdeal,
                  node_budget=None) -> SdepthResult:
    """Exact Stanley depth of J/I with a witnessing interval partition."""
    poset = build_char_poset(j_ideal, i_ideal)
    if not poset.elements:
        raise ValueError("J/I is the zero module (I = J)")
    upper_bound = min(s.bit_count() for s in poset.maximal_elements())
    total_nodes = 0
    best_cert = StanleyCertificate(
        [Interval(s, s) for s in sorted(poset.elements)],
        min(s.bit_count() for s in poset.elements))
    best_k = best_cert.claimed_sdepth
    k = best_k + 1
    while k <= upper_bound:
        remaining = None if node_budget is None else node_budget - total_nodes
        try:
            cert, nodes = sdepth_at_least(poset, k, budget=remaining)
        except BudgetExceeded:
            return SdepthResult(best_k, best_cert, False, node_budget)
        total_nodes += nodes
        if cert is None:
            break
        best_k, best_cert = k, cert
        k += 1
    return SdepthResult(best_k, best_cert, True, total_nodes)


def validate_decomposition(cert: StanleyCertificate,
                           j_ideal: MonomialIdeal,
                           i_ideal: MonomialIdeal) -> ValidationResult:
    """Check that a certificate is a genuine interval partition of the poset."""
    try:
        poset = build_char_poset(j_ideal, i_ideal)
    except ValueError as exc:
        return ValidationResult(False, f"bad module pair: {exc}")
    seen: set[int] = set()
    for iv in cert.intervals:
        if not divides(iv.lower, iv.upper):
            return ValidationResult(False, "interval lower does not divide upper")
        for m in iv.members():
            if m not in poset.elements:
                return ValidationResult(False, "interval leaves the poset")
            if m in seen:
                return ValidationResult(False, "overlapping intervals")
            seen.add(m)
    if seen != poset.elements:
        return ValidationResult(False, "intervals do not cover the poset")
    if cert.intervals:
        actual = min(iv.upper.bit_count() for iv in cert.intervals)
        if cert.claimed_sdepth != actual:
            return ValidationResult(False, "claimed sdepth differs from min |upper|")
    return ValidationResult(True)
