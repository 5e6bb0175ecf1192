"""Exact Stanley depth of J/I via interval partitions of its characteristic poset.

The characteristic poset holds the variable subsets σ with x^σ in J but
not in I (module_table), ordered by inclusion; one CharPoset is both the
poset and the search's index over it.  A Stanley decomposition corresponds
to a partition of this poset into intervals [σ,τ]; the Stanley depth is
the best achievable minimum of |τ|.

The decision "sdepth >= k" is solved as an exact-cover problem: every
poset element of size < k must be covered by exactly one interval whose
top has size exactly k (an interval with a bigger top can always be cut
into top-size-k intervals covering the same small elements, so this loses
no generality).  Elements of size >= k left uncovered become singleton
intervals in the final certificate.

The search time of one decision varies widely with the variable
labelling, so each decision is a series of node-limited attempts under
seeded relabellings, with slices on the Luby schedule (Luby, Sinclair and
Zuckerman 1993; Gomes, Selman and Kautz 1998).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .ideals import (MonomialIdeal, bits, check_table_n, divides, integer,
                     monomial, monomial_vars, subsets)


class BudgetExceeded(Exception):
    """Raised internally when the node budget runs out."""


def size_lex_keys(masks, images) -> np.ndarray:
    """The (size, lex) order of masks under a variable labelling, as int64 keys.

    ``images[i]`` is the new label (1..n) of variable i + 1.  Ordering masks
    of at most MAX_AMBIENT = 24 bits by the returned keys orders them as
    ``(s.bit_count(), monomial_vars(VarPermutation(images).apply(s)))``
    does.  Bit i adds 2^n - 2^(n - images[i]): the 2^n terms count the
    size, and of two masks of one size the one whose image holds the
    smaller label at their first difference subtracts the larger power of
    two.  One shift-and-multiply pass per variable.
    """
    n = len(images)
    masks = np.asarray(masks, dtype=np.int64)
    keys = np.zeros(len(masks), dtype=np.int64)
    for i, v in enumerate(images):
        keys += (masks >> i & 1) * ((1 << n) - (1 << (n - v)))
    return keys


def module_table(j_ideal: MonomialIdeal, i_ideal: MonomialIdeal) -> np.ndarray:
    """Per mask of all 2^n, whether x^mask lies in J \\ I (bool array);
    ValueError unless I ⊆ J and I ≠ J."""
    j_ideal.same_ambient(i_ideal)
    in_j, in_i = j_ideal.member_table(), i_ideal.member_table()
    if (in_i & ~in_j).any():
        raise ValueError("I is not contained in J")
    table = in_j & ~in_i
    if not table.any():
        raise ValueError("J/I is the zero module")
    return table


class CharPoset:
    """Subsets σ with x^σ ∈ J \\ I, as bitmasks, ordered by inclusion, with
    all that the cover search needs of them and that does not depend on k.

    Made only from a pair I ⊆ J with I ≠ J (else ValueError), so it is
    never empty and always convex (an up-set meets a down-set): an interval
    lies in it iff its ends do.  Elements are numbered in (size, lex)
    order, so each size is a run of numbers; ``elements`` lists them,
    ``masks`` is that list as an int64 array, and ``position`` maps each
    of the 2^n masks to its number (-1 off the poset).  ``up[i]`` and
    ``down[i]`` are bitmaps over the numbers of the elements above and
    below element i (itself included), ``levels[l]`` that of the elements
    of size l.

    ``up`` and ``down`` come from a subset zeta transform restricted to the
    poset: per variable b, ``down[s] |= down[s - b]`` and ``up[s - b] |=
    up[s]`` over the pairs (s - b, s) with both ends in it.  By convexity
    every mask on the zeta's path between two elements is an element too,
    so the result is exact, and ``position``, the one table over all 2^n
    masks, holds an int64 per mask, not a bitmap.
    """

    def __init__(self, j_ideal: MonomialIdeal, i_ideal: MonomialIdeal):
        masks = np.flatnonzero(module_table(j_ideal, i_ideal)).astype(np.int64)
        self.n = n = j_ideal.n
        keys = size_lex_keys(masks, range(1, n + 1))
        self.masks = masks = masks[np.argsort(keys)]
        self.elements = masks.tolist()
        size = len(self.elements)
        # a key's 2^n terms count its mask's size: size = ceil(key / 2^n)
        counts = np.bincount(-(-keys >> n), minlength=n + 1).tolist()
        ends = np.cumsum(counts).tolist()
        self.levels = [(1 << e) - (1 << (e - c)) for e, c in zip(ends, counts)]
        self.position = pos = np.full(1 << n, -1, dtype=np.int64)
        pos[masks] = np.arange(size)
        # while it is built, up[i] carries bit `size` as well, so every OR
        # makes an int of its final length and the allocator reuses the one
        # it frees; ints that grow pass by pass fragment the heap
        top = 1 << size
        self.up = up = [top | 1 << i for i in range(size)]
        self.down = down = [1 << i for i in range(size)]
        for b in range(n):
            hi = np.flatnonzero(masks >> b & 1)
            lo = pos[masks[hi] ^ (1 << b)]
            pair = lo >= 0
            for s, t in zip(lo[pair].tolist(), hi[pair].tolist()):
                down[t] |= down[s]
                up[s] |= up[t]
        for i in range(size):
            up[i] ^= top

    def maximal_elements(self) -> list[int]:
        return sorted(s for i, s in enumerate(self.elements) if self.up[i] == 1 << i)


@dataclass(frozen=True)
class Interval:
    """The interval [lower, upper] in the subset lattice."""

    lower: int
    upper: int

    def __post_init__(self):
        if not divides(self.lower, self.upper):
            raise ValueError("interval lower must divide upper")

    def members(self):
        return (self.lower | sub for sub in subsets(self.upper ^ self.lower))


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
            return cls(ivs, integer(data["sdepth"]))
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
    ``exact`` is False; sdepth then lies in [``sdepth``, ``upper``], where
    ``upper`` is the poset's upper_bound (None on a result built by hand).
    ``nodes`` counts every attempt of every decision.
    """

    sdepth: int
    certificate: StanleyCertificate
    exact: bool
    nodes: int
    upper: int | None = None


def build_char_poset(j_ideal: MonomialIdeal, i_ideal: MonomialIdeal) -> CharPoset:
    """Characteristic poset of the pair I ⊆ J."""
    return CharPoset(j_ideal, i_ideal)


def luby(i: int) -> int:
    """The i-th term (i >= 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def bit_planes(values) -> list[int]:
    """Bit-sliced form of non-negative ints: bit i of plane j is bit j of
    ``values[i]``, for the max(values).bit_length() planes j."""
    vals = np.asarray(values, dtype=np.int64)
    return [int.from_bytes(np.packbits(vals >> j & 1, bitorder="little")
                           .tobytes(), "little")
            for j in range(int(vals.max(initial=0)).bit_length())]


def least(cand: int, planes: list[int]) -> int:
    """The bits of ``cand`` whose bit-sliced value in ``planes`` is least,
    found by walking the planes from the most significant one."""
    for p in reversed(planes):
        rest = cand & ~p
        if rest:
            cand = rest
    return cand


def forced_intervals(sizes: list[int], k: int) -> list[int] | None:
    """Per lower size a < k, the number f_a of intervals with a lower end of
    size a in every cover for "sdepth >= k", or None if counting rules a
    cover out; ``sizes[l]`` is the number of poset elements of size l.

    An interval with |lower| = a and |top| = k is a full cube: it covers
    C(k - a, l - a) elements of size l.  So f_l = sizes[l] - sum_{a<l} f_a
    C(k - a, l - a), a triangular system with one solution, and a cover
    needs every f_l >= 0 and F = sum f_l <= sizes[k] distinct tops.

    The search solves this once, for its root: below the root the system on
    a node's uncovered counts cannot fail.  With h_a intervals of lower size
    a placed, its solution is f - h.  The search branches on the lowest
    level with an uncovered element, so when it places an interval of lower
    size a, every level below a is covered (h_s = f_s for s < a), f_a - h_a
    is the number of uncovered elements of size a (>= 1), and h_l = 0 for
    l > a (such a placement needs level a covered, and no step away from
    the root uncovers an element).  So f - h stays >= 0, and with P
    intervals placed the total condition, F - P <= sizes[k] - P, is the
    root's own.
    """
    forced = []
    for l in range(k):
        need = sizes[l] - sum(f * comb(k - a, l - a) for a, f in enumerate(forced))
        if need < 0:
            return None
        forced.append(need)
    return forced if sum(forced) <= sizes[k] else None


class _CoverSearch:
    """Backtracking exact-cover search for the decision sdepth >= k.

    Poset elements are numbered and search state is a single bitmap of
    uncovered elements, so interval placement and the feasibility checks
    are a few big-int operations each.  Branching picks, among the
    uncovered elements of minimal size, the one with the fewest live
    candidate tops (ties go to the lowest rank).  The size restriction
    matters for soundness: a minimal-size uncovered element must be the
    lower end of whatever interval covers it, since a strictly smaller
    lower end would itself still be uncovered.

    The live-top counts of the elements of size < k are kept bit-sliced
    (``bit_planes``), so each node updates and reads them with a few
    big-int operations per plane and walks no level element by element.
    ``start_planes`` holds each element's number of candidate tops; an
    attempt works on a copy, ``planes``, which placing [s,t] lowers by one
    for the uncovered elements below t and undoing the placement restores.

    The decision runs as a series of attempts (``attempt``).  Attempt 0
    ranks elements by their own (size, lex) number; attempt a >= 1 ranks
    them by their (size, lex) position after relabelling the variables by
    ``random.Random(a).shuffle``, which makes it the search of attempt 0 on
    the relabelled poset.  The live tops and the memo of failed states do
    not depend on the labelling, so every attempt shares them.
    """

    def __init__(self, poset: CharPoset, k: int):
        self.poset = poset
        self.k = k
        self.nodes = 0
        self.levels = poset.levels[:k + 1]
        sizes = [m.bit_count() for m in self.levels]
        self.n_low, self.n_ranked = sum(sizes[:k]), sum(sizes)
        self.forced = forced_intervals(sizes, k)
        # per low element s, the number of size-k tops t with [s,t] in the
        # poset: as the poset is convex, every size-k element above s
        tops = self.levels[k]
        counts = [(u & tops).bit_count() for u in poset.up[:self.n_low]]
        self.root_dead = not all(counts)
        self.start_planes = bit_planes(counts)
        self.failed: set[int] = set()
        # of the current attempt: the live-top planes, the dense ranks of
        # the elements of size <= k and their planes (None under attempt 0,
        # whose ranks are the element numbers)
        self.planes: list[int] = []
        self.rank = range(0)
        self.rank_planes: list[int] | None = None

    def _ranks(self, attempt: int):
        """Per element of size <= k, its rank 0, 1, ... in the order of the
        labelling of ``attempt``: its (size, lex) number for attempt 0, its
        size_lex_keys position under the shuffled labels after that."""
        if attempt == 0:
            return range(self.n_ranked)
        images = list(range(1, self.poset.n + 1))
        random.Random(attempt).shuffle(images)
        keys = size_lex_keys(self.poset.masks[:self.n_ranked], images)
        rank = np.empty_like(keys)
        rank[np.argsort(keys)] = np.arange(len(keys))
        return rank

    def run(self, budget: int | None = None) -> list[Interval] | None:
        """Attempts 0, 1, 2, ... until one settles the decision.

        Attempt a may visit (F + 1)·luby(a + 1) nodes, where F is the number
        of intervals every solution places, so an attempt that meets no dead
        end finishes inside its slice.  A budget caps the nodes of all
        attempts together (BudgetExceeded); without one the slices grow
        without bound, so the search stays complete."""
        if self.root_dead:
            return None
        unit = sum(self.forced or ()) + 1
        for a in itertools.count():
            stop = self.nodes + unit * luby(a + 1)
            if budget is not None:
                stop = min(stop, budget)
            try:
                return self.attempt(a, stop)
            except BudgetExceeded:
                if self.nodes == budget:
                    raise

    def _visit(self, uncovered: int, walked: int) -> int | None:
        """The branch element of the state ``uncovered``, None if it covers
        every low element, or -1 if it is a dead end.  ``walked`` is the
        bitmap of the elements that lost a live top since the parent state,
        so only they can have lost their last one: a bit clear in every
        plane.  The branch is the least-count set of the lowest live level,
        then the least rank in it."""
        planes = self.planes
        for p in planes:
            if not walked:
                break
            walked &= ~p
        if walked:
            return -1
        for level in self.levels[:self.k]:
            live = level & uncovered
            if live:
                break
        else:
            return None
        if self.forced is None or uncovered in self.failed:
            self.failed.add(uncovered)
            return -1
        branches = least(live, planes)
        if self.rank_planes is not None:
            branches = least(branches, self.rank_planes)
        return (branches & -branches).bit_length() - 1

    def attempt(self, a: int, stop: int | None = None) -> list[Interval] | None:
        """Depth-first search under the ranks of attempt ``a``: the intervals
        of a solution, or None if there is none.  Raises BudgetExceeded
        instead of visiting a node once ``self.nodes``, counted over all
        attempts, has reached ``stop``.

        Placing [s,t] subtracts W = ``down[t] & uncovered``, taken after the
        cube is cleared, from the live-top planes with a borrow chain;
        undoing it adds the same W back with a carry chain, recomputed from
        the stacked state it was placed on, so a placement keeps only
        (s, t)."""
        self.rank = self._ranks(a)
        self.rank_planes = None if a == 0 else bit_planes(self.rank)
        self.planes = planes = self.start_planes[:]
        order, up, down = self.poset.elements, self.poset.up, self.poset.down
        # the tops are the size-k elements, base, base + 1, ...: a state
        # lists its live tops as offsets from base, in bit order under
        # attempt 0 and sorted by their ranks after that
        base, top_level = self.n_low, self.levels[self.k]
        top_rank = None if a == 0 else self.rank[base:].tolist().__getitem__
        # per open state: its uncovered bitmap, branch and an iterator over
        # its untried live candidate tops in rank order; placed[d] is the
        # (branch, top) that leads from stack[d] to stack[d+1]
        stack: list[tuple] = []
        placed: list[tuple[int, int]] = []
        uncovered, walked = (1 << len(order)) - 1, 0
        while True:
            if self.nodes == stop:
                raise BudgetExceeded
            self.nodes += 1
            branch = self._visit(uncovered, walked)
            if branch is None:
                return [Interval(order[s], order[t]) for s, t in placed]
            if branch >= 0:
                tops = bits((up[branch] & top_level & uncovered) >> base)
                if top_rank is not None:
                    tops = iter(sorted(tops, key=top_rank))
                stack.append((uncovered, branch, tops))
            while stack:
                uncovered, branch, left = stack[-1]
                if len(placed) == len(stack):
                    # W = down[t] & (uncovered & ~cube), cube = up[s] & down[t]
                    carry = down[placed.pop()[1]] & uncovered & ~up[branch]
                    j = 0
                    while carry:
                        p = planes[j]
                        planes[j] = p ^ carry
                        carry &= p
                        j += 1
                for t in left:
                    top = base + t
                    cube = up[branch] & down[top]
                    if cube & uncovered == cube:
                        break
                else:
                    self.failed.add(uncovered)
                    stack.pop()
                    continue
                uncovered &= ~cube
                walked = borrow = down[top] & uncovered
                j = 0
                while borrow:
                    p = planes[j]
                    planes[j] = p ^ borrow
                    borrow &= ~p
                    j += 1
                placed.append((branch, top))
                break
            else:
                return None


def certificate_from(poset: CharPoset, intervals: list[Interval],
                     k: int) -> StanleyCertificate:
    """The certificate of a cover, as sdepth_at_least returns it: its
    intervals, then every element of the poset they leave uncovered as a
    singleton, claiming the smallest top (k if there are no intervals at
    all).  The intervals lie in the poset and do not overlap, as the
    search's do; an empty cover gives the all-singletons certificate."""
    up, down, pos = poset.up, poset.down, poset.position
    uncovered = (1 << len(poset.elements)) - 1
    for iv in intervals:
        uncovered &= ~(up[pos[iv.lower]] & down[pos[iv.upper]])
    singles = [Interval(s, s) for s in sorted(poset.elements[i] for i in bits(uncovered))]
    all_ivs = intervals + singles
    claimed = min((iv.upper.bit_count() for iv in all_ivs), default=k)
    return StanleyCertificate(all_ivs, claimed)


def _check_budget(budget) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"node budget {budget} is negative")


def sdepth_at_least(poset: CharPoset, k: int, budget=None):
    """A cover of every element of size < k by intervals with tops of size
    k, or None if there is none.

    Returns (cover | None, nodes used by every attempt); the cover is a
    list of Interval, and certificate_from(poset, cover, k) is its
    certificate.  Raises BudgetExceeded if the node budget runs out before
    the decision is settled.
    """
    if k < 0 or k > poset.n:
        raise ValueError(f"k={k} outside 0..{poset.n}")
    _check_budget(budget)
    search = _CoverSearch(poset, k)
    return search.run(budget), search.nodes


def upper_bound(poset: CharPoset) -> int:
    """U >= sdepth, the smaller of two bounds: the size of the smallest
    maximal element (Herzog, Vladoiu and Zheng 2009), and one less than the
    least k at which forced_intervals rules out a cover from the level
    counts alone (Biró, Howard, Keller, Trotter and Young 2010).  Both hold
    for every k <= sdepth, since a partition with tops of size >= k cuts
    into one with tops of size exactly k."""
    maximal = min(s.bit_count() for s in poset.maximal_elements())
    sizes = [level.bit_count() for level in poset.levels]
    for k in range(1, maximal + 1):
        if forced_intervals(sizes, k) is None:
            return k - 1
    return maximal


def stanley_depth(j_ideal: MonomialIdeal, i_ideal: MonomialIdeal,
                  node_budget=None) -> SdepthResult:
    """Exact Stanley depth of J/I with a witnessing interval partition.

    Decides k = U, U - 1, ... (U = upper_bound) down to the smallest element
    size + 1 and stops at the first k with a cover, the only one made into a
    certificate; if none has one, the all-singletons partition is exact.  A
    budget caps the nodes of all decisions together.  A run it cuts has no
    cover yet, so it returns the singletons, inexact: its lower bound is the
    smallest element size, and sdepth lies between that and U.
    """
    _check_budget(node_budget)
    poset = build_char_poset(j_ideal, i_ideal)
    upper = upper_bound(poset)
    total_nodes, exact = 0, True
    best_k, best_cover = poset.elements[0].bit_count(), []
    for k in range(upper, best_k, -1):
        remaining = None if node_budget is None else node_budget - total_nodes
        try:
            cover, nodes = sdepth_at_least(poset, k, budget=remaining)
        except BudgetExceeded:
            total_nodes, exact = node_budget, False
            break
        total_nodes += nodes
        if cover is not None:
            best_k, best_cover = k, cover
            break
    return SdepthResult(best_k, certificate_from(poset, best_cover, best_k),
                        exact, total_nodes, upper)


def validate_decomposition(cert: StanleyCertificate,
                           j_ideal: MonomialIdeal,
                           i_ideal: MonomialIdeal) -> ValidationResult:
    """Check that a certificate is a genuine interval partition of the poset
    by walking each member against module_table and a bytearray of the masks
    not yet covered, with no CharPoset.  A pair past the table cap is
    refused with ValueError, not judged."""
    check_table_n(j_ideal.n)
    try:
        table = module_table(j_ideal, i_ideal)
    except ValueError as exc:
        return ValidationResult(False, f"bad module pair: {exc}")
    in_poset = table.tobytes()
    uncovered = bytearray(in_poset)
    for iv in cert.intervals:
        for m in iv.members():
            # m >> n catches a negative m and a bit at or past n before the lookup
            if m >> j_ideal.n or not in_poset[m]:
                return ValidationResult(False, "interval leaves the poset")
            if not uncovered[m]:
                return ValidationResult(False, "overlapping intervals")
            uncovered[m] = 0
    if 1 in uncovered:
        return ValidationResult(False, "intervals do not cover the poset")
    if cert.intervals:
        actual = min(iv.upper.bit_count() for iv in cert.intervals)
        if cert.claimed_sdepth != actual:
            return ValidationResult(False, "claimed sdepth differs from min |upper|")
    return ValidationResult(True)
