"""Exact Stanley depth of J/I via interval partitions of its characteristic poset.

The characteristic poset (CharPoset) holds the variable subsets σ with
x^σ in J but not in I (module_table), ordered by inclusion.  A Stanley
decomposition corresponds to a partition of this poset into intervals
[σ,τ]; the Stanley depth is the best achievable minimum of |τ|.

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
from typing import Callable, NamedTuple

import numpy as np

from .ideals import (MonomialIdeal, bits, check_table_n, divides, integer,
                     monomial, monomial_vars, subsets)


class BudgetExceeded(Exception):
    """Raised internally when the node budget runs out."""


def size_lex_keys(masks, images) -> np.ndarray:
    """The (size, lex) order of masks under a variable labelling, as int64 keys.

    ``images[i]`` is the new label (1..n) of variable i + 1.  Ordering masks
    by the returned keys orders them as
    ``(s.bit_count(), monomial_vars(VarPermutation(images).apply(s)))``
    does.  Bit i adds 2^n - 2^(n - images[i]): the 2^n terms count the
    size, and of two masks of one size the one whose image holds the
    smaller label at their first difference subtracts the larger power of
    two.  One shift-and-multiply pass per variable.  Exact for n <= 57,
    where the largest key, (n - 1)·2^n + 1, is below 2^63; past that the
    int64 keys wrap.
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
    """Subsets σ with x^σ ∈ J \\ I, as bitmasks, ordered by inclusion.

    Made only from a pair I ⊆ J with I ≠ J (else ValueError), so it is
    never empty and always convex (an up-set meets a down-set): an interval
    lies in it iff its ends do.  Elements are numbered in (size, lex)
    order, so each size is a run of numbers; ``elements`` lists them,
    ``masks`` is that list as an int64 array, ``levels[l]`` is the bitmap
    over the numbers of the elements of size l, ``sizes[l]`` their number,
    and ``member`` is the 2^n membership table (module_table) packed into
    one 2^n-bit int.  It holds no search state: each decision builds its
    own index (_CoverSearch).
    """

    def __init__(self, j_ideal: MonomialIdeal, i_ideal: MonomialIdeal):
        table = module_table(j_ideal, i_ideal)
        masks = np.flatnonzero(table).astype(np.int64)
        self.n = n = j_ideal.n
        keys = size_lex_keys(masks, range(1, n + 1))
        self.masks = masks = masks[np.argsort(keys)]
        self.elements = masks.tolist()
        # a key's 2^n terms count its mask's size: size = ceil(key / 2^n)
        self.sizes = sizes = np.bincount(-(-keys >> n), minlength=n + 1).tolist()
        ends = np.cumsum(sizes).tolist()
        self.levels = [(1 << e) - (1 << (e - c)) for e, c in zip(ends, sizes)]
        self.member = int.from_bytes(np.packbits(table, bitorder="little")
                                     .tobytes(), "little")

    def maximal_elements(self) -> list[int]:
        """The elements with no other above them, ascending: by convexity,
        those with no element one variable above.  One shift and AND per
        variable over ``member``: bit s of ``member >> 2^b`` is whether
        s + 2^b is in the poset, which is s plus variable b where ``low``
        keeps only the masks without it."""
        n, member = self.n, self.member
        covered, low = 0, (1 << (1 << n >> 1)) - 1
        for b in reversed(range(n)):
            covered |= member >> (1 << b) & low
            # the masks without variable b - 1, from those without b
            low ^= low << (1 << b >> 1)
        return list(bits(member & ~covered))


class Interval(NamedTuple):
    """The interval [lower, upper] in the subset lattice.  It is made
    without checking that lower divides upper: the search makes only
    intervals that do, and an interval from outside is checked where it
    comes in (StanleyCertificate.from_dict refuses it, and
    validate_decomposition judges it invalid)."""

    lower: int
    upper: int

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
        """Certificate from its to_dict form; ValueError if malformed or if
        an interval's lower end does not divide its upper end."""
        try:
            ivs = [Interval(monomial(d["lower"], n), monomial(d["upper"], n))
                   for d in data["intervals"]]
            claim = integer(data["sdepth"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc
        if not all(divides(iv.lower, iv.upper) for iv in ivs):
            raise ValueError("interval lower must divide upper")
        return cls(ivs, claim)


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
    found by walking the planes from the most significant one.  ``x & ~p``
    is spelled ``x ^ (x & p)``: ``~p`` is a negative int, and ``&`` with it
    costs 2.4 times as much at a few thousand bits."""
    for p in reversed(planes):
        rest = cand ^ (cand & p)
        if rest:
            cand = rest
    return cand


def ranked_bits(cand: int, planes: list[int], rank: Callable[[int], int]):
    """The set bits of ``cand`` in ascending ``rank``, where ``planes`` are
    the bit-sliced dense ranks (``bit_planes``) of the positions: the least
    from the planes, and the rest sorted only if a second one is asked for."""
    if cand:
        first = least(cand, planes)
        yield first.bit_length() - 1
        yield from sorted(bits(cand ^ first), key=rank)


def counting_rows(sizes: list[int]):
    """The rows k = 0, 1, ... of the level-counting table of ``sizes[l]``
    poset elements of size l: row k is row k - 1 with sizes[k] appended,
    then differenced, the coefficients of sum_l sizes[l] u^l (1 - u)^(k - l).

    An interval with |lower| = a and |top| = k covers C(k - a, l - a)
    elements of size l, so in a cover for "sdepth >= k" with f_a intervals
    of lower size a, sum_l sizes[l] u^l = sum_a f_a u^a (1 + u)^(k - a) +
    (sizes[k] - F) u^k, F = sum f_a.  Put u / (1 - u) for u: row k is
    f_0, ..., f_(k-1), sizes[k] - F, and a cover needs all of it >= 0."""
    row: list[int] = []
    for size in sizes:
        row.append(size)
        row = row[:1] + [b - a for a, b in zip(row, row[1:])]
        yield row


def forced_intervals(sizes: list[int], k: int) -> list[int] | None:
    """The f_a of row k of counting_rows, or None if it rules a cover out.

    The search reads them once, for its root: below the root the counts of
    a node's uncovered elements cannot fail.  With h_a intervals of lower
    size a placed, their solution is f - h.  The search branches on the
    lowest level with an uncovered element, so when it places an interval
    of lower size a, every level below a is covered (h_s = f_s for s < a),
    f_a - h_a is the number of uncovered elements of size a (>= 1), and
    h_l = 0 for l > a (such a placement needs level a covered, and no step
    away from the root uncovers an element).  So f - h stays >= 0, and the
    untopped count sizes[k] - F is the root's own.
    """
    *_, row = counting_rows(sizes[:k + 1])
    return row[:-1] if min(row) >= 0 else None


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

    The search index is the decision's own and holds only what it reads,
    over the elements of size <= k, a prefix of the size-major numbering
    (no element of size > k is ever covered).  ``has[b]`` holds those with
    variable b, one ``np.packbits`` per variable (``bit_planes``);
    ``down[t]``, the elements below the t-th top (itself included), is the
    AND of ``prefix ^ has[b]`` over the b not in t, built one variable at a
    time over the tops without it; ``up(s)`` is built and memoised only
    for the elements branched on.  An interval [s,t] is ``up(s) & down[t]``.

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
        self.sizes = sizes = poset.sizes[:k + 1]
        self.n_low, self.n_ranked = sum(sizes[:k]), sum(sizes)
        self.forced = forced_intervals(sizes, k)
        masks = poset.masks[:self.n_ranked]
        tops = masks[self.n_low:]
        self.prefix = prefix = (1 << self.n_ranked) - 1
        self.has = bit_planes(masks)
        self.down = down = [prefix] * len(tops)
        for b, has in enumerate(self.has):
            miss = prefix ^ has
            for t in np.flatnonzero((tops >> b & 1) == 0).tolist():
                down[t] &= miss
        self.up_memo: dict[int, int] = {}
        # per low element s, the number of size-k tops t with [s,t] in the
        # poset: as the poset is convex, every size-k element above s, which
        # a superset sum over the 2^n masks of the tops gives at s's mask
        above = np.zeros(1 << poset.n, dtype=np.int64)
        above[tops] = 1
        for b in range(poset.n):
            pairs = above.reshape(-1, 2, 1 << b)
            pairs[:, 0] += pairs[:, 1]
        counts = above[masks[:self.n_low]]
        self.root_dead = not counts.all()
        self.start_planes = bit_planes(counts)
        # the first element number of each level <= k
        self.starts = list(itertools.accumulate(sizes[:k], initial=0))
        self.failed: set[int] = set()
        # of the current attempt: the live-top planes, the dense ranks of
        # the elements of size <= k, and per level < k its bitmap, first
        # number and level-local rank planes (None under attempt 0, whose
        # ranks are the element numbers)
        self.planes: list[int] = []
        self.rank = range(0)
        self.low: list[tuple] = []

    def up(self, s: int) -> int:
        """The bitmap of the elements of size <= k above element s (itself
        included): the AND of ``has[b]`` over the variables b of s, memoised
        in ``up_memo`` for the decision."""
        above = self.up_memo.get(s)
        if above is None:
            above = self.prefix
            for b in bits(self.poset.elements[s]):
                above &= self.has[b]
            self.up_memo[s] = above
        return above

    def _ranks(self, attempt: int):
        """Per element of size <= k, its rank 0, 1, ... in the order of the
        labelling of ``attempt``: its (size, lex) number for attempt 0, its
        size_lex_keys position under the shuffled labels after that; and per
        level <= k, the bit-sliced ranks of its elements less the level's
        first number, as bitmaps over the level's own positions (None for
        attempt 0).  The order is size-major, so a level's ranks are its
        own numbers permuted: one ``bit_planes`` of the level-local ranks,
        cut per level by a shift and a mask."""
        if attempt == 0:
            return range(self.n_ranked), [None] * (self.k + 1)
        images = list(range(1, self.poset.n + 1))
        random.Random(attempt).shuffle(images)
        keys = size_lex_keys(self.poset.masks[:self.n_ranked], images)
        rank = np.empty_like(keys)
        rank[np.argsort(keys)] = np.arange(len(keys))
        planes = bit_planes(rank - np.repeat(self.starts, self.sizes))
        return rank, [[p >> lo & (1 << size) - 1
                       for p in planes[:(size - 1).bit_length()]]
                      for lo, size in zip(self.starts, self.sizes)]

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
        read from the planes, then the least rank in it, read at the level's
        own positions: the lowest bit under attempt 0, the level's rank
        planes after that."""
        planes = self.planes
        for p in planes:
            if not walked:
                break
            walked ^= walked & p
        if walked:
            return -1
        for level, lo, ranked in self.low:
            live = level & uncovered
            if live:
                break
        else:
            return None
        if self.forced is None or uncovered in self.failed:
            self.failed.add(uncovered)
            return -1
        branches = least(live, planes) >> lo
        if ranked is None:
            # the lowest bit alone, as b ^ (b - 1) sets it and the bits below
            return lo + (branches ^ (branches - 1)).bit_length() - 1
        return lo + least(branches, ranked).bit_length() - 1

    def attempt(self, a: int, stop: int | None = None) -> list[Interval] | None:
        """Depth-first search under the ranks of attempt ``a``: the intervals
        of a solution, or None if there is none.  Raises BudgetExceeded
        instead of visiting a node once ``self.nodes``, counted over all
        attempts, has reached ``stop``.

        Placing [s,t] subtracts W = ``down[t] & uncovered``, taken after the
        cube is cleared, from the live-top planes with a borrow chain;
        undoing it adds the same W back with a carry chain, recomputed from
        the stacked state it was placed on, so a placement keeps only
        (s, t).  A state keeps ``up(s)`` of its branch s, asked for once.
        Every cube it places lies in its uncovered bitmap (the fit test), so
        placing one clears it with ``^`` and no negative int."""
        self.rank, ranked = self._ranks(a)
        self.low = list(zip(self.levels[:self.k], self.starts, ranked))
        self.planes = planes = self.start_planes[:]
        order, up, down = self.poset.elements, self.up, self.down
        # the tops are the size-k elements, base, base + 1, ...: a state
        # lists its live tops as offsets t from base, the index of down[t],
        # in bit order under attempt 0 and by rank after that (ranked_bits)
        base, top_level, top_planes = self.n_low, self.levels[self.k], ranked[-1]
        top_rank = None if a == 0 else self.rank[base:].tolist().__getitem__
        # per open state: its uncovered bitmap, branch, the branch's up and
        # an iterator over its untried live candidate tops in rank order;
        # placed[d] is the (branch, top offset) that leads from stack[d] to
        # stack[d+1].  A state's bitmap holds only the elements of size
        # <= k: no larger one is ever covered
        stack: list[tuple] = []
        placed: list[tuple[int, int]] = []
        uncovered, walked = (1 << self.n_ranked) - 1, 0
        while True:
            if self.nodes == stop:
                raise BudgetExceeded
            self.nodes += 1
            branch = self._visit(uncovered, walked)
            if branch is None:
                return [Interval(order[s], order[base + t]) for s, t in placed]
            if branch >= 0:
                above = up(branch)
                tops = (above & top_level & uncovered) >> base
                tops = (bits(tops) if top_rank is None
                        else ranked_bits(tops, top_planes, top_rank))
                stack.append((uncovered, branch, above, tops))
            while stack:
                uncovered, branch, above, left = stack[-1]
                if len(placed) == len(stack):
                    # W = down[t] & (uncovered & ~cube), cube = up[s] & down[t]
                    carry = down[placed.pop()[1]] & uncovered
                    carry ^= carry & above
                    j = 0
                    while carry:
                        p = planes[j]
                        planes[j] = p ^ carry
                        carry &= p
                        j += 1
                for t in left:
                    cube = above & down[t]
                    if cube & uncovered == cube:
                        break
                else:
                    self.failed.add(uncovered)
                    stack.pop()
                    continue
                uncovered ^= cube
                walked = borrow = down[t] & uncovered
                j = 0
                while borrow:
                    p = planes[j]
                    planes[j] = p ^ borrow
                    borrow ^= borrow & p
                    j += 1
                placed.append((branch, t))
                break
            else:
                return None


def certificate_from(poset: CharPoset, intervals: list[Interval],
                     k: int) -> StanleyCertificate:
    """The certificate of a full cover of decision k, as sdepth_at_least
    returns it: its intervals, then every element they leave uncovered as a
    singleton, claiming k.  Such a cover holds every element of size < k
    and, of size k, exactly its tops, so the singletons are the untopped
    size-k elements and every larger one, their masks sorted by one numpy
    sort.  The empty cover gives the all-singletons certificate, claiming
    the least element size, at any k.

    The intervals are taken to lie in the poset and not to overlap, as the
    search's do.  Raises ValueError on a top that is no element of size k,
    a repeated top, or a cover whose sum of 2^(k - |lower|) - 1, the
    elements of size < k each interval holds, is not their number."""
    if not intervals:
        masks = np.sort(poset.masks).tolist()
        return StanleyCertificate([Interval(s, s) for s in masks],
                                  poset.elements[0].bit_count())
    base, end = sum(poset.sizes[:k]), sum(poset.sizes[:k + 1])
    level = poset.elements[base:end]
    tops = {iv.upper for iv in intervals}
    untopped = np.array([s not in tops for s in level], dtype=bool)
    if len(level) - np.count_nonzero(untopped) != len(tops):
        on_level = set(level)
        top = next(iv.upper for iv in intervals if iv.upper not in on_level)
        raise ValueError(f"interval top {top} is no element of size {k}")
    if len(tops) != len(intervals):
        raise ValueError(f"two intervals share a top of size {k}")
    held = sum((1 << (k - iv.lower.bit_count())) - 1 for iv in intervals)
    if held != base:
        raise ValueError(f"the intervals hold {held} elements of size < {k}, "
                         f"not all {base}")
    left = np.concatenate((poset.masks[base:end][untopped], poset.masks[end:]))
    left = np.sort(left).tolist()
    return StanleyCertificate(intervals + [Interval(s, s) for s in left], k)


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
    least k whose counting row has a negative entry (Biró, Howard, Keller,
    Trotter and Young 2010), read in one walk over counting_rows.  Both
    hold for every k <= sdepth, since a partition with tops of size >= k
    cuts into one with tops of size exactly k."""
    maximal = min(s.bit_count() for s in poset.maximal_elements())
    for k, row in enumerate(counting_rows(poset.sizes[:maximal + 1])):
        if min(row) < 0:
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
    not yet covered, with no CharPoset; an interval whose lower end does not
    divide its upper end is invalid before its members are walked.  A pair
    past the table cap is refused with ValueError, not judged."""
    check_table_n(j_ideal.n)
    try:
        table = module_table(j_ideal, i_ideal)
    except ValueError as exc:
        return ValidationResult(False, f"bad module pair: {exc}")
    in_poset = table.tobytes()
    uncovered = bytearray(in_poset)
    for iv in cert.intervals:
        if not divides(iv.lower, iv.upper):
            return ValidationResult(False, "interval lower does not divide upper")
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
