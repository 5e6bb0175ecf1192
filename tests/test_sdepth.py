"""Stanley depth: characteristic posets, search, certificates, validation."""

import hashlib
import json
import random
import tracemalloc
from dataclasses import astuple
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import (TABLE_MAX_N, MonomialIdeal, VarPermutation,
                              check_table_n, divides, monomial, monomial_vars)
from pathdepth.oracle import family_module
from pathdepth.sdepth import (BudgetExceeded, CharPoset, Interval, SdepthResult,
                              StanleyCertificate, _CoverSearch, bit_planes,
                              build_char_poset, certificate_from,
                              forced_intervals, least, luby, sdepth_at_least,
                              size_lex_keys, stanley_depth, upper_bound,
                              ValidationResult, validate_decomposition)


def test_char_poset_of_cycle_quotient():
    # S/J_{4,3}: subsets with no three cyclically consecutive vertices
    poset = build_char_poset(MonomialIdeal.whole_ring(4), cycle_ideal(4, 3))
    assert len(poset.elements) == 11
    assert 0 in poset.elements
    assert monomial([1, 2], 4) in poset.elements
    assert monomial([1, 2, 3], 4) not in poset.elements
    assert sorted(poset.maximal_elements()) == sorted(
        monomial(v, 4) for v in ([1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [2, 4]))


def test_char_poset_of_subquotient():
    # J_{4,3}/I_{4,3} keeps only the two wrapping triples
    poset = build_char_poset(cycle_ideal(4, 3), line_ideal(4, 3))
    assert set(poset.elements) == {monomial([1, 3, 4], 4),
                                   monomial([1, 2, 4], 4)}


def test_char_poset_rejects_non_inclusion():
    with pytest.raises(ValueError):
        build_char_poset(line_ideal(4, 3), cycle_ideal(4, 3))


def test_interval_members():
    iv = Interval(0b0001, 0b1011)
    assert sorted(iv.members()) == [0b0001, 0b0011, 0b1001, 0b1011]
    with pytest.raises(ValueError):
        Interval(0b10, 0b01)


def test_sdepth_cycle_anchor():
    res = stanley_depth(MonomialIdeal.whole_ring(4), cycle_ideal(4, 3))
    assert res.sdepth == 2 and res.exact
    assert validate_decomposition(res.certificate,
                                  MonomialIdeal.whole_ring(4),
                                  cycle_ideal(4, 3))


def test_sdepth_subquotient_anchor():
    res = stanley_depth(cycle_ideal(4, 3), line_ideal(4, 3))
    assert res.sdepth == 3


def test_sdepth_maximal_ideal():
    for n in range(2, 8):
        res = stanley_depth(line_ideal(n, 1), MonomialIdeal.zero(n))
        assert res.sdepth == (n + 1) // 2, n


def test_sdepth_zero_module_rejected():
    with pytest.raises(ValueError, match="zero module"):
        stanley_depth(line_ideal(4, 2), line_ideal(4, 2))
    result = validate_decomposition(StanleyCertificate([], 99),
                                    line_ideal(4, 2), line_ideal(4, 2))
    assert not result
    assert result.reason == "bad module pair: J/I is the zero module"


def test_negative_budgets_are_refused():
    # a budget below zero is a stop that the node count never meets: it
    # would run the search to the end and call the result exact
    j, i = MonomialIdeal.whole_ring(9), cycle_ideal(9, 3)
    with pytest.raises(ValueError, match="negative"):
        stanley_depth(j, i, node_budget=-1)
    with pytest.raises(ValueError, match="negative"):
        sdepth_at_least(build_char_poset(j, i), 5, budget=-1)
    res = stanley_depth(j, i, node_budget=0)
    assert (res.exact, res.nodes) == (False, 0)


def test_sdepth_at_least_monotone():
    poset = build_char_poset(MonomialIdeal.whole_ring(6), cycle_ideal(6, 3))
    res = stanley_depth(MonomialIdeal.whole_ring(6), cycle_ideal(6, 3))
    for k in range(1, res.sdepth + 1):
        cover, _ = sdepth_at_least(poset, k)
        assert cover is not None
        assert validate_decomposition(certificate_from(poset, cover, k),
                                      MonomialIdeal.whole_ring(6),
                                      cycle_ideal(6, 3))
    cover, _ = sdepth_at_least(poset, res.sdepth + 1)
    assert cover is None


def test_budget_gives_inexact_lower_bound():
    j, i = MonomialIdeal.whole_ring(7), cycle_ideal(7, 3)
    res = stanley_depth(j, i, node_budget=3)
    assert not res.exact
    full = stanley_depth(j, i)
    assert full.exact and full.sdepth >= res.sdepth
    assert validate_decomposition(res.certificate, j, i)


def test_certificates_are_deterministic():
    j, i = MonomialIdeal.whole_ring(6), cycle_ideal(6, 2)
    a = stanley_depth(j, i).certificate.to_json()
    b = stanley_depth(j, i).certificate.to_json()
    assert a == b


def test_certificate_json_round_trip():
    res = stanley_depth(MonomialIdeal.whole_ring(5), cycle_ideal(5, 3))
    cert = StanleyCertificate.from_dict(json.loads(res.certificate.to_json()), 5)
    assert validate_decomposition(cert, MonomialIdeal.whole_ring(5),
                                  cycle_ideal(5, 3))


# explicit decompositions of J_{n,3}/I_{n,3} for small n, given as
# interval partitions of the two wrap-around chains
EXPLICIT_SUBQUOTIENT = {
    4: (3, [([1, 3, 4], [1, 3, 4]), ([1, 2, 4], [1, 2, 4])]),
    5: (3, [([1, 4, 5], [1, 4, 5]), ([1, 2, 5], [1, 2, 5]),
            ([1, 2, 4, 5], [1, 2, 4, 5])]),
    6: (4, [([1, 5, 6], [1, 3, 5, 6]), ([1, 2, 6], [1, 2, 4, 6]),
            ([1, 2, 5, 6], [1, 2, 5, 6])]),
    7: (5, [([1, 6, 7], [1, 3, 4, 6, 7]), ([1, 2, 7], [1, 2, 4, 5, 7]),
            ([1, 2, 6, 7], [1, 2, 4, 6, 7])]),
}


@pytest.mark.parametrize("n", sorted(EXPLICIT_SUBQUOTIENT))
def test_explicit_subquotient_decompositions(n):
    claimed, pairs = EXPLICIT_SUBQUOTIENT[n]
    cert = StanleyCertificate(
        [Interval(monomial(lo, n), monomial(up, n)) for lo, up in pairs],
        claimed)
    assert validate_decomposition(cert, cycle_ideal(n, 3), line_ideal(n, 3))
    assert stanley_depth(cycle_ideal(n, 3), line_ideal(n, 3)).sdepth == claimed


def test_validate_rejects_overlap():
    j, i = cycle_ideal(4, 3), line_ideal(4, 3)
    cert = StanleyCertificate([Interval(monomial([1, 3, 4], 4), monomial([1, 3, 4], 4)),
                               Interval(monomial([1, 3, 4], 4), monomial([1, 3, 4], 4))], 3)
    result = validate_decomposition(cert, j, i)
    assert not result and "overlap" in result.reason


def test_validate_rejects_escape_and_gap():
    j, i = cycle_ideal(4, 3), line_ideal(4, 3)
    escape = StanleyCertificate([Interval(monomial([1, 2], 4),
                                          monomial([1, 2, 4], 4))], 2)
    result = validate_decomposition(escape, j, i)
    assert not result and "leaves" in result.reason
    gap = StanleyCertificate([Interval(monomial([1, 3, 4], 4),
                                       monomial([1, 3, 4], 4))], 3)
    result = validate_decomposition(gap, j, i)
    assert not result and "cover" in result.reason


def test_validate_rejects_a_bad_module_pair():
    # the pair swapped: the wrap-around paths of J_{5,3} are not in I_{5,3}
    result = validate_decomposition(StanleyCertificate([], 0),
                                    line_ideal(5, 3), cycle_ideal(5, 3))
    assert not result
    assert result.reason == "bad module pair: I is not contained in J"


def test_validate_rejects_wrong_claim():
    j, i = cycle_ideal(4, 3), line_ideal(4, 3)
    cert = StanleyCertificate([Interval(monomial([1, 3, 4], 4), monomial([1, 3, 4], 4)),
                               Interval(monomial([1, 2, 4], 4), monomial([1, 2, 4], 4))], 4)
    result = validate_decomposition(cert, j, i)
    assert not result and "claimed" in result.reason


def test_relabel_invariance_of_sdepth():
    rng = random.Random(99)
    for n, m in ((5, 2), (6, 3), (7, 4)):
        base = stanley_depth(MonomialIdeal.whole_ring(n), cycle_ideal(n, m)).sdepth
        for _ in range(3):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = VarPermutation(tuple(images))
            moved = cycle_ideal(n, m).relabel(p)
            assert stanley_depth(MonomialIdeal.whole_ring(n), moved).sdepth == base


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_random_quotients_validate(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    gens = data.draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                              min_size=1, max_size=4))
    ideal = MonomialIdeal(n, tuple(gens))
    if ideal.is_whole_ring:
        return
    j = MonomialIdeal.whole_ring(n)
    res = stanley_depth(j, ideal)
    assert res.exact
    assert validate_decomposition(res.certificate, j, ideal)
    assert res.certificate.claimed_sdepth == res.sdepth


def _random_pairs(count, seed):
    """Seeded (J, I) pairs with I ⊆ J, n in 5..8, and J = S for about 40%."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(5, 8)
        if rng.random() < 0.4:
            j = MonomialIdeal.whole_ring(n)
        else:
            j = MonomialIdeal(n, tuple(
                rng.randrange(1 << n) & rng.randrange(1 << n)
                for _ in range(rng.randint(1, 3))))
        i = MonomialIdeal(n, tuple(
            rng.choice(j.gens)
            | sum(1 << v for v in rng.sample(range(n), rng.randint(2, 4)))
            for _ in range(rng.randint(2, 8))))
        if i != j:
            pairs.append((j, i))
    return pairs


# (sdepth, nodes, sha256 prefix of the certificate JSON) of _random_pairs(20, 4),
# recorded with the engine that enumerated every cube for each k and rescanned
# every element at each node: faster set-up and nodes must keep the search
# tree and the certificates exactly as they were.  The nodes are those of the
# walk up over k that the engine made then, replayed by _bottom_up_depth
RANDOM_PAIR_PINS = [
    (4, 24, '520991eb975b4594'),
    (3, 19, '697f76c3e9b4c345'),
    (3, 23, 'f8764780456ce28a'),
    (3, 14, 'b9a5c3e4b268057f'),
    (5, 17, '92034f02d35aa209'),
    (4, 5, '2b86e7283e30cf28'),
    (3, 14, '78e3c9199ddc6594'),
    (6, 60, 'a4b1c12320cfe825'),
    (4, 14, 'c37faac5d21629dd'),
    (4, 7, 'd108cfc122177fc9'),
    (3, 19, 'de1d128e1efb1644'),
    (3, 19, '240ca7d3036912db'),
    (5, 16, '68c9eab9c3a67838'),
    (4, 12, '47b5bfa54ecfe17b'),
    (5, 41, '54c9330ca36cc372'),
    (5, 47, 'ca5b282e91a7dee9'),
    (3, 19, '7a2c038fcc37ee70'),
    (4, 26, '79e5280f9cb15a96'),
    (3, 18, '3ce45a86bb1bc3c8'),
    (4, 41, '2a48be8ad13c2c8e'),
]

# the same for one unbounded attempt 0 per decision, the search of the engine
# before restarts: cyc:9:3 backtracks at k = 5 (7717 of its 7805 nodes)
NAMED_PINS = {
    "cyc:9:3": (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3), 5, 7805,
                "416965d8933dd25bb25408f51455ba3f185999838ee753fe47626be17ab81c0b"),
    "max:9": (line_ideal(9, 1), MonomialIdeal.zero(9), 5, 167,
              "828e95d076e801b26e580e48bb14b47713063e539e002aeedd263d7a4fa9760c"),
}

# the walk up with its restarts, recorded when they were introduced; max:9
# settles every decision inside its first slice
RESTARTED_PINS = {
    "cyc:9:3": (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3), 5, 193,
                "ce2849744ba537bc"),
    "max:9": NAMED_PINS["max:9"],
}

# stanley_depth's own node totals, which descend from upper_bound: on the
# random pairs above, and on the named instances.  The decision that finds
# the answer's cover is the one the walk up made, so sdepth and certificate
# are the pins above
TOP_DOWN_NODES = [6, 11, 14, 7, 9, 3, 7, 8, 7, 5,
                  11, 11, 8, 5, 5, 21, 11, 8, 10, 17]
TOP_DOWN_NAMED_NODES = {"cyc:9:3": 105, "max:9": 70}


def _digest(cert):
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


def _assert_pinned(res, sdepth, nodes, digest):
    assert res.exact
    assert (res.sdepth, res.nodes) == (sdepth, nodes)
    assert _digest(res.certificate).startswith(digest)


def _assert_pinned_and_refuted(j, i, sdepth, nodes, digest):
    _assert_pinned(stanley_depth(j, i), sdepth, nodes, digest)
    if sdepth < j.n:
        cover, _ = sdepth_at_least(build_char_poset(j, i), sdepth + 1)
        assert cover is None


def _live_tops(search):
    """Per low element s of a decision, the bitmap of its candidate tops:
    by convexity, every size-k element above s."""
    tops = search.levels[search.k]
    return [u & tops for u in search.poset.up[:search.n_low]]


def _bottom_up_depth(j, i, budget=None):
    """The walk up over k that stanley_depth made before it descended from
    upper_bound: decide k = smallest size + 1, + 2, ... until one fails or
    the budget runs out, and certify the last cover found.  It needs no
    upper bound: past the smallest maximal element, that element has no
    top, so the decision fails at its root without a node."""
    poset = build_char_poset(j, i)
    best, cover = poset.elements[0].bit_count(), []
    nodes, exact = 0, True
    for k in range(best + 1, poset.n + 1):
        remaining = None if budget is None else budget - nodes
        try:
            found, used = sdepth_at_least(poset, k, budget=remaining)
        except BudgetExceeded:
            nodes, exact = budget, False
            break
        nodes += used
        if found is None:
            break
        best, cover = k, found
    return SdepthResult(best, certificate_from(poset, cover, best), exact, nodes)


def _attempt_zero_depth(j, i):
    """The walk up of _bottom_up_depth, each decision one unbounded attempt 0."""
    poset = build_char_poset(j, i)
    best, cert, nodes = min(s.bit_count() for s in poset.elements), None, 0
    for k in range(best + 1, poset.n + 1):
        search = _CoverSearch(poset, k)
        intervals = search.attempt(0) if all(_live_tops(search)) else None
        nodes += search.nodes
        if intervals is None:
            break
        best, cert = k, certificate_from(poset, intervals, k)
    return best, nodes, cert


def test_search_tree_unchanged_on_random_pairs():
    pairs = _random_pairs(20, 4)
    for (j, i), (sdepth, nodes, digest), top_down in zip(
            pairs, RANDOM_PAIR_PINS, TOP_DOWN_NODES, strict=True):
        _assert_pinned(_bottom_up_depth(j, i), sdepth, nodes, digest)
        _assert_pinned_and_refuted(j, i, sdepth, top_down, digest)


@pytest.mark.parametrize("name", sorted(NAMED_PINS))
def test_search_tree_unchanged_on_named_instances(name):
    j, i, sdepth, nodes, digest = NAMED_PINS[name]
    best, used, cert = _attempt_zero_depth(j, i)
    assert (best, used, _digest(cert)) == (sdepth, nodes, digest)
    assert sdepth_at_least(build_char_poset(j, i), sdepth + 1)[0] is None


@pytest.mark.parametrize("name", sorted(RESTARTED_PINS))
def test_restarted_search_on_named_instances(name):
    j, i, sdepth, nodes, digest = RESTARTED_PINS[name]
    _assert_pinned(_bottom_up_depth(j, i), sdepth, nodes, digest)
    _assert_pinned_and_refuted(j, i, sdepth, TOP_DOWN_NAMED_NODES[name], digest)


def _seeded_pairs():
    return [pair for seed in (4, 8, 12) for pair in _random_pairs(200, seed)]


# over the 600 seeded pairs: the nodes of the walk up and of the descent,
# without a budget, and how many of them settle at budgets 7 and 200
WALK_NODES, DESCENT_NODES = 16_943, 5_944
WALK_EXACT, DESCENT_EXACT = 717, 906


def test_descent_matches_the_walk_up():
    # without a budget the descent and the walk up decide the answer's k
    # with the same search, so they agree on sdepth, exactness and the
    # certificate; the walk needs no upper bound, so it also checks that
    # upper_bound is one
    nodes = {"walk": 0, "descent": 0}
    for j, i in _seeded_pairs():
        walk, res = _bottom_up_depth(j, i), stanley_depth(j, i)
        assert walk.exact and res.exact
        assert res.upper == upper_bound(build_char_poset(j, i)) >= walk.sdepth
        assert res.sdepth == walk.sdepth
        assert _digest(res.certificate) == _digest(walk.certificate)
        nodes["walk"] += walk.nodes
        nodes["descent"] += res.nodes
    assert nodes == {"walk": WALK_NODES, "descent": DESCENT_NODES}


def test_descent_under_a_budget():
    # wherever the walk up settles inside a budget, the descent does too,
    # with the same answer.  A descent the budget cuts has found no cover,
    # so it keeps the singletons: its lower bound, the smallest element
    # size, may be below the walk's, but it still brackets sdepth with U
    exact = {"walk": 0, "descent": 0}
    for j, i in _seeded_pairs():
        full = stanley_depth(j, i)
        for budget in (7, 200):
            walk = _bottom_up_depth(j, i, budget)
            res = stanley_depth(j, i, node_budget=budget)
            assert res.nodes <= budget and res.upper == full.upper
            if walk.exact:
                assert res.exact and res.sdepth == walk.sdepth
            if res.exact:
                assert (res.sdepth, res.nodes) == (full.sdepth, full.nodes)
            else:
                assert res.sdepth <= full.sdepth <= res.upper
                assert validate_decomposition(res.certificate, j, i)
            exact["walk"] += walk.exact
            exact["descent"] += res.exact
    assert exact == {"walk": WALK_EXACT, "descent": DESCENT_EXACT}


VERIFY_ALL_N10 = Path(__file__).with_name("data") / "verify_all_n10.json"


def test_upper_bound_meets_every_family_sdepth_up_to_n10():
    # the sdepth rows of `verify --suite all --n-max 10` as recorded by the
    # walk up, which used no bound but the smallest maximal element
    rows = json.loads(VERIFY_ALL_N10.read_text())
    checked = 0
    for row in rows:
        if row["quantity"] != "sdepth":
            continue
        j, i = family_module(row["family"], row["n"], row["m"])
        poset = build_char_poset(j, i)
        assert upper_bound(poset) == row["computed"], row
        checked += 1
    assert checked == 88


def test_counting_bound_binds_on_the_maximal_ideal():
    # the whole variable set is the one maximal element of max:n, so only
    # the level counts bring U down to sdepth = ceil(n / 2)
    for n in range(2, 13):
        poset = build_char_poset(line_ideal(n, 1), MonomialIdeal.zero(n))
        assert poset.maximal_elements() == [(1 << n) - 1]
        assert upper_bound(poset) == (n + 1) // 2, n


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_attempt_is_the_search_on_the_relabelled_poset():
    for case, (j, i) in enumerate(_random_pairs(20, 7)):
        n, a = j.n, 1 + case % 4
        images = list(range(1, n + 1))
        random.Random(a).shuffle(images)
        perm = VarPermutation(tuple(images))
        back = VarPermutation(tuple(images.index(v) + 1 for v in range(1, n + 1)))
        poset = build_char_poset(j, i)
        moved = build_char_poset(j.relabel(perm), i.relabel(perm))
        for k in range(1, n + 1):
            ranked = _CoverSearch(poset, k)
            plain = _CoverSearch(moved, k)
            got, want = ranked.attempt(a), plain.attempt(0)
            assert ranked.nodes == plain.nodes, (case, k)
            if want is None:
                assert got is None
            else:
                assert got == [Interval(back.apply(iv.lower), back.apply(iv.upper))
                               for iv in want], (case, k)


def _state_forced_total(search, uncovered):
    """Reference: the level-counting system solved on the uncovered counts of
    one state, the forced number of intervals per lower size summed, or None
    if a forced count is negative or above its level's count, or the total
    is above the number of uncovered size-k elements."""
    k = search.k
    counts = [(level & uncovered).bit_count() for level in search.levels]
    forced = []
    for l in range(k):
        need = counts[l] - sum(f * comb(k - a, l - a)
                               for a, f in enumerate(forced))
        if need < 0 or need > counts[l]:
            return None
        forced.append(need)
    return sum(forced) if sum(forced) <= counts[k] else None


def test_branch_pick_matches_a_rescan(monkeypatch):
    # the live-top planes kept up by placing and undoing intervals must give,
    # at every visited node, the dead-end verdict and the branch of a full
    # re-scan: fewest live tops in the lowest live level, ties to the lowest
    # rank.  The engine solves the counting system once per decision, so
    # this also checks that the system solved at each state never refutes
    # one below the root
    visit, visited = _CoverSearch._visit, []

    def rescanned(self, uncovered, walked):
        tops = self.levels[self.k]
        live = {i: (self.poset.up[i] & tops & uncovered).bit_count()
                for i in range(self.n_low) if uncovered >> i & 1}
        gives_up = (uncovered in self.failed
                    or _state_forced_total(self, uncovered) is None)
        # walked is the bitmap of the elements below the last top placed
        assert walked & ~uncovered == 0
        got = visit(self, uncovered, walked)
        if 0 in live.values():
            want = -1
        elif not live:
            want = None
        else:
            size = min(self.poset.elements[i].bit_count() for i in live)
            want = -1 if gives_up else min(
                (i for i in live if self.poset.elements[i].bit_count() == size),
                key=lambda i: (live[i], self.rank[i]))
        assert got == want
        visited.append(got)
        return got

    monkeypatch.setattr(_CoverSearch, "_visit", rescanned)
    # the random pairs seldom backtrack; cyc:9:3 does at k = 5
    for j, i in _random_pairs(200, 12) + [NAMED_PINS["cyc:9:3"][:2]]:
        poset = build_char_poset(j, i)
        for k in range(1, j.n + 1):
            search = _CoverSearch(poset, k)
            if not all(_live_tops(search)):
                continue
            for a in range(4):
                try:
                    search.attempt(a, search.nodes + 300)
                except BudgetExceeded:
                    pass
    assert len(visited) > 20_000 and visited.count(-1) > 100


def test_forced_intervals_solve_the_level_counts():
    # the maximal ideal at n = 4, levels 0, 4, 6, 4: at k = 2 the four
    # variables are the lower ends; at k = 3 they would cover 8 of the 6 pairs
    assert forced_intervals([0, 4, 6], 2) == [0, 4]
    assert forced_intervals([0, 4, 6, 4], 3) is None
    # S at n = 3 and k = 2: the interval from the empty set covers two of
    # the three singletons, the third needs one more; 2 of the 3 pairs are tops
    assert forced_intervals([1, 3, 3], 2) == [1, 1]
    # too many tops: 3 forced intervals for 2 elements of size k
    assert forced_intervals([0, 3, 2], 2) is None
    assert forced_intervals([5], 0) == []


def test_covers_place_the_forced_intervals_per_lower_size():
    # the counting system is triangular, so it has one solution, and every
    # cover of a decision places exactly forced[a] intervals with a lower
    # end of size a; at the root, forced agrees with the per-state solve
    covers = 0
    for j, i in _random_pairs(40, 14) + [NAMED_PINS["cyc:9:3"][:2]]:
        poset = build_char_poset(j, i)
        root = (1 << len(poset.elements)) - 1
        for k in range(1, j.n + 1):
            search = _CoverSearch(poset, k)
            total = _state_forced_total(search, root)
            assert total == (None if search.forced is None
                             else sum(search.forced)), k
            cover = search.run()
            if cover is None:
                continue
            assert [sum(iv.lower.bit_count() == a for iv in cover)
                    for a in range(k)] == search.forced, k
            covers += 1
    assert covers > 100


def test_sdepth_at_least_refuses_k_outside_zero_to_n():
    poset = build_char_poset(MonomialIdeal.whole_ring(5), cycle_ideal(5, 3))
    for k in (-1, 6):
        with pytest.raises(ValueError, match=f"k={k} outside 0..5"):
            sdepth_at_least(poset, k)


def test_attempts_start_from_the_decision_planes(monkeypatch):
    # an attempt that refutes the decision has undone every placement with
    # its carry, so its planes are the decision's again; one cut by the
    # budget leaves the decision's own planes as they were for the next
    # attempt.  Refutations after a placement are rare on real pairs, so
    # this test takes every cover for a dead end: each attempt then
    # backtracks through its whole tree, or until its budget runs out
    visit, attempt = _CoverSearch._visit, _CoverSearch.attempt
    outcomes = {None: 0, BudgetExceeded: 0}

    def no_cover(self, uncovered, walked):
        branch = visit(self, uncovered, walked)
        return -1 if branch is None else branch

    def checked(self, a, stop=None):
        start = bit_planes([c.bit_count() for c in _live_tops(self)])
        assert self.start_planes == start
        try:
            assert attempt(self, a, stop) is None
        except BudgetExceeded:
            assert self.start_planes == start
            outcomes[BudgetExceeded] += 1
            raise
        assert self.planes == start
        outcomes[None] += 1

    monkeypatch.setattr(_CoverSearch, "_visit", no_cover)
    monkeypatch.setattr(_CoverSearch, "attempt", checked)
    for j, i in _random_pairs(60, 13):
        poset = build_char_poset(j, i)
        for k in range(1, j.n + 1):
            search = _CoverSearch(poset, k)
            if not all(_live_tops(search)):
                continue
            for a in range(2):
                try:
                    search.attempt(a, search.nodes + 500)
                except BudgetExceeded:
                    pass
    assert outcomes[None] > 200 and outcomes[BudgetExceeded] > 150


def test_bit_planes_and_least_match_brute_force():
    rng = random.Random(3)
    for _ in range(400):
        top = rng.choice([1, 2, 3, 8, 1000, 1 << 40])
        values = [rng.randrange(top) for _ in range(rng.randint(0, 90))]
        planes = bit_planes(values)
        assert len(planes) == max(values, default=0).bit_length()
        assert all(p >> len(values) == 0 for p in planes)
        for i, v in enumerate(values):
            assert sum((p >> i & 1) << b for b, p in enumerate(planes)) == v
        cand = rng.getrandbits(len(values) + 1) & ((1 << len(values)) - 1)
        members = [i for i in range(len(values)) if cand >> i & 1]
        lowest = min((values[i] for i in members), default=None)
        assert least(cand, planes) == sum(
            1 << i for i in members if values[i] == lowest)
    # dense ranks leave one element, the one of least rank
    rank = list(range(50))
    rng.shuffle(rank)
    planes = bit_planes(rank)
    for _ in range(100):
        cand = rng.getrandbits(50) | 1 << rng.randrange(50)
        best = min((i for i in range(50) if cand >> i & 1), key=rank.__getitem__)
        assert least(cand, planes) == 1 << best


@pytest.mark.parametrize("j, i, budget", [
    (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3), None),
    (line_ideal(8, 1), MonomialIdeal.zero(8), None),
    (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3), 1),
])
def test_decisions_go_through_the_module_and_certify_once(
        monkeypatch, j, i, budget):
    # the benchmark's tracer counts decisions by wrapping the module
    # attribute sdepth_at_least; only the final cover becomes a certificate.
    # The descent decides k = U, U - 1, ... down to the answer, the last
    # only if it is above the smallest size
    calls = {sdepth_at_least: 0, certificate_from: 0}

    def counted(func):
        def wrapper(*args, **kwargs):
            calls[func] += 1
            return func(*args, **kwargs)
        return wrapper

    for func in calls:
        monkeypatch.setattr(f"pathdepth.sdepth.{func.__name__}", counted(func))
    res = stanley_depth(j, i, node_budget=budget)
    poset = build_char_poset(j, i)
    lowest = min(s.bit_count() for s in poset.elements)
    upper = upper_bound(poset)
    assert res.upper == upper
    if budget is None:
        decisions = upper - res.sdepth + (res.sdepth > lowest)
    else:
        # spent inside the first decision, which leaves the all-singletons
        # certificate (test_budget_spent_before_any_decision_gives_the_singletons)
        assert not res.exact and res.sdepth == lowest
        decisions = 1
    assert calls == {sdepth_at_least: decisions, certificate_from: 1}
    assert validate_decomposition(res.certificate, j, i)


@pytest.mark.parametrize("j, i", [
    (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3)),
    (MonomialIdeal.whole_ring(10), cycle_ideal(10, 2)),
    (line_ideal(8, 1), MonomialIdeal.zero(8)),
])
def test_budget_caps_every_attempt(j, i):
    full = stanley_depth(j, i)
    for budget in (1, 7, 30, 60, 100, 150, 250, full.nodes - 1, full.nodes):
        res = stanley_depth(j, i, node_budget=budget)
        assert res.nodes <= budget
        assert res.exact == (full.nodes <= budget), budget
        if res.exact:
            assert (res.sdepth, res.nodes) == (full.sdepth, full.nodes)
        assert validate_decomposition(res.certificate, j, i)


def test_cycle_13_3_is_exact_at_seven():
    # stated only as bounds by the paper (n = 1 mod 4); the default
    # labelling alone leaves "sdepth >= 7" open after millions of nodes
    j, i = MonomialIdeal.whole_ring(13), cycle_ideal(13, 3)
    res = stanley_depth(j, i)
    assert res.exact and res.sdepth == 7
    assert validate_decomposition(res.certificate, j, i)


PROP1_N13 = Path(__file__).with_name("data") / "prop1_n13.json"


def test_prop1_n13_certificate_beats_the_stated_value():
    # the closed form of prop1 states sdepth(J_13,3 / I_13,3) = 7; this
    # interval partition shows it is at least 8
    j, i = cycle_ideal(13, 3), line_ideal(13, 3)
    cert = StanleyCertificate.from_dict(json.loads(PROP1_N13.read_text()), 13)
    assert validate_decomposition(cert, j, i)
    assert cert.claimed_sdepth >= 8


def _is_convex(elements, n):
    """Reference: no mask outside the set lies between two of its elements."""
    return not any(m not in elements
                   and any(divides(s, m) for s in elements)
                   and any(divides(m, t) for t in elements)
                   for m in range(1 << n))


def test_search_index_matches_pair_scan():
    rng = random.Random(11)
    pairs = _random_pairs(10, 5)
    # small pairs of any shape too: every convex set is some J \ I (J its
    # up-closure, I that minus the set), so these stand for them all
    while len(pairs) < 30:
        n = rng.randint(1, 6)
        j = MonomialIdeal(n, tuple(rng.randrange(1 << n)
                                   for _ in range(rng.randint(1, 3))))
        i = MonomialIdeal(n, tuple(rng.choice(j.gens) | rng.randrange(1 << n)
                                   for _ in range(rng.randint(0, 4))))
        if i != j:
            pairs.append((j, i))
    for j, i in pairs:
        poset = build_char_poset(j, i)
        elements = set(poset.elements)
        assert _is_convex(elements, poset.n)
        assert elements == {s for s in range(1 << poset.n)
                            if j.contains(s) and not i.contains(s)}
        for a, s in enumerate(poset.elements):
            assert poset.position[s] == a
            assert poset.up[a] == sum(1 << b for b, t in enumerate(poset.elements)
                                      if divides(s, t))
            assert poset.down[a] == sum(1 << b for b, t in enumerate(poset.elements)
                                        if divides(t, s))
        assert poset.maximal_elements() == sorted(
            s for s in poset.elements
            if not any(t != s and divides(s, t) for t in poset.elements))
        # the live tops of each k: every member of [s,t] in the poset
        for k in range(poset.n + 1):
            low = [s for s in poset.elements if s.bit_count() < k]
            assert _live_tops(_CoverSearch(poset, k)) == [
                sum(1 << b for b, t in enumerate(poset.elements)
                    if t.bit_count() == k and divides(s, t)
                    and all(m in elements for m in Interval(s, t).members()))
                for s in low]


def _list_zeta(values, n, upward):
    """The subset zeta transform as a triple loop over all 2^n masks."""
    for b in range(n):
        bit = 1 << b
        for base in range(0, 1 << n, bit << 1):
            for lo in range(base, base + bit):
                if upward:
                    values[lo] |= values[lo | bit]
                else:
                    values[lo | bit] |= values[lo]
    return values


def _full_lattice_index(poset):
    """Reference: order, position table, levels, up and down from zeta
    transforms over all 2^n masks that carry the elements' bitmaps."""
    n = poset.n
    order = sorted(poset.elements, key=lambda s: (s.bit_count(), monomial_vars(s)))
    levels = [0] * (n + 1)
    own = [0] * (1 << n)
    for a, s in enumerate(order):
        levels[s.bit_count()] |= 1 << a
        own[s] = 1 << a
    above = _list_zeta(own[:], n, upward=True)
    below = _list_zeta(own, n, upward=False)
    position = [-1] * (1 << n)
    for a, s in enumerate(order):
        position[s] = a
    return (order, position, levels,
            [above[s] for s in order], [below[s] for s in order])


@pytest.mark.parametrize("family", ["j2", "j3", "jn2", "max"])
def test_search_index_matches_the_full_lattice_zeta(family):
    for n in range(8, 13):
        poset = build_char_poset(*family_module(family, n))
        assert (poset.elements, poset.position.tolist(), poset.levels,
                poset.up, poset.down) == _full_lattice_index(poset), (family, n)


def test_search_index_keeps_no_bitmap_per_mask():
    # cyc:14:3 has 5071 elements in 2^14 masks: two tables of bitmaps over
    # all masks, one per direction, peaked near 11.8 MB; up and down
    # themselves take about 6 MB
    tracemalloc.start()
    try:
        poset = CharPoset(MonomialIdeal.whole_ring(14), cycle_ideal(14, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poset.elements) == 5071
    assert peak < 9_000_000


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 10, 16, 17, 24])
def test_size_lex_key_orders_like_the_tuple_key(n):
    rng = random.Random(n)
    masks = list(range(1 << n)) if n <= 10 else rng.sample(range(1 << n), 3000)
    for a in range(4):
        images = list(range(1, n + 1))
        random.Random(a).shuffle(images)
        perm = VarPermutation(tuple(images))
        keys = size_lex_keys(masks, images)
        assert keys.dtype == np.int64
        want = sorted(masks, key=lambda s: (s.bit_count(),
                                            monomial_vars(perm.apply(s))))
        assert [masks[b] for b in np.argsort(keys)] == want, a
        # each key is the documented sum over bits
        assert all(key == sum((1 << n) - (1 << (n - images[i]))
                              for i in range(n) if s >> i & 1)
                   for s, key in zip(masks[:300], keys[:300].tolist()))


def _certificate_by_members(poset, intervals, k):
    """Reference: list every member of every interval."""
    covered = set()
    for iv in intervals:
        covered.update(iv.members())
    all_ivs = intervals + [Interval(s, s)
                           for s in sorted(set(poset.elements) - covered)]
    claimed = min((iv.upper.bit_count() for iv in all_ivs), default=k)
    return StanleyCertificate(all_ivs, claimed)


def test_certificate_from_matches_member_enumeration():
    checked = 0
    for j, i in _random_pairs(20, 8):
        poset = build_char_poset(j, i)
        for k in range(1, j.n + 1):
            search = _CoverSearch(poset, k)
            cover = (search.attempt(0) if all(_live_tops(search)) else None) or []
            for used in sorted({0, len(cover) // 2, len(cover)}):
                part = cover[:used]
                got = certificate_from(poset, part, k)
                want = _certificate_by_members(poset, part, k)
                assert (got.intervals, got.claimed_sdepth) == \
                    (want.intervals, want.claimed_sdepth), (k, used)
                checked += bool(used)
    assert checked > 20


def test_budget_spent_before_any_decision_gives_the_singletons():
    j, i = MonomialIdeal.whole_ring(9), cycle_ideal(9, 3)
    poset = build_char_poset(j, i)
    res = stanley_depth(j, i, node_budget=1)
    assert not res.exact and res.nodes == 1
    assert res.sdepth == res.certificate.claimed_sdepth == 0
    assert res.certificate.intervals == [Interval(s, s)
                                         for s in sorted(poset.elements)]
    assert validate_decomposition(res.certificate, j, i)


def test_decision_keeps_no_cube_per_candidate():
    # max:12 has 4095 elements, so each cube is a 4095-bit int: keeping one
    # per candidate tried would peak near 8 MB here
    poset = build_char_poset(line_ideal(12, 1), MonomialIdeal.zero(12))
    tracemalloc.start()
    try:
        cover, _ = sdepth_at_least(poset, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cover is not None
    assert validate_decomposition(certificate_from(poset, cover, 6),
                                  line_ideal(12, 1), MonomialIdeal.zero(12))
    assert peak < 4_000_000


def test_pairs_past_the_table_cap_are_refused():
    n = TABLE_MAX_N + 1
    whole, ideal = MonomialIdeal.whole_ring(n), line_ideal(n, n)
    cert = StanleyCertificate([Interval(0, 0)], 0)
    for call in (lambda: build_char_poset(whole, ideal),
                 lambda: stanley_depth(whole, ideal, node_budget=1),
                 lambda: validate_decomposition(cert, whole, ideal)):
        with pytest.raises(ValueError, match=f"cap {TABLE_MAX_N}"):
            call()


def _validate_by_walk(cert, j_ideal, i_ideal):
    """Reference: the checker as it was before it read module_table, a walk
    over every member against a frozenset of the poset's elements."""
    check_table_n(j_ideal.n)
    try:
        elements = frozenset(build_char_poset(j_ideal, i_ideal).elements)
    except ValueError as exc:
        return ValidationResult(False, f"bad module pair: {exc}")
    seen = set()
    for iv in cert.intervals:
        for m in iv.members():
            if m not in elements:
                return ValidationResult(False, "interval leaves the poset")
            if m in seen:
                return ValidationResult(False, "overlapping intervals")
            seen.add(m)
    if seen != elements:
        return ValidationResult(False, "intervals do not cover the poset")
    if cert.intervals:
        actual = min(iv.upper.bit_count() for iv in cert.intervals)
        if cert.claimed_sdepth != actual:
            return ValidationResult(False, "claimed sdepth differs from min |upper|")
    return ValidationResult(True)


def _mutants(cert, elements, n):
    """Certificates one edit away from a valid one: an interval dropped or
    duplicated, an upper end grown by a variable, a singleton off the
    poset, a mask with bit n set, a negative mask, the claim off by one."""
    ivs, claim = cert.intervals, cert.claimed_sdepth
    grow = next((a for a, iv in enumerate(ivs) if iv.upper != (1 << n) - 1), None)
    outside = next(m for m in range(1 << n) if m not in elements)
    edited = [ivs[1:], ivs + ivs[:1],
              ivs + [Interval(outside, outside)],
              [Interval(ivs[0].lower, ivs[0].upper | 1 << n)] + ivs[1:],
              ivs[:len(ivs) // 2] + [Interval(-1, -1)] + ivs[len(ivs) // 2:]]
    if grow is not None:
        iv = ivs[grow]
        free = (iv.upper + 1) & ~iv.upper  # its lowest clear bit
        edited.append(ivs[:grow] + [Interval(iv.lower, iv.upper | free)]
                      + ivs[grow + 1:])
    return ([StanleyCertificate(e, claim) for e in edited]
            + [StanleyCertificate(ivs, claim + d) for d in (-1, 1)])


def test_validate_matches_the_member_walk():
    reasons = set()
    for j, i in _random_pairs(40, 9):
        cert = stanley_depth(j, i).certificate
        elements = set(build_char_poset(j, i).elements)
        for case in [cert, *_mutants(cert, elements, j.n)]:
            got = validate_decomposition(case, j, i)
            assert (got.ok, got.reason) == astuple(_validate_by_walk(case, j, i))
            reasons.add(got.reason)
        # the pair swapped is no module at all
        got = validate_decomposition(cert, i, j)
        assert (got.ok, got.reason) == astuple(_validate_by_walk(cert, i, j))
        reasons.add(got.reason)
    assert reasons == {None, "interval leaves the poset", "overlapping intervals",
                       "intervals do not cover the poset",
                       "claimed sdepth differs from min |upper|",
                       "bad module pair: I is not contained in J"}


def test_validate_builds_no_char_poset(monkeypatch):
    j, i = MonomialIdeal.whole_ring(9), cycle_ideal(9, 3)
    cert = stanley_depth(j, i).certificate

    def refused(*args):
        raise AssertionError("validate_decomposition built a CharPoset")

    monkeypatch.setattr("pathdepth.sdepth.CharPoset", refused)
    assert validate_decomposition(cert, j, i)
    grown = StanleyCertificate(cert.intervals, cert.claimed_sdepth + 1)
    assert validate_decomposition(grown, j, i).reason == \
        "claimed sdepth differs from min |upper|"
