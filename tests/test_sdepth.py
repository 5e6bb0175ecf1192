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
                              bits, check_table_n, divides, monomial,
                              monomial_vars)
from pathdepth.oracle import FAMILIES, ceil_div, family_module, phi
from pathdepth.sdepth import (BudgetExceeded, Interval, SdepthResult,
                              StanleyCertificate, _CoverSearch, bit_planes,
                              build_char_poset, certificate_from,
                              counting_rows, forced_intervals, least, luby,
                              ranked_bits, sdepth_at_least, size_lex_keys,
                              stanley_depth, upper_bound,
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


def test_only_point_intervals_skip_the_divides_check():
    # an interval read from outside is refused unless lower divides upper
    for lower, upper in [(0b10, 0b01), (0b11, 0b01), (0b100, 0)]:
        data = {"sdepth": 1, "intervals": [
            {"lower": list(monomial_vars(0b1)), "upper": [1, 2]},
            {"lower": list(monomial_vars(lower)), "upper": list(monomial_vars(upper))}]}
        with pytest.raises(ValueError, match="lower must divide upper"):
            StanleyCertificate.from_dict(data, 3)


def test_certificate_from_refuses_a_top_of_another_size():
    j, i = MonomialIdeal.whole_ring(6), cycle_ideal(6, 3)
    poset = build_char_poset(j, i)
    cover, _ = sdepth_at_least(poset, 3)
    assert cover
    for k in (2, 4):
        with pytest.raises(ValueError, match=f"no element of size {k}"):
            certificate_from(poset, cover, k)
    outside = Interval(0b111, 0b111)
    assert outside.upper not in poset.elements
    with pytest.raises(ValueError, match="no element of size 3"):
        certificate_from(poset, [outside], 3)


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
# settles every decision inside its first slice.  The n = 13 family rows,
# recorded later, pin them on states of 374 to 2718 bits, against 238 above
RESTARTED_PINS = {
    "cyc:9:3": (MonomialIdeal.whole_ring(9), cycle_ideal(9, 3), 5, 193,
                "ce2849744ba537bc"),
    "max:9": NAMED_PINS["max:9"],
    "j2:13": (*family_module("j2", 13), 5, 653, "2d9e10e42fcceecf"),
    "j3:13": (*family_module("j3", 13), 7, 1825, "5b7dd3a34c1d6dfa"),
    "prop1:13": (*family_module("prop1", 13), 8, 238, "673882df979c540f"),
}

# stanley_depth's own node totals, which descend from upper_bound: on the
# random pairs above, and on the named instances.  The decision that finds
# the answer's cover is the one the walk up made, so sdepth and certificate
# are the pins above
TOP_DOWN_NODES = [6, 11, 14, 7, 9, 3, 7, 8, 7, 5,
                  11, 11, 8, 5, 5, 21, 11, 8, 10, 17]
TOP_DOWN_NAMED_NODES = {"cyc:9:3": 105, "max:9": 70,
                        "j2:13": 480, "j3:13": 714, "prop1:13": 96}


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
    by convexity, every size-k element above s, read off the search's up."""
    tops = search.levels[search.k]
    return [search.up(s) & tops for s in range(search.n_low)]


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


def test_smallest_facet_of_cycle_quotients():
    # a maximal element of P(S/J_{n,m}) is a facet of Delta(J_{n,m}): a
    # maximal cyclic 0/1 word with no run of m ones.  For m = 3 a 0-run is
    # at most 2 long, and a 0 of a run of two could be set unless the 1-run
    # beside it has two ones, so each 0-run is no longer than the 1-run
    # after it and a facet has >= n/2 ones; for m = 2 each 1-run is one 1
    # and each 0-run at most 2 long, so >= n/3 ones.  1010... and
    # 100100... attain ceil(n/2) and ceil(n/3).  At n = 2 (mod 4),
    # ceil(n/2) = phi(n), the stated lower end of sdepth(S/J_{n,3})
    for n in range(4, TABLE_MAX_N + 1):
        for family, least in (("j3", ceil_div(n, 2)), ("j2", ceil_div(n, 3))):
            poset = build_char_poset(*family_module(family, n))
            smallest = min(s.bit_count() for s in poset.maximal_elements())
            assert smallest == least, (family, n)
        if n % 4 == 2:
            assert ceil_div(n, 2) == phi(n)


def _cycle_levels(n, m):
    """The level sizes of P(S/J_{n,m}), m <= n, by runs with no poset: per
    l, the cyclic 0/1 words of length n with l ones and no m cyclically
    consecutive ones.  A word with z >= 1 zeros and one of them marked is
    the marked zero's position and the z runs of ones that follow each
    zero, each below m long, so the words number n/z times the
    compositions of l = n - z into z parts in 0..m-1; the all-ones word
    holds m consecutive ones."""
    sizes, runs = [0] * (n + 1), [1]
    for z in range(1, n + 1):
        # runs[l]: the compositions of l into z parts in 0..m-1
        runs = [sum(runs[max(0, l - m + 1):l + 1])
                for l in range(len(runs) + m - 1)]
        if n - z < len(runs):
            count, rest = divmod(n * runs[n - z], z)
            assert rest == 0, (n, m, z)
            sizes[n - z] = count
    return sizes


def test_run_count_gives_the_levels_of_cycle_quotients():
    for n in range(5, 15):
        for family in ("j2", "j3", "jn1", "jn2"):
            poset = build_char_poset(*family_module(family, n))
            m = FAMILIES[family].row_m(n, None)
            assert poset.sizes == _cycle_levels(n, m), (family, n)


def _jn2_levels(n):
    """The level sizes of P(S/J_{n,n-2}) by counting: every l-subset for
    l < n - 2, the (n - 2)-subsets but the n cyclic windows, nothing above."""
    return [comb(n, l) for l in range(n - 2)] + [comb(n, 2) - n]


def test_counting_caps_jn2_sdepth_at_n_minus_3():
    # on the full binomial levels below n - 2, the counting system at k
    # forces f_a = C(n - k + a - 1, a) intervals of lower size a: at
    # k = n - 2, f_a = a + 1, (n - 1)(n - 2)/2 in all, one more than the
    # n(n - 3)/2 elements of size n - 2; at k = n - 3, f_a = C(a + 2, 2),
    # C(n - 1, 3) in all, fewer than the C(n, 3) elements of size n - 3
    for n in range(5, 15):
        poset = build_char_poset(*family_module("jn2", n))
        sizes = [level.bit_count() for level in poset.levels]
        assert sizes == _jn2_levels(n) + [0, 0], n
    for n in range(5, 301):
        sizes = _jn2_levels(n)
        assert forced_intervals(sizes, n - 2) is None, n
        assert forced_intervals(sizes, n - 3) == [
            comb(a + 2, 2) for a in range(n - 3)], n


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
        live = {i: (self.up(i) & tops & uncovered).bit_count()
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


def test_counting_rows_are_the_alternating_sums():
    # entry a of row k is sum_{l <= a} (-1)^(a - l) C(k - l, a - l) sizes[l],
    # the coefficient of u^a in sum_l sizes[l] u^l (1 - u)^(k - l); its
    # first k entries are forced_intervals unless one of the row is negative
    rng = random.Random(30)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        sizes = [rng.randint(0, comb(n, l)) for l in range(n + 1)]
        for k, row in enumerate(counting_rows(sizes)):
            assert row == [sum((-1) ** (a - l) * comb(k - l, a - l) * sizes[l]
                               for l in range(a + 1))
                           for a in range(k + 1)], (sizes, k)
            covers = min(row) >= 0
            assert forced_intervals(sizes, k) == (row[:k] if covers else None)
            verdicts[covers] += 1
    assert min(verdicts.values()) > 200, verdicts


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


def test_ranked_bits_is_the_sorted_bits():
    # the least-rank bit from the planes, then the rest sorted, equals one
    # sort of every bit, on the empty set, single bits and random sets
    rng = random.Random(5)
    for size in [1, 2, 3, 7, 64, 65, 300] * 20:
        rank = list(range(size))
        rng.shuffle(rank)
        planes = bit_planes(rank)
        for cand in [0, 1 << rng.randrange(size), (1 << size) - 1,
                     rng.getrandbits(size), rng.getrandbits(size) & rng.getrandbits(size)]:
            assert list(ranked_bits(cand, planes, rank.__getitem__)) == sorted(
                bits(cand), key=rank.__getitem__)


def test_relabelled_attempts_try_the_tops_of_a_full_sort(monkeypatch):
    # attempts 1-3 take a state's least-rank live top from the top level's
    # rank planes and sort the rest only once that top fails to fit: every
    # state must try the same tops, in the same order, as when all its live
    # tops are sorted by rank up front, and reach the same covers and nodes
    def recorded(pick, log):
        def tops(cand, planes, rank):
            tried = []
            log.append((cand, tried))
            for t in pick(cand, planes, rank):
                tried.append(t)
                yield t
        return tops

    def sort_all(cand, planes, rank):
        return iter(sorted(bits(cand), key=rank))

    def run(pick, pairs):
        log, outcomes = [], []
        monkeypatch.setattr("pathdepth.sdepth.ranked_bits", recorded(pick, log))
        for j, i in pairs:
            poset = build_char_poset(j, i)
            for k in range(1, j.n + 1):
                search = _CoverSearch(poset, k)
                if not all(_live_tops(search)):
                    continue
                for a in (1, 2, 3):
                    try:
                        outcomes.append(search.attempt(a, search.nodes + 400))
                    except BudgetExceeded:
                        outcomes.append(BudgetExceeded)
                    outcomes.append(search.nodes)
        return log, outcomes

    pairs = _random_pairs(200, 17) + [NAMED_PINS["cyc:9:3"][:2]]
    got, want = run(ranked_bits, pairs), run(sort_all, pairs)
    assert got == want
    log = got[0]
    # the pick alone, and the pick followed by the sorted rest, both occur
    assert sum(len(tried) == 1 for _, tried in log) > 10_000
    assert sum(len(tried) > 1 for _, tried in log) > 150


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


def _index_pairs():
    """The random pairs of _random_pairs(10, 5), then small pairs of any
    shape: every convex set is some J \\ I (J its up-closure, I that minus
    the set), so these stand for them all."""
    rng = random.Random(11)
    pairs = _random_pairs(10, 5)
    while len(pairs) < 30:
        n = rng.randint(1, 6)
        j = MonomialIdeal(n, tuple(rng.randrange(1 << n)
                                   for _ in range(rng.randint(1, 3))))
        i = MonomialIdeal(n, tuple(rng.choice(j.gens) | rng.randrange(1 << n)
                                   for _ in range(rng.randint(0, 4))))
        if i != j:
            pairs.append((j, i))
    return pairs


def _assert_index(poset, k, above, below):
    """Every entry the index of a decision at k holds is the reference's:
    ``above[a]`` and ``below[a]``, the bitmaps over all elements above and
    below element a, cut to the elements of size <= k.  Asks ``up`` of each
    of them, so the memo ends up holding them all.  Returns the decision."""
    search = _CoverSearch(poset, k)
    ranked = sum(m.bit_count() for m in poset.levels[:k + 1])
    prefix = (1 << ranked) - 1
    assert search.prefix == prefix
    assert len(search.has) <= poset.n
    for b in range(poset.n):
        assert (search.has[b] if b < len(search.has) else 0) == sum(
            1 << a for a, s in enumerate(poset.elements[:ranked]) if s >> b & 1)
    base = sum(m.bit_count() for m in poset.levels[:k])
    assert search.down == [below[a] & prefix for a in range(base, ranked)]
    assert [search.up(a) for a in range(ranked)] == \
        [u & prefix for u in above[:ranked]]
    assert search.up_memo == {a: above[a] & prefix for a in range(ranked)}
    return search


def test_search_index_matches_pair_scan():
    for j, i in _index_pairs():
        poset = build_char_poset(j, i)
        elements = set(poset.elements)
        assert _is_convex(elements, poset.n)
        assert elements == {s for s in range(1 << poset.n)
                            if j.contains(s) and not i.contains(s)}
        assert poset.sizes == [m.bit_count() for m in poset.levels] == [
            sum(s.bit_count() == l for s in elements) for l in range(poset.n + 1)]
        above = [sum(1 << b for b, t in enumerate(poset.elements) if divides(s, t))
                 for s in poset.elements]
        below = [sum(1 << b for b, t in enumerate(poset.elements) if divides(t, s))
                 for s in poset.elements]
        assert poset.member == sum(1 << s for s in elements)
        assert poset.maximal_elements() == sorted(
            s for s in poset.elements
            if not any(t != s and divides(s, t) for t in poset.elements))
        # every k in turn on one poset; the live tops of each k: every
        # member of [s,t] in the poset, whose counts the search takes from
        # its superset sum
        for k in range(poset.n + 1):
            search = _assert_index(poset, k, above, below)
            low = [s for s in poset.elements if s.bit_count() < k]
            live = [sum(1 << b for b, t in enumerate(poset.elements)
                        if t.bit_count() == k and divides(s, t)
                        and all(m in elements for m in Interval(s, t).members()))
                    for s in low]
            assert _live_tops(search) == live
            assert search.start_planes == bit_planes([c.bit_count() for c in live])
            assert search.root_dead == (not all(live))
        # the decisions left no search state on the poset, whose only
        # array is the masks of its elements
        assert set(vars(poset)) == {"n", "masks", "elements", "levels", "sizes",
                                    "member"}


def test_level_index_is_the_full_index_on_its_prefix():
    # the index of decision L is the full lattice's restricted to the
    # elements of size <= L
    for j, i in _index_pairs():
        poset = build_char_poset(j, i)
        *_, above, below = _full_lattice_index(poset)
        for level in range(j.n + 1):
            _assert_index(poset, level, above, below)
        # the elements with nothing but themselves above them
        assert poset.maximal_elements() == sorted(
            s for a, s in enumerate(poset.elements) if above[a] == 1 << a)


def test_index_memo_gives_the_covers_of_fresh_posets():
    # decisions for k ascending then descending on one poset: every cover,
    # node count and certificate is that of a fresh poset, so no decision
    # leaves state on the poset that a later one reads
    for j, i in _random_pairs(30, 15) + [NAMED_PINS["cyc:9:3"][:2]]:
        shared = build_char_poset(j, i)
        ks = list(range(j.n + 1))
        for k in ks + ks[::-1]:
            fresh = build_char_poset(j, i)
            got, want = sdepth_at_least(shared, k), sdepth_at_least(fresh, k)
            assert got == want, k
            cover = got[0] or []
            assert _digest(certificate_from(shared, cover, k)) == \
                _digest(certificate_from(fresh, cover, k)), k


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
    """Reference: order, membership bits, levels, up and down from zeta
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
    return (order, sum(1 << s for s in order), levels,
            [above[s] for s in order], [below[s] for s in order])


@pytest.mark.parametrize("family", ["j2", "j3", "jn2", "max"])
def test_search_index_matches_the_full_lattice_zeta(family):
    for n in range(8, 13):
        poset = build_char_poset(*family_module(family, n))
        order, member, levels, above, below = _full_lattice_index(poset)
        assert (poset.elements, poset.member, poset.levels) == \
            (order, member, levels), (family, n)
        for k in range(n + 1):
            _assert_index(poset, k, above, below)


def test_search_index_keeps_no_bitmap_per_mask():
    # jn2:14 (U = 11) has 16,355 elements, 16,278 of them of size <= 11; an
    # up and a down bitmap per element over that prefix, as the restricted
    # zeta built them, took the traced peak of the row to 56 MB.  The down
    # of the 364 tops of size 11 and the up of the elements branched on
    # take it to about 3.3 MB
    j, i = family_module("jn2", 14)
    tracemalloc.start()
    try:
        res = stanley_depth(j, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.sdepth, res.exact, res.nodes) == (11, True, 287)
    assert peak < 10_000_000


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 10, 16, 17, 24, 57])
def test_size_lex_key_orders_like_the_tuple_key(n):
    rng = random.Random(n)
    # the full mask has the largest key, (n - 1)·2^n + 1
    masks = list(range(1 << n)) if n <= 10 else \
        [(1 << n) - 1, *rng.sample(range(1 << n), 3000)]
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
    # full covers and the empty one give the reference's certificate; a
    # half cover, a repeated top and a top off the poset are refused, the
    # repeated top also where the element count of the cover still holds
    checked = refused = 0
    for j, i in _random_pairs(20, 8):
        poset = build_char_poset(j, i)
        for k in range(1, j.n + 1):
            search = _CoverSearch(poset, k)
            cover = (search.attempt(0) if all(_live_tops(search)) else None) or []
            for part in ([], cover):
                got = certificate_from(poset, part, k)
                want = _certificate_by_members(poset, part, k)
                assert (got.intervals, got.claimed_sdepth) == \
                    (want.intervals, want.claimed_sdepth), (k, len(part))
            if not cover:
                continue
            checked += 1
            if len(cover) > 1:
                with pytest.raises(ValueError, match=f"elements of size < {k}"):
                    certificate_from(poset, cover[:len(cover) // 2], k)
                refused += 1
            top = cover[0].upper
            for extra in (cover[-1], Interval(top, top)):
                with pytest.raises(ValueError, match="share a top"):
                    certificate_from(poset, cover + [extra], k)
            outside = next((m for m in range(1 << j.n) if m.bit_count() == k
                            and not poset.member >> m & 1), None)
            if outside is not None:
                with pytest.raises(ValueError, match=f"no element of size {k}"):
                    certificate_from(poset, cover[:-1] + [Interval(outside, outside)], k)
                refused += 1
    assert checked > 20 and refused > 20


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


def test_max14_keeps_its_index_to_the_levels_it_decides():
    # max:14 decides only k = U = 7, so the index covers the 9907 elements
    # of size <= 7 of its 16383: the traced peak is about 30 MB with the
    # level-7 index and 66.2 MB with one over the whole poset
    j, i = line_ideal(14, 1), MonomialIdeal.zero(14)
    tracemalloc.start()
    try:
        res = stanley_depth(j, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.sdepth, res.exact) == (7, True)
    assert peak < 45_000_000


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
        if not divides(iv.lower, iv.upper):
            return ValidationResult(False, "interval lower does not divide upper")
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
    poset, a mask with bit n set, a negative mask, an interval whose lower
    end does not divide its upper end (Interval does not check), the claim
    off by one."""
    ivs, claim = cert.intervals, cert.claimed_sdepth
    grow = next((a for a, iv in enumerate(ivs) if iv.upper != (1 << n) - 1), None)
    outside = next(m for m in range(1 << n) if m not in elements)
    edited = [ivs[1:], ivs + ivs[:1],
              ivs + [Interval(outside, outside)],
              [Interval(ivs[0].lower, ivs[0].upper | 1 << n)] + ivs[1:],
              ivs[:len(ivs) // 2] + [Interval(-1, -1)] + ivs[len(ivs) // 2:],
              [Interval(0b10, 0b01)] + ivs, ivs + [Interval(0b100, 0)]]
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
                       "interval lower does not divide upper",
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
