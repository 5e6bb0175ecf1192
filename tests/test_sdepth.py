"""Stanley depth: characteristic posets, search, certificates, validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MonomialIdeal, VarPermutation, monomial
from pathdepth.sdepth import (BudgetExceeded, CharPoset, Interval,
                              StanleyCertificate, build_char_poset,
                              sdepth_at_least, stanley_depth,
                              validate_decomposition)


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
    assert poset.elements == frozenset({monomial([1, 3, 4], 4),
                                        monomial([1, 2, 4], 4)})


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
    with pytest.raises(ValueError):
        stanley_depth(line_ideal(4, 2), line_ideal(4, 2))


def test_sdepth_at_least_monotone():
    poset = build_char_poset(MonomialIdeal.whole_ring(6), cycle_ideal(6, 3))
    res = stanley_depth(MonomialIdeal.whole_ring(6), cycle_ideal(6, 3))
    for k in range(1, res.sdepth + 1):
        cert, _ = sdepth_at_least(poset, k)
        assert cert is not None
        assert validate_decomposition(cert, MonomialIdeal.whole_ring(6),
                                      cycle_ideal(6, 3))
    cert, _ = sdepth_at_least(poset, res.sdepth + 1)
    assert cert is None


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
    import json
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
