"""Monomial/ideal arithmetic: examples plus algebraic property tests."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathdepth.ideals import (MAX_AMBIENT, TABLE_MAX_N, MonomialIdeal,
                              VarPermutation, bits, divides, minimalize,
                              monomial, monomial_vars, subsets, zeta)


def test_monomial_round_trip():
    m = monomial([1, 3, 4], 6)
    assert m == 0b001101
    assert monomial_vars(m) == (1, 3, 4)
    assert monomial([], 6) == 0


def test_monomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        monomial([0], 4)
    with pytest.raises(ValueError):
        monomial([5], 4)


def test_divides_is_inclusion():
    assert divides(0b0101, 0b1101)
    assert not divides(0b0101, 0b1001)
    assert divides(0, 0b111)


def test_generators_are_minimalized():
    ideal = MonomialIdeal.from_vars(4, [[1, 2], [1, 2, 3], [3, 4]])
    assert ideal.gens == (monomial([1, 2], 4), monomial([3, 4], 4))


def test_unit_generator_collapses_to_whole_ring():
    ideal = MonomialIdeal.from_vars(3, [[1], []])
    assert ideal.is_whole_ring
    assert ideal.gens == (0,)


def test_zero_and_whole_ring_predicates():
    z = MonomialIdeal.zero(5)
    s = MonomialIdeal.whole_ring(5)
    assert z.is_zero and z.is_proper and not z.contains(0b1)
    assert s.is_whole_ring and not s.is_proper and s.contains(0)


def test_ambient_bounds():
    with pytest.raises(ValueError):
        MonomialIdeal.zero(0)
    with pytest.raises(ValueError):
        MonomialIdeal.zero(MAX_AMBIENT + 1)


def test_colon_example_cycle():
    # (x1x2x3, x2x3x4, x3x4x1, x4x1x2) : x4  =  (x1x2, x2x3, x3x1)
    j = MonomialIdeal.from_vars(4, [[1, 2, 3], [2, 3, 4], [3, 4, 1], [4, 1, 2]])
    got = j.colon(monomial([4], 4))
    want = MonomialIdeal.from_vars(4, [[1, 2], [2, 3], [3, 1]])
    assert got == want


def test_add_generator_minimalizes():
    i = MonomialIdeal.from_vars(4, [[1, 2, 3]])
    bigger = i.add_generator(monomial([1, 2], 4))
    assert bigger.gens == (monomial([1, 2], 4),)


def test_str_forms():
    assert "x1*x2" in str(MonomialIdeal.from_vars(3, [[1, 2]]))
    assert str(MonomialIdeal.zero(3)).startswith("(0)")


def test_json_round_trip():
    ideal = MonomialIdeal.from_vars(5, [[1, 2, 3], [3, 4, 5]])
    again = MonomialIdeal.from_json(ideal.to_json())
    assert again == ideal
    assert json.loads(ideal.to_json())["n"] == 5


def test_permutation_validation_and_basics():
    with pytest.raises(ValueError):
        VarPermutation((1, 1, 3))
    rot = VarPermutation.rotation(4)
    assert rot.apply(monomial([4], 4)) == monomial([1], 4)
    refl = VarPermutation.reflection(4)
    assert refl.apply(monomial([1, 2], 4)) == monomial([3, 4], 4)


def test_relabel_requires_matching_size():
    ideal = MonomialIdeal.from_vars(4, [[1, 2]])
    with pytest.raises(ValueError):
        ideal.relabel(VarPermutation.identity(5))


# -- property tests -----------------------------------------------------

ns = st.integers(min_value=1, max_value=7)


@st.composite
def ideals(draw, min_n=1, max_n=7, max_gens=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    gens = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         max_size=max_gens))
    return MonomialIdeal(n, tuple(gens))


@st.composite
def ideal_and_monomials(draw):
    ideal = draw(ideals())
    u = draw(st.integers(min_value=0, max_value=(1 << ideal.n) - 1))
    v = draw(st.integers(min_value=0, max_value=(1 << ideal.n) - 1))
    return ideal, u, v


@given(ideal_and_monomials())
@settings(max_examples=200)
def test_colon_composes(data):
    ideal, u, v = data
    assert ideal.colon(u).colon(v) == ideal.colon(u | v)


@given(ideal_and_monomials())
@settings(max_examples=200)
def test_membership_matches_colon(data):
    ideal, u, _ = data
    assert ideal.contains(u) == ideal.colon(u).is_whole_ring


@given(ideal_and_monomials())
@settings(max_examples=200)
def test_sum_then_colon_absorbs(data):
    ideal, u, _ = data
    assert ideal.add_generator(u).colon(u).is_whole_ring


@given(ideals())
def test_minimalize_idempotent(ideal):
    assert minimalize(ideal.gens, ideal.n) == ideal


@given(ideals())
def test_gens_form_antichain(ideal):
    for g in ideal.gens:
        for h in ideal.gens:
            assert g == h or not divides(g, h)


@st.composite
def permutations(draw, n):
    images = draw(st.permutations(list(range(1, n + 1))))
    return VarPermutation(tuple(images))


@given(st.data())
@settings(max_examples=100)
def test_relabel_respects_composition(data):
    ideal = data.draw(ideals(min_n=2))
    p = data.draw(permutations(ideal.n))
    q = data.draw(permutations(ideal.n))
    assert ideal.relabel(q).relabel(p) == ideal.relabel(p.after(q))


@given(st.data())
@settings(max_examples=100)
def test_relabel_commutes_with_colon(data):
    ideal = data.draw(ideals(min_n=2))
    p = data.draw(permutations(ideal.n))
    u = data.draw(st.integers(min_value=0, max_value=(1 << ideal.n) - 1))
    assert ideal.colon(u).relabel(p) == ideal.relabel(p).colon(p.apply(u))


def test_bits_and_subsets_match_brute_force():
    n = 7
    for mask in range(1 << n):
        assert list(bits(mask)) == [i for i in range(n) if mask >> i & 1]
        below = [s for s in range(1 << n) if divides(s, mask)]
        assert list(subsets(mask)) == below
    wide = (1 << (MAX_AMBIENT - 1)) | 0b1011
    assert list(bits(wide)) == [0, 1, 3, MAX_AMBIENT - 1]


def test_zeta_matches_brute_force():
    rng = random.Random(3)
    for n in range(1, 9):
        ints = np.array([rng.getrandbits(8) if rng.random() < 0.3 else 0
                         for _ in range(1 << n)], dtype=np.int64)
        for values in (ints, ints % 3 == 0):
            down = zeta(values.copy(), n)
            assert down.dtype == values.dtype
            for s in range(1 << n):
                below = values.dtype.type(0)
                for t in range(1 << n):
                    if divides(t, s):
                        below |= values[t]
                assert down[s] == below, (n, values.dtype, s)


def _table_ideals():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 6))]
        yield MonomialIdeal(n, tuple(g for g in gens if g))
    for n in (1, 5):
        yield MonomialIdeal.zero(n)
        yield MonomialIdeal.whole_ring(n)


def test_tables_agree_with_contains_and_generators():
    for ideal in _table_ideals():
        members = ideal.member_table()
        lcm = ideal.lcm_table()
        for s in range(1 << ideal.n):
            assert members[s] == ideal.contains(s)
            expected = 0
            for g in ideal.gens:
                if divides(g, s):
                    expected |= g
            assert lcm[s] == expected


def test_tables_stop_at_the_cap_but_contains_does_not():
    n = TABLE_MAX_N + 1
    for ideal in (MonomialIdeal.whole_ring(n), MonomialIdeal(n, (0b11,))):
        with pytest.raises(ValueError, match=f"cap {TABLE_MAX_N}"):
            ideal.member_table()
        with pytest.raises(ValueError, match=f"cap {TABLE_MAX_N}"):
            ideal.lcm_table()
    wide = MonomialIdeal(MAX_AMBIENT, (0b11,))
    assert wide.contains((1 << MAX_AMBIENT) - 1)
    assert not wide.contains(1 << (MAX_AMBIENT - 1))


def test_zero_ideal_table_skips_the_zeta_and_keeps_the_cap(monkeypatch):
    # the lcm-derived table of the zero ideal is all zeros; the short cut
    # must give the same table without a zeta pass, and still refuse past
    # the cap
    wanted = {n: [lcm != 0 for lcm in MonomialIdeal.zero(n).lcm_table()]
              for n in range(1, 11)}

    def no_zeta(*args, **kwargs):
        raise AssertionError("zeta pass over the zero ideal")

    monkeypatch.setattr("pathdepth.ideals.zeta", no_zeta)
    for n, table in wanted.items():
        assert MonomialIdeal.zero(n).member_table().tolist() == table == [False] * (1 << n)
    with pytest.raises(ValueError, match=f"cap {TABLE_MAX_N}"):
        MonomialIdeal.zero(TABLE_MAX_N + 1).member_table()
