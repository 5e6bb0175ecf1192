"""Acceptance suite: one test per verified claim about the two engines.

Each test prints a single summary line on success and is named so the
verbose pytest listing reads as a checklist.  Heavy computations are
cached at module scope and shared between criteria.
"""

import random

from pathdepth.betti import (GF2, depth_quotient, hochster_betti,
                             projective_dimension, taylor_betti)
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MonomialIdeal, VarPermutation, monomial
from pathdepth.oracle import MATCH, expectation, phi, verify_suite
from pathdepth.sdepth import (Interval, StanleyCertificate, build_char_poset,
                              certificate_from, sdepth_at_least,
                              stanley_depth, upper_bound,
                              validate_decomposition)
from pathdepth.towers import (check_exact_sequence_inequalities,
                              check_tower_identifications, displayed_l0_j3,
                              displayed_l1_j3, displayed_u1_j3,
                              tower_sequence)


def ceil_div(a, b):
    return -(-a // b)


_depths = {}


def depth_of(ideal):
    if ideal not in _depths:
        _depths[ideal] = depth_quotient(ideal)
    return _depths[ideal]


_sdepths = {}


def sdepth_of(j_ideal, i_ideal):
    key = (j_ideal, i_ideal)
    if key not in _sdepths:
        res = stanley_depth(j_ideal, i_ideal)
        assert res.exact, key
        assert validate_decomposition(res.certificate, j_ideal, i_ideal), key
        _sdepths[key] = res
    return _sdepths[key].sdepth


def quotient_sdepth(ideal):
    return sdepth_of(MonomialIdeal.whole_ring(ideal.n), ideal)


def test_criterion_01_line_depth_and_sdepth():
    for n in range(3, 13):
        for m in range(2, n + 1):
            want = n + 1 - (n + 1) // (m + 1) - ceil_div(n + 1, m + 1)
            assert depth_of(line_ideal(n, m)) == want, (n, m)
            if n <= 9:
                assert quotient_sdepth(line_ideal(n, m)) == want, (n, m)
    print("CRITERION 1: PASS (line family, depth n<=12, sdepth n<=9)")


def test_criterion_02_cycle_edge_ideals():
    for n in range(3, 13):
        want = ceil_div(n - 1, 3)
        assert depth_of(cycle_ideal(n, 2)) == want, n
    for n in range(3, 10):
        got = quotient_sdepth(cycle_ideal(n, 2))
        want = ceil_div(n - 1, 3)
        if n % 3 == 1:
            assert want <= got <= ceil_div(n, 3), n
        else:
            assert got == want, n
    print("CRITERION 2: PASS (cycle m=2, depth n<=12, sdepth n<=9)")


def test_criterion_03_cycle_length_three():
    for n in range(4, 13):
        got = depth_of(cycle_ideal(n, 3))
        if n % 4 == 1:
            assert got in (phi(n), phi(n) + 1), n
        else:
            assert got == phi(n), n
    for n in range(4, 12):  # stretch range included
        got = quotient_sdepth(cycle_ideal(n, 3))
        if n % 4 in (0, 3):
            assert got == phi(n), n
        else:
            assert got in (phi(n), phi(n) + 1), n
    # anchors: the two smallest cycles
    assert depth_of(cycle_ideal(4, 3)) == 2
    assert quotient_sdepth(cycle_ideal(4, 3)) == 2
    assert depth_of(cycle_ideal(5, 3)) >= 2
    assert quotient_sdepth(cycle_ideal(5, 3)) >= 2
    print("CRITERION 3: PASS (cycle m=3, depth n<=12, sdepth n<=11)")


EXPLICIT_SUBQUOTIENT = {
    4: (3, [([1, 3, 4], [1, 3, 4]), ([1, 2, 4], [1, 2, 4])]),
    5: (3, [([1, 4, 5], [1, 4, 5]), ([1, 2, 5], [1, 2, 5]),
            ([1, 2, 4, 5], [1, 2, 4, 5])]),
    6: (4, [([1, 5, 6], [1, 3, 5, 6]), ([1, 2, 6], [1, 2, 4, 6]),
            ([1, 2, 5, 6], [1, 2, 5, 6])]),
    7: (5, [([1, 6, 7], [1, 3, 4, 6, 7]), ([1, 2, 7], [1, 2, 4, 5, 7]),
            ([1, 2, 6, 7], [1, 2, 4, 6, 7])]),
}


def test_criterion_04_subquotient_sdepth():
    for n in range(4, 11):
        want = n + 1 - n // 4 - ceil_div(n, 4)
        assert sdepth_of(cycle_ideal(n, 3), line_ideal(n, 3)) == want, n
    for n, (claimed, pairs) in EXPLICIT_SUBQUOTIENT.items():
        cert = StanleyCertificate(
            [Interval(monomial(lo, n), monomial(up, n)) for lo, up in pairs],
            claimed)
        assert validate_decomposition(cert, cycle_ideal(n, 3),
                                      line_ideal(n, 3)), n
    print("CRITERION 4: PASS (cycle/line subquotient sdepth, n<=10)")


def test_criterion_05_cycle_length_n_minus_one():
    for n in range(3, 10):
        assert depth_of(cycle_ideal(n, n - 1)) == n - 2, n
        assert quotient_sdepth(cycle_ideal(n, n - 1)) == n - 2, n
    print("CRITERION 5: PASS (cycle m=n-1, n<=9)")


def test_criterion_06_cycle_length_n_minus_two():
    for n in range(5, 10):
        assert n - 3 <= depth_of(cycle_ideal(n, n - 2)) <= n - 2, n
        assert n - 3 <= quotient_sdepth(cycle_ideal(n, n - 2)) <= n - 2, n
    print("CRITERION 6: PASS (cycle m=n-2, n<=9)")


def test_criterion_07_maximal_ideal_sdepth():
    for n in range(2, 10):
        got = sdepth_of(line_ideal(n, 1), MonomialIdeal.zero(n))
        assert got == ceil_div(n, 2), n
    print("CRITERION 7: PASS (maximal ideal sdepth, n<=9)")


def test_criterion_08_independent_betti_oracles():
    for n in range(3, 8):
        for m in range(2, n + 1):
            for ideal in (line_ideal(n, m), cycle_ideal(n, m)):
                assert taylor_betti(ideal) == hochster_betti(ideal), ideal
    rng = random.Random(271828)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 7)
        gens = tuple(rng.randrange(1, 1 << n)
                     for _ in range(rng.randint(1, 6)))
        ideal = MonomialIdeal(n, gens)
        if ideal.is_whole_ring:
            continue
        assert taylor_betti(ideal) == hochster_betti(ideal), ideal
        if checked % 10 == 0:
            assert taylor_betti(ideal, GF2) == hochster_betti(ideal, GF2)
        checked += 1
    print("CRITERION 8: PASS (Betti oracle equivalence, n<=7)")


def test_criterion_09_property_suites():
    # the depth route always satisfies depth + pd = n
    for ideal in list(_depths):
        assert _depths[ideal] + projective_dimension(ideal) == ideal.n
    # colon / sum identities on random triples
    rng = random.Random(314159)
    for _ in range(1000):
        n = rng.randint(1, 7)
        gens = tuple(rng.randrange(0, 1 << n) for _ in range(rng.randint(0, 4)))
        ideal = MonomialIdeal(n, gens)
        u = rng.randrange(0, 1 << n)
        v = rng.randrange(0, 1 << n)
        assert ideal.colon(u).colon(v) == ideal.colon(u | v)
        assert ideal.add_generator(u).colon(u).is_whole_ring
        assert ideal.contains(u) == ideal.colon(u).is_whole_ring
    # every cached sdepth run: certificate already validated on creation;
    # re-check the decision boundary on the smaller instances
    for (j_ideal, i_ideal), res in list(_sdepths.items()):
        if j_ideal.n > 8:
            continue
        poset = build_char_poset(j_ideal, i_ideal)
        cover, _ = sdepth_at_least(poset, res.sdepth)
        assert cover is not None
        assert validate_decomposition(
            certificate_from(poset, cover, res.sdepth), j_ideal, i_ideal)
        if res.sdepth < upper_bound(poset):
            refuted, _ = sdepth_at_least(poset, res.sdepth + 1)
            assert refuted is None, (j_ideal, i_ideal)
    # relabelling the variables never changes either invariant
    rng = random.Random(161803)
    instances = [line_ideal(n, m) for n in range(3, 8)
                 for m in range(2, n + 1)]
    instances += [cycle_ideal(n, m) for n in range(3, 8)
                  for m in range(2, n)]
    for ideal in instances:
        n = ideal.n
        d, s = depth_of(ideal), quotient_sdepth(ideal)
        for _ in range(10):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            moved = ideal.relabel(VarPermutation(tuple(images)))
            assert depth_quotient(moved) == d, (ideal, images)
            assert stanley_depth(MonomialIdeal.whole_ring(n),
                                 moved).sdepth == s, (ideal, images)
    print("CRITERION 9: PASS (property suites)")


def test_criterion_10_towers():
    # smallest cycles: the single-step towers
    t4 = tower_sequence("j3", 4)
    assert t4.steps[0].lj == MonomialIdeal.from_vars(4, [[1, 2], [2, 3], [3, 1]])
    assert t4.steps[0].uj == MonomialIdeal.from_vars(4, [[1, 2, 3], [4]])
    t5 = tower_sequence("j3", 5)
    assert t5.steps[0].lj == MonomialIdeal.from_vars(5, [[3, 4], [4, 1], [1, 2]])
    assert t5.steps[0].uj == MonomialIdeal.from_vars(5, [[1, 2, 3], [2, 3, 4], [5]])
    # displayed generator lists for the general construction
    for n in range(6, 12):
        tower = tower_sequence("j3", n)
        assert displayed_l0_j3(n) == tower.l0, n
        assert displayed_l1_j3(n) == tower.steps[0].lj, n
        assert displayed_u1_j3(n) == tower.steps[0].uj, n
    # structural identifications
    for n in range(4, 12):
        result = check_tower_identifications(tower_sequence("j3", n))
        assert result.ok, (n, result.failures)
    for n in range(5, 10):
        result = check_tower_identifications(tower_sequence("jn2", n))
        assert result.ok, (n, result.failures)
    # short-exact-sequence inequalities on computed values
    for family, n in (("j3", 6), ("j3", 7), ("j3", 8), ("j3", 9),
                      ("jn2", 6), ("jn2", 7)):
        tower = tower_sequence(family, n)
        dl = [depth_of(tower.l0)] + [depth_of(s.lj) for s in tower.steps]
        du = [depth_of(s.uj) for s in tower.steps]
        assert check_exact_sequence_inequalities(tower, dl, du, "depth"), \
            (family, n)
    for n in (6, 7, 8):
        tower = tower_sequence("j3", n)
        sl = [quotient_sdepth(tower.l0)] + \
            [quotient_sdepth(s.lj) for s in tower.steps]
        su = [quotient_sdepth(s.uj) for s in tower.steps]
        assert check_exact_sequence_inequalities(tower, sl, su, "sdepth"), n
    print("CRITERION 10: PASS (tower construction and identifications)")


def test_criterion_11_stanley_inequality_report():
    report = verify_suite("all", 3, 9)
    assert not report.has_violation
    ineq = [r for r in report.rows if r.quantity == "stanley_inequality"]
    assert ineq
    assert all(r.status == MATCH and r.computed >= 0 for r in ineq)
    # the report covers every family with both quantities computed
    assert {r.family for r in ineq} >= {"line", "j2", "j3", "jn1", "jn2"}
    print("CRITERION 11: PASS (sdepth >= depth on criteria 1-6 instances)")
