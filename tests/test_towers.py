"""Colon/sum towers for the cyclic families and their identifications."""

import dataclasses

import pytest

from pathdepth.betti import depth_quotient
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MAX_AMBIENT, MonomialIdeal, monomial
from pathdepth.sdepth import stanley_depth
from pathdepth.towers import (Tower, check_exact_sequence_inequalities,
                              check_tower_identifications, displayed_l0_j3,
                              displayed_l1_j3, displayed_u1_j3, j3_pivots,
                              tower_sequence)


def test_smallest_cycle_tower():
    tower = tower_sequence("j3", 4)
    assert len(tower.steps) == 1
    step = tower.steps[0]
    assert step.pivot == 4
    assert step.lj == MonomialIdeal.from_vars(4, [[1, 2], [2, 3], [3, 1]])
    assert step.uj == MonomialIdeal.from_vars(4, [[1, 2, 3], [4]])
    assert not step.conventions_diverge


def test_five_cycle_tower():
    tower = tower_sequence("j3", 5)
    step = tower.steps[0]
    assert step.pivot == 5
    assert step.lj == MonomialIdeal.from_vars(5, [[3, 4], [4, 1], [1, 2]])
    assert step.uj == MonomialIdeal.from_vars(5, [[1, 2, 3], [2, 3, 4], [5]])


def test_pivot_schedules():
    assert j3_pivots(4) == [4]
    assert j3_pivots(5) == [5]
    assert j3_pivots(8) == [8, 4]
    assert j3_pivots(9) == [9, 3, 6]
    assert j3_pivots(10) == [10, 4, 7]
    assert j3_pivots(12) == [12, 4, 8]
    with pytest.raises(ValueError):
        j3_pivots(3)


def test_tower_steps_are_colon_sum_pairs():
    for family, n in (("j3", 9), ("jn2", 8)):
        tower = tower_sequence(family, n)
        cur = tower.l0
        for step in tower.steps:
            mask = monomial([step.pivot], n)
            assert step.lj == cur.colon(mask)
            assert step.uj == cur.add_generator(mask)
            cur = step.lj


def test_displayed_generator_lists():
    for n in range(6, 12):
        tower = tower_sequence("j3", n)
        assert displayed_l0_j3(n) == tower.l0
        assert displayed_l1_j3(n) == tower.steps[0].lj
        assert displayed_u1_j3(n) == tower.steps[0].uj


def test_identifications_hold_for_j3():
    # n >= 13 runs j3_pivots' general step; n = 13, 17, 21 are the
    # bound-only case n = 1 (mod 4)
    for n in range(4, MAX_AMBIENT + 1):
        result = check_tower_identifications(tower_sequence("j3", n))
        assert result.ok, (n, result.failures)


def test_identifications_hold_for_jn2():
    for n in range(5, MAX_AMBIENT + 1):
        result = check_tower_identifications(tower_sequence("jn2", n))
        assert result.ok, (n, result.failures)


def test_corrupted_tower_is_rejected():
    tower = tower_sequence("j3", 8)
    bad_step = dataclasses.replace(
        tower.steps[1], uj=tower.steps[1].uj.add_generator(monomial([2], 8)))
    bad = Tower("j3", 8, tower.l0, (tower.steps[0], bad_step))
    result = check_tower_identifications(bad)
    assert not result.ok
    assert any("U_2" in f for f in result.failures)


def test_alternate_recursion_diverges_at_eight():
    # (U_1, pivot) and (L_1, pivot) give different second ideals at n = 8
    tower = tower_sequence("j3", 8)
    assert tower.steps[1].conventions_diverge
    assert not tower.steps[0].conventions_diverge


def test_depth_inequalities_along_towers():
    for family, n in (("j3", 6), ("j3", 8), ("j3", 9), ("jn2", 7)):
        tower = tower_sequence(family, n)
        values_l = [depth_quotient(tower.l0)] + \
            [depth_quotient(s.lj) for s in tower.steps]
        values_u = [depth_quotient(s.uj) for s in tower.steps]
        assert check_exact_sequence_inequalities(tower, values_l, values_u,
                                                 "depth")


def test_sdepth_inequalities_along_towers():
    n = 7
    tower = tower_sequence("j3", n)
    s = MonomialIdeal.whole_ring(n)

    def sd(ideal):
        return stanley_depth(s, ideal).sdepth

    values_l = [sd(tower.l0)] + [sd(step.lj) for step in tower.steps]
    values_u = [sd(step.uj) for step in tower.steps]
    assert check_exact_sequence_inequalities(tower, values_l, values_u,
                                             "sdepth")


def test_fabricated_violation_is_caught():
    tower = tower_sequence("j3", 6)
    k = len(tower.steps)
    # middle term smaller than both ends breaks the exact-sequence bound
    values_l = [0] + [5] * k
    values_u = [5] * k
    assert not check_exact_sequence_inequalities(tower, values_l, values_u,
                                                 "sdepth")
    with pytest.raises(ValueError):
        check_exact_sequence_inequalities(tower, [1], [1, 2, 3], "depth")


def test_terminal_matches_expected_cycle_order():
    # after k = ceil(n/4) colon steps the cycle length drops to n - k
    from pathdepth.graphs import cycle_ideal_order
    for n in (8, 9, 10, 11):
        tower = tower_sequence("j3", n)
        k = -(-n // 4)
        assert cycle_ideal_order(tower.terminal) == n - k


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        tower_sequence("nope", 6)
