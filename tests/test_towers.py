"""Colon/sum towers for the cyclic families and their identifications."""

import dataclasses

import pytest

from pathdepth.betti import depth_quotient
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.ideals import MAX_AMBIENT, MonomialIdeal, monomial
from pathdepth.sdepth import stanley_depth
from pathdepth.towers import (Tower, TowerStep, check_exact_sequence_inequalities,
                              check_tower_identifications, displayed_l0_j3,
                              displayed_l1_j3, displayed_u1_j3, expected_v_w,
                              j3_pivots, tower_sequence)


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
    assert j3_pivots(6) == [6, 3]
    assert j3_pivots(7) == [7, 4]
    assert j3_pivots(11) == [11, 4, 8]
    assert j3_pivots(13) == [13, 4, 7, 10]
    assert j3_pivots(14) == [14, 4, 8, 11]
    assert j3_pivots(17) == [17, 4, 8, 11, 14]
    assert j3_pivots(21) == [21, 4, 8, 12, 15, 18]
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


def _tower_on(family, n, pivots):
    """The colon/sum tower of a family on a given pivot schedule."""
    l0 = tower_sequence(family, n).l0
    steps, cur = [], l0
    for j, pivot in enumerate(pivots, start=1):
        mask = monomial([pivot], n)
        steps.append(TowerStep(j, pivot, cur.colon(mask), cur.add_generator(mask)))
        cur = steps[-1].lj
    return Tower(family, n, l0, tuple(steps))


@pytest.mark.parametrize("n, pivots, failures", [
    (9, [9, 4, 8], ["terminal L_k is not a cycle ideal J_{6,2}",
                    "U_3 != (x_8) + V_3 + W_3"]),
    (13, [13, 4, 8, 12], ["terminal L_k is not a cycle ideal J_{9,2}",
                          "U_4 != (x_12) + V_4 + W_4"]),
    (14, [14, 4, 8, 12], ["terminal L_k is not a cycle ideal J_{10,2}"]),
])
def test_wrong_pivot_schedule_is_rejected(n, pivots, failures):
    # the n = 0 (mod 4) schedule, run where the last pivots move down
    result = check_tower_identifications(_tower_on("j3", n, pivots))
    assert result.failures == failures


@pytest.mark.parametrize("family, n, pivots, failure", [
    ("j3", 9, [9, 3, 6, 2], "tower has 4 steps, its schedule 3"),
    ("j3", 9, [], "tower has 0 steps, its schedule 3"),
    ("jn2", 7, [7, 6], "tower has 2 steps, its schedule 3"),
], ids=["j3-extra-step", "j3-no-steps", "jn2-step-short"])
def test_tower_of_wrong_length_is_rejected(family, n, pivots, failure):
    result = check_tower_identifications(_tower_on(family, n, pivots))
    assert not result.ok and result.failures == [failure]


def test_only_three_perturbed_schedules_pass():
    # every +-1, +-2 move of one pivot of the j3 schedule, n = 6..18
    tried, passing = 0, []
    for n in range(6, 19):
        for i, pivot in enumerate(j3_pivots(n)):
            for moved in range(max(pivot - 2, 1), min(pivot + 2, n) + 1):
                if moved == pivot:
                    continue
                pivots = j3_pivots(n)
                pivots[i] = moved
                tried += 1
                if check_tower_identifications(_tower_on("j3", n, pivots)).ok:
                    passing.append((n, pivots))
    assert tried == 150
    assert passing == [(7, [7, 3]), (11, [11, 4, 7]), (15, [15, 4, 8, 11])]


def _reference_v_w(n, step):
    """V and W of U_step as the wrap trio and blocks of the proof: the
    construction expected_v_w used before it read them off the pivots."""
    def cycle_window(n, start):  # u_start = x_start x_{start+1} x_{start+2}, mod n
        window = 0b111 << (start - 1)
        return (window | window >> n) & ((1 << n) - 1)

    def wrap_trio(n):
        xn = 1 << (n - 1)
        return [cycle_window(n, i) & ~xn for i in (n - 2, n - 1, n)]

    def block(n, t):
        x4t = 1 << (4 * t - 1)
        return [cycle_window(n, i) & ~x4t for i in (4 * t - 2, 4 * t - 1, 4 * t)]

    k = -(-n // 4)
    t = n - 4 * step + 2 + (n % 4 == 1 and step == k - 1)
    w = [cycle_window(n, i) for i in range(n - t - 1, n - 3)]
    if n % 4 == 1 and step == k:
        v = wrap_trio(n) + [g for j in range(1, k - 2) for g in block(n, j)]
        x = 1 << (4 * (k - 2) - 2)  # x_{4(k-2)-1}
        v += [cycle_window(n, i) & ~x for i in (4 * (k - 2) - 2, 4 * (k - 2) - 1)]
        return v, w
    v = wrap_trio(n) + [g for j in range(1, step - 1) for g in block(n, j)]
    return v, w


def test_v_and_w_match_the_wrap_trio_and_blocks():
    for n in range(6, 201):
        for step in range(2, len(j3_pivots(n)) + 1):
            v, w = expected_v_w(n, step)
            want_v, want_w = _reference_v_w(n, step)
            assert (set(v), set(w)) == (set(want_v), set(want_w)), (n, step)
            assert len(v) == len(set(v)) and len(w) == len(set(w)), (n, step)


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


def test_unknown_quantity_is_refused():
    # a misspelt "depth" must not skip the depth companion bounds
    tower = tower_sequence("j3", 6)
    assert not check_exact_sequence_inequalities(tower, [3, 3, 9], [1, 1],
                                                 "depth")
    with pytest.raises(ValueError):
        check_exact_sequence_inequalities(tower, [3, 3, 9], [1, 1], "Depth")


def test_terminal_matches_expected_cycle_order():
    # after k = ceil(n/4) colon steps L_k is the cycle J_{n-k,2} on the
    # n - k variables no pivot takes, in cyclic order from x_{n-2}
    for n in (8, 9, 10, 11):
        tower = tower_sequence("j3", n)
        pivots = {step.pivot for step in tower.steps}
        left = [v for v in (*range(n - 2, n + 1), *range(1, n - 2))
                if v not in pivots]
        assert len(left) == n - -(-n // 4)
        edges = zip(left, left[1:] + left[:1])
        assert tower.terminal == MonomialIdeal.from_vars(n, edges)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        tower_sequence("nope", 6)
