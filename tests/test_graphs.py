"""Path ideal constructors for line and cyclic graphs."""

import itertools

import pytest

from pathdepth.graphs import (cycle_ideal, cycle_ideal_order, cycle_window,
                              line_ideal, path_ideal_order)
from pathdepth.ideals import MonomialIdeal, VarPermutation, monomial


def test_line_ideal_windows():
    ideal = line_ideal(5, 3)
    want = MonomialIdeal.from_vars(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert ideal == want


def test_line_ideal_extremes():
    assert line_ideal(4, 1) == MonomialIdeal.from_vars(4, [[1], [2], [3], [4]])
    assert line_ideal(4, 4) == MonomialIdeal.from_vars(4, [[1, 2, 3, 4]])


def test_line_ideal_range_errors():
    with pytest.raises(ValueError):
        line_ideal(4, 0)
    with pytest.raises(ValueError):
        line_ideal(4, 5)


def test_cycle_ideal_wraps():
    ideal = cycle_ideal(4, 3)
    want = MonomialIdeal.from_vars(4, [[1, 2, 3], [2, 3, 4], [3, 4, 1], [4, 1, 2]])
    assert ideal == want


def test_cycle_ideal_generator_count():
    for n in range(3, 9):
        for m in range(2, n):
            assert len(cycle_ideal(n, m).gens) == n


def test_cycle_ideal_full_window_collapses():
    # all n windows of length n coincide with the full product
    assert cycle_ideal(5, 5) == MonomialIdeal.from_vars(5, [[1, 2, 3, 4, 5]])


def test_cycle_ideal_range_errors():
    with pytest.raises(ValueError):
        cycle_ideal(2, 2)
    with pytest.raises(ValueError):
        cycle_ideal(5, 1)
    with pytest.raises(ValueError):
        cycle_ideal(5, 6)


def test_cycle_window_wraps():
    assert cycle_window(5, 4) == monomial([4, 5, 1], 5)
    assert cycle_window(5, 5) == monomial([5, 1, 2], 5)


def test_cycle_ideal_rotation_invariant():
    for n in (4, 5, 6, 7):
        ideal = cycle_ideal(n, 3)
        assert ideal.relabel(VarPermutation.rotation(n)) == ideal
        assert ideal.relabel(VarPermutation.reflection(n)) == ideal


def test_line_ideal_reflection_invariant():
    for n in (4, 5, 6):
        for m in (2, 3):
            ideal = line_ideal(n, m)
            assert ideal.relabel(VarPermutation.reflection(n)) == ideal


def test_path_ideal_order_detects_paths():
    assert path_ideal_order(line_ideal(6, 2)) == 6
    # relabelled path still recognised
    scrambled = line_ideal(5, 2).relabel(VarPermutation((3, 1, 5, 2, 4)))
    assert path_ideal_order(scrambled) == 5


def test_path_ideal_order_rejects_non_paths():
    assert path_ideal_order(cycle_ideal(5, 2)) is None
    assert path_ideal_order(line_ideal(5, 3)) is None
    assert path_ideal_order(MonomialIdeal.zero(4)) is None
    # disjoint edges are not a single path
    two_edges = MonomialIdeal.from_vars(4, [[1, 2], [3, 4]])
    assert path_ideal_order(two_edges) is None


def test_cycle_ideal_order_detects_cycles():
    for n in (3, 4, 6, 8):
        assert cycle_ideal_order(cycle_ideal(n, 2)) == n
    scrambled = cycle_ideal(6, 2).relabel(VarPermutation((4, 2, 6, 1, 5, 3)))
    assert cycle_ideal_order(scrambled) == 6


def test_cycle_ideal_order_rejects_non_cycles():
    assert cycle_ideal_order(line_ideal(5, 2)) is None
    assert cycle_ideal_order(cycle_ideal(5, 3)) is None
    # two disjoint triangles are not a single cycle
    six = MonomialIdeal.from_vars(6, [[1, 2], [2, 3], [3, 1],
                                      [4, 5], [5, 6], [6, 4]])
    assert cycle_ideal_order(six) is None


def _walks(n):
    """Edge sets of every path and every cycle on vertices of 0..n-1, as
    frozensets of edge bitmasks mapped to their vertex count: listed by
    brute force over vertex orders."""
    paths, cycles = {}, {}
    for size in range(2, n + 1):
        for order in itertools.permutations(range(n), size):
            edges = [(1 << a) | (1 << b) for a, b in zip(order, order[1:])]
            paths[frozenset(edges)] = size
            if size >= 3:
                cycles[frozenset(edges + [(1 << order[0]) | (1 << order[-1])])] = size
    return paths, cycles


def test_recognisers_match_brute_force_on_six_vertices():
    # every edge set of K_6, so every graph on at most six vertices
    n = 6
    paths, cycles = _walks(n)
    pairs = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(n), 2)]
    for chosen in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if chosen >> i & 1]
        ideal = MonomialIdeal(n, tuple(edges))
        assert path_ideal_order(ideal) == paths.get(frozenset(edges)), edges
        assert cycle_ideal_order(ideal) == cycles.get(frozenset(edges)), edges
