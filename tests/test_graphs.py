"""Path ideal constructors for line and cyclic graphs."""

import pytest

from pathdepth.graphs import cycle_ideal, cycle_window, line_ideal
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
        rotation = VarPermutation((*range(2, n + 1), 1))
        assert ideal.relabel(rotation) == ideal
        assert ideal.relabel(VarPermutation(tuple(range(n, 0, -1)))) == ideal


def test_line_ideal_reflection_invariant():
    for n in (4, 5, 6):
        for m in (2, 3):
            ideal = line_ideal(n, m)
            assert ideal.relabel(VarPermutation(tuple(range(n, 0, -1)))) == ideal

