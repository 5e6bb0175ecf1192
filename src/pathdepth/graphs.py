"""Path ideals of the n-line graph and the n-cyclic graph.

The path ideal of length m collects the products of the vertices along
every path on m consecutive vertices.  For the cyclic graph the m-windows
wrap around, giving n generators before minimalisation.
"""

from __future__ import annotations

from .ideals import MonomialIdeal, monomial


def line_ideal(n: int, m: int) -> MonomialIdeal:
    """Ideal generated by x_i···x_{i+m-1} for i = 1..n-m+1."""
    if not 1 <= m <= n:
        raise ValueError(f"path length m={m} must satisfy 1 <= m <= n={n}")
    gens = [monomial(range(i, i + m), n) for i in range(1, n - m + 2)]
    return MonomialIdeal(n, tuple(gens))


def cycle_ideal(n: int, m: int) -> MonomialIdeal:
    """Ideal generated by the n cyclic windows of m consecutive vertices."""
    if n < 3:
        raise ValueError(f"cyclic graph needs n >= 3, got n={n}")
    if not 2 <= m <= n:
        raise ValueError(f"path length m={m} must satisfy 2 <= m <= n={n}")
    gens = [cycle_window(n, i, m) for i in range(1, n + 1)]
    return MonomialIdeal(n, tuple(gens))


def cycle_window(n: int, start: int, m: int = 3) -> int:
    """Bitmask of x_start x_{start+1} ... (indices mod n), the window u_start."""
    return monomial(((start + j - 1) % n + 1 for j in range(m)), n)

