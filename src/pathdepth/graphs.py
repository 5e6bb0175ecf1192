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


def _connected_order(ideal: MonomialIdeal, missing_edges: int) -> int | None:
    """V if the generators are the E = V - ``missing_edges`` edges of a
    connected graph on V vertices of maximum degree 2; None otherwise.

    Such a graph is a path when E = V - 1 and a cycle when E = V.
    """
    adj: dict[int, set[int]] = {}
    for g in ideal.gens:
        if g.bit_count() != 2:
            return None
        a = g & -g
        b = g ^ a
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if (not adj or len(ideal.gens) != len(adj) - missing_edges
            or any(len(nb) > 2 for nb in adj.values())):
        return None
    seen, todo = set(), [next(iter(adj))]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(adj[v])
    return len(adj) if len(seen) == len(adj) else None


def path_ideal_order(ideal: MonomialIdeal) -> int | None:
    """If the degree-2 generators form a simple path, its vertex count.

    Recognises ideals isomorphic (by variable relabelling) to the edge
    ideal of a line graph; returns None otherwise.
    """
    return _connected_order(ideal, 1)


def cycle_ideal_order(ideal: MonomialIdeal) -> int | None:
    """If the degree-2 generators form a single cycle, its length."""
    return _connected_order(ideal, 0)
