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


def _edge_graph(ideal: MonomialIdeal) -> dict[int, set[int]] | None:
    """Adjacency of the graph whose edges are the generators, keyed by
    vertex bit; None if some generator is not of degree 2."""
    adj: dict[int, set[int]] = {}
    for g in ideal.gens:
        if g.bit_count() != 2:
            return None
        a = g & -g
        b = g ^ a
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def path_ideal_order(ideal: MonomialIdeal) -> int | None:
    """If the degree-2 generators form a simple path, its vertex count.

    Recognises ideals isomorphic (by variable relabelling) to the edge
    ideal of a line graph; returns None otherwise.
    """
    adj = _edge_graph(ideal)
    if not adj or len(ideal.gens) != len(adj) - 1:
        return None
    degs = sorted(len(v) for v in adj.values())
    if degs[:2] != [1, 1] or any(d > 2 for d in degs):
        return None
    # connected: walk from one endpoint
    start = next(v for v, nb in adj.items() if len(nb) == 1)
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        seen.add(cur)
    return len(adj) if len(seen) == len(adj) else None


def cycle_ideal_order(ideal: MonomialIdeal) -> int | None:
    """If the degree-2 generators form a single cycle, its length."""
    adj = _edge_graph(ideal)
    if (not adj or len(ideal.gens) < 3 or len(ideal.gens) != len(adj)
            or any(len(v) != 2 for v in adj.values())):
        return None
    start = next(iter(adj))
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt or nxt[0] in seen:
            break
        prev, cur = cur, nxt[0]
        seen.add(cur)
    return len(adj) if len(seen) == len(adj) else None
