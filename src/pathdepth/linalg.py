"""Exact rank computation for integer matrices.

Two routes: fraction-free integer elimination (Bareiss) for ranks over the
rationals, and modular elimination for ranks over a prime field.  The
Bareiss route runs in int64 while entries stay small and transparently
falls back to arbitrary-precision Python integers if they grow.
"""

from __future__ import annotations

import numpy as np

# entries at or above this could overflow int64 in the next update step;
# rank_mod_p keeps its entries below p, so primes must stay below it too
INT64_SAFE = 1 << 31


def rank_bareiss(matrix) -> int:
    """Rank over the rationals via fraction-free integer elimination."""
    a = np.array(matrix, dtype=np.int64, copy=True)
    if a.ndim != 2 or a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = a[r, c]
        if r + 1 < rows:
            if a.dtype == np.int64:
                m = max(int(np.abs(a[r:]).max()), abs(int(piv)))
                if m >= INT64_SAFE:
                    a = a.astype(object)
            below = a[r + 1:, c].copy()
            a[r + 1:, c + 1:] = (a[r + 1:, c + 1:] * piv
                                 - np.outer(below, a[r, c + 1:])) // prev
            a[r + 1:, c] = 0
        prev = piv
        r += 1
    return r


def rank_mod_p(matrix, p: int) -> int:
    """Rank over GF(p) by modular Gaussian elimination.

    Refuses p >= INT64_SAFE: products of entries below p would overflow
    int64 and the rank would come out silently wrong.
    """
    if p >= INT64_SAFE:
        raise ValueError(f"prime {p} is not below 2^31, so modular rank "
                         "would overflow int64")
    a = np.array(matrix, dtype=np.int64, copy=True) % p
    if a.ndim != 2 or a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        col = a[r + 1:, c]
        sel = np.nonzero(col)[0]
        if sel.size:
            a[r + 1 + sel, c:] = (a[r + 1 + sel, c:]
                                  - np.outer(col[sel], a[r, c:])) % p
        r += 1
    return r
