"""Exact rank of an integer matrix over the rationals or over GF(p).

One fraction-free (Bareiss) elimination serves both fields.  Over the
rationals it runs in int64 while entries stay small and falls back to
arbitrary-precision Python integers if they grow.  Over GF(p) the same
update is taken mod p with no division: every pivot is a unit, so each
step is an invertible row operation, and entries stay below p < 2^31.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ideals import integer

# entries at or above this could overflow int64 in the next update step;
# rank_mod_p keeps its entries below p, so primes must stay below it too
INT64_SAFE = 1 << 31


# typed, so that 2.0 or True is not answered from the entry of 2 or 1;
# trial division at 2^31 - 1 takes milliseconds, too long for each rank call
@lru_cache(maxsize=None, typed=True)
def check_prime(p) -> int:
    """``p`` as an int if GF(p) is a field that rank_mod_p can work in.

    TypeError if p is not an integer; ValueError if it is not prime or not
    below 2^31, where products of entries below p would overflow int64.
    """
    p = integer(p)
    if p >= INT64_SAFE:
        raise ValueError(f"prime {p} is not below 2^31, so modular rank "
                         "would overflow int64")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


def _rank(matrix, p: int | None) -> int:
    """Rank over the rationals (p None) or over GF(p), p from check_prime."""
    a = np.array(matrix, dtype=np.int64, copy=True)
    if a.ndim != 2 or a.size == 0:
        return 0
    if p is not None:
        a %= p
    rows, cols = a.shape
    r, prev = 0, 1
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
        if p is not None:
            # the swap left row i with row r's zero, so these are the rows
            # below with a nonzero entry in column c
            below = r + nz[1:]
        else:
            # every row below, so that the division by prev stays exact
            below = slice(r + 1, None)
            if a.dtype == np.int64 and r + 1 < rows:
                m = max(int(np.abs(a[r:]).max()), abs(int(piv)))
                if m >= INT64_SAFE:
                    a = a.astype(object)
        update = a[below, c:] * piv - np.outer(a[below, c], a[r, c:])
        a[below, c:] = update // prev if p is None else update % p
        prev = piv
        r += 1
    return r


def rank_bareiss(matrix) -> int:
    """Rank over the rationals via fraction-free integer elimination."""
    return _rank(matrix, None)


def rank_mod_p(matrix, p: int) -> int:
    """Rank over GF(p); refuses a p that check_prime refuses."""
    return _rank(matrix, check_prime(p))
