"""Reduced simplicial homology ranks from boundary-matrix ranks.

Faces are variable-subset bitmasks.  The empty face (mask 0) sits in
dimension -1 and carries the augmentation, so the complex {∅} with no
vertices has H̃_{-1} of rank 1 and a void face list has no homology at
all.  These are the conventions Hochster's formula needs at small
multidegrees.
"""

from __future__ import annotations

import numpy as np

from .linalg import rank_bareiss, rank_mod_p


def _rank(matrix, field) -> int:
    if field.p is None:
        return rank_bareiss(matrix)
    return rank_mod_p(matrix, field.p)


def validate_closed(faces) -> None:
    """Raise if the face list is not closed under taking subsets."""
    face_set = set(faces)
    for f in face_set:
        m = f
        while m:
            low = m & -m
            if f ^ low not in face_set:
                raise ValueError(f"face list not downward closed at {bin(f)}")
            m ^= low


def boundary_matrix(lower: list[int], upper: list[int]) -> np.ndarray:
    """Signed boundary matrix from the cells in upper to those in lower.

    A cell's boundary drops one bit at a time with alternating sign; targets
    absent from lower are left out.
    """
    index = {f: i for i, f in enumerate(lower)}
    mat = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for j, f in enumerate(upper):
        sign = 1
        m = f
        while m:
            low = m & -m
            i = index.get(f ^ low)
            if i is not None:
                mat[i, j] = sign
            sign = -sign
            m ^= low
    return mat


def chain_homology_ranks(cells: dict[int, list[int]], field) -> list[int]:
    """Homology ranks of a chain complex of bitmask cells keyed by bit count.

    Entry s of the result is c_s - r_s - r_{s+1} for s = 0..max(cells),
    where c_s counts the cells of size s and r_s is the rank of the
    boundary map out of them.
    """
    top = max(cells)
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        lower, upper = cells.get(s - 1), cells.get(s)
        if lower and upper:
            ranks[s] = _rank(boundary_matrix(lower, upper), field)
    return [len(cells.get(s, ())) - ranks[s] - ranks[s + 1]
            for s in range(top + 1)]


def reduced_homology_ranks(faces, field, *, check_closed: bool = True) -> dict[int, int]:
    """Ranks of reduced homology H̃_d, d = -1..dim, over the given field."""
    face_list = sorted(set(faces))
    if check_closed:
        validate_closed(face_list)
    if not face_list:
        return {}
    by_size: dict[int, list[int]] = {}
    for f in face_list:
        by_size.setdefault(f.bit_count(), []).append(f)
    if 0 not in by_size:
        # no empty face: treat the input as a void complex
        return {d: 0 for d in range(-1, max(by_size))}
    return {s - 1: h for s, h in enumerate(chain_homology_ranks(by_size, field))}
