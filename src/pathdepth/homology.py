"""Reduced simplicial homology ranks from boundary-matrix ranks.

Faces are variable-subset bitmasks.  The empty face (mask 0) sits in
dimension -1 and carries the augmentation, so the complex {∅} with no
vertices has H̃_{-1} of rank 1 and a void face list has no homology at
all.  These are the conventions Hochster's formula needs at small
multidegrees.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from .ideals import bits
from .linalg import rank_bareiss, rank_mod_p


def _rank(matrix, field) -> int:
    if field.p is None:
        return rank_bareiss(matrix)
    return rank_mod_p(matrix, field.p)


def boundary_matrix(lower: list[int], upper: list[int]) -> np.ndarray:
    """Signed boundary matrix from the cells in upper to those in lower.

    A cell's boundary drops one bit at a time with alternating sign; targets
    absent from lower are left out.
    """
    index = {f: i for i, f in enumerate(lower)}
    mat = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for j, f in enumerate(upper):
        sign = 1
        for b in bits(f):
            i = index.get(f ^ 1 << b)
            if i is not None:
                mat[i, j] = sign
            sign = -sign
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


def _pair_off(start: list[int], alive: bytearray, vertices: list[int]) -> None:
    """Remove reducible cells from alive (indexed by face mask), testing
    the live cells of start and then every cell queued again.

    A cell with exactly one facet left (a coreduction) or exactly one
    cofacet left (a free face) goes together with that partner, and the
    live neighbours of both are queued again, each at most once at a time.
    """
    work = deque(f for f in start if alive[f])
    queued = bytearray(len(alive))
    for f in work:
        queued[f] = 1
    while work:
        c = work.popleft()
        queued[c] = 0
        if not alive[c]:
            continue
        near = [x for x in [c ^ v for v in vertices] if alive[x]]
        down = [x for x in near if x < c]
        if len(down) == 1:
            partner = down[0]
        elif len(near) - len(down) == 1:
            partner = max(near)
        else:
            continue
        alive[c] = alive[partner] = 0
        for x in near + [partner ^ v for v in vertices]:
            if alive[x] and not queued[x]:
                queued[x] = 1
                work.append(x)


def _star_cover(vertices: list[int],
                nonfaces: Sequence[int] | None) -> list[int]:
    """W, a set of vertices no two of which lie in one of the non-faces.

    Vertices are taken greedily, lowest first, each skipped if a non-face
    holds it and a vertex already taken.  With no non-faces given, W is
    the lowest vertex alone.
    """
    if nonfaces is None:
        return vertices[:1]
    cover, blocked = [], 0
    for v in vertices:
        if not v & blocked:
            cover.append(v)
            for g in nonfaces:
                if g & v:
                    blocked |= g
    return cover


def reduce_faces(faces: list[int] | np.ndarray,
                 nonfaces: Sequence[int] | None = None) -> dict[int, list[int]]:
    """Cells of a complex left after a star collapse, coreductions and
    free-face collapses, keyed by bit count.

    faces is a face list as reduced_homology_ranks takes it; one that does
    not strictly ascend from the empty face is refused.  nonfaces, when
    given, are non-faces of the complex such that every non-face contains
    one of them, its minimal non-faces say.  One numpy step first removes
    the union U of the closed stars st(w) over a set W of vertices no two of
    which lie in one of them, taken greedily lowest first (_star_cover;
    without non-faces W is the lowest vertex): every face τ with τ ∪ w a
    face for some w in W.  For W' ⊆ W the stars' intersection is
    {τ : τ ∪ W' a face}, since one of the non-faces inside τ ∪ W' would
    meet W' in at most one vertex w and so lie inside the face τ ∪ w.  So
    every such intersection is a cone, the nerve theorem (Björner,
    Handbook of Combinatorics, Thm 10.6) makes U acyclic, ∅ included, and
    H̃(Δ) ≅ H(Δ, U); the faces left span the relative complex, whose
    boundary is the old boundary restricted to them.  The pairs taken next
    keep that invariant: both kinds have incidence ±1, a coreduced cell's
    boundary is its partner alone, and no other cell has a free face in its
    boundary.  So the cells left have the homology of Δ over every field,
    and one sweep over them finishes the reduction.
    """
    masks = np.asarray(faces, dtype=np.int64)
    if len(masks) and (masks[0] or (masks[1:] <= masks[:-1]).any()):
        raise ValueError("face list does not strictly ascend from the empty face")
    union = int(np.bitwise_or.reduce(masks))
    alive = np.zeros(1 << union.bit_length(), dtype=bool)
    alive[masks] = True
    vertices = [1 << b for b in bits(union)]
    if vertices:
        cover = _star_cover(vertices, nonfaces)
        rest = masks[masks & sum(cover) == 0]
        for w in cover:
            rest = rest[~alive[rest | w]]
        alive[masks] = False
        alive[rest] = True
        masks = rest
    left = masks.tolist()
    alive = bytearray(alive.tobytes())
    _pair_off(left, alive, vertices)
    cells: dict[int, list[int]] = {}
    for f in left:
        if alive[f]:
            cells.setdefault(f.bit_count(), []).append(f)
    return cells


def reduced_homology_ranks(faces: list[int] | np.ndarray, field,
                           nonfaces: Sequence[int] | None = None) -> dict[int, int]:
    """The nonzero ranks of reduced homology H̃_d over the given field,
    keyed by d.

    faces lists the complex as ascending int masks, as a list or an int64
    array, each face once, starting at the empty face and closed under
    subsets; an empty one is the void complex.  It is taken as it is (an
    int64 array without a copy): reduce_faces refuses one out of order,
    with a repeat or without the empty face, and closure is the producer's
    to keep.  nonfaces, the complex's minimal non-faces when given, let
    reduce_faces collapse the stars of many vertices at once.  Only the
    cells left by reduce_faces reach the rank step.
    """
    cells = reduce_faces(faces, nonfaces)
    if not cells:
        return {}
    return {s - 1: h for s, h in enumerate(chain_homology_ranks(cells, field)) if h}
