"""Multigraded Betti numbers, projective dimension and depth of S/I.

The main route is Hochster's formula: β_{i,σ}(S/I) is the rank of reduced
homology in degree |σ|-i-1 of the Stanley-Reisner complex of I restricted
to σ.  An independent Taylor-complex route computes the same numbers from
the multigraded strands of the Taylor resolution and serves as an oracle.
Depth comes out of the Auslander-Buchsbaum identity depth = n - pd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ideals import MonomialIdeal, bits, monomial_vars
from .homology import chain_homology_ranks, reduced_homology_ranks
from .linalg import check_prime

TAYLOR_MAX_GENS = 12

# (field's p, _shape key) -> β row {i: β_{i,σ}} of a connected σ with that
# shape, kept for the process (hochster_betti); rows are never mutated
SHAPE_ROWS: dict[tuple[int | None, tuple[int, ...]], dict[int, int]] = {}


@dataclass(frozen=True)
class Field:
    """Coefficient field: rationals (p=None) or GF(p) for a prime p < 2^31."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            check_prime(self.p)

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


RATIONALS = Field()
GF2 = Field(2)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers β_{i,σ} of S/I."""

    n: int
    entries: tuple[tuple[int, int, int], ...]  # (i, sigma mask, beta), sorted

    @classmethod
    def from_dict(cls, n: int, data: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((i, s, b) for (i, s), b in data.items() if b))
        return cls(n, items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, s): b for i, s, b in self.entries}

    def beta(self, i: int, sigma: int) -> int:
        return self.as_dict().get((i, sigma), 0)

    def projective_dimension(self) -> int:
        return max((i for i, _, _ in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(b for j, _, b in self.entries if j == i)

    def rows(self):
        """(i, sorted variable tuple, beta) rows, sorted for stable output."""
        return [(i, monomial_vars(s), b) for i, s, b in self.entries]


def _shape(mask: int, gens) -> tuple[int, ...]:
    """The generators inside mask relabelled onto 0..k-1 in bit order and
    rotated cyclically to the least sorted tuple among the rotations that
    start at a gap.

    A gap is a position j where no generator holds both j - 1 and j
    (cyclically); with no gap every rotation is tried.  Rotating the
    generators rotates their gaps along, so the key is the same for every
    rotation of them: equal keys are exactly the generator sets equal up to
    a cyclic shift, which give isomorphic restricted complexes.  A missed
    isomorphism only costs a table hit.
    """
    inside = [g for g in gens if g | mask == mask]
    packed, rest, k = None, mask, 0
    while rest:  # one run of set bits of mask per pass, packed onto k..
        low = rest ^ (rest & (rest - 1))
        run = rest & (rest ^ (rest + low))
        shift = low.bit_length() - 1 - k
        packed = ([(g & run) >> shift for g in inside] if packed is None else
                  [p | (g & run) >> shift for p, g in zip(packed, inside)])
        k += run.bit_count()
        rest ^= run
    full = (1 << k) - 1
    joined = 0
    for r in packed:
        joined |= r & ((r << 1 | r >> (k - 1)) & full)
    gaps = full ^ joined
    starts = ((gaps.bit_length() - 1,) if gaps and not gaps & (gaps - 1) else
              bits(gaps) if gaps else range(k))
    return min(tuple(sorted(((r >> s) | (r << (k - s))) & full for r in packed))
               for s in starts)


def _convolve(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, a in left.items():
        for j, b in right.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _lowest_pieces(sigmas: np.ndarray, gens: tuple[int, ...]) -> np.ndarray:
    """Per σ, the variables of the connected piece of the generators inside
    σ that holds σ's lowest variable (two generators are connected when
    they share a variable).

    Every variable of an lcm-closed σ lies in a generator inside σ, so the
    piece starts at that variable and each sweep ORs in every generator
    inside σ that meets it, until no piece grows.
    """
    pieces = sigmas & -sigmas
    inside = [(g, sigmas & g == g) for g in gens]
    while True:
        grown = pieces.copy()
        for g, within in inside:
            grown[within & (grown & g != 0)] |= g
        if np.array_equal(grown, pieces):
            return pieces
        pieces = grown


def hochster_betti(ideal: MonomialIdeal, field: Field = RATIONALS) -> BettiTable:
    """All multigraded Betti numbers of S/I via Hochster's formula.

    Only σ with lcm[σ] = σ can carry homology: otherwise σ is outside the
    ideal (a full simplex) or some vertex of σ is a cone point.  The
    generators inside such a σ split into connected pieces c (two are
    connected when they share a variable), every minimal non-face of Δ_σ
    lies in one piece, so Δ_σ is the join of the Δ_c.  Over a field the
    Künneth formula for joins makes β_{·,σ} the convolution of the β_{·,c},
    with index i = |c| - 1 - d adding up.  Let P be the piece that holds
    σ's lowest variable: σ ∖ P < σ is lcm-closed and its pieces are σ's
    other pieces, so row(σ) = row(P) ⊛ row(σ ∖ P) from two rows already
    known.  A connected σ's row depends only on the field and its _shape,
    so SHAPE_ROWS keeps it for the process: only a shape new to the process
    has its complex reduced and ranked.  The faces of Δ are the masks with
    lcm 0, one ascending int64 array, and those of Δ_σ are its masks inside
    σ, one numpy filter of it: still ascending, from the empty face, and
    closed, since lcm is monotone and so a subset of a face is a face.
    That is the face list reduced_homology_ranks takes, together with the
    generators inside σ, the minimal non-faces of Δ_σ: its star collapse
    then removes at once the stars of a set W of vertices no two of which
    lie in one generator, whose union is acyclic by the nerve theorem (see
    reduce_faces).  Equal products are built once, so the rows per σ are
    shared references.
    """
    if ideal.is_whole_ring:
        raise ValueError("I = S gives the zero module S/S")
    n = ideal.n
    table = ideal.lcm_table()
    # the lcm-closed σ are the values of the table; σ = 0 is always one,
    # and its row is the (0, 0) entry
    closed = np.zeros(1 << n, dtype=bool)
    closed[table] = True
    sigmas = np.flatnonzero(closed)[1:]
    delta = np.flatnonzero(table == 0)
    del table
    pieces = _lowest_pieces(sigmas, ideal.gens)
    rows: dict[int, dict[int, int]] = {}
    products: dict[tuple[int, int], dict[int, int]] = {}
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for sigma, piece in zip(sigmas.tolist(), pieces.tolist()):
        if piece == sigma:
            key = (field.p, _shape(sigma, ideal.gens))
            row = SHAPE_ROWS.get(key)
            if row is None:
                inside = [g for g in ideal.gens if g | sigma == sigma]
                ranks = reduced_homology_ranks(delta[delta & ~sigma == 0], field,
                                               inside)
                size = sigma.bit_count()
                row = SHAPE_ROWS[key] = {size - 1 - d: r
                                         for d, r in ranks.items()}
        else:
            left, right = rows[piece], rows[sigma ^ piece]
            pair = (id(left), id(right))
            row = products.get(pair)
            if row is None:
                row = products[pair] = _convolve(left, right)
        rows[sigma] = row
        for i, b in row.items():
            entries[(i, sigma)] = b
    return BettiTable.from_dict(n, entries)


def taylor_betti(ideal: MonomialIdeal, field: Field = RATIONALS) -> BettiTable:
    """Betti numbers from the multigraded strands of the Taylor complex."""
    if ideal.is_whole_ring:
        raise ValueError("I = S gives the zero module S/S")
    gens = ideal.gens
    if len(gens) > TAYLOR_MAX_GENS:
        raise ValueError(f"{len(gens)} generators exceed cap {TAYLOR_MAX_GENS}")
    r = len(gens)
    # group generator subsets by their lcm multidegree
    strands: dict[int, dict[int, list[int]]] = {}
    for fset in range(1 << r):
        deg = 0
        for t in range(r):
            if fset >> t & 1:
                deg |= gens[t]
        strands.setdefault(deg, {}).setdefault(fset.bit_count(), []).append(fset)
    # a boundary face with a smaller lcm lies in another strand: left out
    entries: dict[tuple[int, int], int] = {}
    for deg, by_size in strands.items():
        for i, h in enumerate(chain_homology_ranks(by_size, field)):
            if h:
                entries[(i, deg)] = h
    return BettiTable.from_dict(ideal.n, entries)


def projective_dimension(ideal: MonomialIdeal, field: Field = RATIONALS) -> int:
    """Largest homological degree with a nonzero Betti number."""
    return hochster_betti(ideal, field).projective_dimension()


def depth_quotient(ideal: MonomialIdeal, field: Field = RATIONALS) -> int:
    """depth(S/I) through the Auslander-Buchsbaum identity n - pd."""
    return ideal.n - projective_dimension(ideal, field)
