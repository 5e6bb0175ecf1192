"""Multigraded Betti numbers, projective dimension and depth of S/I.

The main route is Hochster's formula: β_{i,σ}(S/I) is the rank of reduced
homology in degree |σ|-i-1 of the Stanley-Reisner complex of I restricted
to σ.  An independent Taylor-complex route computes the same numbers from
the multigraded strands of the Taylor resolution and serves as an oracle.
Depth comes out of the Auslander-Buchsbaum identity depth = n - pd.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import MonomialIdeal, bits, monomial_vars, subsets
from .homology import chain_homology_ranks, reduced_homology_ranks
from .linalg import INT64_SAFE

TAYLOR_MAX_GENS = 12


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: rationals (p=None) or GF(p) for a prime p < 2^31."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= INT64_SAFE:
            raise ValueError(f"prime {self.p} is not below 2^31, so modular "
                             "rank would overflow int64")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

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


def _pieces(gens: list[int]) -> list[int]:
    """Variable masks of the connected pieces of gens, where two generators
    are connected when they share a variable."""
    pieces: list[int] = []
    for g in gens:
        merged = g
        for p in pieces:
            if p & g:
                merged |= p
        pieces = [p for p in pieces if not p & g] + [merged]
    return pieces


def _shape(mask: int, gens) -> tuple[int, ...]:
    """The generators inside mask relabelled onto 0..k-1 in bit order, the
    least over the k cyclic shifts of that order.

    Equal shapes give isomorphic restricted complexes; a missed isomorphism
    only costs a cache hit.
    """
    k = mask.bit_count()
    full = (1 << k) - 1
    pos = {b: j for j, b in enumerate(bits(mask))}
    packed = [sum(1 << pos[b] for b in bits(g)) for g in gens if g & ~mask == 0]
    return min(tuple(sorted(((r >> s) | (r << (k - s))) & full for r in packed))
               for s in range(k))


def _convolve(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, a in left.items():
        for j, b in right.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def hochster_betti(ideal: MonomialIdeal, field: Field = RATIONALS) -> BettiTable:
    """All multigraded Betti numbers of S/I via Hochster's formula.

    The generators inside σ split into connected pieces c (two are
    connected when they share a variable), every minimal non-face of Δ_σ
    lies in one piece, so Δ_σ is the join of the Δ_c.  Over a field the
    Künneth formula for joins makes β_{·,σ} the convolution of the β_{·,c},
    with index i = |c| - 1 - d adding up.  Each piece's row is kept by mask
    and by shape, and only a new shape has its complex reduced and ranked.
    """
    if ideal.is_whole_ring:
        raise ValueError("S/S is the zero module; no Betti table")
    n = ideal.n
    lcm = ideal.lcm_table()
    by_mask: dict[int, dict[int, int]] = {}
    by_shape: dict[tuple[int, ...], dict[int, int]] = {}
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for sigma in range(1, 1 << n):
        if lcm[sigma] != sigma:
            # sigma is outside the ideal (a full simplex), or some vertex of
            # sigma is a cone point: no reduced homology
            continue
        row = {0: 1}
        for mask in _pieces([g for g in ideal.gens if g & ~sigma == 0]):
            piece = by_mask.get(mask)
            if piece is None:
                key = _shape(mask, ideal.gens)
                piece = by_shape.get(key)
                if piece is None:
                    faces = [sub for sub in subsets(mask) if not lcm[sub]]
                    ranks = reduced_homology_ranks(faces, field, check_closed=False)
                    size = mask.bit_count()
                    piece = {size - 1 - d: r for d, r in ranks.items() if r}
                    by_shape[key] = piece
                by_mask[mask] = piece
            row = _convolve(row, piece)
            if not row:
                break
        for i, b in row.items():
            entries[(i, sigma)] = b
    return BettiTable.from_dict(n, entries)


def taylor_betti(ideal: MonomialIdeal, field: Field = RATIONALS) -> BettiTable:
    """Betti numbers from the multigraded strands of the Taylor complex."""
    if ideal.is_whole_ring:
        raise ValueError("S/S is the zero module; no Betti table")
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
