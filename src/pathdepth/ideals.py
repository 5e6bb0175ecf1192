"""Squarefree monomials and monomial ideals over a fixed set of variables.

A squarefree monomial in K[x_1..x_n] is identified with the subset of
variable indices it contains, stored as a bitmask: bit i-1 set means x_i
divides the monomial.  Mask 0 is the unit monomial 1.  Divisibility is
bitmask inclusion, gcd is bitwise AND, lcm is bitwise OR.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# Bounds the ambient size of every ideal built, and so verify's --n-max;
# the engines themselves stop at TABLE_MAX_N.
MAX_AMBIENT = 24
# Both engines tabulate all 2^n masks (depth: MonomialIdeal.lcm_table;
# sdepth: MonomialIdeal.member_table), so their n stops here.
TABLE_MAX_N = 16


def integer(value) -> int:
    """``value`` as an int; TypeError for what int() would coerce instead."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def monomial(indices, n: int) -> int:
    """Bitmask of a squarefree monomial from 1-based variable indices."""
    mask = 0
    for i in map(integer, indices):
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def subsets(mask: int):
    """Every submask of ``mask``, ascending from 0 to ``mask``."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def zeta(values: np.ndarray, n: int) -> np.ndarray:
    """Subset zeta transform of a table over all 2^n masks, in place.

    Afterwards entry s is the OR of the old entries of every subset of s;
    one slice-OR over 2^(n-1) entries per variable.
    """
    for b in range(n):
        pairs = values.reshape(-1, 2, 1 << b)
        pairs[:, 1] |= pairs[:, 0]
    return values


def monomial_vars(mask: int) -> tuple[int, ...]:
    """Sorted 1-based variable indices of a monomial bitmask."""
    return tuple([i + 1 for i in bits(mask)])


def divides(u: int, v: int) -> bool:
    """True iff monomial u divides monomial v."""
    return u & v == u


def check_ambient(n: int) -> int:
    """``n`` as an int; TypeError if it is not one, ValueError if out of range."""
    n = integer(n)
    if not 1 <= n <= MAX_AMBIENT:
        raise ValueError(f"ambient variable count {n} outside 1..{MAX_AMBIENT}")
    return n


class TableCapExceeded(ValueError):
    """An engine refuses n past the size of the tables it would build."""


def check_table_n(n: int) -> None:
    if n > TABLE_MAX_N:
        raise TableCapExceeded(f"ambient n={n} exceeds cap {TABLE_MAX_N}")


def check_monomial(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"monomial {bin(mask)} uses variables outside 1..{n}")


def _minimal_masks(masks, n: int) -> tuple[int, ...]:
    """Divisibility-antichain of a collection of monomial bitmasks."""
    uniq = set(masks)
    for m in uniq:
        check_monomial(m, n)
    if 0 in uniq:
        return (0,)
    kept = [m for m in uniq
            if not any(o != m and divides(o, m) for o in uniq)]
    return tuple(sorted(kept, key=monomial_vars))


@dataclass(frozen=True)
class VarPermutation:
    """A bijection on variable indices {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(map(integer, self.images))
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("images must be a bijection on 1..n")

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << (self.images[i] - 1)
        return out


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generators.

    ``gens`` is always a divisibility antichain, normalised on construction.
    The zero ideal has no generators; the whole ring is generated by the
    unit monomial (mask 0).
    """

    n: int
    gens: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "n", check_ambient(self.n))
        object.__setattr__(self, "gens", _minimal_masks(self.gens, self.n))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vars(cls, n: int, gens) -> "MonomialIdeal":
        return cls(n, tuple(monomial(g, n) for g in gens))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def whole_ring(cls, n: int) -> "MonomialIdeal":
        return cls(n, (0,))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_whole_ring(self) -> bool:
        return self.gens == (0,)

    def contains(self, mask: int) -> bool:
        """Ideal membership of a squarefree monomial."""
        check_monomial(mask, self.n)
        return any(divides(g, mask) for g in self.gens)

    def lcm_table(self) -> np.ndarray:
        """Per mask of all 2^n, the lcm of the generators dividing it
        (int64 array).

        A mask lies in a proper ideal iff its entry is nonzero.
        """
        check_table_n(self.n)
        table = np.zeros(1 << self.n, dtype=np.int64)
        table[list(self.gens)] = self.gens
        return zeta(table, self.n)

    def member_table(self) -> np.ndarray:
        """Per mask of all 2^n, whether it lies in the ideal (bool array)."""
        check_table_n(self.n)
        if self.is_whole_ring or not self.gens:
            # every mask or none: no zeta pass needed
            return np.full(1 << self.n, self.is_whole_ring)
        table = np.zeros(1 << self.n, dtype=bool)
        table[list(self.gens)] = True
        return zeta(table, self.n)

    # -- operations ---------------------------------------------------

    def colon(self, u: int) -> "MonomialIdeal":
        """The colon ideal (I : u)."""
        check_monomial(u, self.n)
        return MonomialIdeal(self.n, tuple(g & ~u for g in self.gens))

    def add_generator(self, u: int) -> "MonomialIdeal":
        """The sum (I, u)."""
        check_monomial(u, self.n)
        return MonomialIdeal(self.n, self.gens + (u,))

    def relabel(self, p: VarPermutation) -> "MonomialIdeal":
        """Image of the ideal under a variable permutation."""
        if p.n != self.n:
            raise ValueError("permutation size must match ambient n")
        return MonomialIdeal(self.n, tuple(p.apply(g) for g in self.gens))

    def same_ambient(self, other: "MonomialIdeal") -> None:
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": [list(monomial_vars(g)) for g in self.gens]}

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialIdeal":
        """Ideal from {"n": .., "gens": [[..], ..]}; ValueError if malformed."""
        try:
            return cls.from_vars(integer(data["n"]), data["gens"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ideal data: {exc!r}") from exc

    def __str__(self):
        if self.is_zero:
            return f"(0) in S[{self.n}]"
        names = ["*".join(f"x{i}" for i in monomial_vars(g)) or "1"
                 for g in self.gens]
        return f"({', '.join(names)}) in S[{self.n}]"
