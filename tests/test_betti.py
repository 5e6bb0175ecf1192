"""Betti numbers, projective dimension and depth of S/I."""

import hashlib
import math
import random

import pytest

from pathdepth.betti import (GF2, RATIONALS, TAYLOR_MAX_GENS, Field,
                             depth_quotient, hochster_betti,
                             projective_dimension, taylor_betti)
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.homology import reduced_homology_ranks
from pathdepth.ideals import MonomialIdeal, monomial
from pathdepth.linalg import rank_bareiss, rank_mod_p
from pathdepth.oracle import expectation


def test_koszul_complex_totals():
    # S/(x1..xn) resolves by the Koszul complex: beta_i = C(n, i)
    for n in (2, 3, 4):
        table = hochster_betti(line_ideal(n, 1))
        for i in range(n + 1):
            assert table.total(i) == math.comb(n, i)
        assert table.projective_dimension() == n
        assert depth_quotient(line_ideal(n, 1)) == 0


def test_principal_ideal():
    ideal = MonomialIdeal.from_vars(4, [[1, 2, 3]])
    table = hochster_betti(ideal)
    assert table.as_dict() == {(0, 0): 1, (1, monomial([1, 2, 3], 4)): 1}
    assert depth_quotient(ideal) == 3


def test_zero_ideal_is_free():
    assert projective_dimension(MonomialIdeal.zero(5)) == 0
    assert depth_quotient(MonomialIdeal.zero(5)) == 5


def test_whole_ring_rejected():
    with pytest.raises(ValueError):
        hochster_betti(MonomialIdeal.whole_ring(3))
    with pytest.raises(ValueError):
        taylor_betti(MonomialIdeal.whole_ring(3))


def test_cycle_anchor_depth():
    # S/J_{4,3} has depth 2 and projective dimension 2
    ideal = cycle_ideal(4, 3)
    assert depth_quotient(ideal) == 2
    assert projective_dimension(ideal) == 2


def test_betti_table_lookup():
    table = hochster_betti(cycle_ideal(4, 3))
    assert table.beta(0, 0) == 1
    assert table.beta(1, monomial([1, 2, 3], 4)) == 1
    assert table.beta(7, 0) == 0
    assert all(b > 0 for _, _, b in table.entries)


def test_taylor_matches_hochster_on_families():
    for n in range(3, 7):
        for m in range(2, n + 1):
            ideal = line_ideal(n, m)
            assert taylor_betti(ideal) == hochster_betti(ideal)
        for m in range(2, n + 1):
            ideal = cycle_ideal(n, m)
            assert taylor_betti(ideal) == hochster_betti(ideal)


def test_taylor_matches_hochster_on_random_ideals():
    rng = random.Random(20240817)
    ideals = []
    for _ in range(40):
        n = rng.randint(2, 6)
        gens = tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5)))
        ideals.append(MonomialIdeal(n, gens))
    # uniform masks give nearly contractible restricted complexes; edges and
    # triangles give pieces with homology, and pieces that are not
    # isomorphic but look alike to a careless shape key
    for _ in range(40):
        n = rng.randint(4, 8)
        gens = tuple(sum(1 << v for v in rng.sample(range(n), rng.choice((2, 3))))
                     for _ in range(rng.randint(2, TAYLOR_MAX_GENS)))
        ideals.append(MonomialIdeal(n, gens))
    for ideal in ideals:
        assert taylor_betti(ideal) == hochster_betti(ideal)
        assert taylor_betti(ideal, GF2) == hochster_betti(ideal, GF2)


def test_auslander_buchsbaum_on_families():
    for n in range(3, 8):
        for m in range(2, n + 1):
            ideal = line_ideal(n, m)
            assert depth_quotient(ideal) + projective_dimension(ideal) == n


def _rp2_nonfaces(n: int) -> tuple[int, ...]:
    """The 10 minimal non-faces of the 6-vertex projective plane on x1..x6."""
    tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    nonfaces = [s for s in range(1 << 6)
                if not any(s & ~monomial(t, 6) == 0 for t in tris)]
    return MonomialIdeal(n, tuple(nonfaces)).gens


def test_field_can_change_betti_numbers():
    # Stanley-Reisner ideal of the 6-vertex projective plane
    ideal = MonomialIdeal(6, _rp2_nonfaces(6))
    assert len(ideal.gens) == 10
    assert depth_quotient(ideal, RATIONALS) == 3
    assert depth_quotient(ideal, GF2) == 2


def test_rank_helpers_agree():
    rng = random.Random(7)
    import numpy as np
    for _ in range(25):
        mat = np.array([[rng.randint(-3, 3) for _ in range(4)]
                        for _ in range(4)], dtype=np.int64)
        r_q = rank_bareiss(mat)
        # rank can only drop when reducing mod p, and the entries are tiny,
        # so a large prime sees the rational rank exactly
        assert rank_mod_p(mat, 2) <= r_q
        assert rank_mod_p(mat, 1000003) == r_q


def test_bareiss_leaves_int64_at_two_to_the_31():
    # entries of exactly 2^31 can push the next update step to 2^63
    mat = [[2**31, 2**31, -1], [0, -1, -1], [-2**31, 2**31, 1]]
    assert rank_bareiss(mat) == 3


@pytest.mark.parametrize("p", [2**31, 2**61 - 1])
def test_rank_mod_p_refuses_primes_past_int64(p):
    # called directly, without a Field, it used to return wrong ranks
    with pytest.raises(ValueError, match="2\\^31"):
        rank_mod_p([[1, 2], [2, 4]], p)
    assert rank_mod_p([[1, 2], [2, 4]], 2**31 - 1) == 1


# sha256 of repr(hochster_betti(ideal, field).entries), recorded before the
# Hochster route read its faces from the lcm table; the Taylor cross-checks
# stop at n = 6
BETTI_PINS_N10 = {
    "line:10:2": "48fc40bb6bda51862c1b58fa9dd1d12b0110dcd95b3bdcc73c7de4af833c14d1",
    "line:10:10": "b2ecf920a7d477028530f0781b68de363812091077981d614e26be79db10db1c",
    "cyc:10:3": "ecfa75e2be62784584cdc11543738d2226b1902b2c293fd1bb2b0e422a7d75d7",
}


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=str)
@pytest.mark.parametrize("name", sorted(BETTI_PINS_N10))
def test_hochster_tables_pinned_at_n10(name, field):
    graph, n, m = name.split(":")
    ideal = (line_ideal if graph == "line" else cycle_ideal)(int(n), int(m))
    entries = hochster_betti(ideal, field).entries
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == BETTI_PINS_N10[name]


# sha256 of repr(hochster_betti(ideal, field).entries), recorded on the
# per-σ route that reduced every restricted complex whole; the cyc:12:3
# tables need the cyclic-shift shape key to merge wrap-around arcs
BETTI_PINS_N12 = {
    "line:12:2/Q": "ae8346ba4b47ca5964ce7425eb243363f7163d25fb08b4b85179a652d68c0be6",
    "line:12:12/Q": "312ab8ed1d1f2f4ebbbfa6aa7fa308e3041fb71888677589faf775231e6247bb",
    "line:12:7/GF(2)": "6c8e713e653bac2da65130ff711af04ac1b12ec148e5767c58cdacf258620592",
    "cyc:12:3/GF(2)": "9671fd9494e9e6fd518ff3a3bc463517be386e883a0e6e007e211f04990d1f2a",
    "cyc:12:3/Q": "9671fd9494e9e6fd518ff3a3bc463517be386e883a0e6e007e211f04990d1f2a",
}


@pytest.mark.parametrize("name", sorted(BETTI_PINS_N12))
def test_hochster_tables_pinned_at_n12(name):
    spec, field_name = name.split("/")
    graph, n, m = spec.split(":")
    ideal = (line_ideal if graph == "line" else cycle_ideal)(int(n), int(m))
    field = RATIONALS if field_name == "Q" else GF2
    entries = hochster_betti(ideal, field).entries
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == BETTI_PINS_N12[name]


def _per_sigma_betti(ideal, fields):
    """Per field, β_{i,σ} from the reduced homology of every whole Δ_σ."""
    faces = [s for s in range(1 << ideal.n)
             if not any(g & ~s == 0 for g in ideal.gens)]
    tables = {field: {(0, 0): 1} for field in fields}
    for sigma in range(1, 1 << ideal.n):
        restricted = [f for f in faces if f & ~sigma == 0]
        for field in fields:
            for d, r in reduced_homology_ranks(restricted, field).items():
                if r:
                    tables[field][(sigma.bit_count() - 1 - d, sigma)] = r
    return tables


def test_factored_hochster_matches_per_sigma_homology():
    rng = random.Random(20261018)
    ideals = []
    for _ in range(24):
        # edges and triangles: restricted complexes with homology to get wrong
        n = rng.randint(4, 9)
        gens = [monomial(rng.sample(range(1, n + 1), rng.randint(2, 3)), n)
                for _ in range(rng.randint(2, 9))]
        ideals.append(MonomialIdeal(n, tuple(gens)))
    for _ in range(3):
        # RP^2 on x1..x6 beside generators on x7..x9: every σ that meets
        # both carries field-dependent homology in a disconnected piece
        extra = [rng.randrange(1, 8) << 6 for _ in range(rng.randint(1, 3))]
        ideals.append(MonomialIdeal(9, _rp2_nonfaces(9) + tuple(extra)))
    fields = (RATIONALS, GF2, Field(3))
    for ideal in ideals:
        for field, table in _per_sigma_betti(ideal, fields).items():
            assert hochster_betti(ideal, field).as_dict() == table, (ideal, field)
    rp2 = ideals[-1]
    assert hochster_betti(rp2, RATIONALS) != hochster_betti(rp2, GF2)


def test_taylor_matches_hochster_on_rp2_beside_an_edge():
    ideal = MonomialIdeal(8, _rp2_nonfaces(8) + (monomial([7, 8], 8),))
    assert len(ideal.gens) == 11
    tables = {}
    for field in (RATIONALS, GF2):
        tables[field] = hochster_betti(ideal, field)
        assert taylor_betti(ideal, field) == tables[field]
    assert tables[RATIONALS] != tables[GF2]


@pytest.mark.parametrize("family, n, m, ideal", [
    ("jn2", 16, 14, cycle_ideal(16, 14)),
    ("line", 16, 8, line_ideal(16, 8)),
], ids=["cyc:16:14", "line:16:8"])
def test_depth_rows_where_the_reduction_dominates(family, n, m, ideal):
    # each restricted complex has up to 2^16 faces and ranks at most a few
    # cells, so the star collapse and the worklist carry the row
    tables = {field: hochster_betti(ideal, field) for field in (RATIONALS, GF2)}
    assert tables[RATIONALS] == tables[GF2]
    # jn2 is stated as [n - 3, n - 2]; its depth is the lower end
    assert n - tables[RATIONALS].projective_dimension() == \
        expectation(family, n, "depth", m).lo
