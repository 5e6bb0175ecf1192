"""Betti numbers, projective dimension and depth of S/I."""

import hashlib
import math
import random

import tracemalloc

import numpy as np
import pytest

from pathdepth import betti, homology
from pathdepth.betti import (GF2, RATIONALS, TAYLOR_MAX_GENS, BettiTable,
                             Field, depth_quotient, hochster_betti,
                             projective_dimension, taylor_betti)
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.homology import reduced_homology_ranks
from pathdepth.ideals import MonomialIdeal, bits, monomial, subsets
from pathdepth.linalg import INT64_SAFE, rank_bareiss, rank_mod_p
from pathdepth.oracle import FAMILIES, expectation, family_module

FIELDS_Q_2_3 = (RATIONALS, GF2, Field(3))


def test_koszul_complex_totals():
    # S/(x1..xn) resolves by the Koszul complex: beta_i = C(n, i)
    for n in (2, 3, 4):
        table = hochster_betti(line_ideal(n, 1))
        for i in range(n + 1):
            assert sum(b for j, _, b in table.entries if j == i) == math.comb(n, i)
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
    beta = table.as_dict()
    assert beta[0, 0] == 1
    assert beta[1, monomial([1, 2, 3], 4)] == 1
    assert (7, 0) not in beta
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
    # RP^2 with generators that tie x7..x9 to it: connected σ whose star
    # collapse takes several vertices and leaves 2-torsion behind
    for _ in range(4):
        extra = [monomial([rng.randint(7, 9), rng.randint(1, 6)], 9)
                 for _ in range(2)]
        ideals.append(MonomialIdeal(9, _rp2_nonfaces(9) + tuple(extra)))
    for ideal in ideals:
        for field in FIELDS_Q_2_3:
            assert taylor_betti(ideal, field) == hochster_betti(ideal, field), \
                (str(ideal), field)
    rp2 = ideals[-1]
    assert hochster_betti(rp2, RATIONALS) != hochster_betti(rp2, GF2)


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


def _rank_mod_p_reference(matrix, p: int) -> int:
    # rank_mod_p as it was before it shared the Bareiss loop: Gaussian
    # elimination with the pivot row normalised by its inverse mod p
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


def test_rank_helpers_agree():
    rng = random.Random(7)
    mats = [np.array([[rng.randint(-3, 3) for _ in range(4)]
                      for _ in range(4)], dtype=np.int64) for _ in range(25)]
    # one matrix of each shape up to 8 x 8, and the zero and empty ones
    mats += [np.array([[rng.randint(-5, 5) for _ in range(cols)]
                       for _ in range(rows)], dtype=np.int64)
             for rows in range(1, 9) for cols in range(1, 9)]
    mats += [np.zeros((3, 5), dtype=np.int64), np.zeros((0, 4), dtype=np.int64)]
    for mat in mats:
        r_q = rank_bareiss(mat)
        # rank can only drop when reducing mod p; by Hadamard's bound every
        # minor is below (5 * sqrt 8)^8 < 2^31 - 1 in absolute value, so
        # that prime sees the rational rank exactly
        assert rank_mod_p(mat, 2) <= r_q
        assert rank_mod_p(mat, 2**31 - 1) == r_q
        for p in (2, 3, 5, 7, 1000003, 2**31 - 1):
            assert rank_mod_p(mat, p) == _rank_mod_p_reference(mat, p)


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


@pytest.mark.parametrize("p", [0, 1, 4, 6, -3])
def test_field_and_rank_mod_p_refuse_p_that_is_not_prime(p):
    # mod 4 the rows of [[2, 3], [4, 6]] read independent, against rank 1
    # over Q, and mod 0 nothing is defined
    with pytest.raises(ValueError, match="not prime"):
        Field(p)
    with pytest.raises(ValueError, match="not prime"):
        rank_mod_p([[2, 3], [4, 6]], p)


def test_field_and_rank_mod_p_refuse_p_that_is_not_an_int():
    # a float p must be refused up front, not fail deep in the rank step
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Field(2.0)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        rank_mod_p([[2, 3], [4, 6]], 2.0)


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


def _pieces(gens):
    """Variable masks of the connected pieces of gens, where two generators
    are connected when they share a variable."""
    pieces = []
    for g in gens:
        merged = g
        for p in pieces:
            if p & g:
                merged |= p
        pieces = [p for p in pieces if not p & g] + [merged]
    return pieces


def _all_shifts_shape(mask, gens):
    """The generators inside mask packed onto 0..k-1 in bit order, the
    least over all k cyclic shifts of that order."""
    k = mask.bit_count()
    full = (1 << k) - 1
    pos = {b: j for j, b in enumerate(bits(mask))}
    packed = [sum(1 << pos[b] for b in bits(g)) for g in gens if g & ~mask == 0]
    return min(tuple(sorted(((r >> s) | (r << (k - s))) & full for r in packed))
               for s in range(k))


def _piecewise_betti(ideal, fields):
    """Per field, the Betti table from the σ loop that splits every σ into
    all its pieces and convolves each piece's row, keyed by mask and by the
    all-shifts shape."""
    lcm = ideal.lcm_table().tolist()
    by_mask, by_shape = {}, {}
    entries = {field: {(0, 0): 1} for field in fields}
    for sigma in range(1, 1 << ideal.n):
        if lcm[sigma] != sigma:
            continue
        rows = {field: {0: 1} for field in fields}
        for mask in _pieces([g for g in ideal.gens if g & ~sigma == 0]):
            if mask not in by_mask:
                key = _all_shifts_shape(mask, ideal.gens)
                if key not in by_shape:
                    faces = [sub for sub in subsets(mask) if not lcm[sub]]
                    size = mask.bit_count()
                    by_shape[key] = {
                        field: {size - 1 - d: r for d, r in
                                reduced_homology_ranks(faces, field).items() if r}
                        for field in fields}
                by_mask[mask] = by_shape[key]
            for field in fields:
                rows[field] = betti._convolve(rows[field], by_mask[mask][field])
        for field in fields:
            for i, b in rows[field].items():
                entries[field][(i, sigma)] = b
    return {field: BettiTable.from_dict(ideal.n, table)
            for field, table in entries.items()}


def _random_small_ideals(count, seed):
    """Ideals on up to 10 variables with generators of 1 to 4 variables;
    many leave some variable in no generator."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        gens = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(4, n))))
                for _ in range(rng.randint(1, 8))]
        yield MonomialIdeal(n, tuple(gens))


def _family_ideals(n_max):
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            yield line_ideal(n, m)
        for m in range(2, n + 1) if n >= 3 else ():
            yield cycle_ideal(n, m)



def test_lowest_piece_recursion_matches_the_piecewise_loop():
    ideals = [*_family_ideals(12), *_random_small_ideals(300, seed=20261019)]
    singles = sum(any(g.bit_count() == 1 for g in ideal.gens) for ideal in ideals)
    isolated = sum(any(all(not g >> v & 1 for g in ideal.gens)
                       for v in range(ideal.n)) for ideal in ideals)
    assert singles >= 50 and isolated >= 50
    for ideal in ideals:
        for field, table in _piecewise_betti(ideal, FIELDS_Q_2_3).items():
            assert hochster_betti(ideal, field) == table, (str(ideal), field)


def _lcm_closed(ideal):
    lcm = ideal.lcm_table().tolist()
    return [s for s in range(1, 1 << ideal.n) if lcm[s] == s]


@pytest.mark.parametrize("ideals", [
    [cycle_ideal(12, 3)], [cycle_ideal(12, 5)], [line_ideal(12, 2)],
    list(_random_small_ideals(100, seed=11)),
], ids=["cyc:12:3", "cyc:12:5", "line:12:2", "random"])
def test_gap_shape_key_gives_the_all_shifts_classes(ideals):
    for ideal in ideals:
        keys = {(betti._shape(s, ideal.gens), _all_shifts_shape(s, ideal.gens))
                for s in _lcm_closed(ideal)}
        # the two keys name the same classes iff they pair up one to one
        assert len(keys) == len({gap for gap, _ in keys}) == \
            len({old for _, old in keys}), str(ideal)


def _runs_shape(mask, gens):
    """The shape key as first written: a sum of shifted runs per generator
    and a min over the rotations that start at a gap (all k with none)."""
    k = mask.bit_count()
    full = (1 << k) - 1
    runs = []  # (first bit, run mask, packed offset) per run of set bits
    rest, offset = mask, 0
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        runs.append((low.bit_length() - 1, run, offset))
        offset += run.bit_count()
        rest ^= run
    packed = [sum((g & run) >> first << off for first, run, off in runs)
              for g in gens if g & ~mask == 0]
    joined = 0
    for r in packed:
        joined |= r & ((r << 1 | r >> (k - 1)) & full)
    gaps = full & ~joined
    return min(tuple(sorted(((r >> s) | (r << (k - s))) & full for r in packed))
               for s in (bits(gaps) if gaps else range(k)))


def _gap_count(mask, gens):
    """Positions j of mask, in cyclic bit order, where no generator inside
    mask holds both the position before j and j."""
    order = list(bits(mask))
    inside = [g for g in gens if g & ~mask == 0]
    return sum(not any(g >> a & 1 and g >> b & 1 for g in inside)
               for a, b in zip(order[-1:] + order[:-1], order))


def test_shape_key_is_the_runs_shape_key():
    ideals = [*_family_ideals(10), *_random_small_ideals(300, seed=20261021)]
    by_gaps = {0: 0, 1: 0, 2: 0}
    for ideal in ideals:
        for sigma in _lcm_closed(ideal):
            assert betti._shape(sigma, ideal.gens) == \
                _runs_shape(sigma, ideal.gens), (str(ideal), sigma)
            by_gaps[min(_gap_count(sigma, ideal.gens), 2)] += 1
    # σ with no gap, one gap and several gaps all occur
    assert min(by_gaps.values()) >= 100, by_gaps


def test_shape_rows_are_shared_and_kept_per_field(monkeypatch):
    ideals = list(_random_small_ideals(80, seed=31))
    cold, cold_rows = {}, 0
    for a, ideal in enumerate(ideals):
        for field in FIELDS_Q_2_3:
            monkeypatch.setattr(betti, "SHAPE_ROWS", {})
            cold[a, field] = hochster_betti(ideal, field)
            cold_rows += len(betti.SHAPE_ROWS)
    for order in (range(len(ideals)), range(len(ideals) - 1, -1, -1)):
        monkeypatch.setattr(betti, "SHAPE_ROWS", {})
        for a in order:
            for field in FIELDS_Q_2_3:
                assert hochster_betti(ideals[a], field) == cold[a, field], \
                    (str(ideals[a]), field)
        # later ideals read rows that earlier ones put in
        assert len(betti.SHAPE_ROWS) < cold_rows
    # RP^2 has 2-torsion: its rows differ between Q and GF(2), so a row
    # kept for one field must not serve the other
    rp2 = MonomialIdeal(6, _rp2_nonfaces(6))
    alone = {}
    for field in (RATIONALS, GF2):
        monkeypatch.setattr(betti, "SHAPE_ROWS", {})
        alone[field] = hochster_betti(rp2, field)
    assert alone[RATIONALS] != alone[GF2]
    for fields in ((RATIONALS, GF2), (GF2, RATIONALS)):
        monkeypatch.setattr(betti, "SHAPE_ROWS", {})
        for field in fields:
            assert hochster_betti(rp2, field) == alone[field], field


def _is_face_list(faces):
    """Strictly ascending from the empty face and closed under subsets,
    checked face by face."""
    present = set(faces)
    return (faces[:1] == [0] and all(a < b for a, b in zip(faces, faces[1:]))
            and all(f ^ 1 << v in present for f in faces for v in bits(f)))


def test_ranked_shapes_per_benchmark_instance(monkeypatch):
    ranked = []

    def counting(*args, **kwargs):
        ranked[-1] += 1
        # the producer keeps the face-list contract that homology relies on
        assert _is_face_list(args[0])
        return reduced_homology_ranks(*args, **kwargs)

    monkeypatch.setattr(betti, "reduced_homology_ranks", counting)
    monkeypatch.setattr(betti, "SHAPE_ROWS", {})
    for ideal, field in [(line_ideal(12, 2), RATIONALS), (line_ideal(12, 12), RATIONALS),
                         (line_ideal(12, 7), GF2), (cycle_ideal(12, 3), GF2)]:
        ranked.append(0)
        hochster_betti(ideal, field)
    # the traced depth_n12 pass reads betti.sigma_ranked = 28
    assert ranked == [11, 1, 6, 10]


def test_delta_filter_lists_the_subset_walk(monkeypatch):
    # a key per mask makes every connected lcm-closed σ a new shape, and
    # the face lists are only recorded, so no complex is reduced
    seen, faces_of = [], {}
    monkeypatch.setattr(betti, "_shape", lambda mask, gens: seen.append(mask) or mask)

    def recording(faces, field, nonfaces):
        faces_of[seen[-1]] = faces
        return {}

    monkeypatch.setattr(betti, "reduced_homology_ranks", recording)
    for ideal in [*_family_ideals(12), *_random_small_ideals(300, seed=23)]:
        seen.clear()
        faces_of.clear()
        # mask keys of two ideals can meet, so each starts from no rows
        monkeypatch.setattr(betti, "SHAPE_ROWS", {})
        hochster_betti(ideal)
        lcm = ideal.lcm_table().tolist()
        connected = [s for s in _lcm_closed(ideal)
                     if len(_pieces([g for g in ideal.gens if g & ~s == 0])) == 1]
        assert sorted(faces_of) == connected, str(ideal)
        for sigma, faces in faces_of.items():
            assert faces.dtype == np.int64
            # the reference: a Python walk over the submasks of σ
            assert faces.tolist() == [sub for sub in subsets(sigma) if not lcm[sub]], \
                (str(ideal), sigma)


def test_face_lists_hold_no_list_over_all_masks():
    # a Python list of the 2^16 lcm entries took the peak to 3.1 MB
    tracemalloc.start()
    try:
        table = hochster_betti(cycle_ideal(16, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.projective_dimension() == 8
    assert peak < 2_000_000


def test_rows_per_sigma_are_shared():
    # every σ of line:14:1 is lcm-closed, and its 15 distinct rows are
    # {i: 1}; a row built per σ would peak near 8 MB (4.8 MB when shared)
    tracemalloc.start()
    try:
        table = hochster_betti(line_ideal(14, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 1 << 14
    assert peak < 6_000_000


def test_rank_step_is_reached_on_rp2(monkeypatch):
    # no piece of the n = 12 benchmark sweep survives the reduction with
    # cells to rank; the projective plane does, over both fields
    calls = {"rank_bareiss": 0, "rank_mod_p": 0}
    for name in calls:
        real = getattr(homology, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(homology, name, counted)
    monkeypatch.setattr(betti, "SHAPE_ROWS", {})
    ideal = MonomialIdeal(6, _rp2_nonfaces(6))
    over_q = hochster_betti(ideal, RATIONALS)
    assert calls["rank_bareiss"] >= 1
    over_2 = hochster_betti(ideal, GF2)
    assert calls["rank_mod_p"] >= 1
    assert over_q != over_2


def test_no_family_depth_row_reaches_the_rank_step(monkeypatch):
    # the other side of the projective plane: on every family depth row
    # that verify samples up to n = 12, over both fields, the reduction
    # leaves no cell to rank, so only general ideals, the Taylor oracle and
    # complexes like the projective plane reach the step
    def reached(*args, **kwargs):
        raise AssertionError("a family depth row reached the rank step")

    monkeypatch.setattr(homology, "rank_bareiss", reached)
    monkeypatch.setattr(homology, "rank_mod_p", reached)
    monkeypatch.setattr(betti, "SHAPE_ROWS", {})
    rows = 0
    for name, fam in FAMILIES.items():
        if "depth" not in fam.quantities:
            continue
        for n in range(fam.suite_n_min, 13):
            for m in fam.suite_ms(n):
                ideal = family_module(name, n, m)[1]
                for field in (RATIONALS, GF2):
                    depth_quotient(ideal, field)
                    rows += 1
    assert rows == 206
