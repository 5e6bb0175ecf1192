"""Reduced simplicial homology over Q and GF(p)."""

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from pathdepth.betti import GF2, RATIONALS, Field
from pathdepth.graphs import cycle_ideal, line_ideal
from pathdepth.homology import (boundary_matrix, chain_homology_ranks,
                                reduce_faces, reduced_homology_ranks)
from pathdepth.ideals import bits, monomial

FIELDS = [RATIONALS, GF2, Field(3)]
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def _closure(facets, n):
    faces = set()
    for f in facets:
        for r in range(len(f) + 1):
            for sub in combinations(f, r):
                faces.add(monomial(sub, n))
    return faces


def _ranks(faces, field):
    """reduced_homology_ranks of a face set, listed as the contract asks."""
    return reduced_homology_ranks(sorted(faces), field)


def test_void_complex_has_no_homology():
    assert reduced_homology_ranks([], RATIONALS) == {}


def test_empty_face_only():
    # the complex {∅}: one reduced homology class in dimension -1
    assert reduced_homology_ranks([0], RATIONALS) == {-1: 1}


def test_single_point_is_acyclic():
    assert _ranks(_closure([[1]], 3), RATIONALS) == {}


def test_two_points():
    assert _ranks(_closure([[1], [3]], 3), RATIONALS) == {0: 1}


def test_hollow_triangle_is_a_circle():
    assert _ranks(_closure([[1, 2], [2, 3], [1, 3]], 3), RATIONALS) == {1: 1}


def test_full_simplex_is_acyclic():
    assert _ranks(_closure([[1, 2, 3, 4]], 4), RATIONALS) == {}


def test_hollow_tetrahedron_is_a_sphere():
    facets = [list(c) for c in combinations(range(1, 5), 3)]
    assert _ranks(_closure(facets, 4), RATIONALS) == {2: 1}


def test_projective_plane_depends_on_field():
    faces = _closure(RP2, 6)
    assert _ranks(faces, RATIONALS) == {}
    assert _ranks(faces, GF2) == {1: 1, 2: 1}
    # torsion is 2-torsion only, so odd primes agree with Q
    assert _ranks(faces, Field(3)) == _ranks(faces, RATIONALS)


def test_face_list_off_contract_is_refused():
    # the list is taken as it is, not re-sorted: the edge {1, 2} listed out
    # of order, with a repeat (its cells would count twice), without ∅;
    # an int64 array is held to the same contract
    for form in (list, lambda faces: np.array(faces, dtype=np.int64)):
        assert reduced_homology_ranks(form([0, 1, 2, 3]), RATIONALS) == {}
        assert reduced_homology_ranks(form([0, 1, 2]), RATIONALS) == {0: 1}
        for faces in ([0, 2, 1, 3], [0, 1, 1, 2, 3], [1, 2, 3]):
            with pytest.raises(ValueError, match="ascend"):
                reduced_homology_ranks(form(faces), RATIONALS)


def test_boundary_matrix_squares_to_zero():
    faces = sorted(_closure([[1, 2, 3], [2, 3, 4]], 4))
    by_dim = {}
    for f in faces:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    d1 = boundary_matrix(by_dim[0], by_dim[1])
    d2 = boundary_matrix(by_dim[1], by_dim[2])
    assert not (d1 @ d2).any()


def _unreduced_ranks(faces, field):
    """Reduced homology ranks from the boundary matrices of every face."""
    cells = {}
    for f in sorted(faces):
        cells.setdefault(f.bit_count(), []).append(f)
    return {s - 1: h for s, h in enumerate(chain_homology_ranks(cells, field)) if h}


def _random_complexes(count, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        top = rng.randint(1, n)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, top))
                  for _ in range(rng.randint(1, 10))]
        yield _closure(facets, n)


def _gapped_complexes(count, seed):
    """Random complexes on up to 10 vertices whose labels skip values."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = rng.sample(range(1, 11), rng.randint(1, 10))
        facets = [rng.sample(labels, rng.randint(1, min(len(labels), 6)))
                  for _ in range(rng.randint(1, 12))]
        yield _closure(facets, 10)


def _join(left, right, shift):
    """The join of two face sets, with the right one's vertices moved up by
    shift bits."""
    return {f | g << shift for f in left for g in right}


RP2_FACES = _closure(RP2, 6)
# the cone over RP^2, its suspension, and its join with a circle
RP2_BUILDS = [_join(RP2_FACES, _closure([[1]], 1), 6),
              _join(RP2_FACES, _closure([[1], [2]], 2), 6),
              _join(RP2_FACES, _closure([[1, 2], [2, 3], [1, 3]], 3), 6)]


def _minimal_nonfaces(faces):
    """The minimal non-faces of a face set, by a walk over every mask up to
    its highest vertex: the masks not in it whose facets all are."""
    top = max(faces).bit_length()
    return [s for s in range(1 << top) if s not in faces
            and all(s ^ 1 << b in faces for b in bits(s))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduction_keeps_homology(field):
    # RP^2 first: its H̃_1 and H̃_2 differ between Q and GF(2); with the
    # minimal non-faces given, the collapse takes the stars of every vertex
    # of W at once
    wide = 0
    for faces in [RP2_FACES, *RP2_BUILDS, *_random_complexes(150),
                  *_gapped_complexes(300, seed=17)]:
        expected = _unreduced_ranks(faces, field)
        nonfaces = _minimal_nonfaces(faces)
        assert _ranks(faces, field) == expected
        assert reduced_homology_ranks(sorted(faces), field, nonfaces) == expected
        # two vertices in no common non-face, which W may both take
        vertices = [f.bit_length() - 1 for f in faces if f.bit_count() == 1]
        wide += any(not any(g >> a & g >> b & 1 for g in nonfaces)
                    for a, b in combinations(vertices, 2))
    assert wide >= 300


def test_torsion_survives_the_star_collapse():
    # the collapse takes the star of one vertex; in the suspension and the
    # join of RP^2 the 2-torsion must live on in the cells left after it
    _, suspension, join = RP2_BUILDS
    for faces, shift in ((suspension, 1), (join, 2)):
        assert reduce_faces(sorted(faces))
        assert _ranks(faces, RATIONALS) == {}
        assert _ranks(faces, GF2) == {1 + shift: 1, 2 + shift: 1}


def test_cone_and_simplex_reduce_to_nothing():
    cone = _closure([(*t, 7) for t in RP2], 7)
    simplex = _closure([range(1, 6)], 5)
    for faces in (cone, simplex):
        assert reduce_faces(sorted(faces)) == {}
        assert _ranks(faces, RATIONALS) == {}


def test_worklist_never_holds_a_cell_twice(monkeypatch):
    # a cell already queued is not queued again, so the pops stay near the
    # number of faces, and the homology is still that of the whole complex
    class OnceDeque(deque):
        def __init__(self, cells=()):
            cells = list(cells)
            assert len(set(cells)) == len(cells)
            super().__init__(cells)

        def append(self, cell):
            assert cell not in self
            super().append(cell)

        def extend(self, cells):
            for cell in cells:
                self.append(cell)

    monkeypatch.setattr("pathdepth.homology.deque", OnceDeque)
    for faces in [_closure(RP2, 6), *_random_complexes(60, seed=5)]:
        assert _ranks(faces, GF2) == _unreduced_ranks(faces, GF2)


def _stanley_reisner_faces(ideal):
    lcm = ideal.lcm_table()
    return [s for s in range(1 << ideal.n) if not lcm[s]]


@pytest.mark.parametrize("faces, nonfaces, most_pops, ranks", [
    # the boundary of the 11-simplex: the star of one vertex is every face
    # but the facet opposite it, which is the one cell left
    (range((1 << 12) - 1), None, 1, {10: 1}),
    (_stanley_reisner_faces(cycle_ideal(16, 14)), None, 100, {12: 1}),
    # with the generators given the stars of many vertices go at once; the
    # star of one vertex left 4063 and 912 pops
    (_stanley_reisner_faces(cycle_ideal(16, 3)), cycle_ideal(16, 3).gens, 200, {7: 3}),
    (_stanley_reisner_faces(line_ideal(16, 5)), line_ideal(16, 5).gens, 50, {}),
], ids=["boundary-of-11-simplex", "cyc:16:14", "cyc:16:3", "line:16:5"])
def test_star_collapse_leaves_few_pops(monkeypatch, faces, nonfaces, most_pops, ranks):
    # one queue pop per face without the collapse: 4096, 65503, 17155, 52656
    pops = 0

    class CountingDeque(deque):
        def popleft(self):
            nonlocal pops
            pops += 1
            return super().popleft()

    monkeypatch.setattr("pathdepth.homology.deque", CountingDeque)
    got = reduced_homology_ranks(list(faces), GF2, nonfaces)
    assert pops <= most_pops
    assert got == ranks


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    # modular rank works in int64, so the prime must stay below 2^31
    for big in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\^31"):
            Field(big)
    assert Field(2**31 - 1).p == 2**31 - 1
    assert str(Field(7)) == "GF(7)"
    assert str(RATIONALS) == "Q"
