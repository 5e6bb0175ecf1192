"""Exact depth and Stanley depth engines for path ideals of line and cyclic graphs."""

from .ideals import MonomialIdeal, VarPermutation, monomial, monomial_vars
from .graphs import cycle_ideal, line_ideal
from .betti import (Field, RATIONALS, GF2, BettiTable, depth_quotient,
                    hochster_betti, projective_dimension, taylor_betti)
from .sdepth import (CharPoset, Interval, StanleyCertificate, SdepthResult,
                     build_char_poset, sdepth_at_least, stanley_depth,
                     validate_decomposition)
from .towers import (Tower, TowerStep, tower_sequence,
                     check_exact_sequence_inequalities,
                     check_tower_identifications)
from .oracle import Expectation, expectation, phi, verify_suite

__all__ = [
    "MonomialIdeal", "VarPermutation", "monomial", "monomial_vars",
    "cycle_ideal", "line_ideal",
    "Field", "RATIONALS", "GF2", "BettiTable", "depth_quotient",
    "hochster_betti", "projective_dimension", "taylor_betti",
    "CharPoset", "Interval", "StanleyCertificate", "SdepthResult",
    "build_char_poset", "sdepth_at_least", "stanley_depth",
    "validate_decomposition",
    "Tower", "TowerStep", "tower_sequence",
    "check_exact_sequence_inequalities", "check_tower_identifications",
    "Expectation", "expectation", "phi", "verify_suite",
]
