"""Self-test of the answer checker: tampered answers must be caught.

    PYTHONPATH=src python3 perfbench/selftest.py

Feeds the checker hand-written answers for tiny instances, each correct
one next to tampered copies: a wrong Betti entry, a wrong depth (as a Betti
table and as a verify row) and a tampered certificate.  error_frac must
count exactly the tampered ones.  No engine runs here, so a wrong engine
cannot hide a blind checker.  run.py runs this before every measurement.
"""

from __future__ import annotations

import json
import sys

from pathdepth.betti import BettiTable
from pathdepth.ideals import monomial
from pathdepth.sdepth import (Interval, SdepthResult, StanleyCertificate,
                              validate_decomposition)

import workloads as wl

# S/(x1x2, x2x3): one syzygy in degree x1x2x3, so pd 2 and depth 1
LINE_3_2 = [(0, 0b000, 1), (1, 0b011, 1), (1, 0b110, 1), (2, 0b111, 1)]


def run_selftest() -> tuple[wl.Tally, int]:
    """Returns the tally over all cases and the number of tampered cases."""
    tally = wl.Tally()
    tampered = 0

    spec = wl.Spec("betti", "line", 3, 2, field="Q")
    table = BettiTable(3, tuple(LINE_3_2))
    tally.record("betti control", wl.check_betti(spec, table, LINE_3_2))
    wrong_entry = BettiTable(3, tuple(LINE_3_2[:-1]) + ((2, 0b111, 2),))
    tally.record("betti tampered", wl.check_betti(spec, wrong_entry, LINE_3_2))
    wrong_depth = BettiTable(3, tuple(LINE_3_2) + ((3, 0b111, 1),))
    tally.record("depth tampered", wl.check_betti(spec, wrong_depth, LINE_3_2))
    tampered += 2

    row = {"family": "line", "n": 3, "m": 2, "quantity": "depth",
           "computed": 1, "status": "MATCH"}
    pinned_rows = [["line", 3, 2, "depth", 1]]
    wl.check_verify(0, json.dumps([row]), pinned_rows, tally)
    wl.check_verify(0, json.dumps([dict(row, computed=2)]), pinned_rows, tally)
    tampered += 1

    # the maximal ideal of K[x1, x2]: [x1, x1x2] and [x2, x2], sdepth 1
    spec = wl.Spec("sdepth", "max", 2)
    j_ideal, i_ideal = spec.module()
    x1, x2 = monomial([1], 2), monomial([2], 2)
    for name, ivs in (("certificate control", [Interval(x1, x1 | x2), Interval(x2, x2)]),
                      ("certificate tampered", [Interval(x1, x1 | x2)])):
        cert = StanleyCertificate(ivs, 1)
        result = SdepthResult(1, cert, True, 0)
        tally.record(name, wl.check_sdepth(
            spec, result, validate_decomposition(cert, j_ideal, i_ideal), 1))
    tampered += 1
    return tally, tampered


def main() -> int:
    tally, tampered = run_selftest()
    for line in tally.errors:
        print("caught:", line)
    print(f"error_frac {tally.failed}/{tally.attempted}, tampered {tampered}")
    return 0 if tally.failed == tampered else 1


if __name__ == "__main__":
    sys.exit(main())
