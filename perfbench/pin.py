"""Regenerate pinned.json, the reference answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only on a commit whose answers are trusted: every later run is
compared against what it writes.  It pins the Betti tables of the depth
instances, the Stanley depth of every sdepth instance, the rows of the
verify run, and the pool of relabellings for the relabelled instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

from pathdepth import cli, hochster_betti, stanley_depth
from pathdepth.ideals import VarPermutation

import workloads as wl

POOL_SIZE = 8


def hard_relabellings(spec: wl.Spec) -> list[list[int]]:
    """The first POOL_SIZE random relabellings (random.Random(i), i = 0, 1, ...)
    under which the instance is not settled within its node budget.

    About half of all random relabellings of J_13,2 settle in ~250 nodes and
    the rest exhaust 10k; drawing from both would make exact_frac and pass_s
    of sdepth_search depend on the seed, so the pool keeps the hard half.
    """
    pool = []
    i = 0
    while len(pool) < POOL_SIZE:
        images = list(range(1, spec.n + 1))
        random.Random(i).shuffle(images)
        j_ideal, i_ideal = spec.module(VarPermutation(tuple(images)))
        if not stanley_depth(j_ideal, i_ideal, node_budget=spec.budget).exact:
            pool.append(images)
        i += 1
    return pool


def main() -> int:
    pinned = {"betti": {}, "sdepth": {}, "relabel_pool": {}}
    for specs in wl.WORKLOADS.values():
        for spec in specs or ():
            j_ideal, i_ideal = spec.module()
            if spec.kind == "betti":
                table = hochster_betti(i_ideal, wl.field_of(spec))
                pinned["betti"][spec.label] = [list(e) for e in table.entries]
                continue
            pinned["sdepth"][spec.label] = stanley_depth(
                j_ideal, i_ideal, node_budget=spec.budget).sdepth
            if spec.relabel:
                pinned["relabel_pool"][spec.label] = hard_relabellings(spec)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run_command(wl.VERIFY_ARGV)
    if rc != 0:
        print(f"verify exited {rc}; nothing pinned", file=sys.stderr)
        return 1
    pinned["verify_n9"] = [[r["family"], r["n"], r["m"], r["quantity"], r["computed"]]
                           for r in json.loads(buf.getvalue())]
    with open(wl.PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
