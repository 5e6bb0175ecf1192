"""One pass of a workload in a fresh process; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
``--t0`` set to the parent's monotonic clock just before the start, so
setup_s covers interpreter start, ``import pathdepth`` and building the
workload's ideals, up to the first timed call.  Answer checks run after
the timed pass.  Every timing is reported twice: as measured (less the
probes' own time), and scaled to the reference host speed by the probes
of calibrate.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import resource
import sys
import time

import pathdepth
import pathdepth.cli  # verify_n9 calls into it
import calibrate
import tracing
import workloads as wl

_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def release_freed_memory() -> None:
    """Hand freed heap back to the OS, so that the peak RSS of a pass is
    that of its largest instance and not of the order the seed chose."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def solve(spec, j_ideal, i_ideal):
    try:
        if spec.kind == "betti":
            return pathdepth.betti.hochster_betti(i_ideal, wl.field_of(spec))
        return pathdepth.sdepth.stanley_depth(j_ideal, i_ideal,
                                              node_budget=spec.budget)
    except Exception as exc:  # counted in error_frac by check_pass
        return f"{type(exc).__name__}: {exc}"


def prepare(workload, seed, tracer, pinned):
    """Set-up: build the workload's ideals.  Returns the pass, a function
    that gives ({instance label: wall seconds}, {instance label: seconds
    scaled to the reference speed}, outputs for the checks)."""
    if workload == "verify_n9":
        buf = io.StringIO()

        def verify():
            try:
                with contextlib.redirect_stdout(buf):
                    return pathdepth.cli.run_command(wl.VERIFY_ARGV)
            except Exception as exc:  # counted in error_frac: every row fails
                return f"{type(exc).__name__}: {exc}"

        def run_verify():
            rc, wall, scaled = calibrate.timed(verify)
            return {"verify": wall}, {"verify": scaled}, (rc, buf.getvalue())
        return run_verify

    instances = []
    for spec, perm in wl.plan(workload, seed, pinned):
        if tracer:
            tracer.instance = spec.label
        with tracer.span("ideals.build") if tracer else contextlib.nullcontext():
            instances.append((spec, *spec.module(perm)))

    def run_instances():
        results = []
        wall_s, scaled_s = {}, {}
        for spec, j_ideal, i_ideal in instances:
            if tracer:
                tracer.instance = spec.label
            release_freed_memory()
            res, wall_s[spec.label], scaled_s[spec.label] = calibrate.timed(
                lambda: solve(spec, j_ideal, i_ideal))
            results.append(res)
        return wall_s, scaled_s, (instances, results)
    return run_instances


def check_pass(workload, outputs, pinned, tracer) -> wl.Tally:
    tally = wl.Tally()
    if workload == "verify_n9":
        rc, text = outputs
        wl.check_verify(rc, text, pinned["verify_n9"], tally)
        return tally
    for (spec, j_ideal, i_ideal), res in zip(*outputs):
        if tracer:
            tracer.instance = spec.label
        tally.sdepth_attempted += spec.kind == "sdepth"
        if isinstance(res, str):
            problem = f"raised {res}"
        elif spec.kind == "betti":
            problem = wl.check_betti(spec, res, pinned["betti"][spec.label])
        else:
            validation = pathdepth.sdepth.validate_decomposition(
                res.certificate, j_ideal, i_ideal)
            tally.sdepth_exact += res.exact
            problem = wl.check_sdepth(spec, res, validation,
                                      pinned["sdepth"][spec.label])
        tally.record(spec.label, problem)
    return tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up; report only setup_s")
    args = p.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    pinned = wl.load_pinned()
    run = prepare(args.workload, args.seed, tracer, pinned)

    setup_wall_s = time.monotonic() - args.t0
    setup_s = calibrate.scaled_setup(setup_wall_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    wall_s, instance_s, outputs = run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = check_pass(args.workload, outputs, pinned, tracer)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
           "pass_s": sum(instance_s.values()), "instance_s": instance_s,
           "wall_pass_s": sum(wall_s.values()), "instance_wall_s": wall_s,
           "peak_rss_mb": peak_rss_mb,
           "attempted": tally.attempted, "failed": tally.failed,
           "sdepth_attempted": tally.sdepth_attempted,
           "sdepth_exact": tally.sdepth_exact, "errors": tally.errors}
    if tracer:
        # span times in the same reference-speed seconds as pass_s
        out["layers"] = tracing.layer_metrics(tracer.spans,
                                              out["pass_s"] / out["wall_pass_s"])
        out["spans"] = len(tracer.spans)
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
