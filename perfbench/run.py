"""pathdepth benchmark: one workload, timed passes in fresh processes.

    python3 perfbench/run.py --workload depth_n12 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass runs in its own worker process
(worker.py), one at a time, single-threaded: a closed loop with one client.
A fresh process per pass keeps in-process caches, such as the lru_cache on
hochster_betti, from turning later passes into lookups.  Passes are started
until the next one would end past --seconds (at least MIN_PASSES).
Timings are scaled to one reference host speed by the probes of
calibrate.py, which say why.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Answers are checked
in every pass; any wrong answer, or a checker that misses the tampered
answers of selftest.py, makes the run exit 1.  A result file with the
machine's details goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_PASSES = 3
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 120
# a run stops starting passes after this long, whatever --seconds says
RUN_CAP_S = 150

SINGLE_THREAD_ENV = {
    "PATHDEPTH_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], list[float]]:
    """Timed passes and set-up samples.

    Untraced, each pass is followed by SETUP_SAMPLES set-up-only workers, so
    setup_s is a median over many starts spread across the run.  Traced,
    untraced and traced passes alternate.
    """
    min_passes = 2 if trace else MIN_PASSES
    passes: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        extra = []
        if traced:
            extra = ["--trace-out",
                     str(RESULTS / f"spans-{workload}-seed{seed}-pass{len(passes)}.json")]
        result = run_worker(workload, seed, *extra)
        result["traced"] = traced
        passes.append(result)
        setups.append(result["setup_s"])
        if not trace:
            setups += [run_worker(workload, seed, "--setup-only")["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(passes)
        if len(passes) >= min_passes and next_end > seconds:
            return passes, setups
        if len(passes) >= (2 if trace else 1) and next_end > RUN_CAP_S:
            return passes, setups


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, dict]:
    sd_attempted = sum(p["sdepth_attempted"] for p in passes)
    sd_exact = sum(p["sdepth_exact"] for p in passes)
    # no sdepth answers at all (depth_n12): every answer given is exact
    exact_frac = sd_exact / sd_attempted if sd_attempted else 1.0
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": statistics.median(p["pass_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
        "exact_frac": {"value": exact_frac, "unit": "frac"},
    }


def per_layer(passes: list[dict]) -> dict[str, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                  "unit": unit_of(name)}
           for name in traced[0]["layers"]}
    traced_pass = statistics.median(p["pass_s"] for p in traced)
    plain_pass = statistics.median(p["pass_s"] for p in plain)
    out["trace.pass_s"] = {"value": traced_pass, "unit": "s"}
    out["trace.untraced_pass_s"] = {"value": plain_pass, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_pass - plain_pass, "unit": "s"}
    return out


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform()}


def check_the_checker() -> None:
    import selftest as st
    tally, tampered = st.run_selftest()
    if tally.failed != tampered:
        raise BenchError(f"checker self-test: {tally.failed} of {tampered} "
                         f"tampered answers flagged: {tally.errors}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "pathdepth" / "__init__.py").is_file():
        print(f"error: no pathdepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    os.environ.update(SINGLE_THREAD_ENV)
    try:
        # the build: byte-compile once so no worker pays for it in setup_s
        if not compileall.compile_dir(str(SRC / "pathdepth"), quiet=1) or \
                not compileall.compile_dir(str(HERE), quiet=1, maxlevels=0):
            raise BenchError("byte-compilation failed")
        RESULTS.mkdir(exist_ok=True)
        check_the_checker()
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setups)
    pass_times = [p["pass_s"] for p in passes if not p["traced"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "metrics": metrics,
              "error_frac": failed / attempted, "attempted": attempted,
              "failed": failed, "passes": passes, "setup_samples": setups,
              "errors": [e for p in passes for e in p["errors"]]}
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    q = quartiles(pass_times)
    qw = quartiles([p["wall_pass_s"] for p in passes if not p["traced"]])
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(pass_times)} untraced; pass_s quartiles "
          f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s scaled, "
          f"{qw[0]:.4f} / {qw[1]:.4f} / {qw[2]:.4f} s wall")
    print(f"  {'error_frac':24} {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"  {name:24} {m['value']:.6g} {m['unit']}")
    for err in record["errors"][:20]:
        print(f"  WRONG {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
