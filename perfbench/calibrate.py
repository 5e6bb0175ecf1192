"""Host speed probe, so that timings can be scaled to one reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: for
seconds to minutes at a time the same code runs up to ~1.8x slower (other
tenants on the same physical cores; the process's CPU time grows with its
wall time, so it is not stolen time).  Whole runs land in one state, so no
median within a run removes it.

A probe is a fixed ~1 ms piece of pure-Python work of the kinds the
engines spend their time in: small-integer bit tricks, dict updates and
frozenset subset tests.  While a timed call runs, a SIGALRM every
INTERVAL_S runs the probe in the calling thread and records its time; one
more probe runs just before and one just after the call.  The call's wall
time less the probes' own time, ``w``, is reported as
``w * REFERENCE_PROBE_S / p``, ``p`` the mean probe time: the time the
call would have taken at the speed at which the probe takes
REFERENCE_PROBE_S.

Over 95 passes in 20 runs of 30 s (five seeds per workload; Xeon,
Sapphire Rapids, 2 vCPUs) this cut the spread of the pass times, as the
distance between quartiles over the median, from 0.20 to 0.09 on
depth_n12, 0.20 to 0.03 on sdepth_frontier, 0.27 to 0.05 on sdepth_search
and 0.09 to 0.04 on verify_n9.  Fitting log w against log p per instance
gave slopes near 1 (0.8-1.0) except for the Bareiss-bound line:12:12 over
Q (0.45), whose time is mostly spent inside numpy.  Probes taken only
before and after each call did much worse, as the speed changes within a
call.

The probe is the benchmark's own code: nothing the program does changes
how long it takes, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

# the probe's time on the reference host at full speed (Xeon, Sapphire
# Rapids, 2 vCPUs); scaled timings read as seconds there
REFERENCE_PROBE_S = 0.00085
# one probe per INTERVAL_S of a timed call: ~2.5% of its wall time
INTERVAL_S = 0.05
SETUP_PROBES = 10

_SETS = [frozenset(j for j in range(10) if (k >> j) & 1) for k in range(0, 1024, 16)]


def _work() -> int:
    acc = 0
    counts: dict[int, int] = {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFF
        acc += (x & -x).bit_length()
        counts[x & 0xFF] = counts.get(x & 0xFF, 0) + 1
    return acc + len(counts) + sum(1 for a in _SETS for b in _SETS if a <= b)


def probe_s() -> float:
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def warm_up() -> None:
    """Run the probe untimed: the first runs in a process pay for bytecode
    specialisation and cold caches."""
    for _ in range(5):
        _work()


def scaled(wall_s: float, probe: float) -> float:
    return wall_s * REFERENCE_PROBE_S / probe


def scaled_setup(wall_s: float) -> float:
    """Scale a set-up time by probes taken right after it."""
    warm_up()
    return scaled(wall_s, statistics.mean(probe_s() for _ in range(SETUP_PROBES)))


def timed(call: Callable[[], object]) -> tuple[object, float, float]:
    """Run ``call`` with the probe sampling the host speed around and
    during it; returns its result, its wall time less the probes', and
    that time scaled to the reference speed.  Main thread only."""
    samples = [probe_s()]

    def sample(_signum, _frame):
        samples.append(probe_s())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        t = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    during = sum(samples[1:])
    samples.append(probe_s())
    net = wall - during
    return result, net, scaled(net, statistics.mean(samples))
