"""Host-speed probe: a fixed sliver of reference work, timed while a child runs.

On a shared VM the speed of a virtual CPU drifts: slow phases of a few
seconds (up to ~50% slower) come and go, and the level itself wanders by
±25% over minutes.  A 40-s run can sit wholly in a slow or a fast stretch,
so run medians of raw wall time spread wider than any useful bound.  The
drift is per virtual CPU (two CPUs' speeds correlate at ~0.25), so the runner
pins itself and its children to one CPU and, while it waits for a child,
calls ``probe()`` every ``PERIOD_S``.  Each probe is ~1 ms of CPU time on the
child's own CPU, so the probes sample the speed the child is getting.  A
child's times are scaled by ``REFERENCE_S`` over the mean of its probes.

The reference work belongs to the benchmark, not to the program, so a change
to the program moves the scaled time exactly as much as the raw one; only the
host's drift is divided out.  It is a pure-Python loop (what ``daq`` and
``stats`` do), a numpy pass over a 256 KB array and a random gather from a
32 MB one (what ``spdc`` and ``montecarlo`` do, in cache and in memory).  It
is timed in thread CPU time, so the child's own time slices on the shared CPU
do not count (a probe timed by the wall clock is often preempted by the
child).  The probes take ~1.5% of the CPU from the child, the same on every
commit.  On a shared 2-core VM the probe time correlated with the wall time of
the invocation it ran beside at 0.97-0.98 on ``model_ref`` and
``analyze_long``, and scaling cut the spread of single invocations from
0.09-0.17 to 0.02-0.06 (standard deviation of the log).
"""

from __future__ import annotations

import time

import numpy as np

PERIOD_S = 0.1
# Median of probe() on the shared 2-core x86 VM the baseline was measured on;
# a scaled time reads in seconds of a host running at that speed.
REFERENCE_S = 0.0014

_ARRAY = np.random.default_rng(0).random(32_768)  # 256 KB: stays in cache
_LARGE = np.random.default_rng(1).random(4_000_000)  # 32 MB: misses every cache
_GATHER = np.random.default_rng(2).integers(0, len(_LARGE), 20_000)


def probe() -> float:
    """CPU seconds the reference work takes now; lower means a faster host."""
    start = time.thread_time()
    total = 0
    table = {}
    for i in range(5_000):
        total += i * 3 % 7
        table[i & 1023] = total
    float(np.exp(_ARRAY).sum())
    float(_LARGE[_GATHER].sum())
    return time.thread_time() - start
