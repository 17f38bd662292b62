"""Run one ``xbsim`` verb in a fresh process and report how it ran.

Usage:
    python3 perfbench/child.py RESULT_JSON SPAWN_MONOTONIC TRACE_JSON|- [XBSIM_ARGV ...]

SPAWN_MONOTONIC is ``time.monotonic()`` in the parent just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` runs from
spawn to ``artifact.cli`` imported.  With no XBSIM_ARGV the process only
imports (a set-up probe).  With a TRACE_JSON path, the layer functions are
wrapped before ``main`` runs and the spans are written there at exit.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    result_path, spawned, trace_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import artifact.cli as cli

    setup_s = time.monotonic() - spawned
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if argv:
        tracer = None
        if trace_path != "-":
            from tracer import Tracer

            tracer = Tracer(run_id=os.path.relpath(trace_path, ROOT))
            tracer.install()
            root = tracer.begin(f"cli.{argv[0]}")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.end(root)
            tracer.dump(trace_path)
        result.update(
            rc=rc,
            wall_s=wall_s,
            cpu_s=(after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            threads=_threads(),
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
