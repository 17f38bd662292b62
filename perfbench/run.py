"""Benchmark of the ``xbsim`` verbs, end to end and per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run is a closed loop with one client: it starts ``xbsim <verb>`` as a child
process (``perfbench/child.py`` calling ``artifact.cli.main``), waits for it,
checks its outputs, and starts the next one while another fits in
``--seconds``.  The rest of the time goes to set-up probes, processes that
only import ``artifact.cli``.  The runner and its children share one CPU;
while a child runs, the runner samples that CPU's speed with a fixed sliver of
reference work (``perfbench/hostspeed.py``) and scales the child's times to a
host of reference speed.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates traced and untraced invocations and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import eventgen
import hostspeed
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(BENCH, "child.py")
CLI_SOURCE = os.path.join(ROOT, "src", "artifact", "cli.py")

HARD_LIMIT_S = 160.0  # every child is stopped by then, so a run exits well within 180 s
MIN_PROBES = 3
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}  # the code makes no BLAS calls; keeps one thread

E2E_UNITS = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB", "norm_work_per_s": "1/s"}
HOST_UNITS = {"host.wall_s": "s", "host.speed": "ratio"}  # reported with the per-layer metrics

# Reference grid (2400 x 160 x 40) plus the sweep grid (2400 x 500 x 20).
MODEL_CELLS = 2400 * 160 * 40 + 2400 * 500 * 20
SIMULATE_LIVE_S = 600.0
ANALYZE_EVENTS = 12_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    throughput: str  # what work_per_s counts on this workload
    prepare: Callable[[str, int], dict]  # (workdir, seed) -> context
    argv: Callable[[str, int, dict], list]  # (outdir, seed, context) -> xbsim argv
    check: Callable[[str, dict], list]  # (outdir, context) -> problems
    work: Callable[[dict], float]  # context -> units of work per invocation


def _reference() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _prepare_analyze(workdir: str, seed: int) -> dict:
    path = os.path.join(workdir, "input", "events.csv")
    os.makedirs(os.path.dirname(path))
    return {"events_path": path, "truth": eventgen.generate(path, seed, ANALYZE_EVENTS)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "model_ref",
            "deterministic half: spdc amplitude and sweep; bypasses montecarlo, daq and stats",
            "grid_cells_per_s",
            lambda workdir, seed: {"ref": _reference()["model_ref"]},
            lambda outdir, seed, ctx: ["model", "--outdir", outdir],
            lambda outdir, ctx: checks.check_model(outdir, ctx["ref"]),
            lambda ctx: MODEL_CELLS,
        ),
        Workload(
            "simulate_ref_long",
            "Monte Carlo chain over 600 s live time: amplitude, photon streams, event build and write",
            "live_s_per_s",
            lambda workdir, seed: {"ref": _reference()["simulate_ref_long"]},
            lambda outdir, seed, ctx: [
                "simulate", "--outdir", outdir, "--seed", str(seed),
                "--set", f"source.duration_s={SIMULATE_LIVE_S:g}",
            ],
            lambda outdir, ctx: checks.check_simulate(outdir, ctx["ref"]),
            lambda ctx: SIMULATE_LIVE_S,
        ),
        Workload(
            "analyze_long",
            "estimators over a 12k-event synthetic file: event read, energy_select, sigma; no spdc or montecarlo",
            "events_per_s",
            _prepare_analyze,
            lambda outdir, seed, ctx: ["analyze", "--events", ctx["events_path"], "--outdir", outdir],
            lambda outdir, ctx: checks.check_analyze(outdir, ctx["truth"]),
            lambda ctx: ctx["truth"]["events"],
        ),
    )
}


def _spawn(result_path: str, trace_path: str, argv: list, log_path: str, deadline: float) -> tuple[int | None, float, float]:
    """Run one child to completion, probing the host while it runs.

    Returns (exit code or None on timeout, seconds, mean probe seconds).
    """
    env = dict(os.environ, **CHILD_ENV)
    probes = []
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, repr(spawned), trace_path, *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        while True:
            try:
                rc = proc.wait(timeout=hostspeed.PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    rc = None
                    break
                probes.append(hostspeed.probe())
        seconds = time.monotonic() - spawned
    if not probes:
        probes.append(hostspeed.probe())
    return rc, seconds, statistics.fmean(probes)


def _load_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _invoke(wl: Workload, workdir: str, index: int, seed: int, ctx: dict, traced: bool, deadline: float) -> dict:
    """One closed-loop request: run the verb, then check what it wrote."""
    outdir = os.path.join(workdir, f"out{index}")
    result_path = os.path.join(workdir, f"result{index}.json")
    trace_path = os.path.join(workdir, f"trace{index}.json") if traced else "-"
    log_path = os.path.join(workdir, f"log{index}.txt")
    rc, seconds, host_probe_s = _spawn(result_path, trace_path, wl.argv(outdir, seed, ctx), log_path, deadline)
    child = _load_json(result_path)
    problems = []
    if rc is None:
        problems.append("timed out")
    elif rc != 0 or child is None or child.get("rc") != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            problems.append(f"exit {rc}, xbsim {child and child.get('rc')}: {fh.read()[-400:]}")
    else:
        try:
            problems = wl.check(outdir, ctx)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    digest = None
    if not problems and wl.name == "simulate_ref_long":
        digest = checks.file_digest(os.path.join(outdir, "events.csv"))
    shutil.rmtree(outdir, ignore_errors=True)
    return {
        "ok": not problems,
        "problems": problems,
        "seconds": seconds,
        "host_probe_s": host_probe_s,
        "traced": traced,
        "child": child,
        "trace": _load_json(trace_path) if traced and not problems else None,
        "digest": digest,
    }


def _probe(workdir: str, index: int, deadline: float) -> dict | None:
    result_path = os.path.join(workdir, f"probe{index}.json")
    rc, _seconds, host_probe_s = _spawn(result_path, "-", [], os.path.join(workdir, f"probe{index}.txt"), deadline)
    child = _load_json(result_path) if rc == 0 else None
    return child and {**child, "host_probe_s": host_probe_s}


def _scaled(seconds: float, host_probe_s: float) -> float:
    """A time taken on the host as probed, in seconds of a reference-speed host."""
    return seconds * hostspeed.REFERENCE_S / host_probe_s


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            digest.update(checks.file_digest(path).encode())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout carries no history
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; return the result with metrics, samples and provenance."""
    workdir = os.path.join(WORK, f"{wl.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    begin = time.monotonic()
    hard_deadline = begin + HARD_LIMIT_S
    ctx = wl.prepare(workdir, seed)
    measure_end = time.monotonic() + seconds

    invocations: list[dict] = []
    probes: list[dict | None] = []
    longest = 0.0
    while True:
        now = time.monotonic()
        need = not invocations or (trace and len(invocations) < 2)
        if not need and now + longest > measure_end:
            break
        traced = trace and len(invocations) % 2 == 0
        start = time.monotonic()
        inv = _invoke(wl, workdir, len(invocations), seed, ctx, traced, hard_deadline)
        invocations.append(inv)
        longest = max(longest, time.monotonic() - start)
        if inv["problems"] == ["timed out"]:
            break
    # Every invocation also samples set-up; probes fill the time no further invocation fits in.
    while len(probes) < MIN_PROBES or time.monotonic() < measure_end:
        if time.monotonic() > hard_deadline - 5:
            break
        probes.append(_probe(workdir, len(probes), hard_deadline))

    digests = {inv["digest"] for inv in invocations if inv["digest"]}
    if len(digests) > 1:  # same seed, same config: the event file must not change
        for inv in invocations:
            if inv["ok"]:
                inv["ok"] = False
                inv["problems"].append("events.csv differs between invocations with one seed")
    shutil.rmtree(os.path.join(workdir, "input"), ignore_errors=True)

    good = [inv for inv in invocations if inv["ok"]]
    for inv in good:
        inv["norm_wall_s"] = _scaled(inv["child"]["wall_s"], inv["host_probe_s"])
    plain = [inv for inv in good if not inv["traced"]]
    children = [p for p in probes if p] + [inv["child"] | {"host_probe_s": inv["host_probe_s"]} for inv in good]
    samples = {
        "setup_s": [_scaled(c["setup_s"], c["host_probe_s"]) for c in children],
        "norm_wall_s": [inv["norm_wall_s"] for inv in plain],
        "wall_s": [inv["child"]["wall_s"] for inv in plain],
        "host_probe_s": [c["host_probe_s"] for c in children],
        "peak_rss_mb": [inv["child"]["peak_rss_mb"] for inv in plain],
        "cpu_s": [inv["child"]["cpu_s"] for inv in plain],
        "traced_norm_wall_s": [inv["norm_wall_s"] for inv in good if inv["traced"]],
    }
    metrics = {}
    units = {**tracer.PER_LAYER_UNITS, **HOST_UNITS} if trace else E2E_UNITS
    if trace:
        traces = [inv["trace"] for inv in good if inv["traced"]]
        if traces and plain:
            layers = [tracer.layer_metrics(t) for t in traces]
            metrics = {k: statistics.median([m.get(k, 0.0) for m in layers]) for k in tracer.PER_LAYER_UNITS}
            metrics["cli.cpu_s"] = statistics.median(samples["cpu_s"])
            metrics["trace.overhead_s"] = (statistics.median(samples["traced_norm_wall_s"])
                                           - statistics.median(samples["norm_wall_s"]))
            metrics["host.wall_s"] = statistics.median(samples["wall_s"])
            metrics["host.speed"] = hostspeed.REFERENCE_S / statistics.median(samples["host_probe_s"])
    elif plain and samples["setup_s"]:
        norm_wall = statistics.median(samples["norm_wall_s"])
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "norm_wall_s": norm_wall,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "norm_work_per_s": wl.work(ctx) / norm_wall,
        }
    first = (good or [{"child": None}])[0]["child"] or {}
    provenance = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "openblas_num_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "child_threads": max((inv["child"]["threads"] for inv in plain), default=None),
        "host_reference_s": hostspeed.REFERENCE_S,
        "clients": 1,
        "loop": "closed",
        "run_s": time.monotonic() - begin,
    }
    if trace:
        provenance["absent_functions"] = sorted({a for t in (inv["trace"] for inv in good if inv["trace"]) for a in t["absent"]})
    result = {
        "correct": len(good) == len(invocations),
        "attempted": len(invocations),
        "failed": len(invocations) - len(good),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": provenance, "samples": samples,
                   "problems": [inv["problems"] for inv in invocations]}, fh, indent=1)
    return {"result": result, "provenance": provenance, "samples": samples, "invocations": invocations,
            "workload": wl, "work": wl.work(ctx)}


def report(run: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    wl, result, samples = run["workload"], run["result"], run["samples"]
    prov = run["provenance"]
    print(f"== {wl.name} (seed {prov['seed']}, {prov['seconds']} s, trace {prov['trace']}): {wl.why}")
    for inv in run["invocations"]:
        for problem in inv["problems"]:
            print(f"   FAILED: {problem}")
    count = {"setup_s": len(samples["setup_s"]), "norm_wall_s": len(samples["norm_wall_s"]),
             "host.wall_s": len(samples["wall_s"]), "peak_rss_mb": len(samples["peak_rss_mb"])}
    for name, metric in result["metrics"].items():
        note = f"median of {count[name]}" if name in count else ""
        if name == "norm_work_per_s":
            note = f"{wl.throughput}, {run['work']:g} per invocation"
        print(f"   {name:34s} {metric['value']:>14.6g} {metric['unit']:6s} {note}")
    if samples["wall_s"] and samples["host_probe_s"]:
        speed = hostspeed.REFERENCE_S / statistics.median(samples["host_probe_s"])
        print(f"   {'(raw wall, host speed)':34s} {statistics.median(samples['wall_s']):>14.6g} {'s':6s} "
              f"host at {speed:.3f} x reference speed")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_frac':34s} {failed / attempted if attempted else 1.0:>14.6g} {'ratio':6s} {failed} of {attempted} invocations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(CLI_SOURCE):
        print(f"perfbench: {os.path.relpath(CLI_SOURCE, ROOT)} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # The runner and every child it starts share one CPU: the host's speed
    # drifts per CPU, and the probes must sample the CPU the child runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        report(run)
        if not run["result"]["metrics"]:
            print("perfbench: no invocation succeeded; nothing to report", file=sys.stderr)
            return 1
        print("provenance " + json.dumps(run["provenance"]))
        print(json.dumps(run["result"]))
        return 0

    runs = [run_workload(wl, args.seed, args.seconds, trace) for wl in WORKLOADS.values() for trace in (False, True)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for run in runs:
        report(run)
        result = run["result"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{run['workload'].name}.{name}"] = metric
    print(f"== all workloads: failed_frac {combined['failed'] / max(combined['attempted'], 1):g} "
          f"({combined['failed']} of {combined['attempted']})")
    print("provenance " + json.dumps({k: v for k, v in runs[0]["provenance"].items() if k not in ("workload", "trace", "run_s")}))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
