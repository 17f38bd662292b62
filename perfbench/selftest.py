"""Self-test of the benchmark's own checks; needs ``src/artifact`` and takes ~20 s.

Shows that correct outputs pass and corrupted ones fail each workload's
check, that a corrupted output is counted in ``failed`` by a real run, that
the analyze-input generator's truth matches the program's own counts, and
that the tracer tolerates a missing function and computes self times.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import types

import checks
import eventgen
import run
import tracer

WORK = os.path.join(run.WORK, "selftest")
failures: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _edit(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text, (path, old)
    _write(path, text.replace(old, new, 1))


def _fresh(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def test_model_check() -> None:
    ref = run._reference()["model_ref"]
    start, stop, num = ref["bragg_sweep_angles_deg"]

    def good() -> str:
        out = _fresh("model")
        _write(os.path.join(out, "model_summary.txt"),
               f"r_reflected = {ref['r_reflected']:.6f}\nr_transmitted = {ref['r_transmitted']:.6f}\n")
        rows = [f"{start + i * (stop - start) / (num - 1):.9g},{r:.9g}" for i, r in enumerate(ref["bragg_sweep_rates"])]
        _write(os.path.join(out, "bragg_sweep.csv"), "bragg_angle_deg,normalized_rate\n" + "\n".join(rows) + "\n")
        _write(os.path.join(out, "model_spectra.csv"), "energy_kev,reflected_density,transmitted_density\n9,1,1\n10,1,1\n")
        return out

    expect("model: recorded outputs pass", checks.check_model(good(), ref) == [])
    out = good()
    _edit(os.path.join(out, "model_summary.txt"), f"{ref['r_reflected']:.6f}", f"{ref['r_reflected'] * 1.01:.6f}")
    expect("model: r_reflected off by 1% fails", checks.check_model(out, ref) != [])
    out = good()
    _edit(os.path.join(out, "bragg_sweep.csv"), f",{ref['bragg_sweep_rates'][40]:.9g}", ",0.5")
    expect("model: one sweep point changed fails", checks.check_model(out, ref) != [])


def test_simulate_check() -> None:
    ref = run._reference()["simulate_ref_long"]
    n = round(ref["events_per_live_s"] * ref["live_time_s"])

    def good() -> str:
        out = _fresh("simulate")
        eventgen.generate(os.path.join(out, "events.csv"), 5, n)
        _write(os.path.join(out, "run_meta.txt"), f"seed = 5\nlive_time_s = 600.000000\nevents = {n}\n")
        return out

    expect("simulate: consistent output passes", checks.check_simulate(good(), ref) == [])
    out = good()
    _edit(os.path.join(out, "run_meta.txt"), f"events = {n}", f"events = {n + 1}")
    expect("simulate: run_meta count off by one fails", checks.check_simulate(out, ref) != [])
    out = good()
    _edit(os.path.join(out, "events.csv"), "\n7,", "\n7;")
    expect("simulate: malformed row fails", checks.check_simulate(out, ref) != [])
    out = good()
    _edit(os.path.join(out, "events.csv"), "# live_time_s: ", "# live_time_s: 1")
    expect("simulate: event rate far from the recorded one fails", checks.check_simulate(out, ref) != [])


def test_analyze_run() -> None:
    """Real ``xbsim analyze`` invocations through the benchmark's own loop."""
    small = dataclasses.replace(
        run.WORKLOADS["analyze_long"],
        prepare=lambda workdir, seed: {
            "events_path": (path := os.path.join(workdir, "events-in.csv")),
            "truth": eventgen.generate(path, seed, 3000),
        },
    )
    result = run.run_workload(small, 4, 1, False)["result"]
    expect("analyze: correct outputs are not failed",
           result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)

    def corrupting_check(outdir, ctx):
        _edit(os.path.join(outdir, "counts_heralded.csv"), "\n", "\n1")
        return checks.check_analyze(outdir, ctx)

    bad = dataclasses.replace(small, check=corrupting_check)
    result = run.run_workload(bad, 4, 1, False)["result"]
    expect("analyze: a corrupted output is counted as failed",
           not result["correct"] and result["failed"] == result["attempted"] >= 1)


def test_generator_truth() -> None:
    out = _fresh("generator")
    path = os.path.join(out, "events.csv")
    truth = eventgen.generate(path, 11, 5000)
    mismatches = eventgen.check_against_program(path, truth)
    expect(f"generator: program reproduces the truth tallies {truth['all']} / {truth['heralded']}", mismatches == [])
    expect("generator: same seed, same file", truth == eventgen.generate(os.path.join(out, "again.csv"), 11, 5000)
           and checks.file_digest(path) == checks.file_digest(os.path.join(out, "again.csv")))


def test_tracer() -> None:
    t = tracer.Tracer("selftest")
    module = types.SimpleNamespace(__name__="fake")
    t._wrap(module, "stats", "renamed_away")
    expect("tracer: a missing function is recorded as absent", t.absent == ["stats.renamed_away"])
    trace = {
        "spans": [["cli.analyze", 0.0, 10.0, -1], ["stats.sigma", 1.0, 4.0, 0], ["stats.alpha", 2.0, 3.0, 1]],
        "counts": dict.fromkeys(tracer.COUNTERS, 0.0),
        "peak_alloc_bytes": {"spdc": 0, "montecarlo": 0},
    }
    m = tracer.layer_metrics(json.loads(json.dumps(trace)))
    expect("tracer: self time is duration minus child spans",
           (m["cli.analyze.self_s"], m["stats.sigma.self_s"], m["stats.alpha.self_s"]) == (7.0, 2.0, 1.0)
           and abs(m["trace.coverage"] - 0.3) < 1e-12)


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    if not os.path.isfile(run.CLI_SOURCE):
        print("selftest: src/artifact not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    for test in (test_model_check, test_simulate_check, test_generator_truth, test_tracer, test_analyze_run):
        test()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
