"""Output checks for each workload.

Each check reads the files one ``xbsim`` invocation wrote and returns a list
of problems; an empty list means the output is correct.  The recorded values
they compare against are in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import math
import os

EVENT_HEADER = "# eventfile v1"


def _key_values(path: str, sep: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        pairs = (line.split(sep, 1) for line in fh if sep in line)
        return {k.strip(): v.strip() for k, v in pairs}


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _close(found: float, want: float, tol: float) -> bool:
    return math.isfinite(found) and abs(found - want) <= tol


def check_model(outdir: str, ref: dict) -> list[str]:
    """Port rate fractions and the Bragg sweep within ``rtol`` of the recorded values."""
    problems = []
    summary = _key_values(os.path.join(outdir, "model_summary.txt"), "=")
    for key in ("r_reflected", "r_transmitted"):
        found = float(summary.get(key, "nan"))
        if not _close(found, ref[key], ref["rtol"] * abs(ref[key])):
            problems.append(f"{key} = {found}, recorded {ref[key]}")
    rows = _csv_rows(os.path.join(outdir, "bragg_sweep.csv"))
    start, stop, num = ref["bragg_sweep_angles_deg"]
    rates = ref["bragg_sweep_rates"]
    if len(rows) != num:
        return problems + [f"bragg_sweep.csv has {len(rows)} rows, recorded {num}"]
    tol = ref["rtol"] * max(rates)
    step = (stop - start) / (num - 1)
    for i, (row, want) in enumerate(zip(rows, rates)):
        angle, rate = float(row[0]), float(row[1])
        if not (_close(angle, start + i * step, 1e-9) and _close(rate, want, tol)):
            problems.append(f"bragg_sweep row {i}: ({angle}, {rate}), recorded rate {want}")
            break
    if len(_csv_rows(os.path.join(outdir, "model_spectra.csv"))) < 2:
        problems.append("model_spectra.csv has no rows")
    return problems


def read_event_file(path: str) -> tuple[int, dict[str, str]]:
    """Parse a ``# eventfile v1`` file; return (event count, header metadata).

    Raises ValueError on a malformed file.
    """
    meta: dict[str, str] = {}
    last = -1
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != EVENT_HEADER:
            raise ValueError("missing '# eventfile v1' header")
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            if line.startswith("event,") or not line.strip():
                continue
            cols = line.split(",")
            if len(cols) != 6:
                raise ValueError(f"malformed row {line!r}")
            index = int(cols[0])
            float(cols[1]), int(cols[2]), float(cols[3]), float(cols[4]), int(cols[5])
            if index not in (last, last + 1):
                raise ValueError(f"event index {index} follows {last}")
            last = index
    return last + 1, meta


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_simulate(outdir: str, ref: dict) -> list[str]:
    """The event file parses, run_meta agrees, and the rate is within 5 sigma."""
    try:
        n_events, meta = read_event_file(os.path.join(outdir, "events.csv"))
    except ValueError as exc:
        return [f"events.csv: {exc}"]
    run_meta = _key_values(os.path.join(outdir, "run_meta.txt"), "=")
    problems = []
    if run_meta.get("events") != str(n_events):
        problems.append(f"run_meta events = {run_meta.get('events')}, events.csv has {n_events}")
    live = float(meta.get("live_time_s", "nan"))
    want = ref["events_per_live_s"]
    sigma = math.sqrt(want * live) / live  # Poisson error of the rate
    if not _close(n_events / live, want, 5 * sigma):
        problems.append(f"event rate {n_events / live:.4f}/s, recorded {want} +- {sigma:.4f} (1 sigma)")
    return problems


def check_analyze(outdir: str, truth: dict) -> list[str]:
    """Coincidence tallies and spectrum totals equal the generator's truth."""
    problems = []
    for label in ("all", "heralded"):
        rows = _csv_rows(os.path.join(outdir, f"counts_{label}.csv"))
        found = [int(v) for v in rows[0]] if rows else []
        if found != truth[label]:
            problems.append(f"counts_{label}.csv {found}, truth {truth[label]}")
    for stem in ("trans", "ref"):
        rows = _csv_rows(os.path.join(outdir, f"spectrum_{stem}.csv"))
        total = sum(int(row[2]) for row in rows)
        if total != truth[f"heralded_{stem}"]:
            problems.append(f"spectrum_{stem}.csv total {total}, truth {truth[f'heralded_{stem}']}")
    return problems
