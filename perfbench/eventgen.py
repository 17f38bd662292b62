"""Seeded synthetic ``# eventfile v1`` input for the ``analyze_long`` workload.

The file is made here, not by ``xbsim simulate``, so that a change to the
simulator's random streams cannot change the analyze workload's input.  It
mixes accidental coincidences (stray photons, the bulk of a real run) with
pair-like events whose trigger and output energies sum to the pump energy.
The accidental mix is calibrated from a real simulate output (see
``calibrate``); the pair-like share is raised well above the reference
profile's so that the heralded estimators work on ample counts.

``generate`` writes the file and returns its truth tallies, computed here
from the generator's own arrays with the selection rules of the bundled
profile.  ``check_against_program`` shows that ``daq.load_events`` plus
``stats.counts_from_events`` reproduce them exactly.

Usage: python3 perfbench/eventgen.py EVENTS.csv   (prints the calibration)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

HEADER = "# eventfile v1"
COLUMNS = "event,trigger_ns,detector,energy_kev,offset_ns,origin"
TRIG, TRANS, REF = 0, 1, 2
ORIGIN_PAIR_TRIGGER, ORIGIN_PAIR_HERALD, ORIGIN_STRAY = 0, 1, 2

# Selection rules of the bundled profile ([daq] section of defaults.ini).
PUMP_KEV = 21.0
SUM_HALFWIDTH_KEV = 0.5
ACCEPTANCE_KEV = (7.0, 17.0)
HALF_WINDOW_NS = 800.0
PEAK_OFFSET_NS = 100.0  # analog peak of the pulse that opened the capture

# Calibrated once from `xbsim simulate --seed 7 --set source.duration_s=600`
# on the bundled profile (33,156 events): event rate, empty-trigger drops per
# kept event, and the (trig, trans, ref) photon multiplicities per event.
EVENT_RATE_HZ = 55.26
EMPTY_DROPPED_PER_EVENT = 0.0532
MULTIPLICITY = np.array(
    [
        (1, 1, 0), (1, 0, 1), (1, 0, 0), (2, 1, 0), (2, 0, 1),
        (1, 1, 1), (1, 2, 0), (1, 0, 2), (2, 0, 0), (2, 1, 1),
    ]
)
MULTIPLICITY_P = np.array(
    [18561, 12473, 1690, 166, 81, 74, 62, 29, 16, 3], dtype=float
)
MULTIPLICITY_P /= MULTIPLICITY_P.sum()

# Stray spectrum and detector resolution of the bundled profile.
STRAY_FLAT_KEV = (7.0, 10.0)
STRAY_LINE_KEV = 21.0
STRAY_LINE_FRACTION = 0.1
FWHM_KEV_AT_REF = 0.300
REF_ENERGY_KEV = 10.5

# Pair-like events: heralded energy on the phase-matching ridge.
PAIR_FRACTION = 0.02
PAIR_HERALD_KEV = (8.7, 11.8)


def _smear(rng, energy):
    sigma = FWHM_KEV_AT_REF / 2.3548200450309493 * np.sqrt(energy / REF_ENERGY_KEV)
    return energy + rng.standard_normal(len(energy)) * sigma


def generate(path: str, seed: int, n_events: int) -> dict:
    """Write ``n_events`` events to ``path``; return the truth tallies."""
    rng = np.random.default_rng(seed)
    n = n_events
    mult = MULTIPLICITY[rng.choice(len(MULTIPLICITY), n, p=MULTIPLICITY_P)].copy()
    is_pair = rng.random(n) < PAIR_FRACTION
    pair_port = np.where(rng.random(n) < 0.5, TRANS, REF)
    mult[is_pair] = 0
    mult[is_pair, TRIG] = 1
    mult[is_pair, pair_port[is_pair]] = 1

    counts = mult.ravel()
    total = int(counts.sum())
    starts = (np.cumsum(counts) - counts).reshape(n, 3)
    event = np.repeat(np.repeat(np.arange(n), 3), counts)
    det = np.repeat(np.tile(np.arange(3), n), counts)

    flat = rng.uniform(*STRAY_FLAT_KEV, total)
    energy = _smear(rng, np.where(rng.random(total) < STRAY_LINE_FRACTION, STRAY_LINE_KEV, flat))
    offset = rng.uniform(-HALF_WINDOW_NS, HALF_WINDOW_NS, total)
    origin = np.full(total, ORIGIN_STRAY)

    # The capture opens at the later of the first trigger photon and the
    # first output photon: that one peaks at +100 ns, the other earlier.
    has_out = (mult[:, TRANS] + mult[:, REF]) > 0
    trig_first = starts[:, TRIG]
    out_first = np.where(mult[:, TRANS] > 0, starts[:, TRANS], starts[:, REF])
    trig_later = rng.random(n) < 0.5
    early = rng.uniform(-HALF_WINDOW_NS, PEAK_OFFSET_NS, n)
    offset[trig_first] = np.where(has_out & ~trig_later, early, PEAK_OFFSET_NS)
    offset[out_first[has_out]] = np.where(trig_later, early, PEAK_OFFSET_NS)[has_out]

    # Pair-like events: both photons created together, energies sum to the pump.
    e_h = rng.uniform(*PAIR_HERALD_KEV, int(is_pair.sum()))
    t_rows, h_rows = trig_first[is_pair], out_first[is_pair]
    energy[t_rows] = _smear(rng, PUMP_KEV - e_h)
    energy[h_rows] = _smear(rng, e_h)
    offset[t_rows] = offset[h_rows] = PEAK_OFFSET_NS
    origin[t_rows], origin[h_rows] = ORIGIN_PAIR_TRIGGER, ORIGIN_PAIR_HERALD

    # Quantise to what the file holds, so the truth is computed on the exact
    # values the reader gets back.
    energy = np.round(energy, 6)
    offset = np.round(offset, 3)
    live_time_s = n / EVENT_RATE_HZ
    trigger_ns = np.round(np.sort(rng.uniform(0.0, live_time_s * 1e9, n)), 3)
    empty_dropped = int(round(EMPTY_DROPPED_PER_EVENT * n))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER}\n# live_time_s: {live_time_s:.6f}\n# rate_dropped: 0\n")
        fh.write(f"# empty_dropped: {empty_dropped}\n{COLUMNS}\n")
        fh.writelines(
            f"{i},{t:.6f},{d},{e:.9g},{o:.6f},{g}\n"
            for i, t, d, e, o, g in zip(
                event.tolist(), trigger_ns[event].tolist(), det.tolist(),
                energy.tolist(), offset.tolist(), origin.tolist(),
            )
        )
    return _truth(mult, starts, energy, event, n)


def _tallies(mult, mask) -> list[int]:
    has_t = mult[mask, TRANS] > 0
    has_r = mult[mask, REF] > 0
    n = (mult[mask, TRIG] > 0) & (has_t | has_r)
    return [int(n.sum()), int((n & has_t).sum()), int((n & has_r).sum()), int((n & has_t & has_r).sum())]


def _truth(mult, starts, energy, event, n) -> dict:
    """Counts that ``xbsim analyze`` must report for this file."""
    outside = (energy < ACCEPTANCE_KEV[0]) | (energy > ACCEPTANCE_KEV[1])
    accepted = np.bincount(event, weights=outside, minlength=n) == 0
    pairs_at = {}
    for port in (TRANS, REF):
        hit = np.zeros(n, dtype=bool)
        for i in range(int(mult[:, TRIG].max())):
            for j in range(int(mult[:, port].max())):
                ok = (mult[:, TRIG] > i) & (mult[:, port] > j)
                e_t = energy[np.where(ok, starts[:, TRIG] + i, 0)]
                e_o = energy[np.where(ok, starts[:, port] + j, 0)]
                hit |= ok & (np.abs(e_t + e_o - PUMP_KEV) <= SUM_HALFWIDTH_KEV)
        pairs_at[port] = hit
    heralded = accepted & (pairs_at[TRANS] | pairs_at[REF])
    return {
        "events": n,
        "all": _tallies(mult, np.ones(n, dtype=bool)),
        "heralded": _tallies(mult, heralded),
        "heralded_trans": int((heralded & pairs_at[TRANS]).sum()),
        "heralded_ref": int((heralded & pairs_at[REF]).sum()),
    }


def check_against_program(path: str, truth: dict) -> list[str]:
    """Compare the truth with what the program's own reader and estimators count.

    Needs ``artifact`` importable.  Returns a list of mismatches (empty when
    the tallies agree exactly).
    """
    from artifact import daq, stats
    from artifact.config import load_default_config

    events, _meta = daq.load_events(path)
    events, heralded = daq.energy_select(events, load_default_config().daq)
    found = {"events": len(events)}
    for label, subset in (("all", events), ("heralded", heralded)):
        c = stats.counts_from_events(subset)
        found[label] = [c.n_trig, c.n_trig_t, c.n_trig_r, c.n_trig_t_r]
    for port, key in ((TRANS, "heralded_trans"), (REF, "heralded_ref")):
        found[key] = sum(1 for rec in heralded if any(p == port for p, _t, _o in rec.heralded_pairs))
    return [f"{k}: truth {truth[k]} program {found[k]}" for k in truth if truth[k] != found[k]]


def calibrate(path: str) -> dict:
    """Event rate, drops and multiplicity mix of a real simulate output."""
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif not line.startswith("event,") and line.strip():
                cols = line.split(",")
                rows.append((int(cols[0]), int(cols[2])))
    ev, det = np.array(rows).T
    n = int(ev.max()) + 1
    mult = np.zeros((n, 3), dtype=int)
    np.add.at(mult, (ev, det), 1)
    kinds, freq = np.unique(mult, axis=0, return_counts=True)
    order = np.argsort(-freq)
    return {
        "events": n,
        "event_rate_hz": n / float(meta["live_time_s"]),
        "empty_dropped_per_event": int(meta["empty_dropped"]) / n,
        "multiplicity": [(tuple(kinds[i].tolist()), int(freq[i])) for i in order],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the calibration constants of a simulate output.")
    parser.add_argument("events_csv", help="events.csv written by xbsim simulate")
    print(calibrate(parser.parse_args(argv).events_csv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
