"""Coincidence electronics emulation.

Logic pulses from the trigger detector are compared against logic pulses
from the two output detectors; an overlap arms the digitizer, which then
snapshots every analog pulse whose peak falls within a software time window
around the overlap point.  A rate cap emulates the digitizer's event-buffer
limit, and energy post-selection flags the heralded subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .montecarlo import DET_REF, DET_TRANS, DET_TRIG


@dataclass(frozen=True)
class DaqConfig:
    """Trigger electronics, digitizer, and post-selection parameters."""

    half_window_ns: float = 800.0  # software registration window around the trigger
    logic_width_ns: float = 1000.0
    analog_width_ns: float = 200.0
    max_event_rate_hz: float = 200.0  # digitizer capture limit
    acceptance_kev: tuple[float, float] = (7.0, 17.0)  # per-photon offline acceptance
    sum_halfwidth_kev: float = 0.5  # half of the pair-energy window
    pump_energy_kev: float = 21.0

    def __post_init__(self):
        if min(self.half_window_ns, self.logic_width_ns, self.analog_width_ns) <= 0:
            raise ValueError("all window and pulse widths must be positive")
        if not self.acceptance_kev[0] < self.acceptance_kev[1]:
            raise ValueError("acceptance window must satisfy lo < hi")
        if self.sum_halfwidth_kev <= 0 or self.max_event_rate_hz <= 0:
            raise ValueError("sum window and rate cap must be positive")


@dataclass
class EventRecord:
    """One digitizer capture: registered photons per detector.

    ``energies``/``offsets``/``origins`` map detector id to parallel arrays;
    offsets are analog-peak times relative to the trigger point and always
    lie within +-half_window by construction.  Selection flags are filled by
    ``energy_select``.
    """

    trigger_ns: float
    energies: dict[int, np.ndarray]
    offsets: dict[int, np.ndarray]
    origins: dict[int, np.ndarray]
    passes_acceptance: bool = False
    passes_sum: bool = False
    heralded_pairs: list = field(default_factory=list)  # (port, E_trig, E_port)

    def count(self, detector: int) -> int:
        return len(self.energies.get(detector, ()))


def find_triggers(pulses, cfg: DaqConfig):
    """Overlap points of trigger-detector logic pulses with output logic pulses.

    One capture at most per trigger-side logic pulse; the overlap point is
    max(start_trig, start_other) for the earliest-overlapping output pulse.
    Captures beyond the digitizer rate cap (counted in whole-second buckets)
    are dropped; returns (trigger_times, dropped_count).
    """
    logic = pulses[pulses["logic"]]
    trig_starts = np.sort(logic["start_ns"][logic["detector"] == DET_TRIG])
    others = logic[(logic["detector"] == DET_TRANS) | (logic["detector"] == DET_REF)]
    # Tie-break equal start times deterministically: lower detector id first.
    other_order = np.lexsort((others["detector"], others["start_ns"]))
    other_starts = others["start_ns"][other_order]

    w = cfg.logic_width_ns
    lo = np.searchsorted(other_starts, trig_starts - w, side="right")
    hi = np.searchsorted(other_starts, trig_starts + w, side="left")
    has_overlap = lo < hi
    first_other = other_starts[np.minimum(lo, max(len(other_starts) - 1, 0))] if len(
        other_starts
    ) else np.zeros_like(trig_starts)
    points = np.maximum(trig_starts, first_other)[has_overlap]
    points = np.sort(points)

    if len(points) == 0:
        return points, 0
    # Digitizer buffer limit: at most max_event_rate_hz captures per
    # one-second bucket of wall-clock time; excess triggers are lost.
    bucket = np.floor(points / 1e9).astype(np.int64)
    keep = np.ones(len(points), dtype=bool)
    cap = int(cfg.max_event_rate_hz)
    start = 0
    while start < len(points):
        end = int(np.searchsorted(bucket, bucket[start], side="right"))
        if end - start > cap:
            keep[start + cap : end] = False
        start = end
    dropped = int((~keep).sum())
    return points[keep], dropped


def _record_from_window(trigger_ns, peaks, energies, detectors, origins, lo, hi):
    e_by, off_by, org_by = {}, {}, {}
    win_det = detectors[lo:hi]
    win_off = peaks[lo:hi] - trigger_ns
    win_e = energies[lo:hi]
    win_org = origins[lo:hi]
    for det in (DET_TRIG, DET_TRANS, DET_REF):
        mask = win_det == det
        e_by[det] = win_e[mask]
        off_by[det] = win_off[mask]
        org_by[det] = win_org[mask]
    return EventRecord(trigger_ns, e_by, off_by, org_by)


def build_events(pulses, cfg: DaqConfig):
    """Full chain: triggering, rate cap, software window, empty-trigger pruning.

    Returns (events, rate_dropped, empty_dropped).  Events whose window
    contains no trigger-detector photon carry no usable coincidence
    information and are dropped (counted separately).
    """
    order = np.lexsort((pulses["detector"], pulses["start_ns"]))
    pulses = pulses[order]
    points, rate_dropped = find_triggers(pulses, cfg)
    # Extract plain arrays once: per-event slicing of a structured array is
    # far more expensive than slicing contiguous columns.
    peaks = pulses["start_ns"] + 0.5 * cfg.analog_width_ns
    energies = np.ascontiguousarray(pulses["energy_kev"])
    detectors = np.ascontiguousarray(pulses["detector"])
    origins = np.ascontiguousarray(pulses["origin"])
    los = np.searchsorted(peaks, points - cfg.half_window_ns, side="left")
    his = np.searchsorted(peaks, points + cfg.half_window_ns, side="right")
    events = []
    empty_dropped = 0
    for t, lo, hi in zip(points, los, his):
        rec = _record_from_window(float(t), peaks, energies, detectors, origins, lo, hi)
        if rec.count(DET_TRIG) == 0:
            empty_dropped += 1
            continue
        events.append(rec)
    return events, rate_dropped, empty_dropped


def _in_acceptance(cfg: DaqConfig, energies) -> bool:
    lo, hi = cfg.acceptance_kev
    return bool(np.all((energies >= lo) & (energies <= hi)))


def energy_select(events, cfg: DaqConfig):
    """Flag events by per-photon acceptance and pair-energy conservation.

    An event passes acceptance when every registered photon lies inside the
    per-detector acceptance band.  It passes the sum window when some
    (trigger photon, output photon) pairing satisfies
    |E_trig + E_out - E_pump| <= sum_halfwidth (any pairing suffices).
    Returns (all events with flags set, heralded subset passing both).
    """
    heralded = []
    for rec in events:
        all_e = np.concatenate([rec.energies[d] for d in (DET_TRIG, DET_TRANS, DET_REF)])
        rec.passes_acceptance = _in_acceptance(cfg, all_e)
        rec.heralded_pairs = []
        for port in (DET_TRANS, DET_REF):
            for e_t in rec.energies[DET_TRIG]:
                for e_o in rec.energies[port]:
                    if (
                        abs(e_t + e_o - cfg.pump_energy_kev)
                        <= cfg.sum_halfwidth_kev
                    ):
                        rec.heralded_pairs.append((port, float(e_t), float(e_o)))
        rec.passes_sum = bool(rec.heralded_pairs)
        if rec.passes_acceptance and rec.passes_sum:
            heralded.append(rec)
    return events, heralded


EVENT_FORMAT_HEADER = "# eventfile v1"


def save_events(path, events, *, live_time_s=None, rate_dropped=0, empty_dropped=0):
    """Persist events as versioned CSV, one row per registered photon."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EVENT_FORMAT_HEADER + "\n")
        if live_time_s is not None:
            fh.write(f"# live_time_s: {live_time_s:.6f}\n")
        fh.write(f"# rate_dropped: {rate_dropped}\n")
        fh.write(f"# empty_dropped: {empty_dropped}\n")
        fh.write("event,trigger_ns,detector,energy_kev,offset_ns,origin\n")
        for i, rec in enumerate(events):
            for det in (DET_TRIG, DET_TRANS, DET_REF):
                for e, o, g in zip(rec.energies[det], rec.offsets[det], rec.origins[det]):
                    fh.write(
                        f"{i},{rec.trigger_ns:.6f},{det},{e:.9g},{o:.6f},{int(g)}\n"
                    )


def load_events(path):
    """Read events written by save_events.

    Returns (events, metadata dict).  Raises ValueError on a format-version
    mismatch or malformed rows.
    """
    meta = {"live_time_s": None, "rate_dropped": 0, "empty_dropped": 0}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENT_FORMAT_HEADER:
            raise ValueError(f"unrecognized event-file format: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                for key in meta:
                    if body.startswith(key + ":"):
                        raw = body.split(":", 1)[1]
                        meta[key] = float(raw) if key == "live_time_s" else int(raw)
                continue
            if line.startswith("event,"):
                continue
            cols = line.split(",")
            if len(cols) != 6:
                raise ValueError(f"malformed event row: {line!r}")
            rows.append(
                (
                    int(cols[0]),
                    float(cols[1]),
                    int(cols[2]),
                    float(cols[3]),
                    float(cols[4]),
                    int(cols[5]),
                )
            )
    events = []
    current = None
    current_idx = -1
    buffers = None
    def flush():
        if current is None:
            return
        energies = {d: np.asarray(buffers[d][0], dtype=float) for d in buffers}
        offsets = {d: np.asarray(buffers[d][1], dtype=float) for d in buffers}
        origins = {d: np.asarray(buffers[d][2], dtype=np.int8) for d in buffers}
        events.append(EventRecord(current, energies, offsets, origins))

    for idx, trig, det, energy, offset, origin in rows:
        if idx != current_idx:
            flush()
            current_idx = idx
            current = trig
            buffers = {d: ([], [], []) for d in (DET_TRIG, DET_TRANS, DET_REF)}
        if det not in buffers:
            raise ValueError(f"unknown detector id {det} in event file")
        buffers[det][0].append(energy)
        buffers[det][1].append(offset)
        buffers[det][2].append(origin)
    flush()
    return events, meta
