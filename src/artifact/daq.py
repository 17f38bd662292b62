"""Coincidence electronics emulation.

Logic pulses from the trigger detector are compared against logic pulses
from the two output detectors; an overlap arms the digitizer, which then
snapshots every analog pulse whose peak falls within a software time window
around the overlap point.  A rate cap emulates the digitizer's event-buffer
limit, and energy post-selection flags the heralded subset.  Captures are
held in one columnar ``EventTable``.  A run's pulse stream may arrive in
time slices (``build_events_in_slices``), and its events are written slice
by slice (``save_events``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .montecarlo import DET_REF, DET_TRANS, DET_TRIG, DETECTORS, N_ORIGINS, Stream, join_streams


@dataclass(frozen=True)
class DaqConfig:
    """Trigger electronics, digitizer, and post-selection parameters."""

    half_window_ns: float = 800.0  # software registration window around the trigger
    logic_width_ns: float = 1000.0  # every detector's logic pulses
    analog_width_ns: float = 200.0  # every detector's analog pulses
    max_event_rate_hz: float = 200.0  # digitizer capture limit
    acceptance_kev: tuple[float, float] = (7.0, 17.0)  # per-photon offline acceptance
    sum_halfwidth_kev: float = 0.5  # half of the pair-energy window
    pump_energy_kev: float = 21.0

    def __post_init__(self):
        # Written so that NaN fails every check; ``spectra`` bins the
        # acceptance band and the cap keeps int(cap) captures per second, so
        # those and the windows must be finite.
        widths = (self.half_window_ns, self.logic_width_ns, self.analog_width_ns)
        if not all(0 < w < np.inf for w in widths):
            raise ValueError("all window and pulse widths must be finite and positive")
        if not -np.inf < self.acceptance_kev[0] < self.acceptance_kev[1] < np.inf:
            raise ValueError("acceptance window must be finite and satisfy lo < hi")
        if not 0 < self.sum_halfwidth_kev < np.inf:
            raise ValueError("sum window must be finite and positive")
        if not 1 <= self.max_event_rate_hz < np.inf:
            raise ValueError(f"max_event_rate_hz must be finite and at least 1, got {self.max_event_rate_hz}")

    def reach_ns(self) -> float:
        """How far from an overlap point a pulse can matter to it: 2 logic
        widths + half a window + an analog width.  The point lies within a
        logic width after its trigger pulse starts; the pulses that decide
        it start within a logic width of that, and those it captures peak
        within half a window of it, half an analog width after they start.
        So an output pulse farther than this from every trigger logic pulse
        changes no capture."""
        return 2.0 * self.logic_width_ns + self.half_window_ns + self.analog_width_ns


OUTPUT_PORTS = (DET_TRANS, DET_REF)


def _csr_start(sizes):
    """CSR offsets (len(sizes) + 1) of consecutive segments of the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


class EventView(NamedTuple):
    """One event of a flagged ``EventTable``, as iteration yields it:
    ``heralded_pairs`` lists every qualifying (port, E_trig, E_port)
    pairing, TRANS first."""

    heralded_pairs: list


@dataclass(frozen=True, eq=False)
class EventTable:
    """Digitizer captures as one CSR table of registered photons.

    Event ``i`` owns photons ``start[i]:start[i + 1]`` of the flat photon
    columns, ordered by detector (TRIG, TRANS, REF) and then by analog-peak
    time.  Offsets are peak times relative to ``trigger_ns[i]`` and lie
    within +-half_window.  ``energy_select`` sets the per-event columns and
    ``selection`` (its config); ``herald_kev[i, port]`` is the output energy
    of the first qualifying pairing at ``port`` (trigger photon first, then
    output photon, in table order), NaN where none qualifies.  ``len()``
    counts events; iterating a flagged table yields an ``EventView`` per
    event.
    """

    trigger_ns: np.ndarray
    start: np.ndarray
    detector: np.ndarray
    energy_kev: np.ndarray
    offset_ns: np.ndarray
    origin: np.ndarray
    passes_acceptance: np.ndarray | None = None
    passes_sum: np.ndarray | None = None
    herald_kev: np.ndarray | None = None  # (n_events, 3), by detector id
    selection: DaqConfig | None = None

    def __len__(self) -> int:
        return len(self.trigger_ns)

    def __iter__(self):
        cfg = self.selection
        if cfg is None:
            raise ValueError("iterating events needs a table flagged by energy_select")
        pairs = [self.sum_window_pairs(port, cfg.pump_energy_kev, cfg.sum_halfwidth_kev)
                 for port in OUTPUT_PORTS]
        event, trig, out = (np.concatenate(c) for c in zip(*pairs))
        port = np.repeat(OUTPUT_PORTS, [len(p[0]) for p in pairs])
        # Stable: each event keeps TRANS before REF, then the pairs' order.
        order = np.argsort(event, kind="stable")
        e = self.energy_kev
        rows = list(zip(port[order].tolist(), e[trig[order]].tolist(), e[out[order]].tolist()))
        bounds = _csr_start(np.bincount(event, minlength=len(self))).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield EventView(rows[lo:hi])

    def event_index(self) -> np.ndarray:
        """Event number of every photon."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def counts(self, photons=None) -> np.ndarray:
        """Photons per event and detector, (n_events, 3); with a boolean
        photon mask ``photons``, only those where it is true."""
        cell = self.event_index() * len(DETECTORS) + self.detector
        if photons is not None:
            cell = cell[photons]
        n = len(self)
        return np.bincount(cell, minlength=n * len(DETECTORS)).reshape(n, len(DETECTORS))

    def select(self, keep) -> EventTable:
        """The events where the boolean mask ``keep`` is true, in order."""
        sizes = np.diff(self.start)
        photons = np.repeat(keep, sizes)
        return EventTable(
            self.trigger_ns[keep],
            _csr_start(sizes[keep]),
            *(c[photons] for c in (self.detector, self.energy_kev, self.offset_ns, self.origin)),
            *(None if c is None else c[keep]
              for c in (self.passes_acceptance, self.passes_sum, self.herald_kev)),
            self.selection,
        )

    def sum_window_pairs(self, port: int, pump_energy_kev: float, sum_halfwidth_kev: float):
        """(event, trigger photon index, ``port`` photon index) of every
        (trigger photon, ``port`` photon) pairing with
        |E_trig + E_port - E_pump| <= sum_halfwidth, ordered by event, then
        trigger photon, then ``port`` photon."""
        counts = self.counts()
        block = self.start[:-1, None] + np.cumsum(counts, axis=1) - counts
        n_o = counts[:, port]
        per_event = counts[:, DET_TRIG] * n_o
        event = np.repeat(np.arange(len(self)), per_event)
        k = np.arange(len(event)) - (np.cumsum(per_event) - per_event)[event]
        trig = block[event, DET_TRIG] + k // n_o[event]
        out = block[event, port] + k % n_o[event]
        e = self.energy_kev
        hit = np.abs(e[trig] + e[out] - pump_energy_kev) <= sum_halfwidth_kev
        return event[hit], trig[hit], out[hit]


def find_triggers(pulses: Stream, cfg: DaqConfig, span=None):
    """Overlap points of trigger-detector logic pulses with output logic pulses.

    ``pulses`` must be in time order (raises ValueError otherwise).  One
    capture at most per trigger-side logic pulse; the overlap point is
    max(start_trig, start_other) for the earliest-overlapping output pulse.
    With ``span`` = (lo, hi) ns, only the points in [lo, hi) are kept.
    Captures beyond the digitizer rate cap (counted in whole-second buckets)
    are dropped; returns (trigger_times, dropped_count).
    """
    start = pulses.time_ns
    if np.any(start[1:] < start[:-1]):
        raise ValueError("pulse stream is not in time order")
    detector, logic = pulses.detector, pulses.logic
    is_output = logic & ((detector == DET_TRANS) | (detector == DET_REF))
    # Index lists and gathers, not boolean masks, pick the pulses: a mask
    # with no pattern to it indexes several times slower.
    trig_starts = start.take(np.flatnonzero(logic & (detector == DET_TRIG)))
    output_starts = start.take(np.flatnonzero(is_output))
    # The trigger pulse at t overlaps an output pulse iff the first output
    # pulse starting after t - w starts before t + w, and that pulse is the
    # earliest-overlapping one.  The sentinel stands in for a missing one.
    # The points are nondecreasing because the trigger starts are.
    w = cfg.logic_width_ns
    first = np.append(output_starts, np.inf)[
        np.searchsorted(output_starts, trig_starts - w, side="right")]
    overlaps = np.flatnonzero(first < trig_starts + w)
    points = np.maximum(trig_starts.take(overlaps), first.take(overlaps))
    if span is not None:
        points = points[slice(*np.searchsorted(points, span, side="left"))]
    # Digitizer buffer limit: at most max_event_rate_hz captures per
    # one-second bucket of wall-clock time; excess triggers are lost.
    bucket = np.floor(points / 1e9).astype(np.int64)
    rank = np.arange(len(points)) - np.searchsorted(bucket, bucket, side="left")
    keep = rank < int(cfg.max_event_rate_hz)
    return points[keep], int((~keep).sum())


def build_events(pulses: Stream, cfg: DaqConfig, span=None):
    """Full chain: triggering, rate cap, software window, empty-trigger pruning.

    ``pulses`` must be in time order (``find_triggers`` checks it); with
    ``span`` = (lo, hi) ns, only the overlap points in [lo, hi) are built.
    Returns (events, rate_dropped, empty_dropped) with ``events`` an
    ``EventTable``.  Events whose window contains no trigger-detector photon
    carry no usable coincidence information and are dropped (counted
    separately).
    """
    points, rate_dropped = find_triggers(pulses, cfg, span)
    peaks = pulses.time_ns + 0.5 * cfg.analog_width_ns
    lo = np.searchsorted(peaks, points - cfg.half_window_ns, side="left")
    hi = np.searchsorted(peaks, points + cfg.half_window_ns, side="right")
    sizes = hi - lo
    event = np.repeat(np.arange(len(points)), sizes)
    window = np.arange(len(event)) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    # Stable: within one detector each window keeps time order.
    by_detector = np.argsort(event * len(DETECTORS) + pulses.detector[window], kind="stable")
    window, event = window[by_detector], event[by_detector]
    # The window test compares peak with point +- half_window; the
    # difference peak - point can round one ulp past that bound.
    offsets = np.clip(peaks[window] - points[event], -cfg.half_window_ns, cfg.half_window_ns)
    events = EventTable(
        points,
        _csr_start(sizes),
        pulses.detector[window],
        pulses.energy_kev[window],
        offsets,
        pulses.origin[window],
    )
    has_trigger = events.counts()[:, DET_TRIG] > 0
    return events.select(has_trigger), rate_dropped, int((~has_trigger).sum())


def build_events_in_slices(slices, cfg: DaqConfig):
    """``build_events`` over a pulse stream that arrives in time slices.

    ``slices`` yields (end_ns, pulses) in time order: a slice's pulses start
    before its end and not before the previous slice's end.  Each overlap
    point belongs to the slice that contains it (the first slice has no
    lower end, the last no upper one).  Ends must be whole seconds, so that
    no rate-cap bucket straddles one.  Yields (events, rate_dropped,
    empty_dropped) per slice; concatenated, they equal ``build_events`` on
    the whole stream.

    A point depends on the pulses starting up to 2 logic widths before it
    (its trigger pulse and the output pulses ahead of that) and on those
    whose peaks lie within half a window of it.  So each slice is built
    together with the pulses within ``cfg.reach_ns()`` of its ends: carried
    over from the previous slice, and looked ahead into the next, which is
    read before the slice is built.  At most three slices are held at once,
    and every slice must be longer than that reach (a few microseconds).
    """
    reach = cfg.reach_ns()
    slices = iter(slices)
    lo, behind = -np.inf, None
    current = next(slices, None)
    while current is not None:
        ahead = next(slices, None)
        end, pulses = current
        hi = np.inf if ahead is None else end
        parts = [pulses]
        if behind is not None:
            parts.insert(0, behind.between(lo - reach, np.inf))
        if ahead is not None:
            parts.append(ahead[1].between(-np.inf, hi + reach))
        yield build_events(join_streams(*parts), cfg, span=(lo, hi))
        lo, behind, current = end, pulses, ahead


def energy_select(events: EventTable, cfg: DaqConfig):
    """Flag events by per-photon acceptance and pair-energy conservation.

    An event passes acceptance when every registered photon lies inside the
    per-detector acceptance band.  It passes the sum window when some
    (trigger photon, output photon) pairing satisfies
    |E_trig + E_out - E_pump| <= sum_halfwidth (any pairing suffices).
    Returns (all events with the selection columns set, heralded subset
    passing both), both ``EventTable``s.
    """
    lo, hi = cfg.acceptance_kev
    e = events.energy_kev
    outside = ~((e >= lo) & (e <= hi))
    accepted = np.bincount(events.event_index()[outside], minlength=len(events)) == 0
    herald_kev = np.full((len(events), len(DETECTORS)), np.nan)
    for port in OUTPUT_PORTS:
        event, _trig, photon = events.sum_window_pairs(port, cfg.pump_energy_kev, cfg.sum_halfwidth_kev)
        first = np.ones(len(event), dtype=bool)
        first[1:] = event[1:] != event[:-1]
        herald_kev[event[first], port] = e[photon[first]]
    paired = ~np.isnan(herald_kev[:, OUTPUT_PORTS]).all(axis=1)
    events = replace(events, passes_acceptance=accepted, passes_sum=paired,
                     herald_kev=herald_kev, selection=cfg)
    return events, events.select(accepted & paired)


EVENT_FORMAT_HEADER = "# eventfile v1"
EVENT_COLUMNS = "event,trigger_ns,detector,energy_kev,offset_ns,origin"
# A row is its event's number and trigger time, then one photon's columns.
_EVENT_FORMAT, _PHOTON_FORMAT = "%d,%.6f,", "%d,%.9g,%.6f,%d\n"
_ROW_DTYPE = np.dtype(
    {"names": EVENT_COLUMNS.split(","), "formats": ["i8", "f8", "i8", "f8", "f8", "i8"]}
)
# Events per write: blocks of 32k raised a 3000 s run's max RSS by 1.2 MB.
_EVENTS_PER_WRITE = 256


def save_events(path, slices, *, live_time_s=None):
    """Persist events as versioned CSV, one row per registered photon in
    table order.

    ``slices`` yields (events, rate_dropped, empty_dropped) per time slice,
    in order; a whole table is one slice.  Event numbers run on across
    slices and the header carries the summed drop counts, so the rows wait
    in a temporary file beside ``path`` until the last slice is read: one
    slice's events are held at a time.  Returns the (events, rate_dropped,
    empty_dropped) totals.
    """
    n_events = rate_dropped = empty_dropped = 0
    directory = os.path.dirname(os.path.abspath(path))
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=directory) as rows:
        for events, rate, empty in slices:
            trigger, start = events.trigger_ns.tolist(), events.start.tolist()
            photons = (events.detector, events.energy_kev, events.offset_ns, events.origin)
            # Each event's number and trigger time are formatted once, into
            # the format of its rows; one %-format call per block of events
            # fills in the photons' columns, which astype(object) turns into
            # the Python ints and floats the format expects.
            for lo in range(0, len(events), _EVENTS_PER_WRITE):
                hi = min(lo + _EVENTS_PER_WRITE, len(events))
                fmt = "".join([(_EVENT_FORMAT % (n_events + e, trigger[e]) + _PHOTON_FORMAT)
                               * (start[e + 1] - start[e]) for e in range(lo, hi)])
                block = np.column_stack([c[start[lo] : start[hi]].astype(object) for c in photons])
                rows.write(fmt % tuple(block.ravel()))
            n_events += len(events)
            rate_dropped += rate
            empty_dropped += empty
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(EVENT_FORMAT_HEADER + "\n")
            if live_time_s is not None:
                fh.write(f"# live_time_s: {live_time_s:.6f}\n")
            fh.write(f"# rate_dropped: {rate_dropped}\n")
            fh.write(f"# empty_dropped: {empty_dropped}\n")
            fh.write(EVENT_COLUMNS + "\n")
            rows.seek(0)
            shutil.copyfileobj(rows, fh)
    return n_events, rate_dropped, empty_dropped


def load_events(path):
    """Read events written by save_events.

    Metadata comments precede the column-name row, which must be
    ``EVENT_COLUMNS``.  Returns (events, metadata dict) with ``events`` an
    ``EventTable``; consecutive rows with the same event number form one
    event.  Raises ValueError on a format-version mismatch, a missing or
    other column-name row, malformed rows, event numbers that do not start
    at 0 and step by 0 or 1, rows of one event with different trigger
    times, a live time that is negative or not finite (0 means none), a
    negative drop count, a detector or origin id that save_events never
    writes, or a trigger time, energy or offset that is not finite.  An
    offset beyond the registration window passes: the file does not record
    the window.
    """
    meta = {"live_time_s": None, "rate_dropped": 0, "empty_dropped": 0}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENT_FORMAT_HEADER:
            raise ValueError(f"unrecognized event-file format: {header!r}")
        columns = None
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                columns = line
                break
            key, _, raw = line.lstrip("#").partition(":")
            if key.strip() in meta:
                meta[key.strip()] = float(raw) if key.strip() == "live_time_s" else int(raw)
        if columns != EVENT_COLUMNS:
            raise ValueError(f"expected the column names {EVENT_COLUMNS!r}, got {columns!r}")
        live = meta["live_time_s"]
        if live is not None and not 0 <= live < np.inf:  # NaN fails too
            raise ValueError(f"live_time_s must be finite and not negative, got {live}")
        for key in ("rate_dropped", "empty_dropped"):
            if meta[key] < 0:
                raise ValueError(f"{key} must not be negative, got {meta[key]}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no events
            rows = np.loadtxt(fh, delimiter=",", comments="#", dtype=_ROW_DTYPE, ndmin=1)
    # Detector and origin ids run from 0 to their count - 1.
    for column, count in (("detector", len(DETECTORS)), ("origin", N_ORIGINS)):
        ids = rows[column]
        if len(ids) and not 0 <= ids.min() <= ids.max() < count:
            smallest = ids[(ids < 0) | (ids >= count)].min()
            raise ValueError(f"unknown {column} id {smallest} in event file")
    for column in ("trigger_ns", "energy_kev", "offset_ns"):
        if not np.isfinite(rows[column]).all():
            raise ValueError(f"{column} must be finite in every row")
    event, trigger = rows["event"], rows["trigger_ns"]
    step = np.diff(event)
    if (len(event) and event[0] != 0) or np.any((step != 0) & (step != 1)):
        raise ValueError("event numbers must start at 0 and step by 0 or 1")
    if np.any((trigger[1:] != trigger[:-1]) & (step == 0)):
        raise ValueError("rows of one event carry different trigger_ns values")
    first = np.ones(len(rows), dtype=bool)
    first[1:] = step == 1
    trigger_ns = trigger[first]
    rows = rows[np.argsort(event * len(DETECTORS) + rows["detector"], kind="stable")]
    events = EventTable(
        trigger_ns,
        _csr_start(np.bincount(event, minlength=len(trigger_ns))),
        rows["detector"].astype(np.int8),
        np.ascontiguousarray(rows["energy_kev"]),
        np.ascontiguousarray(rows["offset_ns"]),
        rows["origin"].astype(np.int8),
    )
    return events, meta
