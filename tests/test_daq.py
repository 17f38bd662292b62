"""Unit tests for the coincidence-electronics emulation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import daq, montecarlo as mc, stats
from artifact.cli import SIGMA_WINDOWS_NS, cmd_simulate
from artifact.config import load_default_config
from artifact.montecarlo import DET_REF, DET_TRANS, DET_TRIG, Stream

from conftest import simulate_events

CFG = daq.DaqConfig()


def _pulses(rows):
    """rows: list of (start_ns, energy_kev, detector, logic), in time order."""
    t, e, d, logic = (np.array(c) for c in zip(*rows))
    return Stream(t.astype(float), e.astype(float), d.astype(np.int8),
                  np.zeros(len(rows), dtype=np.int8), logic.astype(bool))


def test_config_validation():
    with pytest.raises(ValueError):
        daq.DaqConfig(half_window_ns=0.0)
    with pytest.raises(ValueError):
        daq.DaqConfig(acceptance_kev=(17.0, 7.0))
    with pytest.raises(ValueError):
        daq.DaqConfig(max_event_rate_hz=0.0)


def test_simultaneous_pair_makes_one_event():
    pulses = _pulses([(1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_REF, True)])
    events, rate_dropped, empty_dropped = daq.build_events(pulses, CFG)
    assert (len(events), rate_dropped, empty_dropped) == (1, 0, 0)
    assert events.detector.tolist() == [DET_TRIG, DET_REF]
    # Analog peaks sit half a pulse width after the common start time.
    assert events.offset_ns.tolist() == pytest.approx([100.0, 100.0])


def test_partner_beyond_window_registers_single():
    # Logic pulses still overlap at 950 ns separation, but the earlier analog
    # peak falls outside the +-800 ns software window: a one-photon record.
    pulses = _pulses([(0.0, 10.4, DET_REF, True), (950.0, 10.6, DET_TRIG, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 1
    assert events.detector.tolist() == [DET_TRIG]


def test_window_is_closed_at_both_ends():
    # Analog-only REF pulses peak exactly at point -+ half_window (registered)
    # and 1 ns beyond each end (not registered); peaks lie 100 ns after starts.
    point = 10_000.0
    pulses = _pulses([(point - 901.0, 10.0, DET_REF, False), (point - 900.0, 10.1, DET_REF, False),
                      (point, 10.4, DET_TRIG, True), (point, 10.6, DET_TRANS, True),
                      (point + 700.0, 10.2, DET_REF, False), (point + 701.0, 10.3, DET_REF, False)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert events.trigger_ns.tolist() == [point]
    ref = events.detector == DET_REF
    assert events.energy_kev[ref].tolist() == [10.1, 10.2]
    assert events.offset_ns[ref].tolist() == [-800.0, 800.0]


def test_no_overlap_no_event():
    pulses = _pulses([(0.0, 10.4, DET_REF, True), (1500.0, 10.6, DET_TRIG, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 0


def test_logic_flag_required_for_trigger():
    pulses = _pulses([(1000.0, 10.4, DET_TRIG, False), (1000.0, 10.6, DET_REF, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 0


def test_out_of_order_pulses_are_rejected():
    pulses = _pulses([(1000.0, 10.6, DET_REF, True), (0.0, 10.4, DET_TRIG, True)])
    with pytest.raises(ValueError, match="time order"):
        daq.find_triggers(pulses, CFG)
    with pytest.raises(ValueError, match="time order"):
        daq.build_events(pulses, CFG)


def test_empty_trigger_windows_are_dropped():
    # The trigger-side photon is the earlier one here, so its analog peak
    # leaves the window and the capture holds no trigger photon at all.
    pulses = _pulses([(0.0, 10.4, DET_TRIG, True), (950.0, 10.6, DET_REF, True)])
    events, rate_dropped, empty_dropped = daq.build_events(pulses, CFG)
    assert len(events) == 0
    assert empty_dropped == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 1500),
       span_ns=st.sampled_from([1e5, 1e6]),
       half_window_ns=st.sampled_from([100.0, 400.0, 800.0, 1500.0]))
@example(seed=4, n=4000, span_ns=5e8, half_window_ns=800.0)
def test_offsets_within_window_invariant(seed, n, span_ns, half_window_ns):
    rng = np.random.default_rng(seed)
    rows = []
    for t in np.sort(rng.uniform(0, span_ns, n)):
        rows.append((t, rng.uniform(7, 17), int(rng.integers(0, 3)), True))
    cfg = daq.DaqConfig(half_window_ns=half_window_ns)
    events, _, _ = daq.build_events(_pulses(rows), cfg)
    assert len(events) > 0
    # CSR layout: monotone starts from 0 to the photon count, one trigger
    # time per event, photons grouped by detector within each event.
    start = events.start
    assert start[0] == 0 and start[-1] == len(events.energy_kev)
    assert np.all(np.diff(start) >= 0) and len(start) == len(events) + 1
    assert all(len(c) == start[-1] for c in
               (events.detector, events.offset_ns, events.origin))
    assert np.all(np.diff(events.trigger_ns) >= 0)
    event = events.event_index()
    assert np.all(np.diff(event * 3 + events.detector) >= 0)
    assert np.all(np.abs(events.offset_ns) <= half_window_ns)
    assert np.all(events.counts()[:, DET_TRIG] >= 1)


def test_shrinking_window_registers_fewer_photons():
    rng = np.random.default_rng(5)
    rows = [(t, rng.uniform(7, 17), int(rng.integers(0, 3)), True)
            for t in np.sort(rng.uniform(0, 1e8, 2000))]
    pulses = _pulses(rows)
    totals = []
    for half in (800.0, 400.0, 200.0, 100.0):
        cfg = daq.DaqConfig(half_window_ns=half)
        events, _, _ = daq.build_events(pulses, cfg)
        totals.append(len(events.energy_kev))
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_rate_cap_drops_excess_triggers():
    # 500 coincident pairs within one second against a 200 events/s cap.
    rows = []
    for i in range(500):
        t = 2e6 * i
        rows.append((t, 10.4, DET_TRIG, True))
        rows.append((t, 10.6, DET_REF, True))
    events, rate_dropped, _ = daq.build_events(_pulses(rows), CFG)
    assert len(events) == 200
    assert rate_dropped == 300


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(0, 60), n_single=st.integers(0, 60),
       span_s=st.sampled_from([0.5, 2.0, 5.0]), cap_hz=st.sampled_from([1.0, 2.5, 7.9, 200.0]))
def test_rate_cap_holds_per_second_and_captures_are_conserved(seed, n_pairs, n_single,
                                                              span_s, cap_hz):
    """Coincident pairs plus singles: the cap keeps the first int(cap) overlap
    points of each 1-s bucket, and every overlap point ends as an event, a
    rate drop or an empty drop."""
    rng = np.random.default_rng(seed)
    pair_t = rng.uniform(0, span_s * 1e9, n_pairs)
    t = np.concatenate([pair_t, pair_t + rng.uniform(-1500, 1500, n_pairs),
                        rng.uniform(0, span_s * 1e9, n_single)])
    d = np.concatenate([np.full(n_pairs, DET_TRIG), rng.choice([DET_TRANS, DET_REF], n_pairs),
                        rng.integers(0, 3, n_single)])
    logic = rng.random(len(t)) < 0.9
    order = np.argsort(t, kind="stable")
    rows = list(zip(t[order], rng.uniform(7, 17, len(t)), d[order], logic[order]))
    if not rows:
        return
    pulses = _pulses(rows)
    cfg = daq.DaqConfig(max_event_rate_hz=cap_hz)
    cap = int(cap_hz)

    # Overlap points before the cap, by brute force over logic pulses.
    w = cfg.logic_width_ns
    start, det, on = pulses.time_ns, pulses.detector, pulses.logic
    others = start[on & (det != DET_TRIG)]
    uncapped = []
    for s in start[on & (det == DET_TRIG)]:
        hit = others[(others > s - w) & (others < s + w)]
        if len(hit):
            uncapped.append(max(s, hit.min()))
    uncapped = np.sort(np.array(uncapped, dtype=float))

    points, rate_dropped = daq.find_triggers(pulses, cfg)
    events, rate_dropped_b, empty_dropped = daq.build_events(pulses, cfg)
    assert rate_dropped_b == rate_dropped
    assert len(events) + rate_dropped + empty_dropped == len(uncapped)
    for bucket in np.unique(np.floor(uncapped / 1e9)):
        in_bucket = uncapped[np.floor(uncapped / 1e9) == bucket]
        np.testing.assert_array_equal(points[np.floor(points / 1e9) == bucket],
                                      in_bucket[:cap])
    _, per_bucket = np.unique(np.floor(events.trigger_ns / 1e9), return_counts=True)
    assert np.all(per_bucket <= cap)


def _reference_triggers(pulses, cfg, span):
    """find_triggers by brute force: each trigger logic pulse takes the
    earliest output logic pulse starting within +-logic_width, at the later
    of the two starts; then the span, then the first int(cap) points of each
    whole second."""
    w = cfg.logic_width_ns
    start, det, logic = pulses.time_ns.tolist(), pulses.detector.tolist(), pulses.logic.tolist()
    outputs = [s for s, d, on in zip(start, det, logic) if on and d != DET_TRIG]
    points = []
    for s, d, on in zip(start, det, logic):
        if on and d == DET_TRIG:
            near = [o for o in outputs if s - w < o < s + w]
            if near:
                points.append(max(s, min(near)))
    if span is not None:
        points = [p for p in points if span[0] <= p < span[1]]
    kept, per_second = [], {}
    for p in points:
        second = math.floor(p / 1e9)
        per_second[second] = per_second.get(second, 0) + 1
        if per_second[second] <= int(cfg.max_event_rate_hz):
            kept.append(p)
    return kept, len(points) - len(kept)


# A start-time lattice of whole seconds plus quarter logic widths: equal
# starts, starts exactly one logic width apart, several points per second.
_LATTICE = st.builds(lambda second, k: second * 1e9 + 250.0 * k,
                     st.integers(0, 2), st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_LATTICE, st.sampled_from(daq.DETECTORS), st.booleans()),
                     max_size=40),
       span=st.none() | st.lists(_LATTICE, min_size=2, max_size=2).map(sorted),
       cap_hz=st.sampled_from([1.0, 2.5, 200.0]))
# The output pulse exactly one logic width ahead does not overlap: the
# later one does, and sets the point.
@example(rows=[(0.0, DET_REF, True), (1000.0, DET_TRIG, True), (1250.0, DET_TRANS, True)],
         span=None, cap_hz=200.0)
# A span holds its low end and not its high end.
@example(rows=[(1000.0, DET_TRIG, True), (1000.0, DET_REF, True)], span=[250.0, 1000.0],
         cap_hz=200.0)
@example(rows=[(1000.0, DET_TRIG, True), (1000.0, DET_REF, True)], span=[1000.0, 1250.0],
         cap_hz=200.0)
@example(rows=[(0.0, DET_TRIG, True), (0.0, DET_REF, True), (500.0, DET_TRIG, True)],
         span=None, cap_hz=1.0)
# An output pulse within one logic width ahead of the trigger pulse and
# none after it: the trigger pulse sets the point.
@example(rows=[(250.0, DET_TRANS, True), (1000.0, DET_TRIG, True)], span=None, cap_hz=200.0)
# An output pulse exactly one logic width after the trigger pulse does not
# overlap it.
@example(rows=[(1000.0, DET_TRIG, True), (2000.0, DET_TRANS, True)], span=None, cap_hz=200.0)
# An output pulse with the trigger pulse's start, after it in the stream.
@example(rows=[(1000.0, DET_TRIG, True), (1000.0, DET_TRANS, True)], span=None, cap_hz=200.0)
# No output pulse starts after t - w: the lookup reaches past the last one.
@example(rows=[(0.0, DET_REF, True), (1000.0, DET_TRIG, True), (1500.0, DET_TRANS, False)],
         span=None, cap_hz=200.0)
# Output pulses 1 ns inside the upper and the lower end of the overlap.
@example(rows=[(1000.0, DET_TRIG, True), (1999.0, DET_TRANS, True)], span=None, cap_hz=200.0)
@example(rows=[(1.0, DET_REF, True), (1000.0, DET_TRIG, True)], span=None, cap_hz=200.0)
def test_find_triggers_matches_brute_force(rows, span, cap_hz):
    rows.sort(key=lambda row: row[0])  # stable: equal starts keep a random order
    pulses = Stream(np.array([r[0] for r in rows], dtype=float), np.full(len(rows), 10.0),
                    np.array([r[1] for r in rows], dtype=np.int8), np.zeros(len(rows), np.int8),
                    np.array([r[2] for r in rows], dtype=bool))
    cfg = daq.DaqConfig(max_event_rate_hz=cap_hz)
    points, rate_dropped = daq.find_triggers(pulses, cfg, span)
    assert (points.tolist(), rate_dropped) == _reference_triggers(pulses, cfg, span)


def _spans(ends_ns):
    """[lo, hi) of each slice; the first and last are open-ended."""
    return zip(np.r_[-np.inf, ends_ns[:-1]], np.r_[ends_ns[:-1], np.inf])


def _split(pulses, ends_ns):
    """(end, pulses starting in the slice's span) per slice."""
    return [(end, pulses.between(lo, hi)) for end, (lo, hi) in zip(ends_ns, _spans(ends_ns))]


def _assert_slices_match_whole(pulses, ends_ns, cfg):
    whole, rate_dropped, empty_dropped = daq.build_events(pulses, cfg)
    built = list(daq.build_events_in_slices(_split(pulses, ends_ns), cfg))
    assert len(built) == len(ends_ns)
    tables = [events for events, _, _ in built]
    assert sum(r for _, r, _ in built) == rate_dropped
    assert sum(e for _, _, e in built) == empty_dropped
    np.testing.assert_array_equal(np.concatenate([np.diff(t.start) for t in tables]),
                                  np.diff(whole.start), "event sizes")
    for column in ("trigger_ns", "detector", "energy_kev", "offset_ns", "origin"):
        np.testing.assert_array_equal(np.concatenate([getattr(t, column) for t in tables]),
                                      getattr(whole, column), column)
    # Each slice holds exactly the points inside it.
    for (lo, hi), (events, _, _) in zip(_spans(ends_ns), built):
        assert np.all((events.trigger_ns >= lo) & (events.trigger_ns < hi))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lengths_s=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       per_edge=st.integers(0, 40), n_inner=st.integers(0, 30),
       logic_width_ns=st.sampled_from([100.0, 1000.0, 2500.0]),
       half_window_ns=st.sampled_from([50.0, 800.0, 3000.0]),
       cap_hz=st.sampled_from([1.0, 2.5, 200.0]))
def test_build_events_over_slices_matches_whole_stream(seed, lengths_s, per_edge, n_inner,
                                                       logic_width_ns, half_window_ns, cap_hz):
    """Slices with carry-over and look-ahead build exactly the whole stream's
    events: pulses crowd each slice edge on a 50 ns lattice (equal times,
    starts on the edge itself, windows and logic pulses across it), and
    slices are as short as 1 s."""
    rng = np.random.default_rng(seed)
    ends_ns = np.cumsum(lengths_s) * 1e9
    near = (np.repeat(np.r_[0.0, ends_ns], per_edge)
            + 50.0 * rng.integers(-120, 120, per_edge * (len(ends_ns) + 1)))
    t = np.sort(np.concatenate([near, rng.uniform(0, ends_ns[-1], n_inner)]))
    t = t[t >= 0]
    pulses = Stream(t, rng.uniform(7, 17, len(t)), rng.integers(0, 3, len(t)).astype(np.int8),
                    rng.integers(0, 3, len(t)).astype(np.int8), rng.random(len(t)) < 0.9)
    cfg = daq.DaqConfig(logic_width_ns=logic_width_ns, half_window_ns=half_window_ns,
                        max_event_rate_hz=cap_hz)

    _assert_slices_match_whole(pulses, ends_ns, cfg)


def _far_outputs_removed(pulses, reach_ns):
    """``pulses`` without the output pulses farther than ``reach_ns`` from
    every trigger logic pulse: those outside [t - reach, t + reach) of each
    trigger logic start t."""
    t = pulses.time_ns
    trig = t[(pulses.detector == DET_TRIG) & pulses.logic]
    near = ((t[:, None] >= trig - reach_ns) & (t[:, None] < trig + reach_ns)).any(axis=1)
    keep = near | (pulses.detector == DET_TRIG)
    return Stream(*(c[keep] for c in pulses._columns()))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lengths_s=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       per_edge=st.integers(0, 40), n_inner=st.integers(0, 60),
       logic_width_ns=st.sampled_from([100.0, 1000.0, 2500.0]),
       half_window_ns=st.sampled_from([50.0, 800.0, 3000.0]),
       analog_width_ns=st.sampled_from([10.0, 200.0, 1500.0]),
       cap_hz=st.sampled_from([1.0, 2.5, 200.0]))
def test_output_pulses_beyond_reach_change_no_event(seed, lengths_s, per_edge, n_inner,
                                                   logic_width_ns, half_window_ns,
                                                   analog_width_ns, cap_hz):
    """Removing every output pulse farther than ``reach_ns`` from each
    trigger logic pulse leaves the events and drops of ``build_events``
    and of ``build_events_in_slices`` as they were.  Pulses crowd the slice
    edges and each other on a 50 ns lattice, so many lie near that reach."""
    rng = np.random.default_rng(seed)
    cfg = daq.DaqConfig(logic_width_ns=logic_width_ns, half_window_ns=half_window_ns,
                        analog_width_ns=analog_width_ns, max_event_rate_hz=cap_hz)
    ends_ns = np.cumsum(lengths_s) * 1e9
    centres = np.r_[0.0, ends_ns, rng.uniform(0, ends_ns[-1], n_inner)]
    t = np.repeat(centres, per_edge) + 50.0 * rng.integers(-200, 200, per_edge * centres.size)
    t = np.sort(t[t >= 0])
    pulses = Stream(t, rng.uniform(7, 17, len(t)), rng.integers(0, 3, len(t)).astype(np.int8),
                    rng.integers(0, 3, len(t)).astype(np.int8), rng.random(len(t)) < 0.9)
    pruned = _far_outputs_removed(pulses, cfg.reach_ns())

    whole, rate_dropped, empty_dropped = daq.build_events(pulses, cfg)
    kept, kept_rate, kept_empty = daq.build_events(pruned, cfg)
    assert (kept_rate, kept_empty) == (rate_dropped, empty_dropped)
    for column in ("trigger_ns", "start", "detector", "energy_kev", "offset_ns", "origin"):
        np.testing.assert_array_equal(getattr(kept, column), getattr(whole, column), column)
    # And in slices: the pruned stream's slices build its whole events.
    _assert_slices_match_whole(pruned, ends_ns, cfg)


def _far_triggers_removed(pulses, reach_ns):
    """``pulses`` without the trigger pulses, with or without a logic
    pulse, farther than ``reach_ns`` from every output logic pulse: those
    outside [t - reach, t + reach) of each output logic start t."""
    t = pulses.time_ns
    outputs = t[(pulses.detector != DET_TRIG) & pulses.logic]
    near = ((t[:, None] >= outputs - reach_ns) & (t[:, None] < outputs + reach_ns)).any(axis=1)
    keep = near | (pulses.detector != DET_TRIG)
    return Stream(*(c[keep] for c in pulses._columns()))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lengths_s=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       per_edge=st.integers(0, 40), n_inner=st.integers(0, 60),
       logic_width_ns=st.sampled_from([100.0, 1000.0, 2500.0]),
       half_window_ns=st.sampled_from([50.0, 800.0, 3000.0]),
       analog_width_ns=st.sampled_from([10.0, 200.0, 1500.0]),
       cap_hz=st.sampled_from([1.0, 2.5, 200.0]))
def test_trigger_pulses_beyond_reach_of_the_outputs_change_no_event(
        seed, lengths_s, per_edge, n_inner, logic_width_ns, half_window_ns, analog_width_ns,
        cap_hz):
    """The mirror of the output cut, applied after it: removing every
    trigger pulse farther than ``reach_ns`` from each remaining output
    logic pulse leaves the events and drops of ``build_events`` and of
    ``build_events_in_slices`` as they were.  Pulses crowd the slice edges
    and each other on a 50 ns lattice, so many lie near that reach."""
    rng = np.random.default_rng(seed)
    cfg = daq.DaqConfig(logic_width_ns=logic_width_ns, half_window_ns=half_window_ns,
                        analog_width_ns=analog_width_ns, max_event_rate_hz=cap_hz)
    ends_ns = np.cumsum(lengths_s) * 1e9
    centres = np.r_[0.0, ends_ns, rng.uniform(0, ends_ns[-1], n_inner)]
    t = np.repeat(centres, per_edge) + 50.0 * rng.integers(-200, 200, per_edge * centres.size)
    t = np.sort(t[t >= 0])
    pulses = Stream(t, rng.uniform(7, 17, len(t)), rng.integers(0, 3, len(t)).astype(np.int8),
                    rng.integers(0, 3, len(t)).astype(np.int8), rng.random(len(t)) < 0.9)
    pruned = _far_triggers_removed(_far_outputs_removed(pulses, cfg.reach_ns()), cfg.reach_ns())

    whole, rate_dropped, empty_dropped = daq.build_events(pulses, cfg)
    kept, kept_rate, kept_empty = daq.build_events(pruned, cfg)
    assert (kept_rate, kept_empty) == (rate_dropped, empty_dropped)
    for column in ("trigger_ns", "start", "detector", "energy_kev", "offset_ns", "origin"):
        np.testing.assert_array_equal(getattr(kept, column), getattr(whole, column), column)
    _assert_slices_match_whole(pruned, ends_ns, cfg)


def test_reach_is_two_logic_widths_half_a_window_and_an_analog_width():
    assert CFG.reach_ns() == 2 * 1000.0 + 800.0 + 200.0


def test_slice_carry_over_covers_two_logic_widths():
    """A trigger pulse just before an edge with its only overlap further
    back: the next slice must see that output pulse too, or it takes the
    output pulse just after the edge for a new overlap point."""
    edge = 1e9
    pulses = _pulses([(edge - 3000.0, 10.0, DET_TRANS, True),
                      (edge - 1000.0, 10.0, DET_TRIG, True),
                      (edge + 500.0, 10.0, DET_REF, True)])
    cfg = daq.DaqConfig(logic_width_ns=2500.0, half_window_ns=200.0)
    _assert_slices_match_whole(pulses, np.array([edge, 2 * edge]), cfg)


def test_simulate_equals_one_build_over_its_joined_slices(tmp_path, monkeypatch):
    """The production chain's sliced events, drops and pulse counts equal one
    build over the whole pulse stream its slices make up, saved and read
    back."""
    cfg = load_default_config(["grid.n_energy=400", "grid.n_x=60", "grid.n_y=12",
                               "source.duration_s=30", "source.pair_rate_hz=5", "run.seed=5"])
    slices = []
    build = daq.build_events_in_slices

    def keeping(pulse_slices, daq_cfg):
        return build(((end, slices.append(p) or p) for end, p in pulse_slices), daq_cfg)

    monkeypatch.setattr(daq, "build_events_in_slices", keeping)
    events, _heralded, rate_dropped, empty_dropped, pulse_counts = simulate_events(cfg)

    assert len(slices) >= 3
    # Each slice draws from its own generator.
    assert not np.array_equal(slices[0].energy_kev[:50], slices[1].energy_kev[:50])
    pulses = mc.join_streams(*slices)
    whole, whole_rate, whole_empty = daq.build_events(pulses, cfg.daq)
    daq.save_events(tmp_path / "whole.csv", [(whole, whole_rate, whole_empty)])
    whole, _meta = daq.load_events(tmp_path / "whole.csv")
    whole, _heralded = daq.energy_select(whole, cfg.daq)
    assert (rate_dropped, empty_dropped) == (whole_rate, whole_empty)
    for column in ("trigger_ns", "start", "detector", "energy_kev", "offset_ns", "origin",
                   "passes_acceptance", "passes_sum", "herald_kev"):
        np.testing.assert_array_equal(getattr(events, column), getattr(whole, column), column)
    # The tally adds to the pulses the background that was counted, not
    # drawn, and the trigger logic pulses drawn as times but not kept: only
    # in the stray cells, and never negative.
    cell = (pulses.detector.astype(np.intp) * mc.N_ORIGINS + pulses.origin) * 2 + pulses.logic
    made = np.bincount(cell, minlength=pulse_counts.size).reshape(pulse_counts.shape)
    counted_only = pulse_counts - made
    assert counted_only.min() >= 0
    assert counted_only[:, mc.ORIGIN_STRAY].min() > 0
    counted_only[:, mc.ORIGIN_STRAY] = 0
    assert not counted_only.any()


def test_energy_select_acceptance_and_sum():
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events.passes_acceptance.tolist() == [True]
    assert events.passes_sum.tolist() == [True]
    assert len(heralded) == 1 and heralded.trigger_ns[0] == events.trigger_ns[0]
    # The one pairing heralds 10.6 keV at TRANS; REF has none (NaN).
    np.testing.assert_array_equal(events.herald_kev, [[np.nan, 10.6, np.nan]])


def test_energy_select_rejects_nonconserving_pair():
    pulses = _pulses([
        (1000.0, 9.0, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events.passes_acceptance.tolist() == [True]
    assert events.passes_sum.tolist() == [False]
    assert len(heralded) == 0


def test_energy_select_out_of_band_photon_fails_acceptance():
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
        (1200.0, 21.0, DET_REF, False),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events.passes_sum.tolist() == [True]  # the conserving pairing is still present
    assert events.passes_acceptance.tolist() == [False]
    assert len(heralded) == 0


def test_energy_select_any_pairing_passes_triples():
    # Photons at both outputs: the sum window passes if either pairing does.
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
        (1100.0, 8.0, DET_REF, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events.passes_sum.tolist() == [True]
    np.testing.assert_array_equal(events.herald_kev, [[np.nan, 10.6, np.nan]])  # TRANS only


def test_iterating_needs_a_flagged_table():
    # Twenty events pair their trigger photon at both ports; each lists its
    # TRANS pairing first.
    pulses = _pulses([row for t in range(20) for row in (
        (1e4 * t, 10.4, DET_TRIG, True), (1e4 * t, 10.6, DET_TRANS, True),
        (1e4 * t, 10.7, DET_REF, True))])
    events, _, _ = daq.build_events(pulses, CFG)
    with pytest.raises(ValueError, match="energy_select"):
        list(events)
    events, _heralded = daq.energy_select(events, CFG)
    assert [rec.heralded_pairs for rec in events] == [
        [(DET_TRANS, 10.4, 10.6), (DET_REF, 10.4, 10.7)]] * 20


def test_event_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    rows = [(t, rng.uniform(7, 17), int(rng.integers(0, 3)), True)
            for t in np.sort(rng.uniform(0, 1e8, 500))]
    events, rate_dropped, empty_dropped = daq.build_events(_pulses(rows), CFG)
    path, whole = tmp_path / "events.csv", tmp_path / "whole.csv"
    # Written in two slices: event numbers run on and the drops add up, to
    # the bytes of one write of the whole table.
    half = np.arange(len(events)) < len(events) // 2
    slices = [(events.select(half), rate_dropped, 0), (events.select(~half), 0, empty_dropped)]
    assert daq.save_events(path, slices, live_time_s=0.1) == (len(events), rate_dropped, empty_dropped)
    daq.save_events(whole, [(events, rate_dropped, empty_dropped)], live_time_s=0.1)
    assert path.read_bytes() == whole.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "whole.csv"]
    loaded, meta = daq.load_events(path)
    assert meta["live_time_s"] == pytest.approx(0.1)
    assert meta["rate_dropped"] == rate_dropped
    assert meta["empty_dropped"] == empty_dropped
    assert len(loaded) == len(events)
    np.testing.assert_array_equal(loaded.start, events.start)
    np.testing.assert_array_equal(loaded.detector, events.detector)
    np.testing.assert_allclose(loaded.trigger_ns, events.trigger_ns, rtol=0, atol=1e-6)
    np.testing.assert_allclose(loaded.energy_kev, events.energy_kev, rtol=1e-8)
    np.testing.assert_allclose(loaded.offset_ns, events.offset_ns, atol=1e-6)


def _analyze_estimates(events, cfg):
    """Every estimator ``xbsim analyze`` reports, as arrays (NaN where a
    sigma is undefined)."""
    events, heralded = daq.energy_select(events, cfg.daq)
    out = {
        "passes": np.column_stack([events.passes_acceptance, events.passes_sum]),
        "herald_kev": events.herald_kev,
    }
    for det in (DET_TRANS, DET_REF):
        hist = stats.spectra(heralded, det, cfg.bin_width_kev)
        out[f"spectrum_{det}"] = np.r_[hist.counts, hist.underflow, hist.overflow]
    out["sigma"] = stats.sigma_curves(
        events, SIGMA_WINDOWS_NS, outputs=(DET_TRANS, DET_REF), energy_modes=("sum", "open"),
    )
    for label, subset in (("heralded", heralded), ("all", events)):
        counts = stats.counts_from_events(subset)
        result = stats.alpha(counts)
        out[f"alpha_{label}"] = np.array([counts.n_trig, counts.n_trig_t, counts.n_trig_r,
                                          counts.n_trig_t_r, result.alpha, result.sigma])
    return out


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sum_halfwidth_kev=st.floats(0.05, 1.5),
       acceptance_hi_kev=st.floats(11.0, 22.0))
def test_simulated_events_round_trip_exactly(tmp_path_factory, seed, sum_halfwidth_kev,
                                             acceptance_hi_kev):
    cfg = load_default_config([
        f"run.seed={seed}", "grid.n_energy=400", "grid.n_x=60", "grid.n_y=12",
        "source.duration_s=10", "source.pair_rate_hz=5",
        f"daq.sum_halfwidth_kev={sum_halfwidth_kev!r}",
        f"daq.acceptance_hi_kev={acceptance_hi_kev!r}",
    ])
    outdir = tmp_path_factory.mktemp("roundtrip")
    cmd_simulate(cfg, str(outdir))
    events, meta = daq.load_events(outdir / "events.csv")
    # The file is a fixed point of load then save.
    daq.save_events(outdir / "again.csv", [(events, meta["rate_dropped"], meta["empty_dropped"])],
                    live_time_s=meta["live_time_s"])
    assert (outdir / "again.csv").read_bytes() == (outdir / "events.csv").read_bytes()
    loaded, _meta = daq.load_events(outdir / "again.csv")

    assert len(events) > 0
    for column in ("trigger_ns", "start", "detector", "energy_kev", "offset_ns", "origin"):
        np.testing.assert_array_equal(getattr(loaded, column), getattr(events, column))
    want = _analyze_estimates(events, cfg)
    got = _analyze_estimates(loaded, cfg)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_event_load_rejects_bad_format(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not an event file\n")
    with pytest.raises(ValueError):
        daq.load_events(path)
    for text in (
        "# eventfile v1\nevent,trigger_ns\n0,1.0,2\n",
        # No column-name row at all.
        "# eventfile v1\n# live_time_s: 10\n",
        # The columns of save_events in another order.
        "# eventfile v1\nevent,detector,trigger_ns,energy_kev,offset_ns,origin\n0,5.0,1,10.0,0.0,0\n",
        # An event row where the column names belong.
        "# eventfile v1\n0,1.0,0,10.0,0.0,0\n",
    ):
        path.write_text(text)
        with pytest.raises(ValueError):
            daq.load_events(path)
