"""Unit tests for the coincidence-electronics emulation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import daq
from artifact.montecarlo import DET_REF, DET_TRANS, DET_TRIG, PULSE_DTYPE

CFG = daq.DaqConfig()


def _pulses(rows):
    """rows: list of (start_ns, energy_kev, detector, logic)."""
    out = np.zeros(len(rows), dtype=PULSE_DTYPE)
    for i, (t, e, d, logic) in enumerate(rows):
        out[i] = (t, e, d, 0, logic)
    return out


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
    rec = events[0]
    assert len(rec.energies[DET_TRIG]) == 1 and len(rec.energies[DET_REF]) == 1
    # Analog peaks sit half a pulse width after the common start time.
    assert rec.offsets[DET_TRIG][0] == pytest.approx(100.0)
    assert rec.offsets[DET_REF][0] == pytest.approx(100.0)


def test_partner_beyond_window_registers_single():
    # Logic pulses still overlap at 950 ns separation, but the earlier analog
    # peak falls outside the +-800 ns software window: a one-photon record.
    pulses = _pulses([(0.0, 10.4, DET_REF, True), (950.0, 10.6, DET_TRIG, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 1
    rec = events[0]
    assert len(rec.energies[DET_TRIG]) == 1
    assert len(rec.energies[DET_REF]) == 0


def test_no_overlap_no_event():
    pulses = _pulses([(0.0, 10.4, DET_REF, True), (1500.0, 10.6, DET_TRIG, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 0


def test_logic_flag_required_for_trigger():
    pulses = _pulses([(1000.0, 10.4, DET_TRIG, False), (1000.0, 10.6, DET_REF, True)])
    events, _, _ = daq.build_events(pulses, CFG)
    assert len(events) == 0


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
    for rec in events:
        for det in (DET_TRIG, DET_TRANS, DET_REF):
            assert np.all(np.abs(rec.offsets[det]) <= half_window_ns)
        assert len(rec.energies[DET_TRIG]) >= 1


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


def test_energy_select_acceptance_and_sum():
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events[0].passes_acceptance
    assert events[0].passes_sum
    assert len(heralded) == 1 and heralded[0].trigger_ns == events[0].trigger_ns
    assert events[0].heralded_pairs == [(DET_TRANS, 10.4, 10.6)]


def test_energy_select_rejects_nonconserving_pair():
    pulses = _pulses([
        (1000.0, 9.0, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events[0].passes_acceptance
    assert not events[0].passes_sum
    assert len(heralded) == 0


def test_energy_select_out_of_band_photon_fails_acceptance():
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
        (1200.0, 21.0, DET_REF, False),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events[0].passes_sum  # the conserving pairing is still present
    assert not events[0].passes_acceptance
    assert len(heralded) == 0


def test_energy_select_any_pairing_passes_triples():
    # Photons at both outputs: the sum window passes if either pairing does.
    pulses = _pulses([
        (1000.0, 10.4, DET_TRIG, True), (1000.0, 10.6, DET_TRANS, True),
        (1100.0, 8.0, DET_REF, True),
    ])
    events, _, _ = daq.build_events(pulses, CFG)
    events, heralded = daq.energy_select(events, CFG)
    assert events[0].passes_sum
    ports = [p for p, _t, _o in events[0].heralded_pairs]
    assert ports == [DET_TRANS]


def test_event_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    rows = [(t, rng.uniform(7, 17), int(rng.integers(0, 3)), True)
            for t in np.sort(rng.uniform(0, 1e8, 500))]
    events, rate_dropped, empty_dropped = daq.build_events(_pulses(rows), CFG)
    path = tmp_path / "events.csv"
    daq.save_events(path, events, live_time_s=0.1, rate_dropped=rate_dropped,
                    empty_dropped=empty_dropped)
    loaded, meta = daq.load_events(path)
    assert meta["live_time_s"] == pytest.approx(0.1)
    assert meta["rate_dropped"] == rate_dropped
    assert meta["empty_dropped"] == empty_dropped
    assert len(loaded) == len(events)
    for a, b in zip(loaded, events):
        assert a.trigger_ns == pytest.approx(b.trigger_ns, abs=1e-6)
        for det in (DET_TRIG, DET_TRANS, DET_REF):
            np.testing.assert_allclose(a.energies[det], b.energies[det], rtol=1e-8)
            np.testing.assert_allclose(a.offsets[det], b.offsets[det], atol=1e-6)


def test_event_load_rejects_bad_format(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not an event file\n")
    with pytest.raises(ValueError):
        daq.load_events(path)
    path.write_text("# eventfile v1\nevent,trigger_ns\n0,1.0,2\n")
    with pytest.raises(ValueError):
        daq.load_events(path)
