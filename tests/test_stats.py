"""Unit tests for the counting estimators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import daq, stats
from artifact.montecarlo import DET_REF, DET_TRANS, DET_TRIG

from conftest import make_table


def make_event(n_trig, n_out, out_det=DET_TRANS, *, e_trig=10.4, e_out=10.6,
               offsets=None):
    """Photon list of one event: n_trig trigger photons and n_out photons at
    out_det, at zero offset unless ``offsets`` maps a detector to offsets."""
    offsets = offsets or {}
    return [
        (det, e, off)
        for det, n, e in ((DET_TRIG, n_trig, e_trig), (out_det, n_out, e_out))
        for off in offsets.get(det, [0.0] * n)
    ]


def flagged(events, cfg=daq.DaqConfig()):
    """``make_table(events)`` flagged by ``energy_select`` under ``cfg``."""
    return daq.energy_select(make_table(events), cfg)[0]


def test_counts_validation():
    with pytest.raises(ValueError):
        stats.CoincCounts(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        stats.CoincCounts(10, 2, 3, 5)


def test_alpha_zero_triples_gives_one_sided_bound():
    result = stats.alpha(stats.CoincCounts(1000, 400, 500, 0))
    assert result.defined
    assert result.alpha == 0.0
    assert result.sigma == pytest.approx(1000 / (400 * 500))


def test_alpha_undefined_on_zero_denominator():
    result = stats.alpha(stats.CoincCounts(0, 0, 0, 0))
    assert not result.defined
    assert math.isnan(result.alpha)


def test_alpha_error_propagation():
    counts = stats.CoincCounts(10000, 4000, 5000, 100)
    result = stats.alpha(counts)
    expected = 10000 * 100 / (4000 * 5000)
    rel = math.sqrt(1 / 10000 + 1 / 100 + 1 / 4000 + 1 / 5000)
    assert result.alpha == pytest.approx(expected)
    assert result.sigma == pytest.approx(expected * rel)


def test_counts_from_events_categories():
    events = [
        make_event(1, 1, DET_TRANS),
        make_event(1, 1, DET_REF),
        make_event(1, 0),  # trigger photon alone: not a coincidence
    ]
    both = make_event(1, 1, DET_TRANS) + [(DET_REF, 8.0, 0.0)]
    events.append(both)
    counts = stats.counts_from_events(make_table(events))
    assert counts == stats.CoincCounts(3, 2, 2, 1)


def sigma(events, window_ns, *, output=DET_TRANS, energy_mode="open"):
    """The correlation degree at one window, output and energy mode: the
    single entry of ``stats.sigma_curves``."""
    return stats.sigma_curves(events, [window_ns], outputs=[output],
                              energy_modes=[energy_mode])[0, 0, 0]


def test_sigma_perfect_pairs_is_zero():
    events = flagged([make_event(1, 1) for _ in range(1000)])
    assert sigma(events, 800.0) == 0.0
    assert sigma(events, 800.0, energy_mode="sum") == 0.0


def test_sigma_rejects_bad_mode_and_small_samples():
    events = make_table([make_event(1, 1)])
    with pytest.raises(ValueError):
        sigma(events, 800.0, energy_mode="narrow")
    # Fewer than two qualifying events leave sigma undefined.
    assert math.isnan(sigma(events, 800.0))


def test_sigma_poisson_limit():
    rng = np.random.default_rng(12)
    lam = 3.0
    events = make_table([make_event(int(nt), int(nh))
                         for nt, nh in zip(rng.poisson(lam, 60000), rng.poisson(lam, 60000))])
    assert sigma(events, 800.0) == pytest.approx(1.0, abs=0.02)


def test_sigma_symmetric_under_port_relabel():
    rng = np.random.default_rng(13)
    events = []
    for nt, na, nb in zip(rng.poisson(2.0, 30000), rng.poisson(1.5, 30000),
                          rng.poisson(1.5, 30000)):
        rec = make_event(int(nt), int(na), DET_TRANS) + [(DET_REF, 10.6, 0.0)] * int(nb)
        events.append(rec)
    events = make_table(events)
    s_trans = sigma(events, 800.0, output=DET_TRANS)
    s_ref = sigma(events, 800.0, output=DET_REF)
    assert s_trans == pytest.approx(s_ref, abs=0.02)


def test_sigma_window_excludes_far_photons():
    # The output photon sits at 500 ns: it counts at 800 ns but not at 100 ns,
    # flipping the per-event difference from 0 to 1.
    events = [make_event(1, 1, offsets={DET_TRANS: [500.0]}) for _ in range(100)]
    assert sigma(make_table(events), 800.0) == 0.0
    wide = [make_event(1, 1) for _ in range(100)]
    mixed = make_table(events[:50] + wide[:50])
    assert sigma(mixed, 100.0) > sigma(mixed, 800.0)


def test_sigma_sum_mode_keeps_lone_elastic_trigger():
    # A lone pump-energy photon at the trigger is the footprint of a pair
    # whose partner missed the registration window; it must contribute.
    pairs = [make_event(1, 1) for _ in range(900)]
    singles = [make_event(1, 0, e_trig=21.0) for _ in range(100)]
    s = sigma(flagged(pairs + singles), 800.0, energy_mode="sum")
    assert s > 0.0
    # In-band lone triggers carry no pair evidence and are excluded.
    in_band = [make_event(1, 0, e_trig=10.4) for _ in range(100)]
    s_same = sigma(flagged(pairs + singles + in_band), 800.0, energy_mode="sum")
    assert s_same == pytest.approx(s)


def test_sigma_sum_mode_ignores_nonconserving_extras():
    # A stray photon does not disqualify a conserving pair, but it does
    # enter the windowed counts.
    rec = make_event(1, 1) + [(DET_TRANS, 8.0, 0.0)]
    events = flagged([rec] + [make_event(1, 1) for _ in range(99)])
    s = sigma(events, 800.0, energy_mode="sum")
    assert s > 0.0


def test_sigma_sum_mode_needs_a_flagged_table():
    events = make_table([make_event(1, 1) for _ in range(10)])
    assert sigma(events, 800.0) == 0.0  # open mode reads no selection
    with pytest.raises(ValueError, match="energy_select"):
        sigma(events, 800.0, energy_mode="sum")
    with pytest.raises(ValueError, match="energy_select"):
        stats.sigma_curves(events, [800.0])


def test_spectra_bins_heralded_pairs():
    energies = (9.1, 10.6, 10.7, 16.9, 6.0, 18.0)
    events = make_table([make_event(1, 1, e_trig=21.0 - e, e_out=e) for e in energies])
    events, _heralded = daq.energy_select(events, daq.DaqConfig())
    np.testing.assert_array_equal(events.herald_kev[:, DET_TRANS], energies)
    assert np.isnan(events.herald_kev[:, DET_REF]).all()
    hist = stats.spectra(events, DET_TRANS, 0.5)
    assert hist.counts.sum() == 4
    assert hist.underflow == 1 and hist.overflow == 1
    assert hist.counts.sum() + hist.underflow + hist.overflow == 6
    assert hist.counts[np.searchsorted(hist.edges, 10.6, side="right") - 1] == 2
    ref = stats.spectra(events, DET_REF, 0.5)
    assert ref.counts.sum() + ref.underflow + ref.overflow == 0
    with pytest.raises(ValueError):
        stats.spectra(events, DET_TRANS, 0.0)


def test_spectra_counts_a_value_at_hi_once_as_overflow():
    # np.histogram closes its last bin, so a value at hi would also land in it.
    events = flagged([make_event(1, 1, e_trig=21.0 - e, e_out=e) for e in (17.0, 7.0, 16.9)])
    hist = stats.spectra(events, DET_TRANS, 0.5)
    assert hist.edges[-1] == 17.0
    assert hist.counts.sum() == 2 and hist.counts[0] == 1 and hist.counts[-1] == 1
    total = hist.counts.sum() + hist.underflow + hist.overflow
    assert (hist.underflow, hist.overflow, total) == (0, 1, 3)


def test_spectra_bins_the_selection_band():
    cfg = daq.DaqConfig(acceptance_kev=(7.5, 16.5))
    events = flagged([make_event(1, 1, e_trig=21.0 - e, e_out=e) for e in (7.4, 7.5, 16.5)], cfg)
    hist = stats.spectra(events, DET_TRANS, 0.5)
    assert (hist.edges[0], hist.edges[-1], len(hist.edges)) == (7.5, 16.5, 19)
    assert (hist.counts[0], hist.underflow, hist.overflow) == (1, 1, 1)


def test_spectra_last_bin_ends_at_hi_when_the_band_is_not_whole_bins():
    # 10 keV in 0.3 keV bins: 33 whole bins end at 16.9 keV, and a
    # 0.1 keV bin covers the rest of the band.
    events = flagged([make_event(1, 1, e_trig=21.0 - e, e_out=e) for e in (16.95, 17.0)])
    hist = stats.spectra(events, DET_TRANS, 0.3)
    assert len(hist.counts) == 34 and hist.edges[-1] == 17.0
    assert hist.edges[-2] == pytest.approx(16.9)
    assert (hist.counts[-1], hist.counts.sum(), hist.overflow) == (1, 1, 1)


def test_rates_and_ratios():
    r = stats.rates_and_ratios(400, 900, 1000.0, 0.05, 0.005)
    assert r.n_ref == pytest.approx(0.4)
    assert r.n_ref_err == pytest.approx(0.02)
    assert r.r_trans == pytest.approx(18.0)
    rel = math.sqrt((0.03 / 0.9) ** 2 + (0.005 / 0.05) ** 2)
    assert r.r_trans_err == pytest.approx(18.0 * rel)
    zero = stats.rates_and_ratios(0, 10, 100.0, 0.05)
    assert zero.n_ref_err == pytest.approx(0.01)
    for live_time_s, baseline in ((0.0, 0.05), (-5.0, 0.05), (math.nan, 0.05), (1.0, math.nan)):
        with pytest.raises(ValueError):
            stats.rates_and_ratios(1, 1, live_time_s, baseline)


# Random small tables: 0-4 photons per detector per event, energies on a
# 0.1 keV lattice (so pair sums land on the sum-window edges) and offsets on a
# 50 ns lattice (so photons land on the sigma-window edges).
_photons = st.lists(st.tuples(st.integers(60, 220), st.integers(-16, 16)), max_size=4)
_events = st.lists(st.tuples(_photons, _photons, _photons), max_size=25)
_WINDOWS = (50.0, 100.0, 400.0, 800.0)


def _photon_lists(raw):
    return [[(det, k / 10.0, 50.0 * j) for det in (DET_TRIG, DET_TRANS, DET_REF)
             for k, j in ev[det]] for ev in raw]


def _reference(events, cfg):
    """Per-event estimators over photon lists, one event at a time."""
    lo, hi = cfg.acceptance_kev
    pump, half = cfg.pump_energy_kev, cfg.sum_halfwidth_kev
    out = {"acceptance": [], "sum": [], "first": [], "pairs": [], "heralded": []}
    for ev in events:
        e = {d: [p[1] for p in ev if p[0] == d] for d in (DET_TRIG, DET_TRANS, DET_REF)}
        pairs = [(port, e_t, e_o) for port in (DET_TRANS, DET_REF)
                 for e_t in e[DET_TRIG] for e_o in e[port]
                 if abs(e_t + e_o - pump) <= half]
        first = {}
        for port, _e_t, e_o in pairs:
            first.setdefault(port, e_o)
        accepted = all(lo <= x <= hi for x in e[DET_TRIG] + e[DET_TRANS] + e[DET_REF])
        out["acceptance"].append(accepted)
        out["sum"].append(bool(pairs))
        out["first"].append(first)
        out["pairs"].append(pairs)
        if accepted and pairs:
            out["heralded"].append(ev)
    return out


def _reference_counts(events):
    n = nt = nr = ntr = 0
    for ev in events:
        dets = [p[0] for p in ev]
        has_t, has_r = DET_TRANS in dets, DET_REF in dets
        if DET_TRIG not in dets or not (has_t or has_r):
            continue
        n, nt, nr, ntr = n + 1, nt + has_t, nr + has_r, ntr + (has_t and has_r)
    return stats.CoincCounts(n, nt, nr, ntr)


def _reference_sigma(events, window, output, mode, pump=21.0, half=0.5):
    diffs, sums = [], []
    for ev in events:
        if mode == "sum":
            all_t = [p[1] for p in ev if p[0] == DET_TRIG]
            all_h = [p[1] for p in ev if p[0] == output]
            paired = any(abs(t + h - pump) <= half for t in all_t for h in all_h)
            lone = not all_h and any(abs(t - pump) <= half for t in all_t)
            if not (paired or lone):
                continue
        n_t = sum(1 for p in ev if p[0] == DET_TRIG and abs(p[2]) <= window)
        n_h = sum(1 for p in ev if p[0] == output and abs(p[2]) <= window)
        if n_t + n_h:
            diffs.append(n_t - n_h)
            sums.append(n_t + n_h)
    if len(diffs) < 2:
        return None
    return float(np.asarray(diffs, dtype=float).var() / np.asarray(sums, dtype=float).mean())


def _sigma_or_none(events, window, output, mode):
    value = sigma(events, window, output=output, energy_mode=mode)
    return None if math.isnan(value) else float(value)


@settings(max_examples=150, deadline=None)
@given(_events)
def test_table_estimators_match_per_event_reference(raw):
    cfg = daq.DaqConfig()
    events = _photon_lists(raw)
    ref = _reference(events, cfg)
    table, heralded = daq.energy_select(make_table(events), cfg)

    assert table.passes_acceptance.tolist() == ref["acceptance"]
    assert table.passes_sum.tolist() == ref["sum"]
    for port in (DET_TRANS, DET_REF):
        want = [first.get(port, math.nan) for first in ref["first"]]
        np.testing.assert_array_equal(table.herald_kev[:, port], want)
    for port in (DET_TRANS, DET_REF):
        event, _trig, photon = table.sum_window_pairs(port, cfg.pump_energy_kev,
                                                      cfg.sum_halfwidth_kev)
        want = [(i, e_o) for i, pairs in enumerate(ref["pairs"]) for p, _e_t, e_o in pairs
                if p == port]
        assert list(zip(event.tolist(), table.energy_kev[photon].tolist())) == want
    assert [rec.heralded_pairs for rec in table] == ref["pairs"]
    assert len(heralded) == len(ref["heralded"])

    assert stats.counts_from_events(table) == _reference_counts(events)
    assert stats.counts_from_events(heralded) == _reference_counts(ref["heralded"])
    for window in _WINDOWS:
        for output in (DET_TRANS, DET_REF):
            for mode in ("open", "sum"):
                assert _sigma_or_none(table, window, output, mode) == _reference_sigma(
                    events, window, output, mode)

    for port in (DET_TRANS, DET_REF):
        hist = stats.spectra(heralded, port, 0.5)
        values = np.array([first[port] for first, a, s in
                           zip(ref["first"], ref["acceptance"], ref["sum"])
                           if a and s and port in first], dtype=float)
        lo, hi = hist.edges[0], hist.edges[-1]
        counts, _ = np.histogram(values[(values >= lo) & (values < hi)], bins=hist.edges)
        np.testing.assert_array_equal(hist.counts, counts)
        assert hist.underflow == int((values < hist.edges[0]).sum())
        assert hist.overflow == int((values >= hist.edges[-1]).sum())
        assert hist.counts.sum() + hist.underflow + hist.overflow == len(values)


@settings(max_examples=80, deadline=None)
@given(_events)
def test_alpha_and_sigma_unchanged_when_ports_relabelled(raw):
    swap = {DET_TRIG: DET_TRIG, DET_TRANS: DET_REF, DET_REF: DET_TRANS}
    events = _photon_lists(raw)
    table = flagged(events)
    relabelled = flagged([[(swap[d], e, o) for d, e, o in ev] for ev in events])
    c, c_swap = stats.counts_from_events(table), stats.counts_from_events(relabelled)
    assert (c_swap.n_trig, c_swap.n_trig_t, c_swap.n_trig_r, c_swap.n_trig_t_r) == (
        c.n_trig, c.n_trig_r, c.n_trig_t, c.n_trig_t_r)
    a, a_swap = stats.alpha(c), stats.alpha(c_swap)
    assert a.defined == a_swap.defined
    if a.defined:  # the error sums the same four terms in another order
        assert a.alpha == a_swap.alpha
        assert a.sigma == pytest.approx(a_swap.sigma, rel=1e-12)
    for window in _WINDOWS:
        for output in (DET_TRANS, DET_REF):
            for mode in ("open", "sum"):
                assert _sigma_or_none(table, window, output, mode) == _sigma_or_none(
                    relabelled, window, swap[output], mode)


@settings(max_examples=150, deadline=None)
@given(_events, st.booleans(), st.permutations((DET_TRANS, DET_REF)),
       st.permutations(("open", "sum")))
@example([], False, (DET_TRANS, DET_REF), ("sum", "open"))
@example([], True, (DET_REF, DET_TRANS), ("open", "sum"))
def test_sigma_curves_match_per_event_reference(raw, descending, outputs, modes):
    events = _photon_lists(raw)
    windows = sorted(_WINDOWS, reverse=descending)
    table = stats.sigma_curves(flagged(events), windows, outputs=outputs, energy_modes=modes)
    assert table.shape == (len(windows), len(outputs), len(modes))
    for i, window in enumerate(windows):
        for j, output in enumerate(outputs):
            for k, mode in enumerate(modes):
                want = _reference_sigma(events, window, output, mode)
                got = table[i, j, k]
                assert np.isnan(got) if want is None else got == want, (window, output, mode)


def test_sigma_curves_rejects_an_unknown_mode():
    events = make_table([make_event(1, 1) for _ in range(10)])
    with pytest.raises(ValueError):
        stats.sigma_curves(events, [800.0], energy_modes=("open", "narrow"))


@settings(max_examples=150, deadline=None)
@given(_events, st.integers(150, 260), st.integers(1, 20))
# A lone trigger photon at an 18 keV pump counts in sum mode; at 21 keV it would not.
@example([([(180, 0)], [], []), ([(90, 0)], [(90, 0)], []), ([(90, 0)], [(90, 0)], [])], 180, 3)
def test_sigma_curves_follow_the_table_selection(raw, pump_tenths, half_tenths):
    pump, half = pump_tenths / 10.0, half_tenths / 10.0
    cfg = daq.DaqConfig(pump_energy_kev=pump, sum_halfwidth_kev=half)
    events = _photon_lists(raw)
    table = stats.sigma_curves(flagged(events, cfg), _WINDOWS)
    for i, window in enumerate(_WINDOWS):
        for j, output in enumerate((DET_TRANS, DET_REF)):
            for k, mode in enumerate(("sum", "open")):
                want = _reference_sigma(events, window, output, mode, pump, half)
                got = table[i, j, k]
                assert np.isnan(got) if want is None else got == want, (window, output, mode)
