"""Unit tests for photon-stream generation and the detector response."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import montecarlo as mc
from artifact.config import load_default_config
from artifact.spdc import (
    GridSpec,
    Ridge,
    SpdcConfig,
    biphoton_amplitude,
    pair_ridge,
    port_energy_spectra,
)
from artifact.xoptics import load_table

SMALL_GRID = GridSpec(9.5, 11.5, 200, 5.0e-3, 40, 10)
PHOTON_COLUMNS = ("time_ns", "energy_kev", "detector", "origin")


def _photons(time_ns, energy_kev=0.0, detector=mc.DET_TRIG, origin=mc.ORIGIN_STRAY):
    """Photon stream; scalar energy, detector or origin apply to every photon."""
    n = len(time_ns)
    return mc.Stream(
        np.asarray(time_ns, dtype=float),
        np.broadcast_to(np.asarray(energy_kev, dtype=float), n).copy(),
        np.broadcast_to(np.asarray(detector, dtype=np.int8), n).copy(),
        np.broadcast_to(np.asarray(origin, dtype=np.int8), n).copy(),
    )


def _columns(stream):
    return [getattr(stream, c) for c in PHOTON_COLUMNS]


@pytest.fixture(scope="module")
def ridge_small():
    return pair_ridge(SpdcConfig(), SMALL_GRID)


@pytest.fixture(scope="module")
def graphite():
    return load_table("graphite")


@pytest.fixture(scope="module")
def cfg():
    return load_default_config()


def _pairs(ridge_small, graphite, cfg, seed, window_s=None, **source_kw):
    # Zero air and helium paths: exp(-0) = 1 exactly, so flight-path
    # absorption keeps every photon.
    source = replace(cfg.source, air_path_cm=0.0, helium_path_cm=0.0, **source_kw)
    return mc.generate_pairs(ridge_small, cfg.spdc.pump_energy_kev, cfg.splitter, source, graphite,
                             air=load_table("air"), helium=load_table("helium"),
                             rng=np.random.default_rng(seed), window_s=window_s)


def test_stray_spectrum_band_and_line():
    spec = mc.StraySpectrum()
    rng = np.random.default_rng(0)
    e = spec.sample(rng, 200000)
    on_line = e == spec.line_energy_kev
    assert np.mean(on_line) == pytest.approx(spec.line_fraction, abs=0.005)
    band = e[~on_line]
    assert band.min() >= spec.flat_lo_kev
    assert band.max() <= spec.flat_hi_kev


def test_stray_spectrum_validation():
    with pytest.raises(ValueError):
        mc.StraySpectrum(flat_lo_kev=10.0, flat_hi_kev=7.0)
    with pytest.raises(ValueError):
        mc.StraySpectrum(line_fraction=1.5)


def test_source_validation():
    with pytest.raises(ValueError):
        mc.SourceConfig(pair_rate=-1.0)
    with pytest.raises(ValueError):
        mc.SourceConfig(duration_s=0.0)


def test_pairs_conserve_energy_and_time(ridge_small, graphite, cfg):
    trig, herald = _pairs(ridge_small, graphite, cfg, 5, pair_rate=200.0, duration_s=50.0)
    assert len(trig) > 0 and len(herald) > 0
    # Pair members share one creation time; match them on it.
    common, ti, hi = np.intersect1d(trig.time_ns, herald.time_ns, return_indices=True)
    assert len(common) > 0.2 * len(trig)
    total = trig.energy_kev[ti] + herald.energy_kev[hi]
    np.testing.assert_allclose(total, cfg.spdc.pump_energy_kev, atol=1e-9)
    assert set(np.unique(herald.detector)) <= {mc.DET_TRANS, mc.DET_REF}
    assert np.all(trig.detector == mc.DET_TRIG)


def test_generators_return_time_ordered_parts(ridge_small, graphite, cfg):
    trig, herald = _pairs(ridge_small, graphite, cfg, 6, pair_rate=200.0, duration_s=5.0)
    stray = mc.generate_stray(replace(cfg.source, duration_s=0.5), rng=np.random.default_rng(6))
    parts = [trig, herald, *stray]
    origins = [mc.ORIGIN_PAIR_TRIGGER, mc.ORIGIN_PAIR_HERALD] + [mc.ORIGIN_STRAY] * 3
    assert all(len(p) > 0 for p in parts)
    for part, origin in zip(parts, origins):
        assert np.all(np.diff(part.time_ns) >= 0)
        assert np.all(part.origin == origin)
    for part, det in zip(stray, (mc.DET_TRIG, mc.DET_TRANS, mc.DET_REF)):
        assert np.all(part.detector == det)
    # No pairs: still two parts, empty, with the photon dtypes.
    for part in _pairs(ridge_small, graphite, cfg, 6, pair_rate=0.0):
        assert len(part) == 0
        assert [c.dtype for c in _columns(part)] == [np.float64, np.float64, np.int8, np.int8]


def test_pairs_in_a_window_without_a_pair(ridge_small, graphite, cfg):
    # The reference pair rate draws no pair in most 1 s windows.
    rate = cfg.source.pair_rate
    seed = next(s for s in range(100) if np.random.default_rng(s).poisson(rate) == 0)
    rng = np.random.default_rng(seed)
    parts = mc.generate_pairs(ridge_small, cfg.spdc.pump_energy_kev, cfg.splitter, cfg.source,
                              graphite,
                              air=load_table("air"), helium=load_table("helium"),
                              rng=rng, window_s=(0.0, 1.0))
    for part in parts:
        assert len(part) == 0
        assert [c.dtype for c in _columns(part)] == [np.float64, np.float64, np.int8, np.int8]
    stray = mc.generate_stray(replace(cfg.source, duration_s=0.01), rng=np.random.default_rng(1))
    merged = mc.merge_streams(*parts, *stray)
    for column, expected in zip(_columns(merged), _columns(mc.merge_streams(*stray))):
        assert column.dtype == expected.dtype
        np.testing.assert_array_equal(column, expected)
    # Only the Poisson draws were made.
    reference = np.random.default_rng(seed)
    mc._poisson_times(reference, rate, (0.0, 1.0))
    assert rng.random() == reference.random()


def test_generators_draw_inside_their_window(ridge_small, graphite, cfg):
    t0, t1 = 7.0, 9.0
    source = replace(cfg.source, pair_rate=200.0)
    pairs = _pairs(ridge_small, graphite, cfg, 3, window_s=(t0, t1), pair_rate=200.0)
    stray = mc.generate_stray(source, rng=np.random.default_rng(4), window_s=(t0, t1))
    for part in (*pairs, *stray):
        assert len(part) > 0
        assert np.all((part.time_ns >= t0 * 1e9) & (part.time_ns < t1 * 1e9))
    # Mean counts follow the window length, not the run length.
    assert abs(len(stray[0]) - 2.0 * source.stray_rates[0]) < 5 * np.sqrt(2.0 * source.stray_rates[0])


def test_slice_edges_follow_the_photon_rate(cfg):
    # Reference profile: whole-second slices of about PHOTONS_PER_SLICE photons.
    edges = mc.slice_edges_s(replace(cfg.source, duration_s=100.0))
    length = math.floor(mc.PHOTONS_PER_SLICE / cfg.source.photon_rate_hz())
    assert length >= 1
    np.testing.assert_array_equal(np.diff(edges)[:-1], length)
    assert edges[0] == 0.0 and edges[-1] == 100.0 and 0 < edges[-1] - edges[-2] <= length
    # A run shorter than one slice is a single slice.
    short = replace(cfg.source, duration_s=0.5 * length)
    assert mc.slice_edges_s(short).tolist() == [0.0, 0.5 * length]
    # Criterion 07's sparse clean run (1e5 s at 1.2 pairs/s, no stray
    # photons) is only a few slices, and a source without photons one.
    sparse = replace(cfg.source, pair_rate=1.2, stray_rates=(0.0, 0.0, 0.0), duration_s=1.0e5)
    assert 2 <= len(mc.slice_edges_s(sparse)) - 1 <= 5
    assert mc.slice_edges_s(replace(sparse, pair_rate=0.0)).tolist() == [0.0, 1.0e5]
    # A source brighter than PHOTONS_PER_SLICE per second gets 1 s slices.
    bright = replace(cfg.source, stray_rates=(mc.PHOTONS_PER_SLICE, 0.0, 0.0), duration_s=3.5)
    assert mc.slice_edges_s(bright).tolist() == [0.0, 1.0, 2.0, 3.0, 3.5]


def test_pair_stream_is_seed_deterministic(ridge_small, graphite, cfg):
    def columns(seed):
        parts = _pairs(ridge_small, graphite, cfg, seed, pair_rate=50.0, duration_s=20.0)
        return [c for part in parts for c in _columns(part)]

    a, b, c = columns(7), columns(7), columns(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_heralded_energies_follow_amplitude_window(ridge_small, graphite, cfg):
    _trig, herald = _pairs(ridge_small, graphite, cfg, 9, pair_rate=500.0, duration_s=20.0)
    assert herald.energy_kev.min() >= SMALL_GRID.energy_lo_kev
    assert herald.energy_kev.max() <= SMALL_GRID.energy_hi_kev
    assert np.isin(herald.energy_kev, ridge_small.energies).all()


def test_pairs_draw_zeros_in_proportion_to_their_weights(graphite, cfg):
    ridge = Ridge(np.array([9.8, 10.6]), np.zeros(2), np.array([1.0, 3.0]))
    trig, _herald = _pairs(ridge, graphite, cfg, 2, pair_rate=1000.0, duration_s=10.0)
    n = len(trig)
    at_low = int(np.sum(trig.energy_kev == cfg.spdc.pump_energy_kev - 9.8))
    assert np.isin(trig.energy_kev, cfg.spdc.pump_energy_kev - ridge.energies).all()
    assert abs(at_low - 0.25 * n) < 5.0 * math.sqrt(0.25 * 0.75 * n)


def test_heralded_energies_follow_the_w_port_spectra(ridge_small, graphite, cfg):
    # The sampler draws whole lines at their zeros E0; W spreads the same
    # lines over energy cells.  In 0.1 keV bins, wide against the lines'
    # central lobes (about 0.2 eV), the heralded photons counted per bin and
    # port follow W's port spectra (``port_energy_spectra``, whose cells
    # take the splitter at their centres): chi^2 within 5 sigma of its
    # degrees of freedom.  The two differ by the line tails W carries across
    # bin edges (up to a few percent of a line whose zero lies within an eV
    # of an edge), which adds about 10 to chi^2 at 4e5 pairs.
    trig, herald = _pairs(ridge_small, graphite, cfg, 4, pair_rate=40_000.0, duration_s=10.0)
    n_pairs = len(trig)  # no flight-path loss: one trigger per pair
    energies, refl, trans = port_energy_spectra(biphoton_amplitude(SpdcConfig(), SMALL_GRID),
                                                cfg.splitter, graphite)
    cells_per_bin = 10
    assert SMALL_GRID.n_energy % cells_per_bin == 0
    edges = SMALL_GRID.energy_edges()[::cells_per_bin]
    chi2, dof = 0.0, 0
    for det, density in ((mc.DET_REF, refl), (mc.DET_TRANS, trans)):
        want = n_pairs * density.reshape(-1, cells_per_bin).sum(axis=1) * SMALL_GRID.d_energy
        got = np.histogram(herald.energy_kev[herald.detector == det], edges)[0]
        kept = want >= 5.0
        chi2 += float(np.sum((got[kept] - want[kept]) ** 2 / want[kept]))
        dof += int(kept.sum())
    assert dof >= 30
    assert chi2 < dof + 5.0 * math.sqrt(2.0 * dof)


def test_merge_streams_sorts_by_time():
    a = _photons([5.0, 1.0, 9.0])
    b = _photons([2.0, 7.0])
    merged = mc.merge_streams(a, b)
    assert np.all(np.diff(merged.time_ns) >= 0)
    assert len(mc.merge_streams()) == 0


def _merge_like_simulate(trig, herald, stray):
    """The one merge of ``cli.simulate_events``: the pair parts (trigger,
    herald), then the stray parts (TRIG, TRANS, REF)."""
    return mc.merge_streams(trig, herald, *stray)


def test_merge_tie_order_hand_built():
    # Every photon at one instant: trigger before herald, pairs before
    # stray, stray in TRIG, TRANS, REF order.
    t = [100.0]
    merged = _merge_like_simulate(
        _photons(t, 1.0, mc.DET_TRIG, mc.ORIGIN_PAIR_TRIGGER),
        _photons(t, 2.0, mc.DET_REF, mc.ORIGIN_PAIR_HERALD),
        [_photons(t, 3.0 + d, d, mc.ORIGIN_STRAY) for d in (mc.DET_TRIG, mc.DET_TRANS, mc.DET_REF)],
    )
    assert merged.energy_kev.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert merged.detector.tolist() == [mc.DET_TRIG, mc.DET_REF, mc.DET_TRIG, mc.DET_TRANS, mc.DET_REF]
    assert merged.origin.tolist() == [mc.ORIGIN_PAIR_TRIGGER, mc.ORIGIN_PAIR_HERALD] + [mc.ORIGIN_STRAY] * 3


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 12), min_size=5, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_merge_tie_order_matches_one_stable_sort(sizes, seed):
    """Times on a 4-point lattice, so most photons tie; the five-part merge
    equals one stable argsort of the concatenation on every column.  Each
    photon's energy is its serial number, so any reordering shows."""
    rng = np.random.default_rng(seed)
    first = np.cumsum([0] + sizes)
    origins = (mc.ORIGIN_PAIR_TRIGGER, mc.ORIGIN_PAIR_HERALD) + (mc.ORIGIN_STRAY,) * 3
    parts = [
        _photons(np.sort(rng.integers(0, 4, n) * 100.0), np.arange(first[k], first[k] + n),
                 rng.integers(0, 3, n), origin)
        for k, (n, origin) in enumerate(zip(sizes, origins))
    ]
    merged = _merge_like_simulate(parts[0], parts[1], parts[2:])
    whole = [np.concatenate([getattr(p, c) for p in parts]) for c in PHOTON_COLUMNS]
    order = np.argsort(whole[0], kind="stable")
    for column, expected in zip(_columns(merged), whole):
        assert column.dtype == expected.dtype
        np.testing.assert_array_equal(column, expected[order])


def test_detect_quantum_efficiency_and_logic(cfg):
    photons = _photons(np.arange(10000.0), np.where(np.arange(10000) % 2 == 0, 10.5, 30.0))
    spec = replace(
        cfg.detectors[mc.DET_TRIG], quantum_efficiency=0.25, resolution_fwhm_ev=1.0
    )
    pulses = mc.detect(photons, {mc.DET_TRIG: spec}, np.random.default_rng(1))
    assert len(pulses) == pytest.approx(2500, abs=200)
    in_band = np.abs(pulses.energy_kev - 10.5) < 0.5
    assert np.all(pulses.logic[in_band])
    assert not np.any(pulses.logic[~in_band])


def _detect_per_detector_masks(photons, specs, rng):
    """Reference: the per-detector masked formula, (time, energy, detector,
    origin, logic) columns of the pulses."""
    n = len(photons)
    qe, sigma, sca_lo, sca_hi = (np.empty(n) for _ in range(4))
    for det, spec in specs.items():
        mask = photons.detector == det
        qe[mask] = spec.quantum_efficiency
        sigma[mask] = spec.sigma_kev(photons.energy_kev[mask])
        sca_lo[mask] = spec.sca_window_kev[0]
        sca_hi[mask] = spec.sca_window_kev[1]
    alive = rng.random(n) < qe
    measured = photons.energy_kev[alive] + rng.standard_normal(int(alive.sum())) * sigma[alive]
    logic = (measured >= sca_lo[alive]) & (measured <= sca_hi[alive])
    return (photons.time_ns[alive], measured, photons.detector[alive], photons.origin[alive], logic)


def _assert_detect_matches_reference(photons, specs):
    rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    pulses = mc.detect(photons, specs, rng_new)
    expected = _detect_per_detector_masks(photons, specs, rng_ref)
    for name, column in zip(PHOTON_COLUMNS + ("logic",), expected):
        got = getattr(pulses, name)
        assert got.dtype == column.dtype, name
        assert got.tobytes() == column.tobytes(), name
    # Same random-number consumption.
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return pulses


def _edge_photons(seed, n=30000):
    """Photons on every detector, with energies on and around 0: energies
    <= 0 have zero noise, so some pulses sit exactly on an SCA edge."""
    rng = np.random.default_rng(seed)
    energy = rng.uniform(-3.0, 25.0, n)
    energy[::7] = 0.0
    energy[::11] = -0.0
    energy[::13] = -1.0
    return _photons(np.sort(rng.uniform(0, 1e9, n)), energy, rng.integers(0, 3, n),
                    rng.integers(0, 3, n))


def test_detect_matches_per_detector_masks_bit_for_bit():
    specs = {
        mc.DET_TRIG: mc.DetectorSpec(quantum_efficiency=0.9, resolution_fwhm_ev=150.0,
                                     reference_energy_kev=5.9, sca_window_kev=(6.0, 15.0)),
        mc.DET_TRANS: mc.DetectorSpec(quantum_efficiency=0.55, resolution_fwhm_ev=420.0,
                                      reference_energy_kev=10.5, sca_window_kev=(8.5, 12.0)),
        mc.DET_REF: mc.DetectorSpec(quantum_efficiency=0.3, resolution_fwhm_ev=999.0,
                                    reference_energy_kev=22.1, sca_window_kev=(-1.0, 0.0)),
    }
    photons = _edge_photons(12)
    assert 0 < len(_assert_detect_matches_reference(photons, specs)) < len(photons)


def test_detect_with_one_shared_spec_matches_per_detector_masks():
    # Every value is one number: no lookup by detector, and with QE 1 no
    # photon is dropped.
    spec = mc.DetectorSpec(quantum_efficiency=1.0, resolution_fwhm_ev=300.0,
                           reference_energy_kev=10.5, sca_window_kev=(0.0, 22.0))
    specs = dict.fromkeys((mc.DET_TRIG, mc.DET_TRANS, mc.DET_REF), spec)
    photons = _edge_photons(13)
    pulses = _assert_detect_matches_reference(photons, specs)
    assert len(pulses) == len(photons)
    assert 0 < pulses.logic.sum() < len(pulses)


def test_detect_with_some_shared_values_matches_per_detector_masks():
    # Shared SCA edges and reference energy; QE below 1 and resolution differ.
    shared = dict(reference_energy_kev=10.5, sca_window_kev=(0.0, 12.0))
    specs = {
        mc.DET_TRIG: mc.DetectorSpec(quantum_efficiency=0.9, resolution_fwhm_ev=150.0, **shared),
        mc.DET_TRANS: mc.DetectorSpec(quantum_efficiency=0.55, resolution_fwhm_ev=420.0, **shared),
        mc.DET_REF: mc.DetectorSpec(quantum_efficiency=0.3, resolution_fwhm_ev=0.0, **shared),
    }
    photons = _edge_photons(14)
    pulses = _assert_detect_matches_reference(photons, specs)
    assert 0 < len(pulses) < len(photons)
    assert 0 < pulses.logic.sum() < len(pulses)


def test_detect_of_an_empty_stream_without_specs():
    pulses = mc.detect(_photons([]), {}, np.random.default_rng(0))
    assert len(pulses) == 0
    assert [c.dtype for c in _columns(pulses)] == [np.float64, np.float64, np.int8, np.int8]
    assert pulses.logic.dtype == bool and len(pulses.logic) == 0


def test_detect_energy_blur_scale(cfg):
    photons = _photons(np.zeros(40000), 10.5, mc.DET_REF)
    spec = cfg.detectors[mc.DET_REF]
    pulses = mc.detect(photons, {mc.DET_REF: spec}, np.random.default_rng(2))
    measured = pulses.energy_kev
    expected_sigma = spec.resolution_fwhm_ev / 1000.0 / mc.FWHM_TO_SIGMA
    assert np.std(measured) == pytest.approx(expected_sigma, rel=0.05)
    assert np.mean(measured) == pytest.approx(10.5, abs=0.01)


def test_detect_rejects_unknown_detector(cfg):
    photons = _photons([0.0], detector=9)
    with pytest.raises(ValueError):
        mc.detect(photons, cfg.detectors, np.random.default_rng(0))


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        mc.DetectorSpec(quantum_efficiency=1.2)
    with pytest.raises(ValueError):
        mc.DetectorSpec(sca_window_kev=(17.0, 7.0))
    with pytest.raises(ValueError):
        mc.DetectorSpec(reference_energy_kev=0.0)

