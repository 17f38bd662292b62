"""Unit tests for photon-stream generation and the detector response."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import cli, montecarlo as mc
from artifact.config import load_default_config
from artifact.spdc import (
    GridSpec,
    Ridge,
    SpdcConfig,
    pair_ridge,
    port_energy_spectra,
)
from artifact.splitter import response
from artifact.xoptics import load_table, transmittance

SMALL_GRID = GridSpec(9.5, 11.5, 200, 5.0e-3, 40, 10)
PHOTON_COLUMNS = ("time_ns", "energy_kev", "detector", "origin")


def _photons(time_ns, energy_kev=0.0, detector=mc.DET_TRIG, origin=mc.ORIGIN_STRAY, logic=None):
    """Photon stream, or pulse stream if ``logic`` is given; scalar energy,
    detector, origin or logic apply to every entry."""
    n = len(time_ns)
    return mc.Stream(
        np.asarray(time_ns, dtype=float),
        np.broadcast_to(np.asarray(energy_kev, dtype=float), n).copy(),
        np.broadcast_to(np.asarray(detector, dtype=np.int8), n).copy(),
        np.broadcast_to(np.asarray(origin, dtype=np.int8), n).copy(),
        None if logic is None else np.broadcast_to(np.asarray(logic, dtype=bool), n).copy(),
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


def _pairs(ridge_small, graphite, cfg, seed, window_ns=None, **source_kw):
    """The (trigger, TRANS herald, REF herald) parts over ``window_ns``,
    by default the whole run."""
    # Zero air and helium paths: exp(-0) = 1 exactly, so flight-path
    # absorption keeps every photon.
    source = replace(cfg.source, air_path_cm=0.0, helium_path_cm=0.0, **source_kw)
    routes = mc.PairRoutes.of(ridge_small, cfg.spdc.pump_energy_kev, cfg.splitter, source,
                              graphite, air=load_table("air"), helium=load_table("helium"))
    return mc.generate_pairs(routes, source.pair_rate, rng=np.random.default_rng(seed),
                             window_ns=window_ns or (0.0, source.duration_s * 1e9))


def _stray(source, seed, window_s):
    """Each detector's background pulses over the whole ``window_s``, with
    the default detector spec: per detector (TRIG, TRANS, REF), the pulses
    with and then those without a logic pulse."""
    window = (window_s[0] * 1e9, window_s[1] * 1e9)
    rng = np.random.default_rng(seed)
    parts = []
    for det in mc.DETECTORS:
        background = mc.StrayBackground.of(source, det, mc.DetectorSpec())
        for logic in (True, False):
            times = mc.poisson_times(rng, background.rate_hz(logic), *window)
            parts.append(background.pulses(logic, times, rng))
    return tuple(parts)


# The detector and origin of each of the nine parts ``cli._slice_pulses``
# merges: the pair parts, then the stray parts as ``_stray`` returns them.
_PART_DETECTORS = mc.DETECTORS + tuple(np.repeat(mc.DETECTORS, 2).tolist())
_PART_ORIGINS = (mc.ORIGIN_PAIR_TRIGGER,) + (mc.ORIGIN_PAIR_HERALD,) * 2 + (mc.ORIGIN_STRAY,) * 6


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
    trig, trans, ref = _pairs(ridge_small, graphite, cfg, 5, pair_rate=200.0, duration_s=50.0)
    assert len(trig) > 0 and len(trans) > 0 and len(ref) > 0
    herald = mc.merge_streams(trans, ref)
    # Pair members share one creation time; match them on it.
    common, ti, hi = np.intersect1d(trig.time_ns, herald.time_ns, return_indices=True)
    assert len(common) > 0.2 * len(trig)
    total = trig.energy_kev[ti] + herald.energy_kev[hi]
    np.testing.assert_allclose(total, cfg.spdc.pump_energy_kev, atol=1e-9)
    for part, det in zip((trig, trans, ref), mc.DETECTORS):
        assert np.all(part.detector == det)


def test_generators_return_time_ordered_parts(ridge_small, graphite, cfg):
    pairs = _pairs(ridge_small, graphite, cfg, 6, pair_rate=200.0, duration_s=5.0)
    stray = _stray(cfg.source, 6, (0.0, 0.5))
    parts = [*pairs, *stray]
    assert all(len(p) > 0 for p in parts)
    # Each part holds one detector's photons or pulses, in TRIG, TRANS, REF
    # order; each detector's stray pulses with, then without a logic pulse.
    for part, origin, det in zip(parts, _PART_ORIGINS, _PART_DETECTORS):
        assert np.all(np.diff(part.time_ns) >= 0)
        assert np.all(part.origin == origin)
        assert np.all(part.detector == det)
    for k, part in enumerate(stray):
        assert part.logic.dtype == bool and np.all(part.logic == (k % 2 == 0))
    # No pairs: still three parts, empty, with the photon dtypes.
    for part in _pairs(ridge_small, graphite, cfg, 6, pair_rate=0.0):
        assert len(part) == 0
        assert [c.dtype for c in _columns(part)] == [np.float64, np.float64, np.int8, np.int8]


def test_pairs_in_a_window_without_a_pair(ridge_small, graphite, cfg):
    # The reference pair rate draws no pair in most 1 s windows.
    rate = cfg.source.pair_rate
    seed = next(s for s in range(100) if np.random.default_rng(s).poisson(rate) == 0)
    rng = np.random.default_rng(seed)
    routes = mc.PairRoutes.of(ridge_small, cfg.spdc.pump_energy_kev, cfg.splitter, cfg.source,
                              graphite, air=load_table("air"), helium=load_table("helium"))
    parts = mc.generate_pairs(routes, rate, rng=rng, window_ns=(0.0, 1e9))
    for part in parts:
        assert len(part) == 0
        assert [c.dtype for c in _columns(part)] == [np.float64, np.float64, np.int8, np.int8]
    stray = _stray(cfg.source, 1, (0.0, 0.01))
    pulses = [mc.detect(part, mc.DetectorSpec(), np.random.default_rng(0)) for part in parts]
    merged, alone = mc.merge_streams(*pulses, *stray), mc.merge_streams(*stray)
    for column, expected in zip(_columns(merged) + [merged.logic], _columns(alone) + [alone.logic]):
        assert column.dtype == expected.dtype
        np.testing.assert_array_equal(column, expected)
    # Only the Poisson draws were made.
    reference = np.random.default_rng(seed)
    mc.poisson_times(reference, rate, 0.0, 1e9)
    assert rng.random() == reference.random()


def test_generators_draw_inside_their_window(ridge_small, graphite, cfg):
    t0, t1 = 7.0, 9.0
    source = replace(cfg.source, pair_rate=200.0)
    pairs = _pairs(ridge_small, graphite, cfg, 3, window_ns=(t0 * 1e9, t1 * 1e9), pair_rate=200.0)
    stray = _stray(source, 4, (t0, t1))
    for part in (*pairs, *stray):
        assert len(part) > 0
        assert np.all((part.time_ns >= t0 * 1e9) & (part.time_ns < t1 * 1e9))
    # Mean counts follow the window length, not the run length (QE 1).
    trig = len(stray[0]) + len(stray[1])
    assert abs(trig - 2.0 * source.stray_rates[0]) < 5 * np.sqrt(2.0 * source.stray_rates[0])


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


def _pairs_routed_per_draw(ridge, cfg, graphite, air, helium, rng, window_ns):
    """The (time, energy) columns of the three pair parts as
    ``generate_pairs`` drew them when it evaluated ``splitter.response``
    and ``xoptics.transmittance`` on the drawn zeros of every window."""
    source = cfg.source
    times = mc.poisson_times(rng, source.pair_rate, *window_ns)
    n = len(times)
    cdf = np.cumsum(ridge.weights)
    zero = np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right"), cdf.size - 1)
    e_h, t_x = ridge.energies[zero], ridge.theta_x[zero]
    e_t = cfg.spdc.pump_energy_kev - e_h

    def survival(energy):
        return (transmittance(energy, air, source.air_path_cm)
                * transmittance(energy, helium, source.helium_path_cm))

    p_ref, p_trans = response(cfg.splitter, e_h, np.degrees(t_x), graphite)
    u_route = rng.random(n)
    herald_alive = rng.random(n) < survival(e_h)
    trig_alive = rng.random(n) < survival(e_t)
    at_ref = herald_alive & (u_route < p_ref)
    at_trans = herald_alive & (u_route >= p_ref) & (u_route < p_ref + p_trans)
    return [(times[alive], energy[alive])
            for alive, energy in ((trig_alive, e_t), (at_trans, e_h), (at_ref, e_h))]


def test_routes_built_once_per_run_change_no_bit(ridge_small, graphite, cfg):
    """``PairRoutes`` evaluates the splitter response and the flight-path
    survivals on every zero once per run, and ``generate_pairs`` only
    gathers them: over several windows at 50 pairs/s, on the small and the
    bundled ridge, with the bundled flight paths, its parts and the
    generator state afterwards equal those of the draw that evaluated them
    on the drawn zeros.  Evaluating every zero raises nothing new, since
    config validation keeps every zero inside the attenuation tables and
    its incidence inside (0, 180) degrees."""
    cfg = replace(cfg, source=replace(cfg.source, pair_rate=50.0))
    air, helium = load_table("air"), load_table("helium")
    drawn = 0
    for ridge in (ridge_small, pair_ridge(cfg.spdc, cfg.grid)):
        routes = mc.PairRoutes.of(ridge, cfg.spdc.pump_energy_kev, cfg.splitter, cfg.source,
                                  graphite, air=air, helium=helium)
        for seed, window in enumerate([(0.0, 13e9), (13e9, 26e9), (598e9, 600e9), (5e9, 5e9 + 1.0)]):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            parts = mc.generate_pairs(routes, cfg.source.pair_rate, rng=rng, window_ns=window)
            want = _pairs_routed_per_draw(ridge, cfg, graphite, air, helium, reference, window)
            for part, (time_ns, energy), det in zip(parts, want, mc.DETECTORS):
                assert part.time_ns.tobytes() == time_ns.tobytes()
                assert part.energy_kev.tobytes() == energy.tobytes()
                assert np.all(part.detector == det)
            assert rng.bit_generator.state == reference.bit_generator.state
            drawn += sum(len(part) for part in parts)
    assert drawn > 2000


def test_heralded_energies_follow_amplitude_window(ridge_small, graphite, cfg):
    _trig, *heralds = _pairs(ridge_small, graphite, cfg, 9, pair_rate=500.0, duration_s=20.0)
    herald = mc.join_streams(*heralds)
    assert herald.energy_kev.min() >= SMALL_GRID.energy_lo_kev
    assert herald.energy_kev.max() <= SMALL_GRID.energy_hi_kev
    assert np.isin(herald.energy_kev, ridge_small.energies).all()


def test_pairs_draw_zeros_in_proportion_to_their_weights(graphite, cfg):
    ridge = Ridge(np.array([9.8, 10.6]), np.zeros(2), np.array([1.0, 3.0]), np.full(2, 1.6e4))
    trig, *_heralds = _pairs(ridge, graphite, cfg, 2, pair_rate=1000.0, duration_s=10.0)
    n = len(trig)
    at_low = int(np.sum(trig.energy_kev == cfg.spdc.pump_energy_kev - 9.8))
    assert np.isin(trig.energy_kev, cfg.spdc.pump_energy_kev - ridge.energies).all()
    assert abs(at_low - 0.25 * n) < 5.0 * math.sqrt(0.25 * 0.75 * n)


def test_heralded_energies_follow_the_w_port_spectra(ridge_small, graphite, cfg):
    # The sampler draws whole lines at their zeros E0; the model port
    # spectra (``port_energy_spectra``) spread the same lines, weighted by
    # the same R and T at each zero, over the energy cells.  In 0.1 keV
    # bins, wide against the lines' central lobes (about 0.2 eV), the
    # heralded photons counted per bin and port follow those spectra: chi^2
    # within 5 sigma of its degrees of freedom.  The two differ by the line
    # tails the spectra carry across bin edges (up to a few percent of a
    # line whose zero lies within an eV of an edge), which adds about 10 to
    # chi^2 at 4e5 pairs.
    trig, at_trans, at_ref = _pairs(ridge_small, graphite, cfg, 4, pair_rate=40_000.0, duration_s=10.0)
    n_pairs = len(trig)  # no flight-path loss: one trigger per pair
    energies, refl, trans = port_energy_spectra(ridge_small, SMALL_GRID, cfg.splitter, graphite)
    cells_per_bin = 10
    assert SMALL_GRID.n_energy % cells_per_bin == 0
    edges = SMALL_GRID.energy_edges()[::cells_per_bin]
    chi2, dof = 0.0, 0
    for herald, density in ((at_ref, refl), (at_trans, trans)):
        want = n_pairs * density.reshape(-1, cells_per_bin).sum(axis=1) * SMALL_GRID.d_energy
        got = np.histogram(herald.energy_kev, edges)[0]
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
    assert merged.logic is None
    # Pulse streams keep their logic pulses.
    pulses = mc.merge_streams(_photons([5.0, 9.0], logic=True), _photons([7.0], logic=False))
    assert pulses.logic.tolist() == [True, False, True]


def _merge_like_simulate(pairs, stray):
    """The one merge of ``cli._slice_pulses``: the pair parts (trigger,
    TRANS herald, REF herald), then the stray parts (TRIG, TRANS, REF, each
    with and then without a logic pulse)."""
    return mc.merge_streams(*pairs, *stray)


def test_merge_tie_order_hand_built():
    # Every pulse at one instant: pairs before stray, each in TRIG, TRANS,
    # REF order.
    t = [100.0]
    parts = [_photons(t, 1.0 + k, det, origin, logic=k % 2 == 0)
             for k, (det, origin) in enumerate(zip(_PART_DETECTORS, _PART_ORIGINS))]
    merged = _merge_like_simulate(parts[:3], parts[3:])
    assert merged.energy_kev.tolist() == [1.0 + k for k in range(9)]
    assert merged.detector.tolist() == list(_PART_DETECTORS)
    assert merged.origin.tolist() == list(_PART_ORIGINS)
    assert merged.logic.tolist() == [k % 2 == 0 for k in range(9)]


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 12), min_size=9, max_size=9), seed=st.integers(0, 2**32 - 1))
def test_merge_tie_order_matches_one_stable_sort(sizes, seed):
    """Times on a 4-point lattice, so most pulses tie; the nine-part merge
    equals one stable argsort of the concatenation on every column.  Each
    pulse's energy is its serial number, so any reordering shows."""
    rng = np.random.default_rng(seed)
    first = np.cumsum([0] + sizes)
    parts = [
        _photons(np.sort(rng.integers(0, 4, n) * 100.0), np.arange(first[k], first[k] + n),
                 det, origin, rng.random(n) < 0.5)
        for k, (n, det, origin) in enumerate(zip(sizes, _PART_DETECTORS, _PART_ORIGINS))
    ]
    merged = _merge_like_simulate(parts[:3], parts[3:])
    names = PHOTON_COLUMNS + ("logic",)
    whole = [np.concatenate([getattr(p, c) for p in parts]) for c in names]
    order = np.argsort(whole[0], kind="stable")
    for name, expected in zip(names, whole):
        column = getattr(merged, name)
        assert column.dtype == expected.dtype
        np.testing.assert_array_equal(column, expected[order])


def test_detect_quantum_efficiency_and_logic(cfg):
    photons = _photons(np.arange(10000.0), np.where(np.arange(10000) % 2 == 0, 10.5, 30.0))
    spec = replace(
        cfg.detectors[mc.DET_TRIG], quantum_efficiency=0.25, resolution_fwhm_ev=1.0
    )
    pulses = mc.detect(photons, spec, np.random.default_rng(1))
    assert len(pulses) == pytest.approx(2500, abs=200)
    in_band = np.abs(pulses.energy_kev - 10.5) < 0.5
    assert np.all(pulses.logic[in_band])
    assert not np.any(pulses.logic[~in_band])


def _detect_reference(photons, spec, rng):
    """Reference: (time, energy, detector, origin, logic) columns of the
    pulses, each surviving photon measured at E + z * sigma_kev(E)."""
    alive = rng.random(len(photons)) < spec.quantum_efficiency
    energy = photons.energy_kev[alive]
    measured = energy + rng.standard_normal(energy.size) * spec.sigma_kev(energy)
    logic = (measured >= spec.sca_window_kev[0]) & (measured <= spec.sca_window_kev[1])
    return (photons.time_ns[alive], measured, photons.detector[alive], photons.origin[alive], logic)


def _edge_photons(seed, detector, n=30000):
    """One detector's photons, with energies on and around 0: energies
    <= 0 have zero noise, so some pulses sit exactly on an SCA edge."""
    rng = np.random.default_rng(seed)
    energy = rng.uniform(-3.0, 25.0, n)
    energy[::7] = 0.0
    energy[::11] = -0.0
    energy[::13] = -1.0
    return _photons(np.sort(rng.uniform(0, 1e9, n)), energy, detector, rng.integers(0, 3, n))


def _assert_detect_matches_reference(specs, seed):
    """Each spec detects one detector's ``_edge_photons``: ``detect``
    equals E + z * sigma_kev(E) bit for bit, with the same random-number
    consumption."""
    for k, (spec, det) in enumerate(zip(specs, mc.DETECTORS)):
        photons = _edge_photons(seed + k, det)
        rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        pulses = mc.detect(photons, spec, rng_new)
        expected = _detect_reference(photons, spec, rng_ref)
        for name, column in zip(PHOTON_COLUMNS + ("logic",), expected):
            got = getattr(pulses, name)
            assert got.dtype == column.dtype, name
            assert got.tobytes() == column.tobytes(), name
        # Same random-number consumption.
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert 0 < pulses.logic.sum() < len(pulses)
        if spec.quantum_efficiency < 1:
            assert 0 < len(pulses) < len(photons)


def test_detect_matches_per_detector_masks_bit_for_bit():
    _assert_detect_matches_reference([
        mc.DetectorSpec(quantum_efficiency=0.9, resolution_fwhm_ev=150.0,
                        reference_energy_kev=5.9, sca_window_kev=(6.0, 15.0)),
        mc.DetectorSpec(quantum_efficiency=0.55, resolution_fwhm_ev=420.0,
                        reference_energy_kev=10.5, sca_window_kev=(8.5, 12.0)),
        mc.DetectorSpec(quantum_efficiency=0.3, resolution_fwhm_ev=999.0,
                        reference_energy_kev=22.1, sca_window_kev=(-1.0, 0.0)),
    ], seed=12)


def test_detect_with_one_shared_spec_matches_per_detector_masks():
    # One spec on every detector; with QE 1 no photon is dropped.
    spec = mc.DetectorSpec(quantum_efficiency=1.0, resolution_fwhm_ev=300.0,
                           reference_energy_kev=10.5, sca_window_kev=(0.0, 22.0))
    _assert_detect_matches_reference([spec] * len(mc.DETECTORS), seed=15)


def test_detect_with_some_shared_values_matches_per_detector_masks():
    # Shared SCA edges and reference energy; QE below 1 and resolution
    # differ, the last without noise.
    shared = dict(reference_energy_kev=10.5, sca_window_kev=(0.0, 12.0))
    _assert_detect_matches_reference([
        mc.DetectorSpec(quantum_efficiency=0.9, resolution_fwhm_ev=150.0, **shared),
        mc.DetectorSpec(quantum_efficiency=0.55, resolution_fwhm_ev=420.0, **shared),
        mc.DetectorSpec(quantum_efficiency=0.3, resolution_fwhm_ev=0.0, **shared),
    ], seed=18)


def test_detect_of_an_empty_stream():
    pulses = mc.detect(_photons([]), mc.DetectorSpec(), np.random.default_rng(0))
    assert len(pulses) == 0
    assert [c.dtype for c in _columns(pulses)] == [np.float64, np.float64, np.int8, np.int8]
    assert pulses.logic.dtype == bool and len(pulses.logic) == 0


def test_detect_energy_blur_scale(cfg):
    photons = _photons(np.zeros(40000), 10.5, mc.DET_REF)
    spec = cfg.detectors[mc.DET_REF]
    pulses = mc.detect(photons, spec, np.random.default_rng(2))
    measured = pulses.energy_kev
    expected_sigma = spec.resolution_fwhm_ev / 1000.0 / mc.FWHM_TO_SIGMA
    assert np.std(measured) == pytest.approx(expected_sigma, rel=0.05)
    assert np.mean(measured) == pytest.approx(10.5, abs=0.01)


def test_sigma_kev_values():
    # FWHM / (2 sqrt(2 ln 2)) at the reference energy, growing as sqrt(E).
    spec = mc.DetectorSpec(resolution_fwhm_ev=300.0, reference_energy_kev=10.5)
    assert spec.sigma_kev(10.5) == pytest.approx(0.12739827004320287, rel=1e-14)
    assert spec.sigma_kev(42.0) == pytest.approx(0.25479654008640573, rel=1e-14)
    np.testing.assert_array_equal(spec.sigma_kev(np.array([0.0, -0.0, -1.0])), 0.0)
    assert replace(spec, resolution_fwhm_ev=0.0).sigma_kev(10.5) == 0.0


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        mc.DetectorSpec(quantum_efficiency=1.2)
    with pytest.raises(ValueError):
        mc.DetectorSpec(sca_window_kev=(17.0, 7.0))
    with pytest.raises(ValueError):
        mc.DetectorSpec(reference_energy_kev=0.0)



def _covered(x, starts, reach, t0, t1):
    """Brute force: x lies in [t - reach, t + reach) of some t among
    ``starts``, t0 and t1, and in [t0, t1)."""
    t = np.r_[t0, starts, t1]
    near = ((t[None, :] - reach <= x[:, None]) & (x[:, None] < t[None, :] + reach)).any(axis=1)
    return near & (x >= t0) & (x < t1)


def test_reach_windows_merge_overlaps_and_clip_to_the_slice():
    lo, hi = mc.reach_windows(np.array([0.0, 10e3, 12e3, 30e3, 1e6]), 3e3)
    # The edges count as starts; 10 and 12 us overlap into one window.
    assert lo.tolist() == [0.0, 7e3, 27e3, 997e3]
    assert hi.tolist() == [3e3, 15e3, 33e3, 1e6]


def test_reach_windows_at_the_slice_edges():
    t0, t1 = 5e9, 9e9
    lo, hi = mc.reach_windows(np.array([t0, t0, t0 + 1e3, t1 - 500.0, t1]), 3e3)
    assert lo.tolist() == [t0, t1 - 3.5e3]
    assert hi.tolist() == [t0 + 4e3, t1]
    # Starts exactly 2 reach apart touch and make one window.
    lo, hi = mc.reach_windows(np.array([t0, t0 + 6e3, t1]), 3e3)
    assert lo.tolist() == [t0, t1 - 3e3] and hi.tolist() == [t0 + 9e3, t1]


def test_reach_windows_of_an_empty_trigger_part():
    lo, hi = mc.reach_windows(np.array([0.0, 4e9]), 3e3)
    assert lo.tolist() == [0.0, 4e9 - 3e3]
    assert hi.tolist() == [3e3, 4e9]


def test_reach_windows_cover_the_slice():
    # Starts closer than 2 reach everywhere, or a slice shorter than 2 reach.
    lo, hi = mc.reach_windows(np.r_[0.0, np.arange(4e3, 1e6, 5e3), 1e6], 3e3)
    assert (lo.tolist(), hi.tolist()) == ([0.0], [1e6])
    lo, hi = mc.reach_windows(np.array([0.0, 5e3]), 3e3)
    assert (lo.tolist(), hi.tolist()) == ([0.0], [5e3])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       reach=st.sampled_from([1.0, 300.0, 3000.0]))
def test_reach_windows_are_the_union_of_the_start_windows(seed, n, reach):
    rng = np.random.default_rng(seed)
    t0, t1 = 1e9, 1e9 + 2e5
    starts = np.sort(t0 + 100.0 * rng.integers(0, 2000, n))  # ties and touching windows
    lo, hi = mc.reach_windows(np.r_[t0, starts, t1], reach)
    assert lo[0] == t0 and hi[-1] == t1
    assert np.all(lo < hi) and np.all(lo[1:] > hi[:-1])  # disjoint, in time order
    x = np.r_[rng.uniform(t0 - 1e4, t1 + 1e4, 4000), starts - reach, starts + reach, lo, hi]
    k = np.searchsorted(lo, x, side="right") - 1
    inside = (k >= 0) & (x < hi[np.maximum(k, 0)])
    np.testing.assert_array_equal(inside, _covered(x, starts, reach, t0, t1))


def test_union_sampler_is_poisson_and_uniform_over_the_union():
    """First-cover draws on windows that overlap: counts over many draws are
    Poisson with mean rate x covered length, and the times fall uniformly
    on the union: per window in proportion to its length, and uniform
    within the windows."""
    rng = np.random.default_rng(11)
    t0, t1, reach = 0.0, 1e8, 1.7e5
    starts = np.r_[t0, np.sort(rng.uniform(t0, t1, 300)), t1]
    lo, hi = mc.reach_windows(starts, reach)
    length = float(np.sum(hi - lo))
    # Windows overlap: at least 30% of the union is covered twice or more,
    # and the union leaves gaps.
    x = np.linspace(t0, t1, 1_000_001)[:-1]
    depth = (np.searchsorted(starts, x + reach, side="right")
             - np.searchsorted(starts, x - reach, side="right"))
    assert np.mean(depth >= 2) >= 0.3 * np.mean(depth >= 1)
    assert lo.size > 10 and length < 0.9 * (t1 - t0)
    rate_hz, draws = 2e4, 400
    mean = rate_hz * length * 1e-9
    counts, times = [], []
    for _ in range(draws):
        t = mc.first_cover_times(rng, rate_hz, starts, reach)
        assert np.all(np.diff(t) >= 0)
        counts.append(len(t))
        times.append(t)
    counts, times = np.array(counts), np.concatenate(times)
    assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / draws)
    # Poisson dispersion: (draws - 1) s^2 / mean is chi^2 with draws - 1 dof.
    dispersion = (draws - 1) * counts.var(ddof=1) / mean
    assert abs(dispersion - (draws - 1)) < 4.0 * math.sqrt(2.0 * (draws - 1))
    k = np.searchsorted(lo, times, side="right") - 1
    assert np.all(k >= 0) and np.all(times < hi[k])
    # Uniform on the union: the times mapped back onto [0, length) fill 40
    # equal bins alike, and each window holds its share.
    cumulative = np.r_[0.0, np.cumsum(hi - lo)]
    u = cumulative[k] + (times - lo[k])
    for got, share in ((np.histogram(u, 40, (0.0, length))[0], np.full(40, 1 / 40)),
                       (np.bincount(k, minlength=lo.size), (hi - lo) / length)):
        want = share * len(times)
        kept = want >= 5
        chi2 = float(np.sum((got[kept] - want[kept]) ** 2 / want[kept]))
        dof = int(kept.sum()) - 1
        assert chi2 < dof + 4.0 * math.sqrt(2.0 * dof)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       reach=st.sampled_from([1.0, 300.0, 3000.0]))
def test_first_cover_times_lie_on_the_reach_windows(seed, n, reach):
    rng = np.random.default_rng(seed)
    t0, t1 = 1e9, 1e9 + 2e5
    # Ties, touching windows, and starts on the slice edges.
    starts = np.r_[t0, np.sort(t0 + 100.0 * rng.integers(0, 2001, n)), t1]
    lo, hi = mc.reach_windows(starts, reach)
    assert mc.reach_length(starts, reach) == pytest.approx(float(np.sum(hi - lo)), rel=1e-12)
    # About 300 times per draw.
    t = mc.first_cover_times(rng, 300.0 / (starts.size * 2.0 * reach * 1e-9), starts, reach)
    assert np.all(np.diff(t) >= 0)
    assert np.all((t >= t0) & (t < t1))
    k = np.searchsorted(lo, t, side="right") - 1
    assert np.all(k >= 0) and np.all(t < hi[np.maximum(k, 0)])


# Starts at 1e4 ns with reach 300 ns give the window [9700, 10300) ns.
@settings(max_examples=80, deadline=None)
@example(times=[97, 97], starts=[100], reach=300.0)  # times on a window's lo
@example(times=[103], starts=[100], reach=300.0)  # a time on a window's hi
@given(times=st.lists(st.integers(-10, 210), max_size=60),
       starts=st.lists(st.integers(0, 200), max_size=10),
       reach=st.sampled_from([50.0, 100.0, 300.0]))
def test_in_windows_keeps_the_times_inside_a_window(times, starts, reach):
    # A 100 ns lattice with ties; a reach of 100 or 300 ns puts window
    # edges on it.
    t0, t1 = 0.0, 2e4
    t = 100.0 * np.sort(np.array(times, dtype=float))
    lo, hi = mc.reach_windows(np.r_[t0, 100.0 * np.sort(np.array(starts, dtype=float)), t1], reach)
    inside = ((lo[None, :] <= t[:, None]) & (t[:, None] < hi[None, :])).any(axis=1)
    np.testing.assert_array_equal(mc.in_windows(t, (lo, hi)), t[inside])


def test_one_window_draws_the_whole_window():
    # The pair and trigger draws: one window is one uniform sample on it.
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    t = mc.poisson_times(a, 3000.0, 2e9, 6e9)
    n = b.poisson(3000.0 * 4e9 * 1e-9)
    np.testing.assert_array_equal(t, 2e9 + np.sort(b.uniform(0.0, 4e9, n)))


@settings(max_examples=80, deadline=None)
@example(t0=0.0, length=1.3e10, count=0.0)  # n = 0
@example(t0=3e12, length=1.0, count=50.0)
@given(t0=st.floats(0.0, 3e12), length=st.floats(1.0, 1.3e10), count=st.floats(0.0, 200.0))
def test_poisson_times_match_the_reference_draw(t0, length, count):
    # One pass of uniform(t0, t1) gives the bits of uniform(0, L) + t0 and
    # leaves the generator where that draw does.
    t1 = t0 + length
    rate = count / (length * 1e-9)
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    times = mc.poisson_times(rng, rate, t0, t1)
    want = reference.uniform(0.0, t1 - t0, reference.poisson(rate * (t1 - t0) * 1e-9))
    want.sort()
    want += t0
    assert times.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=150, deadline=None)
@example(dense=[], sparse=[0, 3], ends=[])  # no trigger times
@example(dense=[0, 0, 5, 9], sparse=[], ends=[])  # no pair starts
@example(dense=[0, 4, 4], sparse=[0, 4], ends=[2])  # ties, and a time rounded up to t1
@given(dense=st.lists(st.integers(0, 9), max_size=30),
       sparse=st.lists(st.integers(0, 9), max_size=5),
       ends=st.lists(st.integers(1, 3), max_size=3))
def test_insert_starts_matches_the_stable_sort(dense, sparse, ends):
    # A 100 ns lattice from t0 up to t1 = t0 + 1000 ns: ties among and
    # between the dense and sparse times, times on t0, and ``ends`` times
    # on t1 at the end of the dense ones, as rounding may put them.
    t0 = 7e9
    t1 = t0 + 1000.0
    dense_ns = np.r_[t0 + 100.0 * np.sort(np.array(dense, dtype=float)), np.full(len(ends), t1)]
    sparse_ns = t0 + 100.0 * np.sort(np.array(sparse, dtype=float))
    want = np.sort(np.concatenate(([t0], sparse_ns, dense_ns, [t1])), kind="stable")
    assert mc.insert_starts(dense_ns, sparse_ns, t0, t1).tobytes() == want.tobytes()


def test_rate_hz_thins_the_stray_rate(cfg):
    # The background pulses without and with a logic pulse are the stray
    # photons thinned by QE and then split by the logic probability.
    source = replace(cfg.source, stray_rates=(0.0, 50.0, 0.0))
    spec = replace(cfg.detectors[mc.DET_TRANS], quantum_efficiency=0.6)
    background = mc.StrayBackground(mc.DET_TRANS, source.spectrum, spec, 50.0, 0.3)
    assert background.rate_hz(False) == 50.0 * 0.6 * (1.0 - 0.3)
    assert background.rate_hz(True) == 50.0 * 0.6 * 0.3
    p = mc.sca_probability(source.spectrum, spec)
    assert mc.StrayBackground.of(source, mc.DET_TRANS, spec).rate_hz(True) == 50.0 * 0.6 * p
    silent = mc.StrayBackground.of(source, mc.DET_REF, spec)
    assert [silent.rate_hz(logic) for logic in (False, True)] == [0.0, 0.0]


_SCA_SPECS = {
    "default": {},
    # The line sits on the closed upper edge.
    "no resolution": {"resolution_fwhm_ev": 0.0, "sca_window_kev": (8.0, 21.0)},
    "edges in the flat band and by the line": {"sca_window_kev": (8.5, 21.2)},
    "coarse resolution": {"resolution_fwhm_ev": 2500.0, "sca_window_kev": (9.0, 20.0)},
}


@pytest.mark.parametrize("name", sorted(_SCA_SPECS))
def test_sca_probability_matches_detect(cfg, name):
    spec = replace(cfg.detectors[mc.DET_TRANS], quantum_efficiency=1.0, **_SCA_SPECS[name])
    spectrum, n = cfg.source.spectrum, 2_000_000
    rng = np.random.default_rng(21)
    photons = _photons(np.zeros(n), spectrum.sample(rng, n), mc.DET_TRANS)
    observed = mc.detect(photons, spec, rng).logic.mean()
    p = mc.sca_probability(spectrum, spec)
    assert abs(observed - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


_erfc = np.vectorize(math.erfc, otypes=[float])


@pytest.mark.parametrize("c", [0.001, 0.0393, 0.5])
@pytest.mark.parametrize("edge", [-0.5, 3.0, 7.0, 7.05, 8.5, 10.0, 10.2, 12.0])
def test_flat_band_rule_is_within_1e_9(edge, c):
    """The flat-band integral of P(E + z c sqrt(E) <= edge) over 7-10 keV
    against composite Simpson with 40 steps per sigma at 7 keV, whose own
    error, rounding included, stays below 1e-10."""
    steps = 2 * max(1000, math.ceil(3.0 / (c * math.sqrt(7.0)) * 20.0))
    e = np.linspace(7.0, 10.0, steps + 1)
    f = 0.5 * _erfc((e - edge) / (c * np.sqrt(e)) / math.sqrt(2.0))
    simpson = (e[1] - e[0]) / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    assert abs(mc._flat_measured_below(edge, 7.0, 10.0, c) - simpson) < 1e-9


def _two_sample_chi2(a, b, bins=40):
    """Two-sample chi^2 of the samples ``a`` and ``b`` over bins of equal
    pooled counts (bins with fewer than 10 entries dropped), and its dof."""
    edges = np.unique(np.quantile(np.concatenate((a, b)), np.linspace(0.0, 1.0, bins + 1)))
    count_a, count_b = np.histogram(a, edges)[0], np.histogram(b, edges)[0]
    kept = count_a + count_b >= 10
    count_a, count_b = count_a[kept], count_b[kept]
    scale = math.sqrt(count_b.sum() / count_a.sum())
    chi2 = float(np.sum((count_a * scale - count_b / scale) ** 2 / (count_a + count_b)))
    return chi2, int(kept.sum()) - 1


_SAMPLER_SPECS = {
    "default": {},
    "QE 0.5": {"quantum_efficiency": 0.5},
    "SCA edges in the flat band and by the line": {"sca_window_kev": (8.5, 21.2)},
    # The line sits on the closed upper edge.
    "no resolution": {"resolution_fwhm_ev": 0.0, "sca_window_kev": (8.0, 21.0)},
}


@pytest.mark.parametrize("name", sorted(_SAMPLER_SPECS))
def test_stray_energies_follow_detect_given_the_logic_flag(cfg, name):
    """``StrayBackground.pulses``' energies (n = 2e5 per flag) against the
    energies ``detect`` measures on 1e6 ``StraySpectrum.sample`` photons
    with that flag: a two-sample chi^2 over 40 bins of equal pooled
    counts."""
    spec = replace(cfg.detectors[mc.DET_TRANS], **_SAMPLER_SPECS[name])
    spectrum, m, n = cfg.source.spectrum, 1_000_000, 200_000
    rng = np.random.default_rng(31)
    pulses = mc.detect(_photons(np.zeros(m), spectrum.sample(rng, m), mc.DET_TRANS), spec, rng)
    background = mc.StrayBackground(mc.DET_TRANS, spectrum, spec, 1.0,
                                    mc.sca_probability(spectrum, spec))
    sca_lo, sca_hi = spec.sca_window_kev
    for logic in (False, True):
        sampled = background.pulses(logic, np.zeros(n), rng).energy_kev
        assert sampled.shape == (n,)
        assert np.all(((sampled >= sca_lo) & (sampled <= sca_hi)) == logic)
        chi2, dof = _two_sample_chi2(sampled, pulses.energy_kev[pulses.logic == logic])
        assert dof >= 10 and chi2 < dof + 4.0 * math.sqrt(2.0 * dof)


def test_stray_energies_of_a_rare_flag_stay_within_the_batch_cap(cfg, monkeypatch):
    # An SCA edge below the flat band leaves about 1e-4 of the photons
    # without a logic pulse; drawing 200 of them takes many capped batches.
    sca = (6.75, 22.0)
    spec = replace(cfg.detectors[mc.DET_TRANS], sca_window_kev=sca)
    spectrum = cfg.source.spectrum
    p = mc.sca_probability(spectrum, spec)
    assert 5e-5 < 1.0 - p < 2e-4
    sizes, sample = [], mc.StraySpectrum.sample
    monkeypatch.setattr(mc.StraySpectrum, "sample",
                        lambda self, rng, n: sizes.append(n) or sample(self, rng, n))
    background = mc.StrayBackground(mc.DET_TRANS, spectrum, spec, 1.0, p)
    energies = background.pulses(False, np.zeros(200), np.random.default_rng(5)).energy_kev
    assert energies.shape == (200,)
    assert np.all((energies < sca[0]) | (energies > sca[1]))
    assert len(sizes) > 1 and max(sizes) <= mc._ENERGY_BATCH


def test_trigger_tally_follows_the_thinned_rates():
    """Over 200 s, the trigger detector's background tally (drawn, kept or
    only counted) has mean R T QE pulses, R T QE p of them with a logic
    pulse."""
    cfg = load_default_config(["grid.n_energy=400", "grid.n_x=60", "grid.n_y=12",
                               "source.duration_s=200", "detector.trig.quantum_efficiency=0.5"])
    tally = np.zeros((len(mc.DETECTORS), mc.N_ORIGINS, 2), dtype=np.int64)
    for _end, _pulses in cli._slice_pulses(cfg, pair_ridge(cfg.spdc, cfg.grid), tally):
        pass
    spec = cfg.detectors[mc.DET_TRIG]
    mean = cfg.source.stray_rates[mc.DET_TRIG] * 200.0 * spec.quantum_efficiency
    p = mc.sca_probability(cfg.source.spectrum, spec)
    stray = tally[mc.DET_TRIG, mc.ORIGIN_STRAY]
    for count, expected in ((stray.sum(), mean), (stray[1], mean * p)):
        assert abs(count - expected) < 4.0 * math.sqrt(expected)
