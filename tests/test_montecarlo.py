"""Unit tests for photon-stream generation and the detector response."""

from dataclasses import replace

import numpy as np
import pytest

from artifact import montecarlo as mc
from artifact.config import load_default_config
from artifact.spdc import GridSpec, SpdcConfig, biphoton_amplitude
from artifact.xoptics import load_table

SMALL_GRID = GridSpec(9.5, 11.5, 200, 5.0e-3, 40, 10)


@pytest.fixture(scope="module")
def amp_small():
    return biphoton_amplitude(SpdcConfig(), SMALL_GRID)


@pytest.fixture(scope="module")
def graphite():
    return load_table("graphite")


@pytest.fixture(scope="module")
def cfg():
    return load_default_config()


def _pairs(amp_small, graphite, cfg, seed, **source_kw):
    source = replace(cfg.source, **source_kw)
    rng = np.random.default_rng(seed)
    return mc.generate_pairs(amp_small, cfg.splitter, source, graphite, rng=rng)


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


def test_pairs_conserve_energy_and_time(amp_small, graphite, cfg):
    photons = _pairs(amp_small, graphite, cfg, 5, pair_rate=200.0, duration_s=50.0)
    trig = photons[photons["origin"] == mc.ORIGIN_PAIR_TRIGGER]
    herald = photons[photons["origin"] == mc.ORIGIN_PAIR_HERALD]
    assert len(trig) > 0 and len(herald) > 0
    # Pair members share one creation time; match them on it.
    common, ti, hi = np.intersect1d(
        trig["time_ns"], herald["time_ns"], return_indices=True
    )
    assert len(common) > 0.2 * len(trig)
    total = trig["energy_kev"][ti] + herald["energy_kev"][hi]
    np.testing.assert_allclose(total, cfg.spdc.pump_energy_kev, atol=1e-9)
    assert set(np.unique(herald["detector"])) <= {mc.DET_TRANS, mc.DET_REF}
    assert np.all(trig["detector"] == mc.DET_TRIG)


def test_pair_stream_is_seed_deterministic(amp_small, graphite, cfg):
    a = _pairs(amp_small, graphite, cfg, 7, pair_rate=50.0, duration_s=20.0)
    b = _pairs(amp_small, graphite, cfg, 7, pair_rate=50.0, duration_s=20.0)
    assert np.array_equal(a, b)
    c = _pairs(amp_small, graphite, cfg, 8, pair_rate=50.0, duration_s=20.0)
    assert not np.array_equal(a, c)


def test_heralded_energies_follow_amplitude_window(amp_small, graphite, cfg):
    photons = _pairs(amp_small, graphite, cfg, 9, pair_rate=500.0, duration_s=20.0)
    herald = photons[photons["origin"] == mc.ORIGIN_PAIR_HERALD]
    assert herald["energy_kev"].min() >= SMALL_GRID.energy_lo_kev
    assert herald["energy_kev"].max() <= SMALL_GRID.energy_hi_kev


def test_merge_streams_sorts_by_time():
    a = np.zeros(3, dtype=mc.PHOTON_DTYPE)
    a["time_ns"] = [5.0, 1.0, 9.0]
    b = np.zeros(2, dtype=mc.PHOTON_DTYPE)
    b["time_ns"] = [2.0, 7.0]
    merged = mc.merge_streams(a, b)
    assert np.all(np.diff(merged["time_ns"]) >= 0)
    assert len(mc.merge_streams()) == 0


def test_detect_quantum_efficiency_and_logic(cfg):
    photons = np.zeros(10000, dtype=mc.PHOTON_DTYPE)
    photons["time_ns"] = np.arange(10000.0)
    photons["energy_kev"] = np.where(np.arange(10000) % 2 == 0, 10.5, 30.0)
    photons["detector"] = mc.DET_TRIG
    spec = replace(
        cfg.detectors[mc.DET_TRIG], quantum_efficiency=0.25, resolution_fwhm_ev=1.0
    )
    pulses = mc.detect(photons, {mc.DET_TRIG: spec}, np.random.default_rng(1))
    assert len(pulses) == pytest.approx(2500, abs=200)
    in_band = np.abs(pulses["energy_kev"] - 10.5) < 0.5
    assert np.all(pulses["logic"][in_band])
    assert not np.any(pulses["logic"][~in_band])


def test_detect_energy_blur_scale(cfg):
    photons = np.zeros(40000, dtype=mc.PHOTON_DTYPE)
    photons["energy_kev"] = 10.5
    photons["detector"] = mc.DET_REF
    spec = cfg.detectors[mc.DET_REF]
    pulses = mc.detect(photons, {mc.DET_REF: spec}, np.random.default_rng(2))
    measured = pulses["energy_kev"]
    expected_sigma = spec.resolution_fwhm_ev / 1000.0 / mc.FWHM_TO_SIGMA
    assert np.std(measured) == pytest.approx(expected_sigma, rel=0.05)
    assert np.mean(measured) == pytest.approx(10.5, abs=0.01)


def test_detect_rejects_unknown_detector(cfg):
    photons = np.zeros(1, dtype=mc.PHOTON_DTYPE)
    photons["detector"] = 9
    with pytest.raises(ValueError):
        mc.detect(photons, cfg.detectors, np.random.default_rng(0))


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        mc.DetectorSpec(quantum_efficiency=1.2)
    with pytest.raises(ValueError):
        mc.DetectorSpec(sca_window_kev=(17.0, 7.0))
    with pytest.raises(ValueError):
        mc.DetectorSpec(analog_width_ns=0.0)

