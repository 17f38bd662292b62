"""Unit tests for the Gaussian mosaic beam-splitter model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from artifact.splitter import SplitterSpec, reflectivity, response
from artifact.xoptics import LatticeSpec, bragg_angle, load_table

HOPG = LatticeSpec(3.354, "HOPG(002)")


@pytest.fixture(scope="module")
def spec():
    return SplitterSpec(lattice=HOPG)


@pytest.fixture(scope="module")
def graphite():
    return load_table("graphite")


def test_peak_reflectivity_at_matched_condition(spec):
    assert reflectivity(spec, 10.5, 0.0) == pytest.approx(0.5)


def test_one_sigma_point_of_rocking_curve(spec):
    # An argument offset equal to the width parameter b drops the amplitude
    # by exp(-1/2), so the intensity by exp(-1).
    r = reflectivity(spec, 10.5, spec.width_deg)
    assert r == pytest.approx(0.5 * math.exp(-1.0))


def test_energy_angle_compensation(spec):
    # Rotating by the Bragg-angle difference restores the peak for a
    # detuned energy; without the rotation it sits 1.85 widths off the
    # peak.
    dtheta = bragg_angle(11.5, spec.lattice) - spec.nominal_bragg_deg()
    assert reflectivity(spec, 11.5, dtheta) == pytest.approx(0.5, rel=1e-12)
    assert reflectivity(spec, 11.5, 0.0) == pytest.approx(
        0.5 * math.exp(-((dtheta / spec.width_deg) ** 2)), rel=1e-9
    )


def test_reflectivity_decays_off_peak(spec):
    d = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    r = reflectivity(spec, 10.5, d)
    assert np.all(np.diff(r) < 0)
    assert r[-1] < 1e-9


@pytest.mark.filterwarnings("error")
def test_reflectivity_is_zero_past_the_cutoff_and_keeps_its_bits_below(spec, graphite):
    # 2d = 1.1 A: lambda = 2d at 11.27 keV, and lower energies meet no
    # Bragg reflection.  There R is 0 (without an arcsin of s > 1), so T is
    # the absorption alone; above it R is A exp(-arg^2 / b^2) as before, bit
    # for bit, with theta_B from xoptics.bragg_angle.
    cut = replace(spec, lattice=LatticeSpec(0.55, "cut"), nominal_energy_kev=12.0)
    cutoff_kev = 12.39842 / 1.1
    e = np.linspace(8.5, 12.5, 41)[:, None]
    d = np.linspace(-2.0, 2.0, 9)[None, :]
    below = (e < cutoff_kev).ravel()
    assert below.any() and not below.all()
    r, t = response(cut, e, d, graphite)
    assert np.all(r[below] == 0.0)
    np.testing.assert_allclose(t[below], _absorption(cut, e, d, graphite)[below], rtol=1e-15, atol=0.0)
    e_up = e[~below]
    arg = d + cut.nominal_bragg_deg() - bragg_angle(e_up, cut.lattice)
    want = np.exp(-np.square(arg / cut.width_deg)) * cut.peak_reflectivity
    assert np.array_equal(r[~below].view(np.uint64), want.view(np.uint64))
    assert r[~below].max() > 0.1
    # A scalar below the cutoff gives a scalar 0.
    assert reflectivity(cut, 9.0, 0.0) == 0.0


def _absorption(spec, energy_kev, dtheta_deg, material):
    """exp(-mu * t / sin(incidence)) along the slant path through the plate."""
    incidence = np.radians(spec.nominal_bragg_deg() + np.asarray(dtheta_deg) + spec.mount_offset_deg)
    return np.exp(-material.linear_attenuation(energy_kev) * (spec.thickness_mm / 10.0) / np.sin(incidence))


@pytest.mark.parametrize("offset_deg", [0.0, -3.0, 4.0])
def test_response_is_reflectivity_and_absorbed_remainder(spec, graphite, offset_deg):
    mounted = replace(spec, mount_offset_deg=offset_deg)
    e = np.linspace(9.0, 12.0, 31)[:, None]
    d = np.linspace(-2.0, 2.0, 17)[None, :]
    r, t = response(mounted, e, d, graphite)
    assert r.shape == t.shape == (31, 17)
    assert np.array_equal(r.view(np.uint64), reflectivity(mounted, e, d).view(np.uint64))
    np.testing.assert_allclose(t, (1.0 - r) * _absorption(mounted, e, d, graphite),
                               rtol=1e-15, atol=0.0)


def test_transmission_complements_reflection(spec, graphite):
    # On the rocking peak the transmitted fraction is (1 - A) times the
    # slant-path absorption factor.
    t = response(spec, 10.5, 0.0, graphite)[1]
    mu = graphite.linear_attenuation(10.5)
    slant = (spec.thickness_mm / 10.0) / math.sin(math.radians(spec.nominal_bragg_deg()))
    assert t == pytest.approx(0.5 * math.exp(-mu * slant))
    # Far from the peak nothing reflects and only absorption remains.
    t_far = response(spec, 10.5, 5.0, graphite)[1]
    slant_far = (spec.thickness_mm / 10.0) / math.sin(
        math.radians(spec.nominal_bragg_deg() + 5.0)
    )
    assert t_far == pytest.approx(math.exp(-mu * slant_far))


def test_transmission_bounded(spec, graphite):
    d = np.linspace(-2.0, 5.0, 101)
    r, t = response(spec, 10.5, d, graphite)
    assert np.all(t >= 0)
    assert np.all(t <= 1.0 - r + 1e-12)


def test_transmission_rejects_grazing_exit(spec, graphite):
    with pytest.raises(ValueError):
        response(spec, 10.5, -15.0, graphite)
    with pytest.raises(ValueError):
        response(spec, 10.5, 175.0, graphite)


def test_spec_validation():
    with pytest.raises(ValueError):
        SplitterSpec(lattice=HOPG, peak_reflectivity=1.5)
    with pytest.raises(ValueError):
        SplitterSpec(lattice=HOPG, width_deg=0.0)
    with pytest.raises(ValueError):
        SplitterSpec(lattice=HOPG, thickness_mm=-1.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SplitterSpec(lattice=HOPG, width_deg=value)
        with pytest.raises(ValueError):
            SplitterSpec(lattice=HOPG, thickness_mm=value)
        with pytest.raises(ValueError):
            LatticeSpec(value)


def test_thicker_plate_transmits_less(spec, graphite):
    thick = replace(spec, thickness_mm=2.0)
    assert response(thick, 10.5, 1.0, graphite)[1] < response(spec, 10.5, 1.0, graphite)[1]
