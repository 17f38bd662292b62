"""Unit tests for energy/wavelength conversions, Bragg geometry, and
attenuation tables, and for the pair kinematics against the three-wave
phase mismatch."""

import math

import numpy as np
import pytest

from artifact.spdc import SpdcConfig, _Kinematics
from artifact.xoptics import (
    HC_KEV_ANGSTROM,
    AttenuationTable,
    LatticeSpec,
    bragg_angle,
    load_table,
    transmittance,
    wavelength,
    wavenumber,
)

HOPG = LatticeSpec(3.354, "HOPG(002)")
C660 = LatticeSpec(3.56712 / math.sqrt(72.0), "C(660)")


def bragg_energy(angle_deg, lattice):
    """Reference inverse of bragg_angle: E = hc / (2 d sin(theta_B))."""
    return HC_KEV_ANGSTROM / (2.0 * lattice.d_spacing * np.sin(np.radians(angle_deg)))


def phase_mismatch(pump_kev, heralded_kev, trigger_kev, angles_rad):
    """Reference longitudinal wave-vector mismatch (1/Angstrom) of the
    three-wave process, k_p cos(theta_p) - k_h cos(theta_h) - k_t cos(theta_t),
    with each angle of ``angles_rad`` measured from the atomic planes."""
    theta_p, theta_h, theta_t = angles_rad
    return (
        wavenumber(pump_kev) * np.cos(theta_p)
        - wavenumber(heralded_kev) * np.cos(theta_h)
        - wavenumber(trigger_kev) * np.cos(theta_t)
    )


def test_wavelength_wavenumber_consistency():
    assert wavelength(HC_KEV_ANGSTROM) == pytest.approx(1.0)
    e = np.array([5.0, 10.5, 21.0])
    np.testing.assert_allclose(wavenumber(e) * wavelength(e), 2.0 * math.pi)


def test_bragg_angle_reference_reflections():
    assert bragg_angle(10.5, HOPG) == pytest.approx(10.1385, abs=1e-3)
    assert bragg_angle(21.0, C660) == pytest.approx(44.6044, abs=1e-3)


def test_bragg_energy_inverts_bragg_angle():
    for e in (8.0, 10.5, 14.0):
        assert bragg_energy(bragg_angle(e, HOPG), HOPG) == pytest.approx(e)


def test_bragg_angle_rejects_long_wavelengths():
    with pytest.raises(ValueError):
        bragg_angle(1.0, HOPG)  # wavelength 12.4 A exceeds 2d = 6.7 A


def test_lattice_requires_positive_spacing():
    with pytest.raises(ValueError):
        LatticeSpec(-1.0)


def test_bundled_tables_load():
    for name in ("air", "helium", "graphite", "diamond"):
        table = load_table(name)
        assert table.density > 0
        assert np.all(np.diff(table.energies_kev) > 0)


def test_air_transmittance_reference_value():
    # 10 cm of air at 10.5 keV: log-log interpolation between the bracketing
    # table samples gives mu/rho = 4.456 cm^2/g, so T = exp(-4.456 * 1.205e-3 * 10).
    air = load_table("air")
    assert air.mass_attenuation(10.5) == pytest.approx(4.456, rel=2e-3)
    assert transmittance(10.5, air, 10.0) == pytest.approx(0.9477, abs=5e-4)


def test_transmittance_monotone_in_path():
    air = load_table("air")
    paths = np.array([0.0, 1.0, 10.0, 100.0, 1e4])
    t = transmittance(10.5, air, paths)
    assert t[0] == pytest.approx(1.0)
    assert np.all(np.diff(t) < 0)
    assert t[-1] < 1e-6


def test_attenuation_range_and_validation():
    air = load_table("air")
    with pytest.raises(ValueError):
        air.mass_attenuation(0.1)
    with pytest.raises(ValueError):
        transmittance(10.5, air, -1.0)
    with pytest.raises(ValueError):
        AttenuationTable(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        AttenuationTable(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 1.0)


@pytest.mark.parametrize("energies, values, density", [
    ([1.0, math.nan], [1.0, 1.0], 1.0),
    ([math.nan, 2.0], [1.0, 1.0], 1.0),
    ([1.0, math.inf], [1.0, 1.0], 1.0),
    ([1.0, 2.0], [1.0, math.nan], 1.0),
    ([1.0, 2.0], [math.inf, 1.0], 1.0),
    ([1.0, 2.0], [1.0, 1.0], math.nan),
    ([1.0, 2.0], [1.0, 1.0], math.inf),
], ids=["energy-nan-last", "energy-nan-first", "energy-inf", "mu-nan", "mu-inf",
        "density-nan", "density-inf"])
def test_attenuation_table_rejects_nan_and_infinity(energies, values, density):
    # NaN fails no comparison-based check that asks "<= 0", and infinity
    # passes "> 0"; the table must refuse both.
    with pytest.raises(ValueError):
        AttenuationTable(np.array(energies), np.array(values), density)


def test_table_file_gives_its_density(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# density_g_cm3: 2.2\n5.0 10.0\n10.0 2.0\n")
    assert AttenuationTable.from_file(path).density == 2.2
    path.write_text("5.0 10.0\n10.0 2.0\n")
    with pytest.raises(ValueError, match="no density"):
        AttenuationTable.from_file(path)


def test_phase_mismatch_vanishes_for_closed_triangle():
    # Degenerate collinear split: two 10.5 keV photons along the pump direction.
    dk = phase_mismatch(21.0, 10.5, 10.5, (0.3, 0.3, 0.3))
    assert dk == pytest.approx(0.0, abs=1e-12)


def test_phase_mismatch_sign():
    # Tilting the daughters away from the pump shortens their longitudinal
    # projections, so the mismatch turns positive.
    dk = phase_mismatch(21.0, 10.5, 10.5, (0.3, 0.35, 0.25))
    assert dk > 0


@pytest.mark.parametrize("energy_kev, theta_x", [(10.5, 0.0), (9.1, 1.2e-3), (11.8, -2.0e-3)])
def test_kinematics_half_phase_matches_three_wave_mismatch(energy_kev, theta_x):
    # In the theta_y = 0 plane the kinematics' mismatch is the three-wave one
    # with the trigger angle fixed by transverse momentum conservation.
    cfg = SpdcConfig()
    kin = _Kinematics(cfg)
    k_t = wavenumber(cfg.pump_energy_kev - energy_kev)
    s_t = kin.s_total - wavenumber(energy_kev) * math.sin(kin.theta_h0 + theta_x)
    angles = (math.radians(cfg.pump_angle_deg()), kin.theta_h0 + theta_x,
              math.asin(s_t / k_t))
    dk = phase_mismatch(cfg.pump_energy_kev, energy_kev,
                        cfg.pump_energy_kev - energy_kev, angles)
    assert kin.half_phase(energy_kev, theta_x, 0.0) == pytest.approx(
        dk * kin.half_length, rel=1e-9, abs=1e-6
    )
