"""Unit tests for the biphoton pair intensity, grid handling, port spectra and sweep."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import spdc
from artifact.spdc import (
    GridSpec,
    SpdcConfig,
    biphoton_amplitude,
    bragg_angle_sweep,
    port_energy_spectra,
    sinc,
    sweep_grid,
    _Kinematics,
)
from artifact.splitter import reflectivity, response
from artifact.xoptics import LatticeSpec, bragg_angle, transmittance, wavelength
from conftest import port_rate_quadrature

SMALL_GRID = GridSpec(9.5, 11.5, 200, 5.0e-3, 40, 10)


@pytest.fixture(scope="module")
def amp_small():
    return biphoton_amplitude(SpdcConfig(), SMALL_GRID)


def test_sinc_limits():
    assert sinc(0.0) == pytest.approx(1.0)
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    x = np.array([-3.0, -1e-10, 1e-10, 2.5])
    np.testing.assert_allclose(sinc(x), np.sinc(x / math.pi), atol=1e-12)


def _cell_average(x_edge):
    """Reference mean of sinc^2 over each cell between consecutive edges
    along axis 0, from the antiderivative at both edges; sinc^2 at the
    midpoint where |dx| < 1e-6.  NaN edges give NaN cells."""
    x1, x2 = x_edge[:-1], x_edge[1:]
    dx = x2 - x1
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = (spdc._sinc2_antiderivative(x2) - spdc._sinc2_antiderivative(x1)) / dx
    degenerate = np.abs(dx) < 1e-6
    avg[degenerate] = sinc(0.5 * (x1[degenerate] + x2[degenerate])) ** 2
    return avg


def test_sinc2_cell_average_matches_fine_quadrature():
    x1, x2 = 0.3, 7.9
    fine = np.linspace(x1, x2, 200001)
    expected = np.trapezoid(sinc(fine) ** 2, fine) / (x2 - x1)
    assert _cell_average(np.array([x1, x2]))[0] == pytest.approx(expected, rel=1e-9)


def test_sinc2_cell_average_degenerate_cell():
    assert _cell_average(np.array([1.0, 1.0 + 1e-9]))[0] == pytest.approx(
        sinc(1.0) ** 2, rel=1e-6
    )


def _si_points():
    """4,629 points over [-2200, 2200]: zero, both sides of every edge where
    Si changes method (4 and 64) and of 40 and 100, a spread up to 2200, a
    dense run near zero, and the negatives of all of them."""
    edges = [spdc._SI_SERIES_TO, 40.0, spdc._SI_ASYMPTOTIC_FROM, 100.0]
    around = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)] + edges
    spread = np.linspace(1e-3, 2200.0, 2001)
    t = np.concatenate([[0.0, 1e-300], around, spread, np.geomspace(1e-12, 4.0, 300)])
    return np.concatenate([t, -t[1:]])


def _si(t):
    """Si by the method ``_sinc2_antiderivative`` takes at each point."""
    cos_t, sin_t = np.cos(t), np.sin(t)
    near = np.abs(t) < spdc._SI_ASYMPTOTIC_FROM
    si = np.empty_like(t)
    si[near] = spdc._si_near(t[near], cos_t[near], sin_t[near])
    far = ~near
    si[far] = spdc._si_asymptotic(t[far], cos_t[far], sin_t[far])
    return si


def test_sine_integral_matches_40_digit_values():
    mpmath = pytest.importorskip("mpmath")
    t = _si_points()
    with mpmath.workdps(40):
        si = np.array([float(mpmath.si(v)) for v in t.tolist()])
        half = [mpmath.mpf(v) / 2 for v in t.tolist()]
        sinc2 = np.array([float(mpmath.si(2 * x) - mpmath.sin(x) ** 2 / x) if x else 0.0
                          for x in half])
    assert t.size >= 2000
    assert np.abs(_si(t) - si).max() <= 2e-15
    assert np.abs(spdc._sinc2_antiderivative(t / 2) - sinc2).max() <= 2e-15
    # Odd in t, exactly.
    assert np.array_equal(_si(-t), -_si(t))


def test_grid_validation_and_spacings():
    with pytest.raises(ValueError):
        GridSpec(energy_lo_kev=11.0, energy_hi_kev=9.0)
    with pytest.raises(ValueError):
        GridSpec(n_x=0)
    for bad in (math.inf, math.nan):
        for key in ("energy_lo_kev", "energy_hi_kev", "angle_span_rad"):
            with pytest.raises(ValueError):
                GridSpec(**{key: bad})
    g = SMALL_GRID
    assert g.d_energy == pytest.approx(2.0 / 200)
    assert len(g.energy_edges()) == g.n_energy + 1
    assert len(g.theta_x_centers()) == g.n_x


def test_amplitude_normalization(amp_small):
    assert amp_small.total() == pytest.approx(1.0, rel=1e-12)


def test_unnormalized_amplitude_scale():
    # Per unit kappa_L^2 each (E, theta_x, theta_y) cell carries at most 1
    # (sinc^2 <= 1); summing n_y cells of width d_theta_y bounds W by the
    # angle span.
    w = biphoton_amplitude(SpdcConfig(), SMALL_GRID, normalize=False)
    bound = SMALL_GRID.angle_span_rad
    assert np.max(w.weights) <= bound * (1 + 1e-12)


def test_energy_marginal_integrates_to_total(amp_small):
    density = amp_small.weights.sum(axis=1) * amp_small.grid.d_theta_x
    assert np.sum(density) * amp_small.grid.d_energy == pytest.approx(1.0, rel=1e-12)
    assert np.all(density >= 0)


@pytest.mark.parametrize("grid", [
    SMALL_GRID,
    GridSpec(8.5, 12.5, 300, 5.0e-3, 40, 8),
    GridSpec(9.0, 12.0, 150, 4.0e-3, 61, 5),
])
def test_port_spectra_integrate_to_the_rate_quadrature(default_config, tables, grid):
    # xbsim model writes each port's rate fraction as the energy integral of
    # its spectrum.
    intensity = biphoton_amplitude(default_config.spdc, grid)
    spec = replace(default_config.splitter, mount_offset_deg=0.05)
    energies, refl, trans = port_energy_spectra(intensity, spec, tables["graphite"])
    assert np.array_equal(energies, intensity.energies)
    want = port_rate_quadrature(intensity, spec, tables["graphite"])
    got = (refl.sum() * grid.d_energy, trans.sum() * grid.d_energy)
    assert 0.0 < want[0] < 1.0 and 0.0 < want[1] < 1.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_cell_average_preserves_total_under_refinement():
    # Integrating each ridge line across the cells makes the integrated
    # intensity stable even though the line is far narrower than a cell.
    cfg = SpdcConfig()
    coarse = biphoton_amplitude(cfg, GridSpec(9.5, 11.5, 300, 5.0e-3, 60, 10),
                                normalize=False)
    fine = biphoton_amplitude(cfg, GridSpec(9.5, 11.5, 900, 5.0e-3, 60, 10),
                              normalize=False)
    assert coarse.total() == pytest.approx(fine.total(), rel=2e-2)


@settings(max_examples=200, deadline=None)
@given(
    energy=st.floats(-30.0, 30.0),
    theta_x=st.floats(-0.5, 0.5),
    theta_y=st.floats(-1.6, 1.6),
)
def test_half_phase_is_even_in_theta_y_bit_for_bit(energy, theta_x, theta_y):
    # The ridge's mirror fold relies on this exactly, evanescent NaNs included.
    kin = _Kinematics(SpdcConfig())
    with np.errstate(invalid="ignore", divide="ignore"):
        plus = np.asarray(kin.half_phase(energy, theta_x, theta_y))
        minus = np.asarray(kin.half_phase(energy, theta_x, -theta_y))
    assert plus.tobytes() == minus.tobytes()


@pytest.mark.parametrize("n_y", [1, 2, 5, 6])
def test_kernel_evaluates_the_non_negative_theta_y_half(monkeypatch, n_y):
    # The ridge is solved on the non-negative theta_y rows only.
    grid = GridSpec(8.5, 12.5, 30, 5.0e-3, 7, n_y)
    evaluated = []
    half_phase, slope = _Kinematics.half_phase, _Kinematics.half_phase_slope

    def recording(method):
        def call(self, energy_kev, theta_x, theta_y):
            evaluated.append(np.unique(theta_y))
            return method(self, energy_kev, theta_x, theta_y)
        return call

    monkeypatch.setattr(_Kinematics, "half_phase", recording(half_phase))
    monkeypatch.setattr(_Kinematics, "half_phase_slope", recording(slope))
    biphoton_amplitude(SpdcConfig(), grid)
    rows = grid.theta_y_centers()[n_y // 2 :]
    assert rows.size == math.ceil(n_y / 2) and np.all(rows > -1e-15)
    assert np.array_equal(np.unique(np.concatenate(evaluated)), rows)


def _exact_cell_average(cfg, grid, sub_kev):
    """Mean of sinc^2 of the exact mismatch over each (energy, theta_x,
    theta_y) cell, summed over theta_y: each energy cell is split into
    sub-cells no wider than ``sub_kev``, and each sub-cell integrates
    sinc^2 of the secant of x across it.  Evanescent sub-cells count zero.
    Returns (cell averages (n_energy, n_x), the sub-cell width)."""
    m = math.ceil(grid.d_energy / sub_kev)
    fine = np.linspace(grid.energy_lo_kev, grid.energy_hi_kev, grid.n_energy * m + 1)
    x_edge = _Kinematics(cfg).half_phase(
        fine[:, None, None],
        grid.theta_x_centers()[None, :, None],
        grid.theta_y_centers()[None, None, :],
    )
    sub = _cell_average(x_edge)
    sub[np.isnan(sub)] = 0.0
    return sub.sum(axis=2).reshape(grid.n_energy, m, grid.n_x).mean(axis=1), grid.d_energy / m


def _bisected_ridge(kin, grid):
    """The phase-matching ridge by bisection, as a reference for
    ``spdc._ridge``: every zero of ``half_phase`` in 0 < E < E_pump,
    bracketed between the 63 nodes E_pump / 64 apart and bisected down to
    adjacent floats.  Returns (e0, slope, column, row, key), in the order
    row, then bracket, then column; ``key`` (``_ridge_key``) rises along
    that order."""
    tx = grid.theta_x_centers()
    ty = grid.theta_y_centers()[grid.n_y // 2 :]
    nodes = np.linspace(0.0, kin.pump_kev, 65)[1:-1]
    brackets = []
    for row, theta_y in enumerate(ty):
        x = kin.half_phase(nodes[:, None], tx, theta_y)
        k, column = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)
        brackets.append((k, column, np.full(k.size, row)))
    k, column, row = (np.concatenate(parts) for parts in zip(*brackets))
    theta_x, theta_y = tx[column], ty[row]
    lo, hi = nodes[k], nodes[k + 1]
    lo_sign = np.sign(kin.half_phase(lo, theta_x, theta_y))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        right = np.sign(kin.half_phase(mid, theta_x, theta_y)) == lo_sign
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
        mid = 0.5 * (lo + hi)
    slope = np.abs(kin.half_phase_slope(mid, theta_x, theta_y))
    return mid, slope, column, row, _ridge_key(kin, grid, mid, column, row)


def _ridge_key(kin, grid, e0, column, row):
    """(row, bracket, column) of each zero as one integer, the bracket
    being the node interval that holds E0."""
    nodes = np.linspace(0.0, kin.pump_kev, 65)[1:-1]
    bracket = np.searchsorted(nodes, e0, side="right") - 1
    return (row * nodes.size + bracket) * grid.n_x + column


def _band_meets_window(grid, e0, slope):
    """Whether each line's band, E0 +- LINE_HALF_WIDTH / s, meets the window."""
    reach = spdc.LINE_HALF_WIDTH / slope
    return (e0 + reach > grid.energy_lo_kev) & (e0 - reach < grid.energy_hi_kev)


def _line_bound(cfg, grid, sub_kev, ridge):
    """Upper bound on sum |W_ridge - W_exact| dE dtheta_x, from the error
    terms ``biphoton_amplitude`` states plus the reference's own.  Each
    (theta_x, theta_y) point's line carries d_theta_y d_theta_x pi / s per
    unit kappa_L^2; as shares of that, the ridge may drop the tail beyond
    |x| = X, at most 1 / (pi X), and misplace c (ln 2X + 1 + N) / (pi s^2) by the
    linearisation, with N <= 2X / (s dE) + 3 cell and window edges in its
    band; the reference's secant across a sub-cell of width ``sub_kev``
    misstates the slope, and so the mass, by at most c * sub_kev / s.  s
    and c = max |x''| (at E0 and the band ends) are central differences at
    the ridge's zeros, and every theta_y row counts, the mirrored ones
    included.  Where a line's band misses the window the exact W holds at
    most its tail.  ``ridge`` is ``_bisected_ridge``'s, every zero in
    0 < E < E_pump."""
    kin = _Kinematics(cfg)
    e0, _slope, column, row, _key = ridge
    tx = grid.theta_x_centers()[column]
    ty = grid.theta_y_centers()[grid.n_y // 2 :][row]
    h = 1e-3

    def x(e):
        return kin.half_phase(e, tx, ty)

    s = np.abs(x(e0 + h) - x(e0 - h)) / (2 * h)
    X = spdc.LINE_HALF_WIDTH
    reach = X / s
    c = np.max([np.abs(x(e + h) - 2 * x(e) + x(e - h)) / h**2
                for e in (e0 - reach, e0, e0 + reach)], axis=0)
    n_edges = 2 * X / (s * grid.d_energy) + 3
    share = (1 / (math.pi * X) + c * (math.log(2 * X) + 1 + n_edges) / (math.pi * s**2)
             + c * sub_kev / s)
    mult = np.where((grid.n_y % 2 == 1) & (row == 0), 1.0, 2.0)
    mass = grid.d_theta_y * grid.d_theta_x * math.pi / s
    return float(np.sum(mult * mass * share))


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(8.6, 11.9),
    width=st.floats(0.02, 2.0),
    n_energy=st.integers(5, 300),
    n_x=st.integers(1, 12),
    n_y=st.integers(1, 9),
)
# Windows whose edges cut the lowest lines (E0 from 8.714 keV) within
# their 68 eV bands, and one that holds no line at all.
@example(lo=8.75, width=0.5, n_energy=300, n_x=12, n_y=9)
@example(lo=8.6, width=0.13, n_energy=100, n_x=12, n_y=4)
@example(lo=11.9, width=0.5, n_energy=50, n_x=5, n_y=3)
def test_pair_intensity_kernel_matches_3d_reference(lo, width, n_energy, n_x, n_y):
    # The reference integrates sinc^2 of the exact mismatch across every
    # (energy, theta_x, theta_y) cell of the window, in sub-cells of at
    # most 0.25 eV; the ridge deposits each line from its zero.  They
    # differ by at most the dropped tails, the linearisation and the
    # reference's secants (_line_bound).
    cfg = SpdcConfig()
    grid = GridSpec(lo, lo + width, n_energy, 5.0e-3, n_x, n_y)
    raw = biphoton_amplitude(cfg, grid, normalize=False)
    average, sub_kev = _exact_cell_average(cfg, grid, 2.5e-4)
    expected = average * grid.d_theta_y

    # The ridge solve keeps every zero whose line band meets the window.
    kin = _Kinematics(cfg)
    reference = _bisected_ridge(kin, grid)
    e0, slope, _column, _row, key = reference
    solved_e0, _slope, solved_column, solved_row = spdc._ridge(kin, grid)
    solved_key = _ridge_key(kin, grid, solved_e0, solved_column, solved_row)
    assert np.isin(key[_band_meets_window(grid, e0, slope)], solved_key).all()
    bound = _line_bound(cfg, grid, sub_kev, reference)
    assert raw.weights.shape == (n_energy, n_x)
    assert np.all(raw.weights >= 0)
    error = np.abs(raw.weights - expected).sum() * raw.cell_area
    assert error <= bound
    if raw.total() > 0:
        normalized = biphoton_amplitude(cfg, grid)
        assert np.all(normalized.weights >= 0)
        assert normalized.total() == pytest.approx(1.0, rel=1e-12)


@pytest.fixture(scope="module")
def reference_ridge(default_config):
    """The ridge of the bundled profile on its reference grid, with the
    angles of each zero."""
    grid = default_config.grid
    kin = _Kinematics(default_config.spdc)
    e0, slope, column, row = spdc._ridge(kin, grid)
    tx = grid.theta_x_centers()[column]
    ty = grid.theta_y_centers()[grid.n_y // 2 :][row]
    return grid, kin, e0, slope, column, row, tx, ty


def test_reference_grid_has_one_ridge_zero_per_point_in_the_window(reference_ridge):
    grid, _kin, e0, _slope, column, row, _tx, _ty = reference_ridge
    assert e0.size == grid.n_x * grid.n_y // 2 == 3200
    assert np.unique(row * grid.n_x + column).size == e0.size
    assert np.all((e0 > grid.energy_lo_kev) & (e0 < grid.energy_hi_kev))


def test_ridge_zeros_and_slopes(reference_ridge):
    _grid, kin, e0, slope, _column, _row, tx, ty = reference_ridge
    # The Newton steps stop where rounding of dk_z L / 2, a difference of
    # terms near 1e7, leaves x at 1.8e-7; adjacent energies move it by only
    # s * 2e-15 keV = 3e-11.
    assert np.max(np.abs(kin.half_phase(e0, tx, ty))) < 1e-6
    h = 1e-4
    central = (kin.half_phase(e0 + h, tx, ty) - kin.half_phase(e0 - h, tx, ty)) / (2 * h)
    np.testing.assert_allclose(slope, np.abs(central), rtol=1e-6)
    assert 1.5e4 < slope.min() and slope.max() < 1.7e4


# Windows with an even and an odd n_y; one whose lower edge cuts the
# lowest lines (E0 from 8.714 keV) within their 68 eV bands; one narrower
# than a node spacing and one between two adjacent nodes (10.17 and 10.5
# keV); one above the ridge, where the margin widens to every node; and
# the n_x = 2985 grid of ``sweep --width-scale 0.01``.
RIDGE_GRIDS = {
    "even_n_y": SMALL_GRID,
    "odd_n_y": GridSpec(9.0, 11.0, 100, 5.0e-3, 25, 7),
    "edge_cuts_band": GridSpec(8.75, 9.25, 300, 5.0e-3, 12, 9),
    "narrow": GridSpec(10.0, 10.05, 50, 5.0e-3, 30, 4),
    "between_nodes": GridSpec(10.2, 10.45, 50, 5.0e-3, 30, 5),
    "above_ridge": GridSpec(13.0, 13.5, 50, 5.0e-3, 20, 3),
    "sweep_x0.01": replace(GridSpec(), n_x=2985),
}


@pytest.mark.parametrize("grid", RIDGE_GRIDS.values(), ids=RIDGE_GRIDS.keys())
def test_ridge_solve_matches_bisection(grid):
    kin = _Kinematics(SpdcConfig())
    ref_e0, ref_slope, _column, _row, ref_key = _bisected_ridge(kin, grid)
    e0, slope, column, row = spdc._ridge(kin, grid)
    key = _ridge_key(kin, grid, e0, column, row)
    # The same zeros in the same order: a subsequence of the reference's.
    assert np.all(np.diff(ref_key) > 0) and np.all(np.diff(key) > 0)
    at = np.minimum(np.searchsorted(ref_key, key), ref_key.size - 1)
    assert np.array_equal(ref_key[at], key)
    np.testing.assert_allclose(e0, ref_e0[at], rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(slope, ref_slope[at], rtol=1e-9)
    # Every zero whose line band meets the window is among them.
    meets = _band_meets_window(grid, ref_e0, ref_slope)
    assert meets.any() == (grid is not RIDGE_GRIDS["above_ridge"])
    assert np.isin(ref_key[meets], key).all()


def test_ridge_margin_widens_to_every_line_band(monkeypatch):
    # Bands of LINE_HALF_WIDTH / s = 0.95 keV exceed the first margin of
    # two node spacings (0.66 keV), so the solve widens it until they fit.
    monkeypatch.setattr(spdc, "LINE_HALF_WIDTH", 1.5e4)
    kin, grid = _Kinematics(SpdcConfig()), GridSpec(10.4, 10.6, 50, 5.0e-3, 20, 4)
    ref_e0, ref_slope, _column, _row, ref_key = _bisected_ridge(kin, grid)
    e0, slope, column, row = spdc._ridge(kin, grid)
    assert np.all(spdc.LINE_HALF_WIDTH / slope > 2 * kin.pump_kev / 64)
    meets = _band_meets_window(grid, ref_e0, ref_slope)
    assert not meets.all()
    assert np.isin(ref_key[meets], _ridge_key(kin, grid, e0, column, row)).all()


def test_sweep_grid_ridge_peak_memory(default_config):
    # The ridge evaluates only the nodes near the window, one theta_y row
    # at a time: 12.8 MiB of tracemalloc peak on the n_x = 2985 grid of
    # ``sweep --width-scale 0.01``.  Bracketing every node in
    # 0 < E < E_pump takes 15.9 MiB, and one (row, node, column) array
    # about 60 MiB.
    grid = sweep_grid(default_config.grid, 0.01 * default_config.splitter.width_deg)
    assert grid.n_x == 2985
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        spdc.pair_ridge(default_config.spdc, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_line_carries_pi_over_slope_less_the_dropped_tail():
    X = spdc.LINE_HALF_WIDTH
    tail = 1.0 - 2.0 * float(spdc._sinc2_antiderivative(X)) / math.pi
    assert (X / math.pi) == round(X / math.pi)
    assert 0.0 < tail < 1.0 / (math.pi * X) < 3e-4
    # One theta_y row (counted once) and a window holding every band whole:
    # each theta_x column carries its one line's mass.
    cfg, grid = SpdcConfig(), GridSpec(8.5, 12.5, 700, 5.0e-3, 9, 1)
    e0, slope, column, _row = spdc._ridge(_Kinematics(cfg), grid)
    assert np.array_equal(np.sort(column), np.arange(grid.n_x))
    assert np.all((e0 - X / slope > 8.5) & (e0 + X / slope < 12.5))
    w = biphoton_amplitude(cfg, grid, normalize=False).weights
    want = grid.d_theta_y * math.pi / slope[np.argsort(column)] * (1.0 - tail)
    np.testing.assert_allclose(w.sum(axis=0) * grid.d_energy, want, rtol=1e-12)


def test_point_without_a_root_in_the_window_carries_no_weight():
    # On a 20 mrad span the ridge runs from about 5.3 to 17.5 keV, so a
    # 9-11 keV window leaves theta_x columns all of whose lines miss it.
    cfg, grid = SpdcConfig(), GridSpec(9.0, 11.0, 200, 2.0e-2, 41, 6)
    e0, slope, column, _row = spdc._ridge(_Kinematics(cfg), grid)
    reach = spdc.LINE_HALF_WIDTH / slope
    meets = (e0 + reach > grid.energy_lo_kev) & (e0 - reach < grid.energy_hi_kev)
    lit = np.zeros(grid.n_x, dtype=bool)
    lit[column[meets]] = True
    assert lit.any() and not lit.all()
    w = biphoton_amplitude(cfg, grid, normalize=False).weights
    assert np.array_equal(w.any(axis=0), lit)


@pytest.mark.parametrize("edges_per_pass", [1, 500, 1 << 19])
def test_kernel_is_identical_for_every_pass_size(monkeypatch, amp_small, edges_per_pass):
    # The passes add the lines in the same order, so W is the same bit for
    # bit (1 edge gives one line per pass).
    monkeypatch.setattr(spdc, "_EDGES_PER_PASS", edges_per_pass)
    w = biphoton_amplitude(SpdcConfig(), SMALL_GRID).weights
    assert w.tobytes() == amp_small.weights.tobytes()


def test_reference_grid_kernel_peak_memory():
    # Deterministic bound on the kernel's temporaries: tracemalloc counts
    # numpy's buffers, so the ridge's line-by-cell temporaries must keep the
    # peak far below the hundreds of MB a whole-grid evaluation would take.
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        biphoton_amplitude(SpdcConfig(), GridSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_reference_grid_weights_are_2d(default_config, amp_default):
    grid = default_config.grid
    assert amp_default.weights.dtype == np.float64
    assert amp_default.weights.nbytes == grid.n_energy * grid.n_x * 8


def test_sweep_rejects_out_of_range_angle_before_building_splitters(
    default_config, amp_small, tables
):
    # Retuning the splitter divides by sin(theta_B), so theta_B = 0 must be
    # rejected before any angle's splitter is built.
    for angles in ([0.0, 5.0, 10.0], [10.0, 90.0], [-5.0]):
        with pytest.raises(ValueError, match="0, 90"):
            bragg_angle_sweep(amp_small.ridge, default_config.splitter, angles,
                              air=tables["air"], air_path_cm=10.0)


def test_ridge_keeps_the_zeros_in_the_window_with_their_line_weights(default_config):
    cfg = default_config.spdc
    # The 9.5-11.5 keV window leaves out some zeros of the 8.7-11.8 keV ridge.
    kin = _Kinematics(cfg)
    e0, slope, column, row = spdc._ridge(kin, SMALL_GRID)
    inside = (e0 >= SMALL_GRID.energy_lo_kev) & (e0 <= SMALL_GRID.energy_hi_kev)
    assert inside.any() and not inside.all()
    ridge = biphoton_amplitude(cfg, SMALL_GRID).ridge
    assert np.array_equal(ridge.energies, e0[inside])
    assert np.array_equal(ridge.theta_x, SMALL_GRID.theta_x_centers()[column[inside]])
    # pair_ridge solves the same ridge without depositing W.
    alone = spdc.pair_ridge(cfg, SMALL_GRID)
    for name in ("energies", "theta_x", "weights"):
        assert np.array_equal(getattr(alone, name), getattr(ridge, name))
    # A window holding every line's band whole, with an odd n_y: W carries
    # each line's weight less the tail it drops, the same share for every
    # line, and the theta_y = 0 row counts once.
    grid = GridSpec(8.5, 12.5, 700, 5.0e-3, 9, 3)
    raw = biphoton_amplitude(cfg, grid, normalize=False)
    e0, slope, column, row = spdc._ridge(kin, grid)
    mirror = np.where(row == 0, 1.0, 2.0)
    want = math.pi * grid.d_theta_y * grid.d_theta_x * mirror / slope
    np.testing.assert_allclose(raw.ridge.weights, want, rtol=1e-15)
    tail = 1.0 - 2.0 * float(spdc._sinc2_antiderivative(spdc.LINE_HALF_WIDTH)) / math.pi
    assert raw.total() == pytest.approx(raw.ridge.weights.sum() * (1.0 - tail), rel=1e-12)


def _retuned_spec(base, t):
    """``base`` on planes spaced so the nominal energy reflects at ``t`` degrees."""
    d = wavelength(base.nominal_energy_kev) / (2.0 * math.sin(math.radians(t)))
    spec = replace(base, lattice=LatticeSpec(float(d)))
    assert spec.nominal_bragg_deg() == pytest.approx(t, rel=1e-12)
    return spec


def _rocking(spec, energy, dtheta_deg):
    """R as the square of the amplitude sqrt(A) * exp(-arg^2 / (2 b^2))."""
    arg = dtheta_deg + spec.nominal_bragg_deg() - bragg_angle(energy, spec.lattice)
    return (math.sqrt(spec.peak_reflectivity) * np.exp(-0.5 * (arg / spec.width_deg) ** 2)) ** 2


def _ridge_sweep(ridge, base, angles, air=None, air_path_cm=10.0):
    """The sweep as one sum per angle over the ridge's zeros,
    sum(w * R(E0, theta_x)) / sum(w), through ``air`` when given."""
    w = ridge.weights
    if air is not None:
        w = w * transmittance(ridge.energies, air, air_path_cm)
    dtheta = np.degrees(ridge.theta_x)
    return np.array([
        float(np.sum(w * _rocking(_retuned_spec(base, t), ridge.energies, dtheta)))
        / ridge.weights.sum()
        for t in angles
    ])


@pytest.mark.parametrize("width_scale", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("with_air", [False, True])
def test_sweep_fold_matches_ridge_reference(
    default_config, amp_small, tables, width_scale, with_air
):
    spec = replace(default_config.splitter,
                   width_deg=default_config.splitter.width_deg * width_scale)
    angles = [5.0, 9.0, spec.nominal_bragg_deg(), 10.5, 20.0, 45.0]
    # A 0 cm air path multiplies each weight by exp(-0) = 1 and matches the
    # reference without air.
    path_cm = 10.0 if with_air else 0.0
    ridge = amp_small.ridge
    got = bragg_angle_sweep(ridge, spec, angles, air=tables["air"], air_path_cm=path_cm)
    assert [t for t, _ in got] == angles
    rates = np.array([r for _, r in got])
    want = _ridge_sweep(ridge, spec, angles, air=tables["air"] if with_air else None)
    assert np.all(want > 0)
    np.testing.assert_allclose(rates, want, rtol=1e-12, atol=0.0)
    # splitter.reflectivity is the same square, computed directly.
    dtheta = np.degrees(ridge.theta_x)
    np.testing.assert_allclose(reflectivity(spec, ridge.energies, dtheta),
                               _rocking(spec, ridge.energies, dtheta), rtol=1e-12, atol=1e-300)


@pytest.mark.filterwarnings("error")
def test_sweep_counts_no_reflection_beyond_the_retuned_cutoff(default_config, tables):
    # A family retuned so 10.5 keV reflects at 45 deg reflects nothing below
    # 10.5 / sqrt(2) = 7.42 keV, where lambda exceeds 2d: a zero at 7 keV
    # adds weight to the total and no rate, without an arcsin of s > 1.
    spec = default_config.splitter
    ridge = spdc.Ridge(np.array([7.0, 10.5]), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="no Bragg reflection"):
        bragg_angle(7.0, _retuned_spec(spec, 45.0).lattice)
    got = dict(bragg_angle_sweep(ridge, spec, [10.0, 45.0], air=tables["air"], air_path_cm=0.0))
    assert got[45.0] == pytest.approx(spec.peak_reflectivity / 2.0, rel=1e-12)
    assert got[10.0] == pytest.approx(float(np.sum(_rocking(_retuned_spec(spec, 10.0),
                                                            ridge.energies, 0.0))) / 2.0,
                                      rel=1e-12)


def _full_grid_sweep(intensity, base, angles, air, air_path_cm):
    """The sweep folded over the 2-D W, (W * T_air * R).sum() / W.sum(),
    with the splitter and the air evaluated at the energy cell centres."""
    w = intensity.weights
    e = intensity.energies[:, None]
    dtheta = np.degrees(intensity.theta_x)[None, :]
    w_air = w * transmittance(e, air, air_path_cm)
    return np.array([float((w_air * _rocking(_retuned_spec(base, t), e, dtheta)).sum() / w.sum())
                     for t in angles])


def _binning_moments(cfg, grid):
    """For each line k of the ridge on ``grid``, whose window holds every
    line's band whole: its zero E0_k, the theta_x of its column in degrees,
    and the first and second moments D1_k, D2_k of its deposits about E0_k
    at the energy cell centres, each divided by the total deposited mass."""
    e0, slope, column, row = spdc._ridge(_Kinematics(cfg.spdc), grid)
    assert np.all((e0 >= grid.energy_lo_kev) & (e0 <= grid.energy_hi_kev))
    lines = np.zeros((grid.n_energy, e0.size))  # one column per line
    spdc._deposit_lines(lines, grid.energy_edges(), e0, slope, np.arange(e0.size),
                        spdc._mirror_weight(grid, row))
    offset = grid.energy_centers()[:, None] - e0
    d1 = (lines * offset).sum(axis=0) / lines.sum()
    d2 = (lines * offset**2).sum(axis=0) / lines.sum()
    return e0, np.degrees(grid.theta_x_centers()[column]), d1, d2


def _binning_terms(f, e0, d1, d2, h=1e-4):
    """(sum_k f'(E0_k) D1_k, (1/2) sum_k |f''(E0_k)| D2_k) by central
    differences, ``f`` taking the energies of every line at once."""
    lo, mid, hi = f(e0 - h), f(e0), f(e0 + h)
    return np.sum((hi - lo) / (2 * h) * d1), 0.5 * np.sum(np.abs(hi - 2 * mid + lo) / h**2 * d2)


def test_sweep_fold_matches_the_w_fold_up_to_energy_binning(default_config, tables):
    # W holds each ridge line k as masses m_ki in the energy cells i around
    # its zero E0_k, and the W fold evaluates f = R * T_air at the cell
    # centres E_i where the ridge fold takes E0_k.  So, with
    # M = sum_ki m_ki, the W fold less the ridge fold is
    # sum_ki m_ki (f(E_i) - f(E0_k)) / M.  To first order that is
    # sum_k f'(E0_k) D1_k / M, D1_k = sum_i m_ki (E_i - E0_k), which the
    # deposits give; what remains is about (1/2) sum_k |f''(E0_k)| D2_k / M,
    # D2_k = sum_i m_ki (E_i - E0_k)^2.  Both sides normalise by their total
    # line weight, which differ by the dropped tail, the same share for
    # every line.  At the bundled width on the golden's reduced grid that
    # bounds the gap by 1.5e-3 of the rate at every angle; the two folds
    # differ by up to 1.9e-4 there, and by 2.7e-5 on the reference grid.
    cfg = default_config
    grid = replace(cfg.grid, n_energy=400, n_x=60, n_y=12)
    intensity = biphoton_amplitude(cfg.spdc, grid)
    air, path_cm = tables["air"], cfg.source.air_path_cm
    angles = np.linspace(5.0, 45.0, 81)
    got = np.array([r for _, r in bragg_angle_sweep(intensity.ridge, cfg.splitter, angles,
                                                     air=air, air_path_cm=path_cm)])
    diff = _full_grid_sweep(intensity, cfg.splitter, angles, air, path_cm) - got

    e0, dtheta, d1, d2 = _binning_moments(cfg, grid)
    for t, rate, gap in zip(angles, got, diff):
        spec = _retuned_spec(cfg.splitter, t)
        first, second = _binning_terms(
            lambda e: _rocking(spec, e, dtheta) * transmittance(e, air, path_cm), e0, d1, d2)
        assert abs(gap - first) <= second
        assert abs(first) + second < 1.5e-3 * rate


@pytest.mark.parametrize("shape", [(400, 60, 12), (300, 40, 8), (150, 61, 5)])
def test_ridge_rates_match_the_w_rates_up_to_energy_binning(default_config, tables, shape):
    # The rate fractions fold R and T at the ridge zeros; the energy
    # integrals of the port spectra fold them over W at the cell centres.
    # As for the sweep, the W rate less the ridge rate is the first-order
    # term sum_k f'(E0_k) D1_k / M up to (1/2) sum_k |f''(E0_k)| D2_k / M,
    # with f = R or T at each line's theta_x.  On these grids, whose window
    # holds every line's band whole, the two differ by 1.5e-5 to 7.1e-4
    # (4.6e-3 of the rate, on the 150-cell energy grid), and by 1e-6 on the
    # reference grid.
    cfg = default_config
    n_energy, n_x, n_y = shape
    grid = replace(cfg.grid, n_energy=n_energy, n_x=n_x, n_y=n_y)
    intensity = biphoton_amplitude(cfg.spdc, grid)
    graphite = tables["graphite"]
    got = spdc.port_rates(intensity.ridge, cfg.splitter, graphite)
    want = port_rate_quadrature(intensity, cfg.splitter, graphite)
    e0, dtheta, d1, d2 = _binning_moments(cfg, grid)
    for port, (rate, w_rate) in enumerate(zip(got, want)):
        first, second = _binning_terms(
            lambda e: response(cfg.splitter, e, dtheta, graphite)[port], e0, d1, d2)
        assert abs(w_rate - rate - first) <= second
        assert abs(first) + second < 1e-3


def test_sweep_grid_resolves_the_rocking_width(default_config):
    grid, width = default_config.grid, default_config.splitter.width_deg
    # The reference grid (268 cells per width) and the reduced test grid
    # (100) are fine enough already and come back unchanged.
    assert sweep_grid(grid, width) is grid
    reduced = replace(grid, n_energy=400, n_x=60, n_y=12)
    assert sweep_grid(reduced, width) is reduced
    for scale in (0.1, 0.01):
        refined = sweep_grid(grid, width * scale)
        n_x = math.ceil(grid.angle_span_rad * spdc.CELLS_PER_ROCKING_WIDTH
                        / math.radians(width * scale))
        assert refined == replace(grid, n_x=n_x)
        assert math.radians(width * scale) / refined.d_theta_x >= spdc.CELLS_PER_ROCKING_WIDTH
    assert sweep_grid(grid, width * 0.1).n_x == 299


@pytest.mark.parametrize("width_scale", [1.0, 0.1, 0.01])
def test_sweep_converges_under_theta_x_refinement(default_config, amp_default, tables, width_scale):
    # The sweep on the rule's grid moves by less than 1e-3 at every one of
    # the 81 angles of ``xbsim model`` and at the nominal angle (where
    # criterion 04 reads it) when theta_x is refined 2x, on the full
    # production window and theta_y resolution.  The ridge is solved alone,
    # without W, as ``xbsim sweep`` does.
    cfg = default_config
    spec = replace(cfg.splitter, width_deg=cfg.splitter.width_deg * width_scale)
    angles = [spec.nominal_bragg_deg()] + np.linspace(5.0, 45.0, 81).tolist()
    grid = sweep_grid(cfg.grid, spec.width_deg)
    coarse = amp_default.ridge if grid is cfg.grid else spdc.pair_ridge(cfg.spdc, grid)
    fine = spdc.pair_ridge(cfg.spdc, replace(grid, n_x=2 * grid.n_x))
    rates = [
        np.array([r for _, r in bragg_angle_sweep(ridge, spec, angles, air=tables["air"],
                                                  air_path_cm=cfg.source.air_path_cm)])
        for ridge in (coarse, fine)
    ]
    np.testing.assert_allclose(rates[0], rates[1], rtol=1e-3, atol=0.0)


def test_amplitude_matches_direct_integration_on_fine_grid(default_config):
    """Criterion 09's check on a finer grid, where its mask keeps enough cells
    for ~300 evenly spaced ones."""
    cfg = default_config.spdc
    grid = GridSpec(9.5, 11.5, 1200, 5.0e-3, 160, 8)
    kin = _Kinematics(cfg)
    e = grid.energy_centers()[:, None, None]
    tx = grid.theta_x_centers()[None, :, None]
    ty = grid.theta_y_centers()[None, None, :]
    amplitude = spdc.amplitude_at(cfg, e, tx, ty)
    x = kin.half_phase(e, tx, ty)
    mask = np.isfinite(x) & (np.abs(amplitude) > 0.05)
    assert mask.sum() == 810
    pick = np.unique(np.linspace(0, mask.sum() - 1, 300).round().astype(int))
    x_sel = x[mask][pick]
    a_sel = amplitude[mask][pick]

    # Fourth-order integration of dB/du = i * exp(2 i x u), u in [0, 1]: the
    # amplitude per unit kappa_L (the equation is linear in kappa_L).
    n_steps = 4000
    h = 1.0 / n_steps
    b = np.zeros_like(x_sel, dtype=complex)

    def f(u):
        return 1j * np.exp(2j * x_sel * u)

    for i in range(n_steps):
        u = i * h
        b += (h / 6.0) * (f(u) + 4.0 * f(u + 0.5 * h) + f(u + h))

    assert len(x_sel) == 300
    assert np.max(np.abs(b - 1j * a_sel) / np.abs(a_sel)) < 1e-3
