"""Unit tests for the pair ridge, grid handling, port spectra and sweep."""

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
    bragg_angle_sweep,
    pair_ridge,
    port_energy_spectra,
    port_rates,
    sinc,
    sweep_grid,
    _Kinematics,
)
from artifact.splitter import reflectivity, response
from artifact.xoptics import (
    HC_KEV_ANGSTROM,
    LatticeSpec,
    bragg_angle,
    transmittance,
    wavelength,
    wavenumber,
)

SMALL_GRID = GridSpec(9.5, 11.5, 200, 5.0e-3, 40, 10)


@pytest.fixture(scope="module")
def ridge_small():
    return pair_ridge(SpdcConfig(), SMALL_GRID)


def _tail():
    """The share of a sinc^2 line beyond |x| = LINE_HALF_WIDTH."""
    return 1.0 - 2.0 * float(spdc._sinc2_antiderivative(spdc.LINE_HALF_WIDTH)) / math.pi


def _unit_spectrum(ridge, grid):
    """The mass of the ridge's lines in each energy cell of ``grid`` under a
    unit response (R = 1 at every zero), before normalization."""
    return spdc._deposit_lines(grid.energy_edges(), ridge.energies, ridge.slopes,
                               ridge.weights[:, None])[0]


def _whole_bands(ridge, grid):
    """Whether the window holds each line's band, E0 +- LINE_HALF_WIDTH / s, whole."""
    reach = spdc.LINE_HALF_WIDTH / ridge.slopes
    return (ridge.energies - reach > grid.energy_lo_kev) & (ridge.energies + reach < grid.energy_hi_kev)


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


def test_amplitude_normalization(ridge_small, default_config, tables):
    # The spectra are normalized by the ridge's total weight: scaling every
    # weight by a power of two leaves them the same bit for bit, and a
    # window without a zero has nothing to normalize by.
    args = (SMALL_GRID, default_config.splitter, tables["graphite"])
    want = port_energy_spectra(ridge_small, *args)
    scaled = replace(ridge_small, weights=ridge_small.weights * 8.0)
    for got, expected in zip(port_energy_spectra(scaled, *args), want):
        assert np.array_equal(got, expected)
    empty = pair_ridge(SpdcConfig(), GridSpec(13.0, 13.5, 50, 5.0e-3, 20, 3))
    assert empty.energies.size == 0
    with pytest.raises(spdc.EmptyWindowError):
        port_energy_spectra(empty, *args)


def test_unnormalized_amplitude_scale(ridge_small):
    # Per unit kappa_L^2 the line of a (theta_x, theta_y) point of area
    # a = d_theta_x d_theta_y (doubled for a mirrored row) averages at most
    # 1 across an energy cell (sinc^2 <= 1), and puts at most its whole
    # mass a pi / s in it.  So each cell holds at most the sum of
    # a min(dE, pi / s) over the lines whose band covers it.
    grid, ridge = SMALL_GRID, ridge_small
    mass = _unit_spectrum(ridge, grid)
    edges = grid.energy_edges()
    reach = (spdc.LINE_HALF_WIDTH / ridge.slopes)[:, None]
    covers = ((ridge.energies[:, None] + reach > edges[:-1])
              & (ridge.energies[:, None] - reach < edges[1:]))
    area = ridge.weights * ridge.slopes / math.pi
    bound = (area * np.minimum(grid.d_energy, math.pi / ridge.slopes)) @ covers
    assert np.all(mass <= bound * (1 + 1e-12))


def test_energy_marginal_integrates_to_total(ridge_small):
    # Each line's cells telescope to its share within the window and the
    # band, F(x_hi) - F(x_lo) over pi with x = s (E - E0) at the window
    # edges clipped to +-LINE_HALF_WIDTH, even where an edge cuts the band.
    mass = _unit_spectrum(ridge_small, SMALL_GRID)
    assert np.all(mass >= 0)
    X = spdc.LINE_HALF_WIDTH
    window = np.array([SMALL_GRID.energy_lo_kev, SMALL_GRID.energy_hi_kev])
    x = np.clip(ridge_small.slopes[:, None] * (window - ridge_small.energies[:, None]), -X, X)
    share = np.diff(spdc._sinc2_antiderivative(x), axis=1)[:, 0] / math.pi
    want = float(ridge_small.weights @ share)
    assert mass.sum() == pytest.approx(want, rel=1e-12)
    # The window cuts some bands, so less than every whole line is left.
    assert not _whole_bands(ridge_small, SMALL_GRID).all()
    assert want < ridge_small.total() * (1.0 - _tail())


# Windows that hold every line's band whole.
WHOLE_BAND_GRIDS = [
    GridSpec(8.5, 12.5, 700, 5.0e-3, 9, 3),
    GridSpec(8.5, 12.5, 300, 5.0e-3, 40, 8),
    GridSpec(8.5, 12.5, 150, 4.0e-3, 61, 5),
]


@pytest.mark.parametrize("grid", WHOLE_BAND_GRIDS)
def test_port_spectra_integrate_to_the_rate_quadrature(default_config, tables, grid):
    # Each port density integrates over energy to that port's rate fraction
    # (``port_rates``, the quadrature of R or T over the ridge zeros) times
    # the share of a line within |x| <= LINE_HALF_WIDTH.
    ridge = pair_ridge(default_config.spdc, grid)
    assert _whole_bands(ridge, grid).all()
    spec = replace(default_config.splitter, mount_offset_deg=0.05)
    energies, refl, trans = port_energy_spectra(ridge, grid, spec, tables["graphite"])
    assert np.array_equal(energies, grid.energy_centers())
    want = np.array(port_rates(ridge, spec, tables["graphite"])) * (1.0 - _tail())
    got = (refl.sum() * grid.d_energy, trans.sum() * grid.d_energy)
    assert np.all((0.0 < want) & (want < 1.0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_cell_average_preserves_total_under_refinement():
    # Integrating each ridge line across the cells makes the spectra stable
    # under energy refinement even though the line is far narrower than a
    # cell: a grid three times finer holds the same mass, and its cells
    # summed in threes give the coarse cells.
    cfg = SpdcConfig()
    coarse_grid = GridSpec(9.5, 11.5, 300, 5.0e-3, 60, 10)
    fine_grid = replace(coarse_grid, n_energy=900)
    ridge = pair_ridge(cfg, coarse_grid)
    assert np.array_equal(pair_ridge(cfg, fine_grid).energies, ridge.energies)
    coarse, fine = _unit_spectrum(ridge, coarse_grid), _unit_spectrum(ridge, fine_grid)
    assert fine.sum() == pytest.approx(coarse.sum(), rel=1e-12)
    np.testing.assert_allclose(fine.reshape(-1, 3).sum(axis=1), coarse,
                               rtol=0.0, atol=1e-12 * coarse.max())


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
def test_kernel_evaluates_the_non_negative_theta_y_half(n_y):
    # The ridge is solved on the non-negative theta_y rows only: its row
    # indices run over theta_y_centers()[n_y // 2:], each row holds at most
    # one zero per theta_x column, and the mismatch vanishes there.
    grid = GridSpec(8.5, 12.5, 30, 5.0e-3, 7, n_y)
    kin = _Kinematics(SpdcConfig())
    e0, _slope, column, row = spdc._ridge(kin, grid)
    rows = grid.theta_y_centers()[n_y // 2 :]
    assert rows.size == math.ceil(n_y / 2) and np.all(rows > -1e-15)
    assert np.array_equal(np.unique(row), np.arange(rows.size))
    assert np.unique(row * grid.n_x + column).size == e0.size <= grid.n_x * rows.size
    assert np.all(np.abs(kin.half_phase(e0, grid.theta_x_centers()[column], rows[row])) < 1e-5)


def _half_phase_slope(kin, energy_kev, theta_x, theta_y):
    """Reference d(half_phase)/dE in 1/keV, where the partner propagates.

    The heralded wave vector scales with E at fixed angles, so
    d(kz_h)/dE = kz_h / E; the partner's k_t falls with E while its
    transverse momentum s_total - s_h falls and q_y rises.
    """
    dk = 2.0 * math.pi / HC_KEV_ANGSTROM  # dk/dE
    k_h = wavenumber(energy_kev)
    k_t = wavenumber(kin.pump_kev - energy_kev)
    sin_h = np.sin(kin.theta_h0 + theta_x)
    sin_y = np.sin(theta_y)
    s_t = kin.s_total - k_h * sin_h
    q_y = k_h * sin_y
    kz_h = k_h * np.sqrt(1.0 - sin_h**2 - sin_y**2)
    kz_t = np.sqrt(k_t**2 - s_t**2 - q_y**2)
    dkz_t = dk * (s_t * sin_h - k_t - q_y * sin_y) / kz_t
    return -(kz_h / energy_kev + dkz_t) * kin.half_length


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
    of ``key`` (``_ridge_key``): row, then column."""
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
    slope = np.abs(_half_phase_slope(kin, mid, theta_x, theta_y))
    key = _ridge_key(grid, column, row)
    order = np.argsort(key, kind="stable")
    return mid[order], slope[order], column[order], row[order], key[order]


def _ridge_key(grid, column, row):
    """(row, column) of each zero as one integer."""
    return row * grid.n_x + column


def _in_window(grid, e0):
    return (e0 >= grid.energy_lo_kev) & (e0 <= grid.energy_hi_kev)


def _line_bound(cfg, grid, sub_kev, ridge):
    """Upper bound on the summed |kernel - exact| mass of the (energy,
    theta_x) cells, from the error terms ``port_energy_spectra`` states
    plus the reference's own.  Each
    (theta_x, theta_y) point's line carries d_theta_y d_theta_x pi / s per
    unit kappa_L^2; as shares of that, the ridge may drop the tail beyond
    |x| = X, at most 1 / (pi X), and misplace c (ln 2X + 1 + N) / (pi s^2) by the
    linearisation, with N <= 2X / (s dE) + 3 cell and window edges in its
    band; the reference's secant across a sub-cell of width ``sub_kev``
    misstates the slope, and so the mass, by at most c * sub_kev / s.  s
    and c = max |x''| (at E0 and the band ends) are central differences at
    the ridge's zeros, and every theta_y row counts, the mirrored ones
    included.  Where a line's band misses the window the exact intensity
    holds at most its tail.  ``ridge`` is ``_bisected_ridge``'s, every zero
    in 0 < E < E_pump."""
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
    # most 0.25 eV, and sums over the angles; the kernel spreads the line
    # of each zero in the window from that zero, here under a unit
    # response.  They differ by at most the dropped tails, the
    # linearisation and the reference's secants (_line_bound), plus the
    # mass in the window of the lines whose zeros lie outside it, which the
    # kernel leaves out.
    cfg = SpdcConfig()
    grid = GridSpec(lo, lo + width, n_energy, 5.0e-3, n_x, n_y)
    mass = _unit_spectrum(pair_ridge(cfg, grid), grid)
    average, sub_kev = _exact_cell_average(cfg, grid, 2.5e-4)
    expected = average.sum(axis=1) * grid.d_theta_y * grid.d_theta_x * grid.d_energy

    # The ridge solve keeps every zero in the window.
    kin = _Kinematics(cfg)
    reference = _bisected_ridge(kin, grid)
    e0, slope, _column, row, key = reference
    inside = _in_window(grid, e0)
    solved_e0, _slope, solved_column, solved_row = spdc._ridge(kin, grid)
    assert np.array_equal(_ridge_key(grid, solved_column, solved_row), key[inside])

    X = spdc.LINE_HALF_WIDTH
    window = np.array([grid.energy_lo_kev, grid.energy_hi_kev])
    x = np.clip(slope[:, None] * (window - e0[:, None]), -X, X)
    share = np.diff(spdc._sinc2_antiderivative(x), axis=1)[:, 0] / math.pi
    mult = np.where((grid.n_y % 2 == 1) & (row == 0), 1.0, 2.0)
    left_out = np.sum((mult * grid.d_theta_y * grid.d_theta_x * math.pi / slope * share)[~inside])
    bound = _line_bound(cfg, grid, sub_kev, reference) + left_out
    assert mass.shape == (n_energy,)
    assert np.all(mass >= 0)
    assert np.abs(mass - expected).sum() <= bound


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
    # The closed form lands where rounding of dk_z L / 2, a difference of
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
# keV); one above the ridge, which holds no zero; the n_x = 2985 grid of
# ``sweep --width-scale 0.01``; and wide windows on 20 mrad, 1 rad and
# 3 rad spans, the last with points where sigma^2 + eta^2 >= 1, so that
# the heralded photon cannot propagate.
RIDGE_GRIDS = {
    "even_n_y": SMALL_GRID,
    "odd_n_y": GridSpec(9.0, 11.0, 100, 5.0e-3, 25, 7),
    "edge_cuts_band": GridSpec(8.75, 9.25, 300, 5.0e-3, 12, 9),
    "narrow": GridSpec(10.0, 10.05, 50, 5.0e-3, 30, 4),
    "between_nodes": GridSpec(10.2, 10.45, 50, 5.0e-3, 30, 5),
    "above_ridge": GridSpec(13.0, 13.5, 50, 5.0e-3, 20, 3),
    "sweep_x0.01": replace(GridSpec(), n_x=2985),
    "span_20mrad": GridSpec(1.0, 20.0, 200, 2.0e-2, 41, 6),
    "span_1rad": GridSpec(1.0, 20.9, 10, 1.0, 41, 9),
    "span_3rad": GridSpec(8.5, 12.5, 10, 3.0, 41, 9),
}


@pytest.mark.parametrize("grid", RIDGE_GRIDS.values(), ids=RIDGE_GRIDS.keys())
def test_ridge_solve_matches_bisection(grid):
    kin = _Kinematics(SpdcConfig())
    ref_e0, ref_slope, _column, _row, ref_key = _bisected_ridge(kin, grid)
    e0, slope, column, row = spdc._ridge(kin, grid)
    # The same zeros in the same order: the reference's zeros in the window.
    inside = _in_window(grid, ref_e0)
    assert inside.any() == (grid is not RIDGE_GRIDS["above_ridge"])
    assert np.all(np.diff(ref_key) > 0)
    assert np.array_equal(_ridge_key(grid, column, row), ref_key[inside])
    np.testing.assert_allclose(e0, ref_e0[inside], rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(slope, ref_slope[inside], rtol=1e-9)


def test_sweep_grid_ridge_peak_memory(default_config):
    # The closed-form ridge evaluates each (theta_y >= 0 row, theta_x
    # centre) point once: 9.2 MiB of tracemalloc peak on the n_x = 2985 grid
    # of ``sweep --width-scale 0.01``, about half of it the (row, column)
    # arrays of the solve and half the slopes at its 59,700 zeros.
    grid = sweep_grid(default_config.grid, 0.01 * default_config.splitter.width_deg)
    assert grid.n_x == 2985
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        spdc.pair_ridge(default_config.spdc, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20


def test_line_carries_pi_over_slope_less_the_dropped_tail():
    X = spdc.LINE_HALF_WIDTH
    tail = _tail()
    assert (X / math.pi) == round(X / math.pi)
    assert 0.0 < tail < 1.0 / (math.pi * X) < 3e-4
    # One theta_y row (counted once) and a window holding every band whole:
    # each line's cells carry its weight pi / s * d_theta_y * d_theta_x
    # less the tail it drops.
    cfg, grid = SpdcConfig(), GridSpec(8.5, 12.5, 700, 5.0e-3, 9, 1)
    ridge = pair_ridge(cfg, grid)
    assert np.array_equal(np.sort(ridge.theta_x), grid.theta_x_centers())
    assert _whole_bands(ridge, grid).all()
    lines = spdc._deposit_lines(grid.energy_edges(), ridge.energies, ridge.slopes,
                                np.diag(ridge.weights))
    want = grid.d_theta_y * grid.d_theta_x * math.pi / ridge.slopes * (1.0 - tail)
    np.testing.assert_allclose(lines.sum(axis=1), want, rtol=1e-12)


def test_point_without_a_root_in_the_window_carries_no_weight():
    # On a 20 mrad span the ridge runs from about 5.3 to 17.5 keV, so a
    # 9-11 keV window leaves theta_x columns without a zero in it: the
    # ridge, and every fold of it, carries no weight there.
    cfg, grid = SpdcConfig(), GridSpec(9.0, 11.0, 200, 2.0e-2, 41, 6)
    e0, _slope, column, _row, _key = _bisected_ridge(_Kinematics(cfg), grid)
    lit = np.zeros(grid.n_x, dtype=bool)
    lit[column[_in_window(grid, e0)]] = True
    assert lit.any() and not lit.all()
    ridge = pair_ridge(cfg, grid)
    assert np.array_equal(np.isin(grid.theta_x_centers(), ridge.theta_x), lit)


@pytest.mark.parametrize("edges_per_pass", [1, 500, 1 << 19])
def test_kernel_is_identical_for_every_pass_size(
    monkeypatch, ridge_small, default_config, tables, edges_per_pass
):
    # The passes add the lines in the same order, so the spectra are the
    # same bit for bit (1 edge gives one line per pass).
    args = (ridge_small, SMALL_GRID, default_config.splitter, tables["graphite"])
    want = port_energy_spectra(*args)
    monkeypatch.setattr(spdc, "_EDGES_PER_PASS", edges_per_pass)
    for got, expected in zip(port_energy_spectra(*args), want):
        assert got.tobytes() == expected.tobytes()


def test_reference_grid_kernel_peak_memory(default_config, tables):
    # Deterministic bound on the kernel's temporaries: tracemalloc counts
    # numpy's buffers, so the ridge solve and the line-by-cell temporaries
    # of the spectra must keep the peak far below the hundreds of MB a
    # whole-grid evaluation would take.
    grid = GridSpec()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ridge = pair_ridge(SpdcConfig(), grid)
        port_energy_spectra(ridge, grid, default_config.splitter, tables["graphite"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_sweep_rejects_out_of_range_angle_before_building_splitters(
    default_config, ridge_small, tables
):
    # Retuning the splitter divides by sin(theta_B), so theta_B = 0 must be
    # rejected before any angle's splitter is built.
    for angles in ([0.0, 5.0, 10.0], [10.0, 90.0], [-5.0]):
        with pytest.raises(ValueError, match="0, 90"):
            bragg_angle_sweep(ridge_small, default_config.splitter, angles,
                              air=tables["air"], air_path_cm=10.0)


def test_ridge_keeps_the_zeros_in_the_window_with_their_line_weights():
    cfg = SpdcConfig()
    kin = _Kinematics(cfg)
    # The 9.5-11.5 keV window leaves out some zeros of the 8.7-11.8 keV
    # ridge; the solve returns only the ones in it.
    ref_e0 = _bisected_ridge(kin, SMALL_GRID)[0]
    inside = _in_window(SMALL_GRID, ref_e0)
    assert inside.any() and not inside.all()
    e0 = spdc._ridge(kin, SMALL_GRID)[0]
    assert e0.size == inside.sum() and _in_window(SMALL_GRID, e0).all()
    # pair_ridge keeps them with their angles, slopes and whole-line
    # weights; with an odd n_y the theta_y = 0 row counts once.
    grid = GridSpec(8.5, 12.5, 700, 5.0e-3, 9, 3)
    ridge = pair_ridge(cfg, grid)
    e0, slope, column, row = spdc._ridge(kin, grid)
    assert np.array_equal(ridge.energies, e0)
    assert np.array_equal(ridge.theta_x, grid.theta_x_centers()[column])
    assert np.array_equal(ridge.slopes, slope)
    mirror = np.where(row == 0, 1.0, 2.0)
    want = math.pi * grid.d_theta_y * grid.d_theta_x * mirror / slope
    np.testing.assert_allclose(ridge.weights, want, rtol=1e-15)


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
    default_config, ridge_small, tables, width_scale, with_air
):
    spec = replace(default_config.splitter,
                   width_deg=default_config.splitter.width_deg * width_scale)
    angles = [5.0, 9.0, spec.nominal_bragg_deg(), 10.5, 20.0, 45.0]
    # A 0 cm air path multiplies each weight by exp(-0) = 1 and matches the
    # reference without air.
    path_cm = 10.0 if with_air else 0.0
    ridge = ridge_small
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
    ridge = spdc.Ridge(np.array([7.0, 10.5]), np.zeros(2), np.ones(2), np.full(2, 1.6e4))
    with pytest.raises(ValueError, match="no Bragg reflection"):
        bragg_angle(7.0, _retuned_spec(spec, 45.0).lattice)
    got = dict(bragg_angle_sweep(ridge, spec, [10.0, 45.0], air=tables["air"], air_path_cm=0.0))
    assert got[45.0] == pytest.approx(spec.peak_reflectivity / 2.0, rel=1e-12)
    assert got[10.0] == pytest.approx(float(np.sum(_rocking(_retuned_spec(spec, 10.0),
                                                            ridge.energies, 0.0))) / 2.0,
                                      rel=1e-12)


def _spread_lines(cfg, grid):
    """The ridge on ``grid``, whose window holds every line's band whole,
    and its lines spread over the energy cells: masses m_ki, one row per
    line k."""
    ridge = pair_ridge(cfg.spdc, grid)
    assert _whole_bands(ridge, grid).all()
    lines = spdc._deposit_lines(grid.energy_edges(), ridge.energies, ridge.slopes,
                                np.diag(ridge.weights))
    return ridge, lines


def _cell_fold(ridge, lines, grid, f):
    """sum_ki m_ki f(E_i, theta_x_k) / sum_ki m_ki: the fold with ``f``
    taken at the energy cell centres E_i, theta_x in degrees."""
    values = f(grid.energy_centers(), np.degrees(ridge.theta_x)[:, None])
    return float((lines * values).sum() / lines.sum())


def _binning_moments(ridge, lines, grid):
    """For each line k: the first and second moments D1_k, D2_k of its
    masses about E0_k at the energy cell centres, each divided by the
    total mass."""
    offset = grid.energy_centers() - ridge.energies[:, None]
    return (lines * offset).sum(axis=1) / lines.sum(), (lines * offset**2).sum(axis=1) / lines.sum()


def _binning_terms(f, e0, d1, d2, h=1e-4):
    """(sum_k f'(E0_k) D1_k, (1/2) sum_k |f''(E0_k)| D2_k) by central
    differences, ``f`` taking the energies of every line at once."""
    lo, mid, hi = f(e0 - h), f(e0), f(e0 + h)
    return np.sum((hi - lo) / (2 * h) * d1), 0.5 * np.sum(np.abs(hi - 2 * mid + lo) / h**2 * d2)


def test_sweep_fold_matches_the_w_fold_up_to_energy_binning(default_config, tables):
    # Spread over the energy cells, each ridge line k is masses m_ki in the
    # cells i around its zero E0_k.  A fold of them evaluates f = R * T_air
    # at the cell centres E_i where the ridge fold takes E0_k.  So, with
    # M = sum_ki m_ki, the cell fold less the ridge fold is
    # sum_ki m_ki (f(E_i) - f(E0_k)) / M.  To first order that is
    # sum_k f'(E0_k) D1_k / M, D1_k = sum_i m_ki (E_i - E0_k), which the
    # masses give; what remains is about (1/2) sum_k |f''(E0_k)| D2_k / M,
    # D2_k = sum_i m_ki (E_i - E0_k)^2.  Both sides normalise by their total
    # line weight, which differ by the dropped tail, the same share for
    # every line.  At the bundled width on the golden's reduced grid that
    # bounds the gap by 1.5e-3 of the rate at every angle; the two folds
    # differ by up to 1.9e-4 there, and by 2.7e-5 on the reference grid.
    cfg = default_config
    grid = replace(cfg.grid, n_energy=400, n_x=60, n_y=12)
    ridge, lines = _spread_lines(cfg, grid)
    air, path_cm = tables["air"], cfg.source.air_path_cm
    angles = np.linspace(5.0, 45.0, 81)
    got = [r for _, r in bragg_angle_sweep(ridge, cfg.splitter, angles, air=air,
                                           air_path_cm=path_cm)]
    d1, d2 = _binning_moments(ridge, lines, grid)
    dtheta = np.degrees(ridge.theta_x)
    for t, rate in zip(angles, got):
        spec = _retuned_spec(cfg.splitter, t)

        def f(e, dtheta_deg):
            return _rocking(spec, e, dtheta_deg) * transmittance(e, air, path_cm)

        gap = _cell_fold(ridge, lines, grid, f) - rate
        first, second = _binning_terms(lambda e: f(e, dtheta), ridge.energies, d1, d2)
        assert abs(gap - first) <= second
        assert abs(first) + second < 1.5e-3 * rate


@pytest.mark.parametrize("shape", [(400, 60, 12), (300, 40, 8), (150, 61, 5)])
def test_ridge_rates_match_the_w_rates_up_to_energy_binning(default_config, tables, shape):
    # The rate fractions fold R and T at the ridge zeros; a fold of the
    # lines spread over the energy cells takes them at the cell centres.
    # As for the sweep, the cell rate less the ridge rate is the
    # first-order term sum_k f'(E0_k) D1_k / M up to
    # (1/2) sum_k |f''(E0_k)| D2_k / M, with f = R or T at each line's
    # theta_x.  On these grids, whose window holds every line's band whole,
    # the two differ by 1.5e-5 to 7.1e-4 (4.6e-3 of the rate, on the
    # 150-cell energy grid), and by 1e-6 on the reference grid.
    cfg = default_config
    n_energy, n_x, n_y = shape
    grid = replace(cfg.grid, n_energy=n_energy, n_x=n_x, n_y=n_y)
    ridge, lines = _spread_lines(cfg, grid)
    graphite = tables["graphite"]
    d1, d2 = _binning_moments(ridge, lines, grid)
    dtheta = np.degrees(ridge.theta_x)
    for port, rate in enumerate(port_rates(ridge, cfg.splitter, graphite)):
        def f(e, dtheta_deg):
            return response(cfg.splitter, e, dtheta_deg, graphite)[port]

        cell_rate = _cell_fold(ridge, lines, grid, f)
        first, second = _binning_terms(lambda e: f(e, dtheta), ridge.energies, d1, d2)
        assert abs(cell_rate - rate - first) <= second
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
def test_sweep_converges_under_theta_x_refinement(default_config, ridge_default, tables,
                                                 width_scale):
    # The sweep on the rule's grid moves by less than 1e-3 at every one of
    # the 81 angles of ``xbsim model`` and at the nominal angle (where
    # criterion 04 reads it) when theta_x is refined 2x, on the full
    # production window and theta_y resolution.
    cfg = default_config
    spec = replace(cfg.splitter, width_deg=cfg.splitter.width_deg * width_scale)
    angles = [spec.nominal_bragg_deg()] + np.linspace(5.0, 45.0, 81).tolist()
    grid = sweep_grid(cfg.grid, spec.width_deg)
    coarse = ridge_default if grid is cfg.grid else pair_ridge(cfg.spdc, grid)
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
