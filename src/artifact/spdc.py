"""Biphoton pair kernel, port spectra and Bragg-angle sweep.

The parametric source is described by coupled mode equations whose
first-order (low-gain) solution gives a two-photon amplitude proportional to

    kappa_L * sinc(dk_z * L / 2) * exp(i * dk_z * L / 2)

per (energy, transverse-angle) point, where dk_z is the longitudinal
wave-vector mismatch.  Energy conservation fixes the partner energy
(E_partner = E_pump - E) and transverse momentum conservation fixes the
partner angles, so (E, theta_x, theta_y) of one photon describes the pair.
The intensities here are per unit kappa_L^2 (amplitudes per unit kappa_L):
every consumer uses the intensity as a shape, and the pair rate is the
calibrated ``[source] pair_rate_hz``.

Every consumer needs the intensity only as a function of energy and
theta_x: the splitter acts on theta_x alone and no observable depends on the
phase.  One kernel serves them all: the zeros E0 of the phase-matching
ridge (``Ridge``, solved by ``pair_ridge``), each weighted by its whole
sinc^2 line.  The port rates (``port_rates``) and the Bragg-angle sweep fold
the splitter at each zero, the pair sampler draws zeros by weight, and the
model port spectra (``port_energy_spectra``) spread each zero's line over
the energy cells.  The sweep solves the ridge on a theta_x grid fine enough
for the rocking width (``sweep_grid``).  ``amplitude_at`` evaluates the
complex amplitude pointwise where it is needed.

At fixed (theta_x, theta_y) the intensity is one sinc^2 line in energy
around the zero E0 of the mismatch, where x = dk_z L / 2 rises by about
1.57e4 per keV: the first zero of sinc^2 lies about 0.2 eV from E0, inside
the 1.67 eV energy cells of the bundled grid, but a line puts a median 3%
(mean 7%) of its mass in the cells around the one holding E0.  So the
spectra integrate each line exactly across the energy cells around E0
(sinc^2 antiderivative via the sine integral, with x linearised about E0)
rather than dropping it into one cell as a point weight.  The sine integral
is evaluated here in numpy, within 2e-15 of its exact value: by its power
series for |t| <= 4, the continued fraction of E1(it) below |t| = 64 and
the asymptotic series of its auxiliary functions above.

The pair's theta_y momenta are q_y and -q_y, so the mismatch depends on
theta_y only through sin^2(theta_y) and is even in it.  The grid's theta_y
cells mirror each other about zero, so only the ridge of the non-negative
half of them is solved, and each of those rows counts twice (the
theta_y = 0 row of an odd n_y once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .splitter import SplitterSpec, reflectivity, response
from .xoptics import (
    HC_KEV_ANGSTROM,
    AttenuationTable,
    LatticeSpec,
    bragg_angle,
    transmittance,
    wavelength,
    wavenumber,
)


class EmptyWindowError(ValueError):
    """The energy window holds no zero of the phase-matching ridge to
    normalize by."""


class GridTooFineError(ValueError):
    """A rocking width asks ``sweep_grid`` for more points than
    ``MAX_SWEEP_POINTS``."""


def _centers(lo, hi, n):
    """The centres of ``n`` equal cells from ``lo`` to ``hi``."""
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class SpdcConfig:
    """Source crystal, geometry, and coupling of the parametric process."""

    pump_energy_kev: float = 21.0
    crystal: LatticeSpec = LatticeSpec(0.4203892, "C(660)")  # diamond a = 3.56712 A, d = a/sqrt(72)
    thickness_mm: float = 0.8
    detune_deg: float = 0.008  # pump rotation away from the crystal Bragg angle
    theta_heralded_deg: float = 45.59  # central heralded-beam angle to the planes

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0.0 < self.pump_energy_kev < math.inf:
            raise ValueError("pump energy must be finite and positive")
        if not (math.isfinite(self.detune_deg) and math.isfinite(self.theta_heralded_deg)):
            raise ValueError("detune_deg and theta_heralded_deg must be finite")
        self.pump_angle_deg()  # raises when the crystal cannot reflect the pump
        if not 0.0 < self.thickness_mm < math.inf:
            raise ValueError("crystal thickness must be finite and positive")

    def pump_angle_deg(self) -> float:
        """Pump incidence angle to the planes: Bragg angle plus detune."""
        return float(bragg_angle(self.pump_energy_kev, self.crystal)) + self.detune_deg


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the (energy, theta_x, theta_y) window."""

    energy_lo_kev: float = 8.5
    energy_hi_kev: float = 12.5
    n_energy: int = 2400
    angle_span_rad: float = 5.0e-3  # full span, centred on the beam axis
    n_x: int = 160
    n_y: int = 40

    def __post_init__(self):
        # Written so that NaN and infinity fail.
        if not 0.0 < self.energy_lo_kev < self.energy_hi_kev < math.inf:
            raise ValueError("energy window must satisfy 0 < lo < hi < inf")
        if min(self.n_energy, self.n_x, self.n_y) < 1:
            raise ValueError("grid must have at least one cell per axis")
        if not 0.0 < self.angle_span_rad < math.inf:
            raise ValueError("angle span must be finite and positive")

    def energy_edges(self):
        return np.linspace(self.energy_lo_kev, self.energy_hi_kev, self.n_energy + 1)

    def energy_centers(self):
        return _centers(self.energy_lo_kev, self.energy_hi_kev, self.n_energy)

    def theta_x_centers(self):
        return _centers(-0.5 * self.angle_span_rad, 0.5 * self.angle_span_rad, self.n_x)

    def theta_y_centers(self):
        return _centers(-0.5 * self.angle_span_rad, 0.5 * self.angle_span_rad, self.n_y)

    @property
    def d_energy(self):
        return (self.energy_hi_kev - self.energy_lo_kev) / self.n_energy

    @property
    def d_theta_x(self):
        return self.angle_span_rad / self.n_x

    @property
    def d_theta_y(self):
        return self.angle_span_rad / self.n_y


def sinc(x):
    """sin(x)/x with the removable singularity handled by series."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


# The sine integral Si(t) = integral of sin(u)/u from 0 to t, odd in t, is
# taken from its power series up to _SI_SERIES_TO, from the continued
# fraction of E1(it) below _SI_ASYMPTOTIC_FROM and from the asymptotic series
# of its auxiliary functions above.  Each term or step left out is below
# 1e-17, and rounding keeps Si within 2e-15 of its exact value.
_SI_SERIES_TO = 4.0
_SI_ASYMPTOTIC_FROM = 64.0
# Si(t) / t as a polynomial in t^2, through the t^31 term of Si.
_SI_SERIES = tuple((-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(16))
# f(t) t and g(t) t^2 as polynomials in 1 / t^2, through the 14! / t^15 and
# 15! / t^16 terms: the first ones left out are below 5e-18 at |t| = 64.
_SI_F = tuple((-1) ** k * math.factorial(2 * k) for k in range(8))
_SI_G = tuple((-1) ** k * math.factorial(2 * k + 1) for k in range(8))
# Points per block of the asymptotic series, so that its temporaries stay
# in cache.
_SI_BLOCK = 1 << 14


def _polynomial(coeffs, u):
    """sum_k coeffs[k] u^k by Horner's rule, in one new array."""
    p = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        p *= u
        p += c
    return p


def _si_asymptotic(t, cos_t, sin_t):
    """Si(t) = sgn(t) pi/2 - f cos t - g sin t on 1-D arrays, with the
    auxiliary functions f and g from their asymptotic series; for
    |t| >= _SI_ASYMPTOTIC_FROM."""
    v = 1.0 / t
    u = v * v
    f = _polynomial(_SI_F, u)
    f *= v
    f *= cos_t
    g = _polynomial(_SI_G, u)
    g *= u
    g *= sin_t
    si = np.copysign(math.pi / 2, t)
    si -= f
    si -= g
    return si


def _si_near(t, cos_t, sin_t):
    """Si(t) on 1-D arrays, for |t| < _SI_ASYMPTOTIC_FROM: the power series
    where |t| <= _SI_SERIES_TO, the continued fraction beyond.

    There e^(it) E1(it) = g - i f gives Si(t) = sgn(t) pi/2 - f cos t -
    g sin t, and E1(z) = e^-z / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))) is
    evaluated bottom-up from the depth ceil(4 + 170 / |t|) that each point
    needs: 47 at |t| = 4, where 43 reach machine precision, and 7 at 64.
    The points are taken in order of |t|, so that the ones in the fraction
    at each depth are a leading run of them.
    """
    a = np.abs(t)
    order = np.argsort(a)
    split = np.searchsorted(a[order], _SI_SERIES_TO, side="right")
    small, order = order[:split], order[split:]
    si = np.empty_like(t)
    t_small = t[small]
    si[small] = t_small * _polynomial(_SI_SERIES, t_small * t_small)
    depth = np.ceil(4.0 + 170.0 / a[order]).astype(np.intp)  # nonincreasing
    steps = np.arange(depth.max(initial=1), 1, -1)
    entered = np.searchsorted(-depth, -steps, side="right")  # depth >= step
    t_cf = t[order]
    z = 1j * t_cf
    h = np.empty_like(z)
    begun = 0
    for n, k in zip(steps.tolist(), entered.tolist()):
        h[begun:k] = z[begun:k] + (2 * n - 1)
        begun = k
        h_k = h[:k]
        np.divide((n - 1) ** 2, h_k, out=h_k)
        np.subtract(z[:k], h_k, out=h_k)
        h_k += 2 * n - 3
    e1 = 1.0 / h  # g - i f
    si[order] = np.copysign(math.pi / 2, t_cf) + e1.imag * cos_t[order] - e1.real * sin_t[order]
    return si


def _sinc2_trig(x):
    """(cos 2x, sin 2x, sin^2(x) / x) on a 1-D array, the last 0 at x = 0.

    They come from one tangent: numpy vectorises float64 tan, but runs sin
    and cos element by element.  With c = cos^2 x = 1 / (1 + tan^2 x),
    sin^2 x = c tan^2 x, cos 2x = c - sin^2 x and sin 2x = 2 c tan x.
    """
    tan = np.tan(x)
    sin_sq = tan * tan
    cos_sq = sin_sq + 1.0
    np.reciprocal(cos_sq, out=cos_sq)
    sin_sq *= cos_sq
    sin_2x = np.multiply(tan, cos_sq, out=tan)
    sin_2x *= 2.0
    cos_2x = np.subtract(cos_sq, sin_sq, out=cos_sq)
    np.divide(sin_sq, x, out=sin_sq, where=x != 0.0)
    return cos_2x, sin_2x, sin_sq


def _sinc2_antiderivative(x):
    """Antiderivative of sinc^2: F(x) = Si(2x) - sin^2(x)/x, odd in x and
    within 2e-15 of its exact value.

    Si(t) comes from its power series for |t| <= 4, the continued fraction
    of E1(it) for |t| < 64 and the asymptotic series of its auxiliary
    functions above.  The asymptotic series runs over every point, block by
    block; the points where it does not hold, |2x| < _SI_ASYMPTOTIC_FROM,
    are then redone together by ``_si_near``.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    f = np.empty_like(x)
    near = [np.zeros(0, dtype=np.intp)]
    with np.errstate(all="ignore"):  # x = 0 and tiny x are redone below
        for lo in range(0, x.size, _SI_BLOCK):
            block = x[lo : lo + _SI_BLOCK]
            near.append(lo + np.flatnonzero(np.abs(block) < 0.5 * _SI_ASYMPTOTIC_FROM))
            cos_t, sin_t, sin_sq_x = _sinc2_trig(block)
            si = _si_asymptotic(2.0 * block, cos_t, sin_t)
            np.subtract(si, sin_sq_x, out=f[lo : lo + _SI_BLOCK])
    near = np.concatenate(near)
    x_near = x[near]
    cos_t, sin_t, sin_sq_x = _sinc2_trig(x_near)
    f[near] = _si_near(2.0 * x_near, cos_t, sin_t) - sin_sq_x
    return f.reshape(shape)


class _Kinematics:
    """Precomputed central-geometry quantities for mismatch evaluation."""

    def __init__(self, config: SpdcConfig):
        self.pump_kev = config.pump_energy_kev
        theta_p = math.radians(config.pump_angle_deg())
        k_p = float(wavenumber(self.pump_kev))
        g = 2.0 * math.pi / config.crystal.d_spacing  # reciprocal-lattice vector
        self.k_pz = k_p * math.cos(theta_p)
        # Transverse momentum available to the pair: pump transverse component
        # minus the lattice vector (the planes are normal to the transverse axis).
        self.s_total = g - k_p * math.sin(theta_p)
        self.theta_h0 = math.radians(config.theta_heralded_deg)
        self.half_length = 0.5 * config.thickness_mm * 1.0e8  # L/2 in Angstrom

    def half_phase(self, energy_kev, theta_x, theta_y):
        """dk_z * L / 2 on broadcastable arrays; NaN where the partner is evanescent."""
        k_h = wavenumber(energy_kev)
        k_t = wavenumber(self.pump_kev - energy_kev)
        s_h = k_h * np.sin(self.theta_h0 + theta_x)
        q_y = k_h * np.sin(theta_y)
        s_t = self.s_total - s_h
        kz_h_sq = k_h**2 - s_h**2 - q_y**2
        kz_t_sq = k_t**2 - s_t**2 - q_y**2
        bad = (kz_h_sq <= 0) | (kz_t_sq <= 0)
        kz_h = np.sqrt(np.where(bad, 1.0, kz_h_sq))
        kz_t = np.sqrt(np.where(bad, 1.0, kz_t_sq))
        dkz = self.k_pz - kz_h - kz_t
        return np.where(bad, np.nan, dkz * self.half_length)


@dataclass(frozen=True)
class Ridge:
    """The zeros E0 of the phase-matching ridge that lie in the energy
    window, one per (theta_x, theta_y >= 0) grid point at most: the pair
    kernel of the rates, the spectra, the sweep and the sampler.

    ``weights`` is the whole sinc^2 line's low-gain intensity per unit
    kappa_L^2, pi / s * d_theta_y * d_theta_x with s = |dx/dE| at E0
    (``slopes``), doubled for the theta_y rows that stand for their mirror
    row too.
    """

    energies: np.ndarray  # E0, keV
    theta_x: np.ndarray  # theta_x cell centre of each zero, rad
    weights: np.ndarray
    slopes: np.ndarray  # s = |dx/dE| at E0, 1/keV

    def total(self) -> float:
        """The weights' sum; ``EmptyWindowError`` when the window holds no zero."""
        total = float(self.weights.sum())
        if total == 0.0:
            raise EmptyWindowError("the [grid] energy window holds no zero of the phase-matching ridge")
        return total


# Half-width X, in x = dk_z L / 2, of the band each ridge line is spread
# over.  At X a multiple of pi the sinc^2 mass beyond |x| = X is
# 1 - 2 Si(2X) / pi < 1 / (pi X); X is the smallest such multiple that drops
# less than 3e-4 of every line: 338 pi, about 68 eV either side of E0 on the
# bundled geometry.
LINE_HALF_WIDTH = math.pi * math.ceil(1.0 / (math.pi**2 * 3e-4))


def _ridge(kin: _Kinematics, grid: GridSpec):
    """The zeros E0 of ``half_phase`` in ``[grid] energy_lo_kev..energy_hi_kev``
    for each theta_x centre and each non-negative theta_y centre
    ``theta_y_centers()[n_y // 2:]``, in closed form.

    With a = 2 pi / hc (k = a E), sigma = sin(theta_h0 + theta_x), eta =
    sin(theta_y), c = sqrt(1 - sigma^2 - eta^2) and S = ``s_total``, the
    heralded kz_h = a E c is linear in E, and dk_z = 0 asks that kz_t =
    k_pz - a E c, where kz_t^2 = a^2 (E_pump - E)^2 - (S - a E sigma)^2 -
    a^2 eta^2 E^2.  Squaring cancels every E^2 term (c^2 + sigma^2 + eta^2
    = 1) and leaves one linear equation, so a point has at most one zero:

        E0 = (k_p^2 - k_pz^2 - S^2) / (2 a (k_p - k_pz c - S sigma)),

    k_p = a E_pump.  E0 is a zero where 1 - sigma^2 - eta^2 > 0, the
    denominator is nonzero, k_pz - a E0 c > 0 (a root of dk_z, not only of
    its square) and 0 < E0 < E_pump.  Returns flat arrays (e0, slope,
    column, row) of the zeros in the window, by row, then column: E0 in
    keV, |dx/dE| there in 1/keV, the theta_x index and the index of the
    non-negative theta_y row.
    """
    a = 2.0 * math.pi / HC_KEV_ANGSTROM
    k_p = a * kin.pump_kev
    tx = grid.theta_x_centers()
    ty = grid.theta_y_centers()[grid.n_y // 2 :]
    sigma = np.sin(kin.theta_h0 + tx)
    eta = np.sin(ty)
    c_sq = 1.0 - sigma**2 - eta[:, None] ** 2
    c = np.sqrt(np.where(c_sq > 0, c_sq, 0.0))
    denominator = 2.0 * a * (k_p - kin.k_pz * c - kin.s_total * sigma)
    e0 = (k_p**2 - kin.k_pz**2 - kin.s_total**2) / np.where(denominator == 0, 1.0, denominator)
    found = (c_sq > 0) & (denominator != 0) & (kin.k_pz - a * e0 * c > 0) & (e0 < kin.pump_kev)
    found &= (e0 >= grid.energy_lo_kev) & (e0 <= grid.energy_hi_kev)  # lo > 0 bounds E0 below
    row, column = np.nonzero(found)
    e0 = e0[row, column]
    # The slope dx/dE at the zeros, from sigma, eta and c gathered there:
    # the heralded kz_h = k_h c scales with E, so d(kz_h)/dE = kz_h / E;
    # the partner's k_t falls with E while its transverse momentum S - k_h
    # sigma falls and q_y = k_h eta rises.
    sigma, eta = sigma[column], eta[row]
    k_h = wavenumber(e0)
    k_t = wavenumber(kin.pump_kev - e0)
    s_t = kin.s_total - k_h * sigma
    q_y = k_h * eta
    kz_h = k_h * c[row, column]
    kz_t = np.sqrt(k_t**2 - s_t**2 - q_y**2)
    dkz_t = a * (s_t * sigma - k_t - q_y * eta) / kz_t
    slope = np.abs(-(kz_h / e0 + dkz_t) * kin.half_length)
    return e0, slope, column, row


def pair_ridge(config: SpdcConfig, grid: GridSpec) -> Ridge:
    """The ``Ridge`` of the zeros (``_ridge``) in ``grid``'s energy window."""
    e0, slope, column, row = _ridge(_Kinematics(config), grid)
    mirror = np.where((grid.n_y % 2 == 1) & (row == 0), 1.0, 2.0)
    scale = math.pi * grid.d_theta_y * grid.d_theta_x
    return Ridge(e0, grid.theta_x_centers()[column], scale * mirror / slope, slope)


# Line edges per pass of ``_deposit_lines``.  The reference grid's 268,800
# take one pass, whose float64 temporaries are about 2 MB each; finer grids
# take more passes.  Few passes keep the continued fraction of
# ``_sinc2_antiderivative`` in few calls: one per theta_y row (20 calls of a
# few hundred points) cost more than its asymptotic series over every point.
_EDGES_PER_PASS = 1 << 19


def _deposit_lines(edges, e0, slope, weights):
    """Spread lines over the energy cells between ``edges``.

    Line i is sinc^2(slope_i (E - e0_i)), cut at |x| <= LINE_HALF_WIDTH,
    and each cell takes the share of the whole line, pi / slope_i, that it
    integrates to.  ``weights`` (lines, k) holds k masses per line.
    Returns (k, n_energy): row j sums, over the lines in their order,
    weights[i, j] times line i's share in each cell.  The part of a line
    outside the window is dropped.  The temporaries are the lines by the
    cells each spans, at most ``_EDGES_PER_PASS`` edges at a time.
    """
    n_energy = len(edges) - 1
    out = np.zeros((weights.shape[1], n_energy))
    reach = LINE_HALF_WIDTH / slope
    first = np.clip(np.searchsorted(edges, e0 - reach, side="right") - 1, 0, n_energy)
    stop = np.minimum(np.searchsorted(edges, e0 + reach), n_energy)
    # Cells past a line's band, or past the window, get zero-width x steps.
    band = np.arange((stop - first).max(initial=0) + 1)
    lines = max(1, _EDGES_PER_PASS // band.size)
    for lo in range(0, e0.size, lines):
        part = slice(lo, lo + lines)
        edge = first[part, None] + band
        np.minimum(edge, n_energy, out=edge)
        x = edges[edge]
        x -= e0[part, None]
        x *= slope[part, None]
        np.clip(x, -LINE_HALF_WIDTH, LINE_HALF_WIDTH, out=x)
        share = np.diff(_sinc2_antiderivative(x), axis=1)
        share /= math.pi
        cell = np.minimum(edge[:, :-1], n_energy - 1).ravel()
        for row, weight in zip(out, weights[part].T):
            np.add.at(row, cell, (share * weight[:, None]).ravel())
    return out


def amplitude_at(config: SpdcConfig, energy_kev, theta_x, theta_y):
    """Pointwise first-order amplitude per unit kappa_L, sinc(x) * exp(i x),
    x = dk_z L/2.

    Broadcasts its arguments; zero where the partner is evanescent.
    """
    x = _Kinematics(config).half_phase(energy_kev, theta_x, theta_y)
    bad = np.isnan(x)
    x = np.where(bad, 0.0, x)
    return np.where(bad, 0.0, sinc(x)) * np.exp(1j * x)


def port_energy_spectra(
    ridge: Ridge, grid: GridSpec, spec: SplitterSpec, material: AttenuationTable
):
    """Model energy spectra behind the splitter.

    Returns (energies, reflected_density, transmitted_density) on
    ``grid``'s energy cell centres.  Each zero's sinc^2 line is spread over
    the energy cells (``_deposit_lines``), weighted by its ``Ridge.weights``
    times the intensity reflectivity R or transmission T of each output
    port (``splitter.response``) at (E0, dtheta = theta_x), the fold
    ``port_rates`` takes: the heralded beam's transverse angle theta_x maps
    one-to-one onto the rocking offset of the splitter (dispersion-matched
    mounting).  The densities are normalized by the ridge's total weight
    (``Ridge.total``), so on a window that holds every line's band whole
    each integrates over energy to that port's rate fraction times the
    share of a line within |x| <= LINE_HALF_WIDTH.

    A line is sinc^2(x) with x linearised about its zero, x = s (E - E0),
    integrated exactly over every energy cell within |x| <= X =
    LINE_HALF_WIDTH.  Against the exact intensity it errs by two shares of
    its mass:

    * the dropped tail, at most 1 / (pi X) (3e-4);
    * the linearisation: with |d^2x/dE^2| <= c across the band, at most
      c (ln 2X + 1 + N) / (pi s^2) moves between cells, N the cell edges
      the band spans (4e-4 on the bundled grid, where c is about 3.3e3 per
      keV^2 and s 1.57e4 per keV).

    The lines of the zeros outside the window are left out, with the part
    of their bands that reaches into it.
    """
    total = ridge.total()
    refl, trans = response(spec, ridge.energies, np.degrees(ridge.theta_x), material)
    ports = ridge.weights[:, None] * np.column_stack((refl, trans))
    refl_dens, trans_dens = _deposit_lines(grid.energy_edges(), ridge.energies, ridge.slopes, ports)
    scale = total * grid.d_energy
    return grid.energy_centers(), refl_dens / scale, trans_dens / scale


def port_rates(ridge: Ridge, spec: SplitterSpec, material: AttenuationTable):
    """Reflected and transmitted rate fractions: the port responses R and T
    (``splitter.response``) at each zero E0 of ``ridge`` and dtheta =
    theta_x, folded as ``bragg_angle_sweep`` folds the rocking curve."""
    refl, trans = response(spec, ridge.energies, np.degrees(ridge.theta_x), material)
    total = ridge.total()
    return float(ridge.weights @ refl) / total, float(ridge.weights @ trans) / total


def _retuned(base: SplitterSpec, theta_b_deg: float) -> SplitterSpec:
    """``base`` with a lattice spacing chosen so the nominal energy's Bragg
    angle equals ``theta_b_deg``; every other parameter is kept."""
    d = float(wavelength(base.nominal_energy_kev)) / (2.0 * math.sin(math.radians(theta_b_deg)))
    return replace(base, lattice=LatticeSpec(d, f"family({theta_b_deg:g} deg)"))


# theta_x cells per rocking width b on the grid of a Bragg-angle sweep.  On
# the reference window (n_y = 40), doubling n_x from the rule's grid moves
# no angle of the 5-45 deg ridge sweep by more than 4.4e-6 at the bundled
# width (268 cells per width), 4.0e-4 at x0.1 or 1.6e-4 at x0.01 (50 each).
# The rocking curve must still be resolved in theta_x: at x0.01 the 45 deg
# value moves by 10% from n_x = 1000 to 2000 (17 to 34 cells per width).
CELLS_PER_ROCKING_WIDTH = 50

# (theta_x, theta_y >= 0) points, n_x (n_y // 2 + 1), of a grid that
# ``sweep_grid`` refines.  The ridge solve and the model's fold of it peak
# at about 130 bytes per point (391 MiB traced by ``model`` at 3.1M points,
# x0.0002 of the bundled width), so this allows about 0.5 GiB: on the
# reference window (n_y = 40) widths down to x0.00015 of the bundled one.
MAX_SWEEP_POINTS = 1 << 22


def sweep_grid(grid: GridSpec, width_deg: float) -> GridSpec:
    """``grid`` with at least CELLS_PER_ROCKING_WIDTH theta_x cells per
    rocking width ``width_deg``: n_x = max(n_x, ceil(span * k / width)).

    Returns ``grid`` itself when it is already fine enough, so a model run
    at the bundled width solves one ridge for the rates, spectra and sweep.
    Raises ``GridTooFineError``, before any array is built, when the
    refined grid has more than ``MAX_SWEEP_POINTS`` points.
    """
    n_x = grid.angle_span_rad * CELLS_PER_ROCKING_WIDTH / math.radians(width_deg)
    if n_x <= grid.n_x:
        return grid
    rows = grid.n_y // 2 + 1
    if not n_x <= MAX_SWEEP_POINTS // rows:  # as ceil(n_x) * rows <= the limit; inf fails
        raise GridTooFineError(
            f"a rocking width of {width_deg:g} deg needs {n_x:.3g} theta_x cells by {rows} "
            f"theta_y rows, over the {MAX_SWEEP_POINTS} points a sweep grid may hold"
        )
    return replace(grid, n_x=math.ceil(n_x))


def bragg_angle_sweep(
    ridge: Ridge,
    splitter: SplitterSpec,
    sweep_deg,
    *,
    air: AttenuationTable,
    air_path_cm: float,
):
    """Normalized reflected-port rate versus splitter Bragg angle.

    At each angle ``splitter`` is retuned so that its nominal energy
    reflects at that Bragg angle (peak reflectivity, rocking width and
    thickness kept).  Its reflected-port rate is the intensity reflectivity
    (``splitter.reflectivity``, 0 where the wavelength exceeds the retuned
    2d) times the transmission through ``air`` along ``air_path_cm``, taken
    at each zero E0 of ``ridge`` and weighted by that line's whole
    intensity, pi / s; the sum is normalized by the ridge's total weight
    (``Ridge.total``).

    A fold of the lines spread over the energy cells, with the splitter at
    the cell centres across each line's band, differs by that energy
    binning: 2.7e-5 (relative, at 45 deg) on the reference grid, 1.9e-4 on
    a 400-cell energy grid.  The rocking curve is resolved only as finely as
    the ridge's theta_x grid (``sweep_grid``).  Returns a list of
    (theta_B_deg, rate).
    """
    sweep_deg = list(sweep_deg)
    for t in sweep_deg:
        if not (0.0 < t < 90.0):
            raise ValueError("sweep angles must lie in (0, 90) degrees")
    total = ridge.total()
    w = ridge.weights * transmittance(ridge.energies, air, air_path_cm)
    dtheta_deg = np.degrees(ridge.theta_x)
    return [
        (t, float(w @ reflectivity(_retuned(splitter, t), ridge.energies, dtheta_deg)) / total)
        for t in sweep_deg
    ]
