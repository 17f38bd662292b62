"""Biphoton pair intensity, port spectra and Bragg-angle sweep.

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
phase.  One kernel, the zeros E0 of the phase-matching ridge (``Ridge``) each
weighted by its whole sinc^2 line, serves the port rates (``port_rates``)
and the Bragg-angle sweep, which fold the splitter at each zero, and the
pair sampler, which draws zeros by weight; ``pair_ridge`` solves it, on a
theta_x grid fine enough for the rocking width (``sweep_grid``) for the
sweep.  Only the model port spectra spread the lines over energy:
``biphoton_amplitude`` deposits them into a 2-D (E, theta_x) array W, with
theta_y integrated out.  ``amplitude_at`` evaluates the complex amplitude
pointwise where it is needed.

W is built from the phase-matching ridge.  At fixed (theta_x, theta_y) the
intensity is one sinc^2 line in energy around the zero E0 of the mismatch,
where x = dk_z L / 2 rises by about 1.57e4 per keV: the first zero of sinc^2
lies about 0.2 eV from E0, inside the 1.67 eV energy cells of the bundled
grid, but a line puts a median 3% (mean 7%) of its mass in the cells around
the one holding E0.  So each line is integrated exactly across the energy
cells around E0 (sinc^2 antiderivative via the sine integral, with x
linearised about E0) rather than dropped into one cell as a point weight.
This keeps the integrated rates stable against grid refinement even though
the line is unresolved pointwise.  The sine integral is evaluated here in
numpy, within 2e-15 of its exact value: by its power series for |t| <= 4,
the continued fraction of E1(it) below |t| = 64 and the asymptotic series
of its auxiliary functions above.

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
    """The energy window holds nothing to normalize by: no pair intensity,
    or no zero of the phase-matching ridge."""


@dataclass(frozen=True)
class SpdcConfig:
    """Source crystal, geometry, and coupling of the parametric process."""

    pump_energy_kev: float = 21.0
    crystal: LatticeSpec = LatticeSpec(3.56712 / math.sqrt(72.0), "C(660)")
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
        e = self.energy_edges()
        return 0.5 * (e[:-1] + e[1:])

    def theta_x_centers(self):
        half = 0.5 * self.angle_span_rad
        edges = np.linspace(-half, half, self.n_x + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    def theta_y_centers(self):
        half = 0.5 * self.angle_span_rad
        edges = np.linspace(-half, half, self.n_y + 1)
        return 0.5 * (edges[:-1] + edges[1:])

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

    def half_phase_slope(self, energy_kev, theta_x, theta_y):
        """d(half_phase)/dE in 1/keV on broadcastable arrays, where the
        partner propagates.

        The heralded wave vector scales with E at fixed angles, so
        d(kz_h)/dE = kz_h / E; the partner's k_t falls with E while its
        transverse momentum s_total - s_h falls and q_y rises.
        """
        dk = 2.0 * math.pi / HC_KEV_ANGSTROM  # dk/dE
        k_h = wavenumber(energy_kev)
        k_t = wavenumber(self.pump_kev - energy_kev)
        sin_h = np.sin(self.theta_h0 + theta_x)
        sin_y = np.sin(theta_y)
        s_t = self.s_total - k_h * sin_h
        q_y = k_h * sin_y
        kz_h = k_h * np.sqrt(1.0 - sin_h**2 - sin_y**2)
        kz_t = np.sqrt(k_t**2 - s_t**2 - q_y**2)
        dkz_t = dk * (s_t * sin_h - k_t - q_y * sin_y) / kz_t
        return -(kz_h / energy_kev + dkz_t) * self.half_length


@dataclass(frozen=True)
class Ridge:
    """The zeros E0 of the phase-matching ridge that lie in the energy
    window, one per (theta_x, theta_y >= 0) grid point at most: the pair
    kernel of the rates, the sweep and the sampler.

    ``weights`` is the whole sinc^2 line's low-gain intensity per unit
    kappa_L^2, pi / s * d_theta_y * d_theta_x with s = |dx/dE| at E0,
    doubled for the theta_y rows that stand for their mirror row too.
    """

    energies: np.ndarray  # E0, keV
    theta_x: np.ndarray  # theta_x cell centre of each zero, rad
    weights: np.ndarray

    def total(self) -> float:
        """The weights' sum; ``EmptyWindowError`` when the window holds no zero."""
        total = float(self.weights.sum())
        if total == 0.0:
            raise EmptyWindowError("the [grid] energy window holds no zero of the phase-matching ridge")
        return total


@dataclass(frozen=True)
class PairIntensity:
    """theta_y-integrated pair intensity W(energy, theta_x) on the grid.

    ``weights[i, j]`` is the low-gain intensity per unit kappa_L^2,
    <sinc^2(dk_z L/2)>, of energy cell i and theta_x cell j, averaged across
    the energy cell (``biphoton_amplitude``) and summed over the theta_y
    cells times d_theta_y.  W serves the model port spectra alone.  ``ridge``
    holds the zeros in the window that the lines are deposited from; the
    rates and the Bragg-angle sweep fold those.
    """

    grid: GridSpec
    energies: np.ndarray  # cell centers, keV
    theta_x: np.ndarray  # cell centers, rad
    weights: np.ndarray  # float64, shape (n_energy, n_x)
    ridge: Ridge  # the zeros the weights are deposited from

    @property
    def cell_area(self) -> float:
        return self.grid.d_energy * self.grid.d_theta_x

    def total(self) -> float:
        """Integral of the pair intensity over the window (1.0 when normalized)."""
        return float(np.sum(self.weights) * self.cell_area)


# Half-width X, in x = dk_z L / 2, of the band each ridge line is deposited
# over.  At X a multiple of pi the sinc^2 mass beyond |x| = X is
# 1 - 2 Si(2X) / pi < 1 / (pi X); X is the smallest such multiple that drops
# less than 3e-4 of every line: 338 pi, about 68 eV either side of E0 on the
# bundled geometry.
LINE_HALF_WIDTH = math.pi * math.ceil(1.0 / (math.pi**2 * 3e-4))

# Newton steps of ``_ridge`` after its secant step.  On the bundled geometry
# the secant step and 2 Newton steps already reach the zeros within 1.3e-11
# keV, where |x| is at the 2e-7 rounding floor of ``half_phase``.
_NEWTON_STEPS = 3


def _ridge(kin: _Kinematics, grid: GridSpec):
    """The phase-matching ridge near the energy window: the zeros E0 of
    ``half_phase`` within a margin of ``[grid] energy_lo_kev..energy_hi_kev``,
    for each theta_x centre and each non-negative theta_y centre
    ``theta_y_centers()[n_y // 2:]``.

    The energies E_pump / 64 apart in 0 < E < E_pump are the nodes.  Only
    the nodes from the last one at or below lo - margin to the first one at
    or above hi + margin are evaluated, so every point within the margin of
    the window lies in a bracket, even a window between two adjacent nodes.
    Each theta_y row brackets the sign changes of ``half_phase`` between
    those nodes (an evanescent node brackets nothing, and two zeros within
    one spacing are missed).  From each bracket one secant step through its
    end values, then _NEWTON_STEPS Newton steps with ``half_phase_slope``,
    each clipped to the bracket, reach the zero to the rounding floor of
    ``half_phase``; the steps are a fixed number, since rounding keeps the
    iterates moving by a few ulps.

    The margin starts at two node spacings.  A zero outside it is dropped,
    which is right while its line band, LINE_HALF_WIDTH / s either side,
    misses the window.  So the solve is accepted only when LINE_HALF_WIDTH / s
    is below the margin at every zero found (the bundled geometry needs
    s >= 1.6e3 per keV and has about 1.57e4); otherwise, or when no zero is
    found, the margin is doubled and the ridge solved again, up to the whole
    of 0 < E < E_pump.  Returns flat arrays (e0, slope, column, row), in the
    order row, then bracket, then column: the zero in keV, |dx/dE| there in
    1/keV, the theta_x index and the index of the non-negative theta_y row.
    """
    tx = grid.theta_x_centers()
    ty = grid.theta_y_centers()[grid.n_y // 2 :]
    nodes = np.linspace(0.0, kin.pump_kev, 65)[1:-1]
    margin = 2.0 * kin.pump_kev / 64
    while True:
        first = max(int(np.searchsorted(nodes, grid.energy_lo_kev - margin, side="right")) - 1, 0)
        stop = min(int(np.searchsorted(nodes, grid.energy_hi_kev + margin)) + 1, nodes.size)
        energies = nodes[first:stop]
        brackets = []
        for row, theta_y in enumerate(ty):
            x = kin.half_phase(energies[:, None], tx, theta_y)
            k, column = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)
            brackets.append((k, column, np.full(k.size, row), x[k, column], x[k + 1, column]))
        k, column, row, x_lo, x_hi = (np.concatenate(parts) for parts in zip(*brackets))
        theta_x, theta_y = tx[column], ty[row]
        lo, hi = energies[k], energies[k + 1]
        e0 = lo - x_lo * (hi - lo) / (x_hi - x_lo)
        for _ in range(_NEWTON_STEPS):
            e0 -= kin.half_phase(e0, theta_x, theta_y) / kin.half_phase_slope(e0, theta_x, theta_y)
            np.clip(e0, lo, hi, out=e0)
        slope = np.abs(kin.half_phase_slope(e0, theta_x, theta_y))
        whole = first == 0 and stop == nodes.size
        if whole or (e0.size > 0 and np.all(LINE_HALF_WIDTH / slope < margin)):
            return e0, slope, column, row
        margin *= 2.0


# Line edges per pass of ``_deposit_lines``.  The reference grid's 268,800
# take one pass, whose float64 temporaries are about 2 MB each; finer grids
# take more passes.  Few passes keep the continued fraction of
# ``_sinc2_antiderivative`` in few calls: one per theta_y row (20 calls of a
# few hundred points) cost more than its asymptotic series over every point.
_EDGES_PER_PASS = 1 << 19


def _deposit_lines(w, edges, e0, slope, column, weight):
    """Add ``weight`` times the integral of sinc^2(slope * (E - e0)) over
    each energy cell between ``edges``, within |x| <= LINE_HALF_WIDTH, to
    column ``column`` of ``w`` (n_energy, n_x), one line per entry of the
    1-D arrays (``weight`` included), in their order.  The part of a line
    outside the window is dropped."""
    n_energy = len(edges) - 1
    reach = LINE_HALF_WIDTH / slope
    first = np.clip(np.searchsorted(edges, e0 - reach, side="right") - 1, 0, n_energy)
    stop = np.minimum(np.searchsorted(edges, e0 + reach), n_energy)
    hit = stop > first
    if not hit.any():
        return
    e0, slope, column, weight, first = e0[hit], slope[hit], column[hit], weight[hit], first[hit]
    # Cells past a line's band, or past the window, get zero-width x steps.
    band = np.arange((stop[hit] - first).max() + 1)
    lines = max(1, _EDGES_PER_PASS // band.size)
    for lo in range(0, e0.size, lines):
        part = slice(lo, lo + lines)
        edge = first[part, None] + band
        np.minimum(edge, n_energy, out=edge)
        x = edges[edge]
        x -= e0[part, None]
        x *= slope[part, None]
        np.clip(x, -LINE_HALF_WIDTH, LINE_HALF_WIDTH, out=x)
        mass = np.diff(_sinc2_antiderivative(x), axis=1)
        mass *= (weight[part] / slope[part])[:, None]
        # Flat indices into w: numpy adds at them faster than at index pairs.
        cell = np.minimum(edge[:, :-1], n_energy - 1)
        cell *= w.shape[1]
        cell += column[part, None]
        np.add.at(w.reshape(-1), cell.ravel(), mass.ravel())


def _mirror_weight(grid: GridSpec, row):
    """Multiplicity of each non-negative theta_y row index in ``row``: 1 for
    the theta_y = 0 row of an odd n_y, 2 for a row that stands for its
    mirror row too."""
    return np.where((grid.n_y % 2 == 1) & (row == 0), 1.0, 2.0)


def _window_ridge(grid: GridSpec, e0, slope, column, mirror) -> Ridge:
    """The ``Ridge`` of the zeros (``_ridge``) that lie in the energy window."""
    inside = (e0 >= grid.energy_lo_kev) & (e0 <= grid.energy_hi_kev)
    scale = math.pi * grid.d_theta_y * grid.d_theta_x
    return Ridge(
        e0[inside], grid.theta_x_centers()[column[inside]], scale * mirror[inside] / slope[inside]
    )


def pair_ridge(config: SpdcConfig, grid: GridSpec | None = None) -> Ridge:
    """The ridge ``biphoton_amplitude`` keeps, solved without depositing W."""
    if grid is None:
        grid = GridSpec()
    e0, slope, column, row = _ridge(_Kinematics(config), grid)
    return _window_ridge(grid, e0, slope, column, _mirror_weight(grid, row))


def biphoton_amplitude(
    config: SpdcConfig, grid: GridSpec | None = None, *, normalize: bool = True
) -> PairIntensity:
    """theta_y-integrated pair intensity |amplitude|^2 on the (energy, theta_x) grid.

    Each cell holds, per unit kappa_L^2, the mean across the cell's energy
    extent of the sinc^2 lines of the ridge (``_ridge``) in its theta_x
    column, summed over theta_y with weight d_theta_y.  A line is
    sinc^2(x) with x linearised about its zero, x = s (E - E0), integrated
    exactly over every energy cell within |x| <= X = LINE_HALF_WIDTH, so it
    carries pi / s less two errors, each a share of its mass:

    * the dropped tail, at most 1 / (pi X) (3e-4);
    * the linearisation: with |d^2x/dE^2| <= c across the band, at most
      c (ln 2X + 1 + N) / (pi s^2) moves between cells, N the cell edges
      the band spans (4e-4 on the bundled grid, where c is about 3.3e3 per
      keV^2 and s 1.57e4 per keV).

    A line whose band misses the energy window deposits nothing.  The
    temporaries are the lines by the cells each spans, at most
    ``_EDGES_PER_PASS`` edges at a time.  With
    ``normalize`` the intensity integrates to 1 over the window, and
    ``EmptyWindowError`` is raised where it vanishes there.  The
    result keeps the zeros in the window as its ``ridge``.
    """
    if grid is None:
        grid = GridSpec()
    e0, slope, column, row = _ridge(_Kinematics(config), grid)
    mirror = _mirror_weight(grid, row)
    w = np.zeros((grid.n_energy, grid.n_x))
    _deposit_lines(w, grid.energy_edges(), e0, slope, column, mirror)
    w *= grid.d_theta_y / grid.d_energy
    if normalize:
        norm = float(np.sum(w)) * grid.d_energy * grid.d_theta_x
        if norm == 0.0:
            raise EmptyWindowError("the pair intensity vanishes on the [grid] energy window")
        w /= norm
    ridge = _window_ridge(grid, e0, slope, column, mirror)
    return PairIntensity(grid, grid.energy_centers(), grid.theta_x_centers(), w, ridge)


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
    intensity: PairIntensity, spec: SplitterSpec, material: AttenuationTable
):
    """Model energy spectra behind the splitter.

    Returns (energies, reflected_density, transmitted_density): the energy
    marginal of the theta_y-integrated pair intensity weighted by the
    intensity reflectivity and transmission of each output port
    (``splitter.response``).  The heralded beam's transverse angle theta_x
    maps one-to-one onto the rocking offset of the splitter
    (dispersion-matched mounting), so the response is taken at
    dtheta = theta_x.  Each density integrates over energy to that port's
    rate fraction on W, which ``port_rates`` takes from the ridge.
    """
    refl, trans = response(
        spec, intensity.energies[:, None], np.degrees(intensity.theta_x)[None, :], material
    )
    d_x = intensity.grid.d_theta_x
    refl_dens = (intensity.weights * refl).sum(axis=1) * d_x
    trans_dens = (intensity.weights * trans).sum(axis=1) * d_x
    return intensity.energies, refl_dens, trans_dens


def port_rates(ridge: Ridge, spec: SplitterSpec, material: AttenuationTable):
    """Reflected and transmitted rate fractions: the port responses R and T
    (``splitter.response``) at each zero E0 of ``ridge`` and dtheta =
    theta_x, folded as ``bragg_angle_sweep`` folds the rocking curve.  The
    port spectra's energy integrals take them at W's energy cell centres
    instead, and differ from these by that energy binning."""
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


def sweep_grid(grid: GridSpec, width_deg: float) -> GridSpec:
    """``grid`` with at least CELLS_PER_ROCKING_WIDTH theta_x cells per
    rocking width ``width_deg``: n_x = max(n_x, ceil(span * k / width)).

    Returns ``grid`` itself when it is already fine enough, so a model run
    at the bundled width builds one pair intensity for the rates, spectra
    and sweep.
    """
    n_x = math.ceil(grid.angle_span_rad * CELLS_PER_ROCKING_WIDTH / math.radians(width_deg))
    return grid if n_x <= grid.n_x else replace(grid, n_x=n_x)


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

    A fold over the 2-D W takes the splitter at the energy cell centres
    across each line's band instead, and differs by that energy binning:
    2.7e-5 (relative, at 45 deg) on the reference grid, 1.9e-4 on a
    400-cell energy grid.  The rocking curve is resolved only as finely as
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
