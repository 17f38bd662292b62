"""Biphoton pair intensity, port spectra and Bragg-angle sweep.

The parametric source is described by coupled mode equations whose
first-order (low-gain) solution gives a two-photon amplitude proportional to

    kappa_L * sinc(dk_z * L / 2) * exp(i * dk_z * L / 2)

per (energy, transverse-angle) point, where dk_z is the longitudinal
wave-vector mismatch.  Energy conservation fixes the partner energy
(E_partner = E_pump - E) and transverse momentum conservation fixes the
partner angles, so (E, theta_x, theta_y) of one photon describes the pair.

Every consumer (port spectra and rates, the Bragg-angle sweep, the pair
sampler) needs only the intensity as a function of energy and theta_x: the
splitter acts on theta_x alone and no observable depends on the phase.  The
pair intensity is therefore reduced once to a 2-D (E, theta_x) array W, with
theta_y integrated out: ``xbsim model`` builds it once.  The port spectra
fold W with the splitter response (``splitter.response``) once, and a port's
rate fraction is the energy integral of its spectrum; the pair sampler draws
from W.  The Bragg-angle sweep folds no W: it folds the rocking curve at
each zero E0 of the ridge (``Ridge``), weighted by its whole line.  A sweep
over narrow rocking widths needs finer theta_x cells than the rates do;
``sweep_grid`` derives them from the width, and ``pair_ridge`` solves the
ridge on such a grid without building W.  ``amplitude_at`` evaluates the
complex amplitude pointwise where it is needed.

W is built from the phase-matching ridge.  At fixed (theta_x, theta_y) the
intensity is one sinc^2 line in energy around the zero E0 of the mismatch,
where x = dk_z L / 2 rises by about 1.57e4 per keV: the first zero of sinc^2
lies about 0.2 eV from E0, inside the 1.67 eV energy cells of the bundled
grid, but a line puts a median 3% (mean 7%) of its mass in the cells around
the one holding E0.  So each line is integrated exactly across the energy
cells around E0 (sinc^2 antiderivative via the sine integral, with x
linearised about E0) rather than dropped into one cell as a point weight.
This keeps the integrated rates stable against grid refinement even though
the line is unresolved pointwise.

The pair's theta_y momenta are q_y and -q_y, so the mismatch depends on
theta_y only through sin^2(theta_y) and is even in it.  The grid's theta_y
cells mirror each other about zero, so only the ridge of the non-negative
half of them is solved, and each of those rows counts twice (the
theta_y = 0 row of an odd n_y once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import sici

from .splitter import SplitterSpec, response
from .xoptics import (
    HC_KEV_ANGSTROM,
    AttenuationTable,
    LatticeSpec,
    bragg_angle,
    transmittance,
    wavelength,
    wavenumber,
)

MAX_KAPPA_L = 0.01  # validity bound of the first-order solution


@dataclass(frozen=True)
class SpdcConfig:
    """Source crystal, geometry, and coupling of the parametric process."""

    pump_energy_kev: float = 21.0
    crystal: LatticeSpec = LatticeSpec(3.56712 / math.sqrt(72.0), "C(660)")
    thickness_mm: float = 0.8
    detune_deg: float = 0.008  # pump rotation away from the crystal Bragg angle
    theta_heralded_deg: float = 45.59  # central heralded-beam angle to the planes
    kappa_l: float = 0.01  # dimensionless gain kappa * L

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0.0 < self.pump_energy_kev < math.inf:
            raise ValueError("pump energy must be finite and positive")
        if not (math.isfinite(self.detune_deg) and math.isfinite(self.theta_heralded_deg)):
            raise ValueError("detune_deg and theta_heralded_deg must be finite")
        self.pump_angle_deg()  # raises when the crystal cannot reflect the pump
        if not (0.0 < self.kappa_l <= MAX_KAPPA_L):
            raise ValueError(
                f"kappa_l must lie in (0, {MAX_KAPPA_L}] for the first-order solution"
            )
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


def _sinc2_antiderivative(x):
    """Antiderivative of sinc^2: Si(2x) - sin^2(x)/x."""
    si, _ = sici(2.0 * x)
    small = np.abs(x) < 1e-9
    safe = np.where(small, 1.0, x)
    return si - np.where(small, x, np.sin(safe) ** 2 / safe)


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
    window, one per (theta_x, theta_y >= 0) grid point at most.

    ``weights`` is the whole sinc^2 line's low-gain intensity,
    kappa_L^2 * pi / s * d_theta_y * d_theta_x with s = |dx/dE| at E0,
    doubled for the theta_y rows that stand for their mirror row too.
    """

    energies: np.ndarray  # E0, keV
    theta_x: np.ndarray  # theta_x cell centre of each zero, rad
    weights: np.ndarray


@dataclass(frozen=True)
class PairIntensity:
    """theta_y-integrated pair intensity W(energy, theta_x) on the grid.

    ``weights[i, j]`` is the low-gain intensity kappa_L^2 * <sinc^2(dk_z L/2)>
    of energy cell i and theta_x cell j, averaged across the energy cell
    (``biphoton_amplitude``) and summed over the theta_y cells times
    d_theta_y.  Every consumer (rates, spectra, pair sampler) depends on
    theta_x and energy only, so theta_y and the phase are integrated out
    once here.  ``ridge`` holds the zeros in the window that the lines are
    deposited from; the Bragg-angle sweep folds those.
    """

    config: SpdcConfig
    grid: GridSpec
    energies: np.ndarray  # cell centers, keV
    theta_x: np.ndarray  # cell centers, rad
    weights: np.ndarray  # float64, shape (n_energy, n_x)
    ridge: Ridge  # the zeros the weights are deposited from
    cdf: np.ndarray = field(init=False, repr=False)  # flattened (C order) running sum

    def __post_init__(self):
        object.__setattr__(self, "cdf", np.cumsum(self.weights))

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


def _ridge(kin: _Kinematics, grid: GridSpec):
    """The phase-matching ridge: every zero E0 of ``half_phase`` in
    0 < E < E_pump, for each theta_x centre and each non-negative theta_y
    centre ``theta_y_centers()[n_y // 2:]``.

    Each theta_y row brackets the sign changes of ``half_phase`` between 63
    energies E_pump / 64 apart (an evanescent sample brackets nothing, and
    two zeros within one spacing are missed); all brackets are then bisected
    together down to adjacent floating-point energies.  Returns flat arrays
    (e0, slope, column, row): the zero in keV, |dx/dE| there in 1/keV, the
    theta_x index and the index of the non-negative theta_y row.
    """
    tx = grid.theta_x_centers()
    ty = grid.theta_y_centers()[grid.n_y // 2 :]
    energies = np.linspace(0.0, kin.pump_kev, 65)[1:-1]
    brackets = []
    for row, theta_y in enumerate(ty):
        x = kin.half_phase(energies[:, None], tx, theta_y)
        k, column = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)
        brackets.append((k, column, np.full(k.size, row)))
    k, column, row = (np.concatenate(parts) for parts in zip(*brackets))
    theta_x, theta_y = tx[column], ty[row]
    lo, hi = energies[k], energies[k + 1]
    lo_sign = np.sign(kin.half_phase(lo, theta_x, theta_y))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        right = np.sign(kin.half_phase(mid, theta_x, theta_y)) == lo_sign
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid, np.abs(kin.half_phase_slope(mid, theta_x, theta_y)), column, row


def _deposit_lines(w, edges, e0, slope, column, weight):
    """Add ``weight`` times the integral of sinc^2(slope * (E - e0)) over
    each energy cell between ``edges``, within |x| <= LINE_HALF_WIDTH, to
    column ``column`` of ``w`` (n_energy, n_x), one line per entry of the
    1-D arrays (``weight`` included).  The part of a line outside the
    window is dropped."""
    n_energy = len(edges) - 1
    reach = LINE_HALF_WIDTH / slope
    first = np.clip(np.searchsorted(edges, e0 - reach, side="right") - 1, 0, n_energy)
    stop = np.minimum(np.searchsorted(edges, e0 + reach), n_energy)
    hit = stop > first
    if not hit.any():
        return
    e0, slope, column, weight, first = e0[hit], slope[hit], column[hit], weight[hit], first[hit]
    # Cells past a line's band, or past the window, get zero-width x steps.
    edge = np.minimum(first[:, None] + np.arange((stop[hit] - first).max() + 1), n_energy)
    x = slope[:, None] * (edges[edge] - e0[:, None])
    np.clip(x, -LINE_HALF_WIDTH, LINE_HALF_WIDTH, out=x)
    mass = np.diff(_sinc2_antiderivative(x), axis=1)
    mass *= (weight / slope)[:, None]
    np.add.at(w, (np.minimum(edge[:, :-1], n_energy - 1), column[:, None]), mass)


def _mirror_weight(grid: GridSpec, row):
    """Multiplicity of each non-negative theta_y row index in ``row``: 1 for
    the theta_y = 0 row of an odd n_y, 2 for a row that stands for its
    mirror row too."""
    return np.where((grid.n_y % 2 == 1) & (row == 0), 1.0, 2.0)


def _window_ridge(config: SpdcConfig, grid: GridSpec, e0, slope, column, mirror) -> Ridge:
    """The ``Ridge`` of the zeros (``_ridge``) that lie in the energy window."""
    inside = (e0 >= grid.energy_lo_kev) & (e0 <= grid.energy_hi_kev)
    scale = config.kappa_l**2 * math.pi * grid.d_theta_y * grid.d_theta_x
    return Ridge(
        e0[inside], grid.theta_x_centers()[column[inside]], scale * mirror[inside] / slope[inside]
    )


def pair_ridge(config: SpdcConfig, grid: GridSpec | None = None) -> Ridge:
    """The ridge ``biphoton_amplitude`` keeps, solved without depositing W."""
    if grid is None:
        grid = GridSpec()
    e0, slope, column, row = _ridge(_Kinematics(config), grid)
    return _window_ridge(config, grid, e0, slope, column, _mirror_weight(grid, row))


def biphoton_amplitude(
    config: SpdcConfig, grid: GridSpec | None = None, *, normalize: bool = True
) -> PairIntensity:
    """theta_y-integrated pair intensity |amplitude|^2 on the (energy, theta_x) grid.

    Each cell holds kappa_L^2 times the mean, across the cell's energy
    extent, of the sinc^2 lines of the ridge (``_ridge``) in its theta_x
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
    temporaries are one theta_y row's lines by the cells each spans.  With
    ``normalize`` the intensity integrates to 1 over the window.  The
    result keeps the zeros in the window as its ``ridge``.
    """
    if grid is None:
        grid = GridSpec()
    e0, slope, column, row = _ridge(_Kinematics(config), grid)
    mirror = _mirror_weight(grid, row)
    w = np.zeros((grid.n_energy, grid.n_x))
    edges = grid.energy_edges()
    for r in range(grid.n_y - grid.n_y // 2):
        on = row == r
        _deposit_lines(w, edges, e0[on], slope[on], column[on], mirror[on])
    w *= config.kappa_l**2 * grid.d_theta_y / grid.d_energy
    if normalize:
        norm = float(np.sum(w)) * grid.d_energy * grid.d_theta_x
        if norm == 0.0:
            raise ValueError("pair intensity vanishes identically on this grid")
        w /= norm
    ridge = _window_ridge(config, grid, e0, slope, column, mirror)
    return PairIntensity(config, grid, grid.energy_centers(), grid.theta_x_centers(), w, ridge)


def amplitude_at(config: SpdcConfig, energy_kev, theta_x, theta_y):
    """Pointwise first-order amplitude kappa_L * sinc(x) * exp(i x), x = dk_z L/2.

    Broadcasts its arguments; zero where the partner is evanescent.
    """
    x = _Kinematics(config).half_phase(energy_kev, theta_x, theta_y)
    bad = np.isnan(x)
    x = np.where(bad, 0.0, x)
    return np.where(bad, 0.0, config.kappa_l * sinc(x)) * np.exp(1j * x)


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
    rate fraction.
    """
    refl, trans = response(
        spec, intensity.energies[:, None], np.degrees(intensity.theta_x)[None, :], material
    )
    d_x = intensity.grid.d_theta_x
    refl_dens = (intensity.weights * refl).sum(axis=1) * d_x
    trans_dens = (intensity.weights * trans).sum(axis=1) * d_x
    return intensity.energies, refl_dens, trans_dens


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
    times the transmission through ``air`` along ``air_path_cm``, taken at
    each zero E0 of ``ridge`` (those in the energy window) and weighted by
    that line's whole intensity, pi / s; the sum is normalized by the
    ridge's total weight.  A zero whose wavelength exceeds the retuned 2d
    reflects nothing.

    A fold over the 2-D W instead takes the splitter at the energy cell
    centres across each line's band (+-68 eV of E0 hold all but 3e-4 of
    the line, the same share for every line, so the normalization cancels
    it).  The two differ by that energy binning: 2.7e-5 (relative, at 45
    deg) on the reference grid, 1.9e-4 on a 400-cell energy grid.  The
    rocking curve is resolved only as finely as the ridge's theta_x grid;
    ``sweep_grid`` gives a grid fine enough for a rocking width.  Returns a
    list of (theta_B_deg, rate).
    """
    sweep_deg = list(sweep_deg)
    if not sweep_deg:
        return []
    for t in sweep_deg:
        if not (0.0 < t < 90.0):
            raise ValueError("sweep angles must lie in (0, 90) degrees")
    total = float(ridge.weights.sum())
    if total == 0.0:
        raise ValueError("the pair ridge has no zero in the energy window")
    w = ridge.weights * transmittance(ridge.energies, air, air_path_cm)
    half_lambda = 0.5 * wavelength(ridge.energies)
    dtheta_deg = np.degrees(ridge.theta_x)
    rates = []
    for t in sweep_deg:
        spec = _retuned(splitter, t)
        # sin(theta_B(E0)); splitter.reflectivity's arg, with R = 0 where
        # lambda > 2d instead of raising.
        s = half_lambda / spec.lattice.d_spacing
        reflects = s <= 1.0
        arg = dtheta_deg + spec.nominal_bragg_deg() - np.degrees(np.arcsin(np.where(reflects, s, 1.0)))
        r = np.where(reflects, np.exp(-((arg / spec.width_deg) ** 2)), 0.0)
        rates.append((t, spec.peak_reflectivity * float(w @ r) / total))
    return rates
