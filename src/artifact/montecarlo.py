"""Seeded stochastic generation of photon streams and detector pulses.

Photon and pulse streams are ``Stream``s: one contiguous numpy column per
field.  ``generate_pairs`` draws over a window [t0, t1) ns of the run
(``simulate`` runs it in the time slices of ``slice_edges_s``), routes the
pairs by the per-zero ``PairRoutes`` of the run and returns three parts
in TRIG, TRANS, REF order; ``detect`` turns one such part
into pulses with its detector's spec and keeps the order.  The background
is drawn directly as pulses (``StrayBackground``): per detector, the pulses
with and without a logic pulse are two independent Poisson processes,
drawn on one whole slice (``poisson_times``) or on the windows within a
reach of a set of starts (``reach_windows``), straight from the sorted
starts by keeping each time only in the first window that covers it
(``first_cover_times``), and only counted elsewhere (``reach_length``),
with energies from ``StrayBackground.pulses``.  Each part is in time order
and of one detector, and ``merge_streams`` is the one place that orders a
stream.  Every generator takes the ``numpy.random.Generator`` it draws
from, so identical (config, generator state) pairs produce bit-identical
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spdc import Ridge
from .splitter import SplitterSpec, response
from .xoptics import AttenuationTable, transmittance

DET_TRIG, DET_TRANS, DET_REF = 0, 1, 2
DETECTORS = (DET_TRIG, DET_TRANS, DET_REF)
DETECTOR_NAMES = {DET_TRIG: "trig", DET_TRANS: "trans", DET_REF: "ref"}
ORIGIN_PAIR_TRIGGER, ORIGIN_PAIR_HERALD, ORIGIN_STRAY = 0, 1, 2
N_ORIGINS = 3

FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class StraySpectrum:
    """Background energy distribution: flat band plus an elastic line."""

    flat_lo_kev: float = 7.0
    flat_hi_kev: float = 10.0
    line_energy_kev: float = 21.0
    line_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.flat_lo_kev < self.flat_hi_kev < math.inf:
            raise ValueError("flat band must satisfy 0 < lo < hi < inf")
        if not (0.0 <= self.line_fraction <= 1.0):
            raise ValueError("line fraction must lie in [0, 1]")
        if not 0.0 < self.line_energy_kev < math.inf:
            raise ValueError("line energy must be finite and positive")

    def sample(self, rng: np.random.Generator, n: int):
        flat = rng.uniform(self.flat_lo_kev, self.flat_hi_kev, n)
        is_line = rng.random(n) < self.line_fraction
        return np.where(is_line, self.line_energy_kev, flat)


@dataclass(frozen=True)
class SourceConfig:
    """Rates, background model, and flight-path geometry of a run."""

    pair_rate: float = 0.0675  # pairs/s leaving the source crystal
    stray_rates: tuple[float, float, float] = (5000.0, 3600.0, 2400.0)  # trig, trans, ref
    spectrum: StraySpectrum = field(default_factory=StraySpectrum)
    duration_s: float = 100.0
    rng_seed: int = 20260823
    air_path_cm: float = 10.0
    helium_path_cm: float = 90.0

    def __post_init__(self):
        # Written so that NaN and infinity fail every check.
        if not all(0 <= r < math.inf for r in (self.pair_rate, *self.stray_rates)):
            raise ValueError("rates must be finite and non-negative")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError("duration must be finite and positive")
        if not (0.0 <= self.air_path_cm < math.inf and 0.0 <= self.helium_path_cm < math.inf):
            raise ValueError("flight paths must be finite and non-negative")
        if not self.rng_seed >= 0:  # numpy's SeedSequence takes none below 0
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")

    def photon_rate_hz(self) -> float:
        """Expected photons per second before any loss: two per pair plus
        the stray rates."""
        return 2.0 * self.pair_rate + sum(self.stray_rates)


@dataclass(frozen=True)
class DetectorSpec:
    """Response of one energy-resolving detector and its SCA window.

    The pulse widths are the electronics' and live in ``daq.DaqConfig``.
    """

    quantum_efficiency: float = 1.0
    resolution_fwhm_ev: float = 300.0  # at the reference energy
    reference_energy_kev: float = 10.5
    sca_window_kev: tuple[float, float] = (7.0, 22.0)

    def __post_init__(self):
        # Written so that NaN and infinity fail every check.
        if not (0.0 <= self.quantum_efficiency <= 1.0):
            raise ValueError("quantum efficiency must lie in [0, 1]")
        if not 0.0 <= self.resolution_fwhm_ev < math.inf:
            raise ValueError("resolution must be finite and non-negative")
        if not 0.0 < self.reference_energy_kev < math.inf:
            raise ValueError("reference energy must be finite and positive")
        if not -math.inf < self.sca_window_kev[0] < self.sca_window_kev[1] < math.inf:
            raise ValueError("SCA window must satisfy -inf < lo < hi < inf")

    def sigma_kev(self, energy_kev):
        """Gaussian energy-noise sigma, scaling as sqrt(E) from the reference."""
        e = np.asarray(energy_kev, dtype=float)
        return (
            self.resolution_fwhm_ev
            / FWHM_TO_SIGMA
            / 1000.0
            * np.sqrt(np.maximum(e, 0.0) / self.reference_energy_kev)
        )


@dataclass(frozen=True, eq=False)
class Stream:
    """Photons or detector pulses, one contiguous 1-D column per field.

    ``time_ns`` is the arrival time (for a pulse, its start), ``energy_kev``
    the true energy (for a pulse, the measured analog pulse height),
    ``detector`` and ``origin`` int8 ids, and ``logic``, for pulses only,
    whether a logic pulse was emitted (measured energy inside the SCA
    window).  Streams are kept in time order, equal times in merge order.
    ``len()`` counts entries.
    """

    time_ns: np.ndarray
    energy_kev: np.ndarray
    detector: np.ndarray
    origin: np.ndarray
    logic: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.time_ns)

    def _columns(self):
        return (self.time_ns, self.energy_kev, self.detector, self.origin, self.logic)

    def between(self, lo_ns: float, hi_ns: float) -> Stream:
        """The entries with lo_ns <= time_ns < hi_ns, as views of the columns."""
        i, j = np.searchsorted(self.time_ns, (lo_ns, hi_ns), side="left")
        return Stream(*(None if c is None else c[i:j] for c in self._columns()))


def join_streams(*streams: Stream) -> Stream:
    """Concatenate streams that follow one another in time, without sorting;
    all of them or none carry ``logic``."""
    return Stream(*(
        None if columns[0] is None else np.concatenate(columns)
        for columns in zip(*(s._columns() for s in streams))
    ))


def _photons(time_ns, energy_kev, detector, origin) -> Stream:
    """Photon stream of one detector and one origin."""
    n = len(time_ns)
    return Stream(time_ns, energy_kev, np.full(n, detector, np.int8), np.full(n, origin, np.int8))


def merge_streams(*streams: Stream) -> Stream:
    """Join streams and stable-sort them by time: equal times keep argument
    order, then their order within each stream."""
    joined = join_streams(*streams)
    order = np.argsort(joined.time_ns, kind="stable")
    return Stream(*(None if c is None else c[order] for c in joined._columns()))


# Photons expected per time slice of ``simulate`` before its background is
# cut to the windows near logic pulses; the slice length follows from the
# source's photon rate (``slice_edges_s``).  Part of the stream definition:
# each slice draws from its own generator.  The slices keep about 4.4k
# pulses (209k in the 47 slices of a 600 s bundled run), but the trigger
# logic times of a slice are drawn whole, so the slice length still sets
# the peak memory.  Chosen with ``cli.cmd_simulate`` on the reference
# profile at seed 7, one pinned CPU, Python 3.11 and numpy 2.4 on a 2-CPU
# x86-64 host, in process (median wall time of 5 runs at 600 s and of 3 at
# 3000 s, and max RSS, at 600 s / 3000 s), when the output background was
# drawn on explicit window arrays: 50k photons 0.51 / 2.87 s, 40.5 / 41.6
# MB; 100k 0.51 / 2.29 s, 43.4 / 44.4 MB; 150k 0.53 / 2.18 s, 45.5 / 46.4
# MB; 200k 0.45 / 2.43 s, 47.9 / 48.8 MB; the code before the trigger cut,
# at 50k, 0.79 / 3.62 s, 44.6 / 46.1 MB.  150k is the largest size whose
# max RSS stayed within 5% of the latter's at both lengths.  Re-measured at
# 150k, 5 runs each, with the trigger times merged once per slice and the
# pairs routed once per run: 0.26 / 1.23 s and 40.7 / 41.5 MB.
PHOTONS_PER_SLICE = 150_000


def slice_edges_s(source: SourceConfig) -> np.ndarray:
    """Edges in seconds of the time slices ``simulate`` runs one at a time:
    0, L, 2L, ... and ``duration_s`` last, with L = max(1,
    floor(PHOTONS_PER_SLICE / expected photon rate)) whole seconds."""
    rate = source.photon_rate_hz()
    length = max(1, math.floor(PHOTONS_PER_SLICE / rate)) if rate > 0 else math.inf
    return np.append(np.arange(0.0, source.duration_s, length), source.duration_s)


def poisson_times(rng, rate_hz, t0_ns: float, t1_ns: float):
    """Sorted times in ns of a Poisson process at ``rate_hz`` on [t0_ns,
    t1_ns): one Poisson count over its length L, placed uniformly on it in
    one pass (t0_ns + L u: the bits of ``uniform(0, L)`` + t0_ns), though
    rounding may take a time up to t1_ns."""
    times = rng.uniform(t0_ns, t1_ns, rng.poisson(rate_hz * (t1_ns - t0_ns) * 1e-9))
    times.sort()
    return times


def insert_starts(dense_ns, sparse_ns, t0_ns: float, t1_ns: float):
    """``np.sort(np.concatenate(([t0_ns], sparse_ns, dense_ns, [t1_ns])))``
    for sorted ``dense_ns`` and ``sparse_ns`` in [t0_ns, t1_ns]: the few
    sparse times and the edges are looked up in the dense ones and put in
    with one copy.  Equal times are equal bits, so their order is moot."""
    few = np.concatenate(([t0_ns], sparse_ns, [t1_ns]))
    return np.insert(dense_ns, np.searchsorted(dense_ns, few), few)


def reach_windows(starts_ns, reach_ns: float):
    """The union of [t - reach_ns, t + reach_ns) over the times t of the
    sorted ``starts_ns``, clipped to [starts_ns[0], starts_ns[-1]), as (lo,
    hi) arrays of its disjoint windows in time order.

    ``simulate`` passes a slice's logic starts of one side with the slice
    edges first and last, and reach ``DaqConfig.reach_ns``: the edges count
    as starts, so the pulses that events across an edge need are always
    drawn.  Around the trigger logic starts it draws the output detectors'
    background (``first_cover_times``); around the output logic starts it
    draws the trigger detector's background and keeps its logic pulses
    (``in_windows``)."""
    # A new window begins where a time lies more than 2 reach after the
    # one before it.
    gap = np.flatnonzero(np.diff(starts_ns) > 2.0 * reach_ns)
    lo = np.concatenate((starts_ns[:1], starts_ns[gap + 1] - reach_ns))
    hi = np.concatenate((starts_ns[gap] + reach_ns, starts_ns[-1:]))
    return lo, hi


def reach_length(starts_ns, reach_ns: float) -> float:
    """Summed length in ns of ``reach_windows(starts_ns, reach_ns)``,
    without building them.  Unclipped, the first window covers 2 reach and
    each later one min(gap to the start before, 2 reach) beyond the windows
    before it; the clip removes reach below the first start and reach above
    the last."""
    gaps = np.diff(starts_ns)
    return float(np.minimum(gaps, 2.0 * reach_ns, out=gaps).sum())


def first_cover_times(rng, rate_hz, starts_ns, reach_ns: float):
    """Sorted times in ns of a Poisson process at ``rate_hz`` on
    ``reach_windows(starts_ns, reach_ns)``, drawn without building them.

    Every window [t - reach_ns, t + reach_ns) gets its own Poisson process
    at ``rate_hz``: one Poisson count over all their 2 reach_ns
    len(starts_ns), each time placed uniformly in a window drawn uniformly.
    A time is kept only in the first window that covers it, which for
    sorted starts means at or after the end of the window before, and only
    inside [starts_ns[0], starts_ns[-1]).  Disjoint restrictions of
    independent Poisson processes are independent Poisson processes, so
    the kept times are one Poisson process at ``rate_hz`` on the union: the
    canonical-set test of Karp, Luby & Madras, J. Algorithms 10, 429
    (1989).  The cost follows the times drawn, not the starts."""
    n = rng.poisson(rate_hz * len(starts_ns) * 2.0 * reach_ns * 1e-9)
    j = rng.integers(0, len(starts_ns), n)
    centre = starts_ns[j]
    x = centre + rng.uniform(-reach_ns, reach_ns, n)
    # No window comes before window 0: only the clip at starts_ns[0] bounds it.
    first = np.where(j > 0, starts_ns[j - 1] + reach_ns, starts_ns[0])
    # Rounding may take centre + u up to the window's end, which is not in it.
    return np.sort(x[(x >= first) & (x < np.minimum(centre + reach_ns, starts_ns[-1]))])


def in_windows(times_ns: np.ndarray, windows_ns) -> np.ndarray:
    """The sorted ``times_ns`` that fall in the disjoint windows
    ``windows_ns`` = (lo, hi) arrays in ns, each [lo, hi) and in time
    order.  The window edges are looked up in the times, not the other way
    round, so the cost follows the windows and the times kept."""
    lo, hi = (np.searchsorted(times_ns, edges, side="left") for edges in windows_ns)
    sizes = hi - lo
    return times_ns[np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)]


@dataclass(frozen=True, eq=False)
class PairRoutes:
    """Per ridge zero, what ``generate_pairs`` routes a pair drawn at it
    by, built once per run (``of``): the cumulative weights, E0 and the
    trigger's E_pump - E0, R and T (``splitter.response``) and both photons'
    flight-path survivals.  No zero raises: config validation keeps every
    zero inside the attenuation tables and its incidence inside (0, 180)."""

    cdf: np.ndarray
    e_herald: np.ndarray
    e_trig: np.ndarray
    p_ref: np.ndarray
    p_trans: np.ndarray
    herald_survival: np.ndarray
    trig_survival: np.ndarray

    @classmethod
    def of(cls, ridge: Ridge, pump_energy_kev: float, splitter: SplitterSpec, source: SourceConfig,
           material: AttenuationTable, *, air: AttenuationTable, helium: AttenuationTable):
        def path_survival(energy):
            return (transmittance(energy, air, source.air_path_cm)
                    * transmittance(energy, helium, source.helium_path_cm))

        e_h = ridge.energies
        e_t = pump_energy_kev - e_h
        p_ref, p_trans = response(splitter, e_h, np.degrees(ridge.theta_x), material)
        return cls(np.cumsum(ridge.weights), e_h, e_t, p_ref, p_trans,
                   path_survival(e_h), path_survival(e_t))


def generate_pairs(routes: PairRoutes, pair_rate_hz: float, *, rng: np.random.Generator,
                   window_ns: tuple[float, float]):
    """Photons from correlated pairs routed through the beam splitter, as
    three time-ordered parts: the triggers, the heralded photons at TRANS
    and those at REF.

    Pair creation times are a Poisson process at ``pair_rate_hz`` over
    ``window_ns`` = [t0, t1) ns; each pair is the ridge zero drawn with
    probability proportional to its weight, and its photons share one
    creation time.  The heralded photon (energy E0) goes to the reflected
    port with probability R and the transmitted port with probability T,
    and is absorbed otherwise; both photons survive their flight paths with
    the probabilities ``routes`` gives at the zero.
    """
    ports = ((DET_TRIG, ORIGIN_PAIR_TRIGGER), (DET_TRANS, ORIGIN_PAIR_HERALD),
             (DET_REF, ORIGIN_PAIR_HERALD))
    times = poisson_times(rng, pair_rate_hz, *window_ns)
    n = len(times)
    cdf = routes.cdf
    # u * cdf[-1] may round up to cdf[-1]: the last zero takes it.
    zero = np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right"), cdf.size - 1)
    p_ref, p_trans = routes.p_ref[zero], routes.p_trans[zero]
    u_route = rng.random(n)
    herald_alive = rng.random(n) < routes.herald_survival[zero]
    trig_alive = rng.random(n) < routes.trig_survival[zero]
    at_ref = herald_alive & (u_route < p_ref)
    at_trans = herald_alive & (u_route >= p_ref) & (u_route < p_ref + p_trans)
    e_h, e_t = routes.e_herald[zero], routes.e_trig[zero]
    return tuple(
        _photons(times[alive], energy[alive], det, origin)
        for alive, energy, (det, origin) in zip((trig_alive, at_trans, at_ref), (e_t, e_h, e_h), ports)
    )


@dataclass(frozen=True)
class StrayBackground:
    """One detector's background, drawn directly as pulses.

    A stray photon arrives at ``photon_rate_hz``, is detected with
    ``spec``'s quantum efficiency and gives a logic pulse with probability
    ``p_logic`` (``sca_probability``), each independently of its time.  So
    the pulses without and with a logic pulse are two independent Poisson
    processes (thinning), at rates R QE (1 - p) and R QE p (``rate_hz``).
    The samplers draw their times (``poisson_times`` on a whole window,
    ``first_cover_times`` near a set of starts), and ``pulses`` gives drawn
    times their measured energies.
    """

    detector: int
    spectrum: StraySpectrum
    spec: DetectorSpec
    photon_rate_hz: float
    p_logic: float

    @classmethod
    def of(cls, source: SourceConfig, det: int, spec: DetectorSpec) -> StrayBackground:
        """Detector ``det``'s background under ``source``, seen with ``spec``."""
        # Rounding may take the probability a few ulp past 0 or 1.
        p_logic = min(1.0, max(0.0, sca_probability(source.spectrum, spec)))
        return cls(det, source.spectrum, spec, source.stray_rates[det], p_logic)

    def rate_hz(self, logic: bool) -> float:
        """Rate of the pulses with (``logic``) or without a logic pulse."""
        p = self.p_logic if logic else 1.0 - self.p_logic
        return self.photon_rate_hz * self.spec.quantum_efficiency * p

    def pulses(self, logic: bool, times_ns, rng: np.random.Generator) -> Stream:
        """Pulses at the sorted ``times_ns``, all with (``logic``) or all
        without a logic pulse.  Their energies are measured on batches of
        ``spectrum.sample`` photons, as ``detect`` measures them, of which
        the first ``len(times_ns)`` with that flag are kept; ``p_logic``
        only sizes the batches."""
        n = len(times_ns)
        p = self.p_logic if logic else 1.0 - self.p_logic
        kept, need = [np.zeros(0)], n
        while need > 0:
            # About 10% more photons than ``need`` expects, so one batch
            # nearly always suffices.
            size = _ENERGY_BATCH
            if 1.1 * need < p * _ENERGY_BATCH:
                size = min(size, math.ceil(1.1 * need / p) + 16)
            measured, flag = _measure(self.spectrum.sample(rng, size), self.spec, rng)
            kept.append(measured[flag == logic][:need])
            need -= kept[-1].size
        return Stream(times_ns, np.concatenate(kept), np.full(n, self.detector, np.int8),
                      np.full(n, ORIGIN_STRAY, np.int8), np.full(n, logic))


# Photons ``StrayBackground.pulses`` measures at most per batch, so that a
# rare logic flag costs batches, not memory.
_ENERGY_BATCH = 65_536


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    the eigenvalues of the Jacobi matrix of the Legendre recurrence, and
    twice the squared first components of its eigenvectors (Golub and
    Welsch, 1969)."""
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return nodes, 2.0 * vectors[0] ** 2


# ``sca_probability``'s flat-band rule: 10-point Gauss-Legendre panels, and
# the distance in sigmas beyond which a photon counts as surely inside or
# outside an SCA edge (Phi(-8) = 6.2e-16).
_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre(10)
_EDGE_SIGMAS = 8.0
_erfc = np.vectorize(math.erfc, otypes=[float])


def _measured_below(edge_kev: float, energy_kev, c: float):
    """P(E + z c sqrt(E) <= edge_kev) for true energies E > 0 and c > 0."""
    return 0.5 * _erfc((energy_kev - edge_kev) / (c * np.sqrt(energy_kev)) / math.sqrt(2.0))


def _flat_measured_below(edge_kev: float, lo_kev: float, hi_kev: float, c: float) -> float:
    """The integral over E in [lo_kev, hi_kev] of ``_measured_below``.

    |E - edge| <= K c sqrt(E) (K = ``_EDGE_SIGMAS``) holds on one band of E,
    sqrt(E) from |r - Kc| / 2 to (r + Kc) / 2 with r = sqrt(K^2 c^2 + 4
    edge), or nowhere when r is not real.  Below that band the integrand is
    1 within Phi(-K) if the edge is positive and 0 otherwise, above it 0;
    on it, Gauss-Legendre panels no wider than sigma at the band's lower
    end integrate it.
    """
    k_c = _EDGE_SIGMAS * c
    r_sq = k_c * k_c + 4.0 * edge_kev
    if r_sq < 0.0:
        return 0.0
    r = math.sqrt(r_sq)
    band_lo, band_hi = max(lo_kev, (r - k_c) ** 2 / 4.0), min(hi_kev, (r + k_c) ** 2 / 4.0)
    below = max(0.0, min(hi_kev, band_lo) - lo_kev) if edge_kev > 0.0 else 0.0
    if band_lo >= band_hi:
        return below
    panels = math.ceil((band_hi - band_lo) / (c * math.sqrt(band_lo)))
    half = 0.5 * (band_hi - band_lo) / panels
    centres = band_lo + half * (2.0 * np.arange(panels) + 1.0)
    energies = (centres[:, None] + half * _GAUSS_NODES).ravel()
    return below + half * float(np.dot(np.tile(_GAUSS_WEIGHTS, panels),
                                       _measured_below(edge_kev, energies, c)))


def sca_probability(spectrum: StraySpectrum, spec: DetectorSpec) -> float:
    """Probability that ``detect`` gives a stray photon a logic pulse, given
    its analog pulse: that E + z sigma(E) lies in ``spec``'s SCA window,
    for E drawn from ``spectrum`` and z standard normal.

    The line term is closed form in erfc.  The flat band's is not, since
    sigma grows as sqrt(E); ``_flat_measured_below`` integrates it with
    10-point Gauss-Legendre panels no wider than one sigma, over the band
    of E within 8 sigma of each SCA edge, and counts the band's outside as
    surely in or out.  Per edge, that cut costs at most Phi(-8) = 6.2e-16;
    the panels agree with panels ten times narrower within 1e-15 for
    sigma(7 keV) from 2.6 eV to 26 keV and edges from -0.5 to 15 keV.  The
    stated error bound is 1e-9, which the tests check against composite
    Simpson.  At zero resolution the SCA test is exact and so is the
    result.  The coefficient c = sigma(E) / sqrt(E) is written out here,
    not taken from ``DetectorSpec.sigma_kev``: p sets the background's
    Poisson rates, so a change in its last bit would change every stream.
    """
    sca_lo, sca_hi = spec.sca_window_kev
    flat_lo, flat_hi = spectrum.flat_lo_kev, spectrum.flat_hi_kev
    line = spectrum.line_energy_kev
    if spec.resolution_fwhm_ev == 0.0:
        p_line = float(sca_lo <= line <= sca_hi)
        p_flat = max(0.0, min(flat_hi, sca_hi) - max(flat_lo, sca_lo)) / (flat_hi - flat_lo)
    else:
        c = spec.resolution_fwhm_ev / FWHM_TO_SIGMA / 1000.0 / math.sqrt(spec.reference_energy_kev)
        p_line = float(_measured_below(sca_hi, line, c) - _measured_below(sca_lo, line, c))
        p_flat = (_flat_measured_below(sca_hi, flat_lo, flat_hi, c)
                  - _flat_measured_below(sca_lo, flat_lo, flat_hi, c)) / (flat_hi - flat_lo)
    return spectrum.line_fraction * p_line + (1.0 - spectrum.line_fraction) * p_flat


def _measure(energy_kev, spec: DetectorSpec, rng: np.random.Generator):
    """Measured energies E + z * ``spec.sigma_kev``(E), z standard normal,
    and whether each falls inside ``spec``'s SCA window (a logic pulse)."""
    measured = energy_kev + rng.standard_normal(len(energy_kev)) * spec.sigma_kev(energy_kev)
    sca_lo, sca_hi = spec.sca_window_kev
    return measured, (measured >= sca_lo) & (measured <= sca_hi)


def detect(photons: Stream, spec: DetectorSpec, rng: np.random.Generator) -> Stream:
    """Convert a time-ordered stream of one detector's photons to a pulse
    stream in the same order.

    Each photon survives with ``spec``'s quantum efficiency; the measured
    energy adds Gaussian noise z * ``spec.sigma_kev``(E); a logic pulse
    accompanies the analog pulse iff the measured energy falls inside the
    SCA window.
    """
    alive = rng.random(len(photons)) < spec.quantum_efficiency
    measured, logic = _measure(photons.energy_kev[alive], spec, rng)
    return Stream(photons.time_ns[alive], measured, photons.detector[alive],
                  photons.origin[alive], logic)
