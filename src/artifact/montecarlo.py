"""Seeded stochastic generation of photon streams and detector pulses.

Photon and pulse streams are ``Stream``s: one contiguous numpy column per
field (cheap for tens of millions of entries).  The generators draw over a
window [t0, t1) of the run (``simulate`` runs it in the time slices of
``slice_edges_s``) and return their parts, each in time order;
``merge_streams`` is the one place that orders a stream, and ``detect``
keeps the order.  Every generator takes the ``numpy.random.Generator`` it
draws from, so identical (config, generator state) pairs produce
bit-identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spdc import Ridge
from .splitter import SplitterSpec, response
from .xoptics import AttenuationTable, transmittance

DET_TRIG, DET_TRANS, DET_REF = 0, 1, 2
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

    The pulse widths the coincidence electronics use are the trigger
    detector's and live in ``daq.DaqConfig``.
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


_PHOTON_COLUMNS = (("time_ns", np.float64), ("energy_kev", np.float64),
                   ("detector", np.int8), ("origin", np.int8))


def _photons(time_ns, energy_kev, detector, origin) -> Stream:
    """Photon stream, not yet ordered; a scalar ``detector`` or ``origin``
    applies to every photon."""
    n = len(time_ns)
    detector, origin = (np.broadcast_to(np.asarray(c, dtype=np.int8), n) for c in (detector, origin))
    return Stream(time_ns, energy_kev, detector.copy(), origin.copy())


def merge_streams(*streams: Stream) -> Stream:
    """Concatenate photon streams and stable-sort by arrival time: equal
    times keep argument order, then their order within each stream."""

    def column(name, dtype):
        # The empty head fixes the dtype when no stream is given.
        return np.concatenate([np.empty(0, dtype)] + [getattr(s, name) for s in streams])

    time_ns = column("time_ns", np.float64)
    order = np.argsort(time_ns, kind="stable")
    time_ns = time_ns[order]
    return Stream(time_ns, *(column(name, dtype)[order] for name, dtype in _PHOTON_COLUMNS[1:]))


# Photons expected per time slice of ``simulate``; the slice length follows
# from the source's photon rate (``slice_edges_s``).  Part of the stream
# definition: each slice draws from its own generators.  Measured with
# ``cli.cmd_simulate`` on the reference profile, 600 s at seed 7, one pinned
# CPU, Python 3.11 and numpy 2.4 on a 2-CPU x86-64 host (wall time after the
# pair intensity, median of 3, and peak RSS): 25k photons 0.91-0.99 s /
# 49 MB, 50k 0.74-0.76 s / 56 MB, 100k 0.73-0.75 s / 66 MB, 200k
# 0.70-0.73 s / 71 MB, 400k 0.74 s / 97 MB, one slice 0.87-0.90 s / 463 MB.
# Before the first slice, after solving the pair ridge, the process peaks
# at 30 MB, so the slices set the peak.
PHOTONS_PER_SLICE = 50_000


def slice_edges_s(source: SourceConfig) -> np.ndarray:
    """Edges in seconds of the time slices ``simulate`` runs one at a time:
    0, L, 2L, ... and ``duration_s`` last, with L = max(1,
    floor(PHOTONS_PER_SLICE / expected photon rate)) whole seconds."""
    rate = source.photon_rate_hz()
    length = max(1, math.floor(PHOTONS_PER_SLICE / rate)) if rate > 0 else math.inf
    return np.append(np.arange(0.0, source.duration_s, length), source.duration_s)


def _poisson_times(rng, rate_hz, window_s):
    t0, t1 = window_s
    n = rng.poisson(rate_hz * (t1 - t0))
    return np.sort(rng.uniform(t0 * 1e9, t1 * 1e9, n))


def generate_pairs(
    ridge: Ridge,
    pump_energy_kev: float,
    splitter: SplitterSpec,
    source: SourceConfig,
    material: AttenuationTable,
    *,
    air: AttenuationTable,
    helium: AttenuationTable,
    rng: np.random.Generator,
    window_s: tuple[float, float] | None = None,
):
    """Photons from correlated pairs routed through the beam splitter, as
    two time-ordered parts ``(trigger, herald)``.

    Pair creation times are a Poisson process at ``source.pair_rate`` over
    ``window_s`` = [t0, t1) seconds (default the whole run); each pair is
    one zero of the phase-matching ridge, drawn with probability
    proportional to its weight: the heralded photon takes its energy E0 and
    theta_x, the partner the energy ``pump_energy_kev`` - E0, and the two
    photons share one creation time.  The heralded photon goes to the
    reflected port with probability R and the transmitted port with
    probability T (``splitter.response``), and is absorbed otherwise; both
    photons are additionally thinned by flight-path absorption through
    ``source.air_path_cm`` of ``air`` and ``source.helium_path_cm`` of
    ``helium``.
    """
    times = _poisson_times(rng, source.pair_rate, window_s or (0.0, source.duration_s))
    n = len(times)
    if n == 0:
        # Most slices of the reference profile draw no pair; skip their
        # splitter and flight-path lookups.  Draws of size 0 consume no
        # random numbers, so the stream is the same either way.
        return (_photons(times, times, DET_TRIG, ORIGIN_PAIR_TRIGGER),
                _photons(times, times, DET_REF, ORIGIN_PAIR_HERALD))
    cdf = np.cumsum(ridge.weights)
    # u * cdf[-1] may round up to cdf[-1]: the last zero takes it.
    zero = np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right"), cdf.size - 1)
    e_h, t_x = ridge.energies[zero], ridge.theta_x[zero]
    e_t = pump_energy_kev - e_h

    def path_survival(energy):
        return (transmittance(energy, air, source.air_path_cm)
                * transmittance(energy, helium, source.helium_path_cm))

    p_ref, p_trans = response(splitter, e_h, np.degrees(t_x), material)
    u_route = rng.random(n)
    herald_det = np.where(
        u_route < p_ref, DET_REF, np.where(u_route < p_ref + p_trans, DET_TRANS, -1)
    ).astype(np.int8)
    herald_alive = (herald_det >= 0) & (rng.random(n) < path_survival(e_h))
    trig_alive = rng.random(n) < path_survival(e_t)

    trig = _photons(times[trig_alive], e_t[trig_alive], DET_TRIG, ORIGIN_PAIR_TRIGGER)
    herald = _photons(
        times[herald_alive], e_h[herald_alive], herald_det[herald_alive], ORIGIN_PAIR_HERALD
    )
    return trig, herald


def generate_stray(
    source: SourceConfig,
    *,
    rng: np.random.Generator,
    window_s: tuple[float, float] | None = None,
):
    """Independent Poisson background per detector with i.i.d. energies over
    ``window_s`` = [t0, t1) seconds (default the whole run), as three
    time-ordered parts (TRIG, TRANS, REF)."""
    parts = []
    for det, rate in zip((DET_TRIG, DET_TRANS, DET_REF), source.stray_rates):
        times = _poisson_times(rng, rate, window_s or (0.0, source.duration_s))
        energies = source.spectrum.sample(rng, len(times))
        parts.append(_photons(times, energies, det, ORIGIN_STRAY))
    return tuple(parts)


def detect(
    photons: Stream,
    specs: dict[int, DetectorSpec],
    rng: np.random.Generator,
) -> Stream:
    """Convert a time-ordered photon stream to a pulse stream in the same order.

    Each photon survives with its detector's quantum efficiency; the
    measured energy adds Gaussian noise at the detector's resolution; a
    logic pulse accompanies the analog pulse iff the measured energy falls
    inside the SCA window.  When every photon survives, the pulses share the
    photons' time, detector and origin arrays.
    """
    detector = photons.detector
    ids = range(int(detector.min()), int(detector.max()) + 1) if len(photons) else ()
    if not set(ids) <= set(specs):  # min and max are cheap; unique only on doubt
        unknown = set(np.unique(detector).tolist()) - set(specs)
        if unknown:
            raise ValueError(f"photon stream references detectors without specs: {sorted(unknown)}")

    def per_detector(value):
        """``value(spec)`` as one number when every spec gives the same float
        (``float.hex`` tells -0.0 from 0.0), else as a lookup table indexed
        by detector id.  Arithmetic and comparisons against one number give
        the same bits as against a per-photon gather of it."""
        values = [float(value(spec)) for spec in specs.values()]
        if len({v.hex() for v in values}) <= 1:
            return values[0] if values else 0.0
        out = np.zeros(max(specs) + 1)
        out[list(specs)] = values
        return out

    qe = per_detector(lambda s: s.quantum_efficiency)
    # noise = z * c * sqrt(max(E, 0) / E_ref) with c evaluated as in
    # DetectorSpec.sigma_kev; products and sums commute exactly, so the
    # pulse heights are bit-identical to E + z * sigma_kev(E).
    sigma_c = per_detector(lambda s: s.resolution_fwhm_ev / FWHM_TO_SIGMA / 1000.0)
    ref_kev = per_detector(lambda s: s.reference_energy_kev)
    sca_lo = per_detector(lambda s: s.sca_window_kev[0])
    sca_hi = per_detector(lambda s: s.sca_window_kev[1])
    # Detector ids become table indices, once, only when some value differs.
    differs = any(isinstance(v, np.ndarray) for v in (qe, sigma_c, ref_kev, sca_lo, sca_hi))
    index = detector.astype(np.intp) if differs else None

    def at(value):
        return value[index] if isinstance(value, np.ndarray) else value

    alive = rng.random(len(photons)) < at(qe)
    columns = (photons.time_ns, photons.energy_kev, detector, photons.origin)
    if not alive.all():  # with QE 1 every photon survives: no column is copied
        columns = tuple(c[alive] for c in columns)
        index = None if index is None else index[alive]
    time_ns, energy, detector, origin = columns
    noise = np.maximum(energy, 0.0)
    noise /= at(ref_kev)
    np.sqrt(noise, out=noise)
    noise *= at(sigma_c)
    noise *= rng.standard_normal(len(noise))
    measured = energy + noise
    logic = (measured >= at(sca_lo)) & (measured <= at(sca_hi))
    return Stream(time_ns, measured, detector, origin, logic)
