"""Seeded stochastic generation of photon streams and detector pulses.

Photon and pulse streams are numpy structured arrays (cheap for tens of
millions of entries).  All randomness flows from a single 64-bit
seed through ``numpy.random.default_rng`` substreams, so identical
(config, seed) pairs produce bit-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spdc import PairIntensity
from .splitter import SplitterSpec, reflectivity, transmission
from .xoptics import AttenuationTable, transmittance

DET_TRIG, DET_TRANS, DET_REF = 0, 1, 2
DETECTOR_NAMES = {DET_TRIG: "trig", DET_TRANS: "trans", DET_REF: "ref"}
ORIGIN_PAIR_TRIGGER, ORIGIN_PAIR_HERALD, ORIGIN_STRAY = 0, 1, 2

PHOTON_DTYPE = np.dtype(
    [
        ("time_ns", "f8"),
        ("energy_kev", "f8"),  # true energy
        ("detector", "i1"),
        ("origin", "i1"),
    ]
)

PULSE_DTYPE = np.dtype(
    [
        ("start_ns", "f8"),
        ("energy_kev", "f8"),  # measured energy (analog pulse height)
        ("detector", "i1"),
        ("origin", "i1"),
        ("logic", "?"),  # logic pulse emitted (energy inside the SCA window)
    ]
)

FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class StraySpectrum:
    """Background energy distribution: flat band plus an elastic line."""

    flat_lo_kev: float = 7.0
    flat_hi_kev: float = 10.0
    line_energy_kev: float = 21.0
    line_fraction: float = 0.1

    def __post_init__(self):
        if not (self.flat_hi_kev > self.flat_lo_kev > 0):
            raise ValueError("flat band must satisfy 0 < lo < hi")
        if not (0.0 <= self.line_fraction <= 1.0):
            raise ValueError("line fraction must lie in [0, 1]")

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
        if self.pair_rate < 0 or any(r < 0 for r in self.stray_rates):
            raise ValueError("rates must be non-negative")
        if not self.duration_s > 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class DetectorSpec:
    """Response of one energy-resolving detector and its pulse shaping."""

    quantum_efficiency: float = 1.0
    resolution_fwhm_ev: float = 300.0  # at the reference energy
    reference_energy_kev: float = 10.5
    analog_width_ns: float = 200.0
    logic_width_ns: float = 1000.0
    sca_window_kev: tuple[float, float] = (7.0, 22.0)

    def __post_init__(self):
        if not (0.0 <= self.quantum_efficiency <= 1.0):
            raise ValueError("quantum efficiency must lie in [0, 1]")
        if self.analog_width_ns <= 0 or self.logic_width_ns <= 0:
            raise ValueError("pulse widths must be positive")
        if not self.sca_window_kev[0] < self.sca_window_kev[1]:
            raise ValueError("SCA window must satisfy lo < hi")

    def sigma_kev(self, energy_kev):
        """Gaussian energy-noise sigma, scaling as sqrt(E) from the reference."""
        e = np.asarray(energy_kev, dtype=float)
        return (
            self.resolution_fwhm_ev
            / FWHM_TO_SIGMA
            / 1000.0
            * np.sqrt(np.maximum(e, 0.0) / self.reference_energy_kev)
        )


def _sorted_by_time(stream):
    order = np.argsort(stream["time_ns"], kind="stable")
    return stream[order]


def merge_streams(*streams):
    """Concatenate photon streams and stable-sort by arrival time."""
    parts = [s for s in streams if len(s)]
    if not parts:
        return np.empty(0, dtype=PHOTON_DTYPE)
    return _sorted_by_time(np.concatenate(parts))


def _poisson_times(rng, rate_hz, duration_s):
    n = rng.poisson(rate_hz * duration_s)
    return np.sort(rng.uniform(0.0, duration_s * 1e9, n))


def generate_pairs(
    intensity: PairIntensity,
    splitter: SplitterSpec,
    source: SourceConfig,
    material: AttenuationTable,
    *,
    air: AttenuationTable | None = None,
    helium: AttenuationTable | None = None,
    rng: np.random.Generator | None = None,
):
    """Photon stream from correlated pairs routed through the beam splitter.

    Pair creation times are a Poisson process at ``source.pair_rate``; each
    pair's (energy, theta_x) is drawn from the theta_y-integrated pair
    intensity with the partner energy fixed by energy conservation, and the
    two photons share one creation time.  The heralded photon goes to the
    reflected port with probability R^2, the transmitted port with
    probability T, and is absorbed otherwise; both photons are additionally
    thinned by flight-path absorption when air/helium tables are supplied.
    """
    if rng is None:
        rng = np.random.default_rng(source.rng_seed)
    times = _poisson_times(rng, source.pair_rate, source.duration_s)
    n = len(times)
    if n == 0:
        return np.empty(0, dtype=PHOTON_DTYPE)

    cdf = intensity.cdf
    if cdf[-1] <= 0:
        raise ValueError("pair intensity vanishes; nothing to sample")
    idx = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    i_e, i_x = np.unravel_index(idx, intensity.weights.shape)
    grid = intensity.grid
    e_h = intensity.energies[i_e] + (rng.random(n) - 0.5) * grid.d_energy
    t_x = intensity.theta_x[i_x] + (rng.random(n) - 0.5) * grid.d_theta_x
    e_t = intensity.config.pump_energy_kev - e_h

    def path_survival(energy):
        s = np.ones_like(energy)
        if air is not None:
            s = s * transmittance(energy, air, source.air_path_cm)
        if helium is not None:
            s = s * transmittance(energy, helium, source.helium_path_cm)
        return s

    dtheta_deg = np.degrees(t_x)
    p_ref = reflectivity(splitter, e_h, dtheta_deg)
    p_trans = transmission(splitter, e_h, dtheta_deg, material)
    u_route = rng.random(n)
    herald_det = np.where(
        u_route < p_ref, DET_REF, np.where(u_route < p_ref + p_trans, DET_TRANS, -1)
    ).astype(np.int8)
    herald_alive = (herald_det >= 0) & (rng.random(n) < path_survival(e_h))
    trig_alive = rng.random(n) < path_survival(e_t)

    trig = np.empty(int(trig_alive.sum()), dtype=PHOTON_DTYPE)
    trig["time_ns"] = times[trig_alive]
    trig["energy_kev"] = e_t[trig_alive]
    trig["detector"] = DET_TRIG
    trig["origin"] = ORIGIN_PAIR_TRIGGER

    herald = np.empty(int(herald_alive.sum()), dtype=PHOTON_DTYPE)
    herald["time_ns"] = times[herald_alive]
    herald["energy_kev"] = e_h[herald_alive]
    herald["detector"] = herald_det[herald_alive]
    herald["origin"] = ORIGIN_PAIR_HERALD

    return merge_streams(trig, herald)


def generate_stray(source: SourceConfig, *, rng: np.random.Generator | None = None):
    """Independent Poisson background per detector with i.i.d. energies."""
    if rng is None:
        rng = np.random.default_rng(source.rng_seed + 1)
    parts = []
    for det, rate in zip((DET_TRIG, DET_TRANS, DET_REF), source.stray_rates):
        times = _poisson_times(rng, rate, source.duration_s)
        part = np.empty(len(times), dtype=PHOTON_DTYPE)
        part["time_ns"] = times
        part["energy_kev"] = source.spectrum.sample(rng, len(times))
        part["detector"] = det
        part["origin"] = ORIGIN_STRAY
        parts.append(part)
    return merge_streams(*parts)


def detect(
    photons,
    specs: dict[int, DetectorSpec],
    rng: np.random.Generator,
):
    """Convert a photon stream to analog/logic pulse records.

    Each photon survives with its detector's quantum efficiency; the
    measured energy adds Gaussian noise at the detector's resolution; a
    logic pulse accompanies the analog pulse iff the measured energy falls
    inside the SCA window.
    """
    unknown = set(np.unique(photons["detector"])) - set(specs)
    if unknown:
        raise ValueError(f"photon stream references detectors without specs: {sorted(unknown)}")
    n = len(photons)
    qe = np.empty(n)
    sigma = np.empty(n)
    sca_lo = np.empty(n)
    sca_hi = np.empty(n)
    for det, spec in specs.items():
        mask = photons["detector"] == det
        qe[mask] = spec.quantum_efficiency
        sigma[mask] = spec.sigma_kev(photons["energy_kev"][mask])
        sca_lo[mask] = spec.sca_window_kev[0]
        sca_hi[mask] = spec.sca_window_kev[1]
    alive = rng.random(n) < qe
    kept = photons[alive]
    measured = kept["energy_kev"] + rng.standard_normal(len(kept)) * sigma[alive]
    pulses = np.empty(len(kept), dtype=PULSE_DTYPE)
    pulses["start_ns"] = kept["time_ns"]
    pulses["energy_kev"] = measured
    pulses["detector"] = kept["detector"]
    pulses["origin"] = kept["origin"]
    pulses["logic"] = (measured >= sca_lo[alive]) & (measured <= sca_hi[alive])
    return pulses

