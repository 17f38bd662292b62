"""Estimators for coincidence runs: anticorrelation ratio, correlation
degree, spectra, and rates with Poisson errors.  The event estimators reduce
the columns of a ``daq.EventTable`` per event."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .daq import EventTable
from .montecarlo import DET_REF, DET_TRANS, DET_TRIG


@dataclass(frozen=True)
class CoincCounts:
    """Event tallies entering the anticorrelation ratio.

    ``n_trig`` counts events where the trigger detector and at least one
    output detector fired; it can therefore be smaller than
    n_trig_t + n_trig_r (events with photons at both outputs are counted
    once in n_trig but appear in both per-port tallies).
    """

    n_trig: int
    n_trig_t: int
    n_trig_r: int
    n_trig_t_r: int

    def __post_init__(self):
        if min(self.n_trig, self.n_trig_t, self.n_trig_r, self.n_trig_t_r) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_trig_t_r > min(self.n_trig_t, self.n_trig_r):
            raise ValueError("triple coincidences cannot exceed either pair count")


@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    sigma: float
    defined: bool = True


def alpha(counts: CoincCounts) -> AlphaResult:
    """Anticorrelation ratio N * N_tr / (N_t * N_r) with Poisson error.

    The error treats the four counts as independent Poisson variables
    (first-order propagation).  A zero triple count yields alpha = 0 with a
    one-sided error computed at one triple count; a zero denominator yields
    an undefined result.
    """
    n, nt, nr, ntr = (
        counts.n_trig,
        counts.n_trig_t,
        counts.n_trig_r,
        counts.n_trig_t_r,
    )
    if nt == 0 or nr == 0 or n == 0:
        return AlphaResult(math.nan, math.nan, defined=False)
    value = n * ntr / (nt * nr)
    if ntr == 0:
        upper = n * 1.0 / (nt * nr)  # one-sided bound at a single triple count
        return AlphaResult(0.0, upper)
    rel = math.sqrt(1.0 / n + 1.0 / ntr + 1.0 / nt + 1.0 / nr)
    return AlphaResult(value, value * rel)


def counts_from_events(events: EventTable) -> CoincCounts:
    """Tally coincidence categories over an event table (any selection
    applied by the caller beforehand)."""
    counts = events.counts()
    has_t = counts[:, DET_TRANS] > 0
    has_r = counts[:, DET_REF] > 0
    coinc = (counts[:, DET_TRIG] > 0) & (has_t | has_r)
    tallies = (coinc, coinc & has_t, coinc & has_r, coinc & has_t & has_r)
    return CoincCounts(*(int(t.sum()) for t in tallies))


def sigma_curves(
    events: EventTable,
    windows_ns,
    *,
    outputs=(DET_TRANS, DET_REF),
    energy_modes=("sum", "open"),
) -> np.ndarray:
    """Degree of correlation Var(N_t - N_h) / Mean(N_t + N_h) for every
    (window, output, energy mode): a float array of shape
    (len(windows_ns), len(outputs), len(energy_modes)).

    Per event, N_t is the number of trigger-detector photons and N_h the
    number of photons at the output, both restricted to |offset| <= the
    window.  In "sum" mode, on a table flagged by ``energy_select``, an
    event qualifies on its full registered record: either it is heralded at
    the output, or the output detector registered nothing and a trigger
    photon carries the pump energy within the selection's sum window (a
    pair partner that fell outside the registration window leaves such a
    single-photon record); "open" mode takes every event.  Events with no
    windowed photon at either detector are excluded.  An entry is 0 for
    perfectly correlated unit pairs, 1 in the independent-Poisson limit and
    NaN where fewer than two events qualify.  Each (output, mode)'s
    qualifying events are found once, and one photon count per window
    serves every output and mode.  Raises ValueError for an energy mode
    other than "open" or "sum", and for sum mode on a table that
    ``energy_select`` has not flagged.
    """
    if not set(energy_modes) <= {"open", "sum"}:
        raise ValueError("energy_mode must be 'open' or 'sum'")
    if "sum" in energy_modes:
        cfg = events.selection
        if cfg is None:
            raise ValueError("sum mode needs events flagged by energy_select")
        unwindowed = events.counts()
        elastic = np.abs(events.energy_kev - cfg.pump_energy_kev) <= cfg.sum_halfwidth_kev
        elastic_trigger = events.counts(elastic)[:, DET_TRIG] > 0
    qualifying = []
    for output in outputs:
        for mode in energy_modes:
            qualifies = slice(None)  # every event
            if mode == "sum":
                lone = (unwindowed[:, output] == 0) & elastic_trigger
                qualifies = np.isfinite(events.herald_kev[:, output]) | lone
            qualifying.append((output, qualifies))
    distance = np.abs(events.offset_ns)
    table = np.full((len(windows_ns), len(qualifying)), np.nan)
    for i, window_ns in enumerate(windows_ns):
        windowed = events.counts(distance <= window_ns)
        for j, (output, qualifies) in enumerate(qualifying):
            n_t, n_h = windowed[qualifies, DET_TRIG], windowed[qualifies, output]
            seen = n_t + n_h > 0
            if seen.sum() >= 2:
                diffs = (n_t - n_h)[seen].astype(float)
                sums = (n_t + n_h)[seen].astype(float)
                table[i, j] = diffs.var() / sums.mean()
    return table.reshape(len(windows_ns), len(outputs), len(energy_modes))


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


def spectra(events, detector: int, bin_width_kev: float = 0.5) -> Histogram:
    """Energy histogram of the heralded photon at ``detector`` over the
    selection's acceptance band [lo, hi).

    Expects an event table flagged by ``energy_select``; for each event the
    output photon of the first qualifying pairing at the requested port is
    binned (one entry per qualifying event at that port).  Left-closed bins
    of ``bin_width_kev`` from lo; when the band is not a whole number of
    bins, the last one is narrower and ends at hi.  Entries outside [lo, hi)
    are tallied as under/overflow.
    """
    if bin_width_kev <= 0:
        raise ValueError("bin width must be positive")
    if events.herald_kev is None:
        raise ValueError("spectra needs events flagged by energy_select")
    values = events.herald_kev[:, detector]
    values = values[~np.isnan(values)]
    lo_kev, hi_kev = events.selection.acceptance_kev
    n_bins = (hi_kev - lo_kev) / bin_width_kev
    whole = round(n_bins)
    if math.isclose(n_bins, whole, rel_tol=1e-9):
        edges = lo_kev + bin_width_kev * np.arange(whole + 1)
    else:
        edges = np.append(lo_kev + bin_width_kev * np.arange(math.ceil(n_bins)), hi_kev)
    # np.histogram closes its last bin; a value at edges[-1] is overflow.
    counts, _ = np.histogram(values[(values >= edges[0]) & (values < edges[-1])], bins=edges)
    underflow = int((values < edges[0]).sum())
    overflow = int((values >= edges[-1]).sum())
    return Histogram(edges, counts, underflow, overflow)


@dataclass(frozen=True)
class RateRatios:
    n_ref: float
    n_ref_err: float
    n_trans: float
    n_trans_err: float
    r_ref: float
    r_ref_err: float
    r_trans: float
    r_trans_err: float


def rates_and_ratios(
    ref_count: int,
    trans_count: int,
    live_time_s: float,
    baseline_rate: float,
    baseline_err: float = 0.0,
) -> RateRatios:
    """Per-port heralded rates and their ratio to a baseline rate.

    Rates are count/time with sqrt(count) Poisson errors (a zero count gets
    the one-sided error 1/time); ratio errors combine the count and baseline
    relative errors in quadrature.
    """
    # Written so that NaN fails every check.
    if not live_time_s > 0:
        raise ValueError("live time must be positive")
    if not baseline_rate > 0:
        raise ValueError("baseline rate must be positive")

    def rate(count):
        n = count / live_time_s
        err = math.sqrt(count) / live_time_s if count > 0 else 1.0 / live_time_s
        return n, err

    n_r, e_r = rate(ref_count)
    n_t, e_t = rate(trans_count)
    b_rel = baseline_err / baseline_rate

    def ratio(n, e):
        r = n / baseline_rate
        rel = math.sqrt((e / n) ** 2 + b_rel**2) if n > 0 else 0.0
        return r, (r * rel if n > 0 else e / baseline_rate)

    r_r, er_r = ratio(n_r, e_r)
    r_t, er_t = ratio(n_t, e_t)
    return RateRatios(n_r, e_r, n_t, e_t, r_r, er_r, r_t, er_t)
