"""Batch command-line front end.

Verbs:

* ``model``    – deterministic model curves: Bragg-angle sweep, port spectra,
  and the reflected/transmitted rate fractions.
* ``simulate`` – Monte Carlo event-stream generation through the detector and
  coincidence-electronics emulation.
* ``analyze``  – estimator suite over a persisted event file.
* ``sweep``    – standalone Bragg-angle sweep with optional rocking-width scaling.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 event-file
schema error.
"""

from __future__ import annotations

import argparse
# argparse's gettext imports locale with the first parser: load it at
# start-up, not inside a verb.
import locale  # noqa: F401
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import daq as daq_mod
from . import montecarlo as mc
from . import spdc as spdc_mod
from . import stats as stats_mod
from .config import ConfigError, RunConfig, load_config, load_default_config
from .montecarlo import DET_REF, DET_TRANS
from .xoptics import load_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SCHEMA = 4


class SchemaError(Exception):
    """Persisted-file format mismatch."""


def _load(args) -> RunConfig:
    overrides = args.set or []
    if args.seed is not None:
        overrides = overrides + [f"run.seed={args.seed}"]
    if args.config:
        return load_config(args.config, overrides)
    return load_default_config(overrides)


def _outdir(args) -> str:
    os.makedirs(args.outdir, exist_ok=True)
    return args.outdir


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_sweep(cfg: RunConfig, outdir: str, ridge, splitter, angles) -> None:
    """bragg_sweep.csv: the sweep of ``splitter`` retuned to each of
    ``angles``, folded on ``ridge`` through air along ``[source]
    air_path_cm``."""
    sweep = spdc_mod.bragg_angle_sweep(
        ridge, splitter, angles, air=load_table("air"), air_path_cm=cfg.source.air_path_cm,
    )
    _write_rows(os.path.join(outdir, "bragg_sweep.csv"), "bragg_angle_deg,normalized_rate", sweep)


def cmd_model(cfg: RunConfig, outdir: str) -> None:
    """Write the sweep curve, model port spectra, and rate-fraction summary,
    all folded from one pair intensity (``spdc.sweep_grid``): the sweep and
    the rate fractions (``spdc.port_rates``) from its ridge zeros, the
    spectra from its W.  The sweep, which fails on a window without a ridge
    zero, is written first."""
    grid = spdc_mod.sweep_grid(cfg.grid, cfg.splitter.width_deg)
    intensity = spdc_mod.biphoton_amplitude(cfg.spdc, grid)
    _write_sweep(cfg, outdir, intensity.ridge, cfg.splitter, np.linspace(5.0, 45.0, 81).tolist())

    graphite = load_table("graphite")
    r_ref, r_trans = spdc_mod.port_rates(intensity.ridge, cfg.splitter, graphite)
    energies, refl_dens, trans_dens = spdc_mod.port_energy_spectra(intensity, cfg.splitter, graphite)
    _write_rows(
        os.path.join(outdir, "model_spectra.csv"),
        "energy_kev,reflected_density,transmitted_density",
        zip(energies.tolist(), refl_dens.tolist(), trans_dens.tolist()),
    )

    with open(os.path.join(outdir, "model_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"r_reflected = {r_ref:.6f}\n")
        fh.write(f"r_transmitted = {r_trans:.6f}\n")


def _slice_pulses(cfg: RunConfig, ridge: spdc_mod.Ridge, tally: np.ndarray):
    """Yield (end_ns, pulses) per time slice of the run (``slice_edges_s``),
    adding each slice's pulses to ``tally`` by (detector, origin, logic).

    Slice k draws from three generators (pairs, stray, detect) spawned from
    the k-th child of the run seed, and merges its five photon parts once.
    """
    edges = mc.slice_edges_s(cfg.source)
    graphite, air, helium = load_table("graphite"), load_table("air"), load_table("helium")
    for k, window in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        seeds = np.random.SeedSequence(cfg.source.rng_seed, spawn_key=(k,)).spawn(3)
        rng_pairs, rng_stray, rng_detect = (np.random.default_rng(s) for s in seeds)
        pairs = mc.generate_pairs(
            ridge, cfg.spdc.pump_energy_kev, cfg.splitter, cfg.source, graphite,
            air=air, helium=helium, rng=rng_pairs, window_s=window,
        )
        stray = mc.generate_stray(cfg.source, rng=rng_stray, window_s=window)
        # One stable sort; equal times keep the part order.
        photons = mc.merge_streams(*pairs, *stray)
        del pairs, stray  # hold one copy of the slice per stage
        pulses = mc.detect(photons, cfg.detectors, rng_detect)
        del photons
        # int8 arithmetic: the cells run to 17.
        cell = (pulses.detector * mc.N_ORIGINS + pulses.origin) * 2 + pulses.logic
        tally += np.bincount(cell, minlength=tally.size).reshape(tally.shape)
        yield window[1] * 1e9, pulses


def cmd_simulate(cfg: RunConfig, outdir: str) -> np.ndarray:
    """Generate an event file plus pulse-stream and run summaries.  The
    Monte Carlo chain draws its pairs from the ridge zeros
    (``spdc.pair_ridge``) and runs one time slice at a time; each slice's
    events are written as they are built, so memory does not grow with the
    run length.  Returns the pulse counts by [detector, origin, logic]."""
    ridge = spdc_mod.pair_ridge(cfg.spdc, cfg.grid)
    ridge.total()  # a window without a zero exits before any file is written
    tally = np.zeros((len(mc.DETECTOR_NAMES), mc.N_ORIGINS, 2), dtype=np.int64)
    n_events, rate_dropped, empty_dropped = daq_mod.save_events(
        os.path.join(outdir, "events.csv"),
        daq_mod.build_events_in_slices(_slice_pulses(cfg, ridge, tally), cfg.daq),
        live_time_s=cfg.source.duration_s,
    )
    with open(os.path.join(outdir, "pulse_summary.txt"), "w", encoding="utf-8") as fh:
        for det, name in mc.DETECTOR_NAMES.items():
            counts = tally[det].sum(axis=0)  # (without, with) a logic pulse
            fh.write(f"{name}: analog={counts.sum()} logic={counts[1]}\n")
    with open(os.path.join(outdir, "run_meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"seed = {cfg.source.rng_seed}\n")
        fh.write(f"live_time_s = {cfg.source.duration_s:.6f}\n")
        fh.write(f"events = {n_events}\n")
        fh.write(f"rate_dropped = {rate_dropped}\n")
        fh.write(f"empty_dropped = {empty_dropped}\n")
    return tally


def simulate_events(cfg: RunConfig):
    """The events ``xbsim simulate`` writes, read back from its event file
    and energy-selected as ``analyze`` selects them.  Returns (events,
    rate_dropped, empty_dropped, pulse_counts): the file's drop counts and
    the pulses counted by [detector, origin, logic]."""
    with tempfile.TemporaryDirectory() as outdir:
        tally = cmd_simulate(cfg, outdir)
        events, meta = daq_mod.load_events(os.path.join(outdir, "events.csv"))
    events, _heralded = daq_mod.energy_select(events, cfg.daq)
    return events, meta["rate_dropped"], meta["empty_dropped"], tally


SIGMA_WINDOWS_NS = (100.0, 200.0, 400.0, 600.0, 800.0)


def cmd_analyze(cfg: RunConfig, events_path: str, outdir: str) -> None:
    """Spectra, correlation-degree curves, coincidence tallies, and rates."""
    try:
        events, meta = daq_mod.load_events(events_path)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    events, heralded = daq_mod.energy_select(events, cfg.daq)

    for det, stem in ((DET_TRANS, "trans"), (DET_REF, "ref")):
        hist = stats_mod.spectra(heralded, det, cfg.bin_width_kev)
        _write_rows(
            os.path.join(outdir, f"spectrum_{stem}.csv"),
            "bin_lo_kev,bin_hi_kev,count",
            zip(
                hist.edges[:-1].tolist(),
                hist.edges[1:].tolist(),
                hist.counts.tolist(),
            ),
        )

    names, modes = ("trans", "ref"), ("sum", "open")
    table = stats_mod.sigma_curves(events, SIGMA_WINDOWS_NS, outputs=(DET_TRANS, DET_REF),
                                   energy_modes=modes)
    sigma_rows = [
        (window, name, mode, value)
        for window, by_output in zip(SIGMA_WINDOWS_NS, table.tolist())
        for name, by_mode in zip(names, by_output)
        for mode, value in zip(modes, by_mode)
    ]
    _write_rows(
        os.path.join(outdir, "sigma_curves.csv"),
        "window_ns,output,energy_mode,sigma",
        sigma_rows,
    )

    report_lines = []
    for label, subset in (("heralded", heralded), ("all", events)):
        counts = stats_mod.counts_from_events(subset)
        result = stats_mod.alpha(counts)
        _write_rows(
            os.path.join(outdir, f"counts_{label}.csv"),
            "n_trig,n_trig_t,n_trig_r,n_trig_t_r",
            [(counts.n_trig, counts.n_trig_t, counts.n_trig_r, counts.n_trig_t_r)],
        )
        value = f"alpha = {result.alpha:.6f} +- {result.sigma:.6f}"
        if not result.defined:
            value = "alpha undefined"
        report_lines.append(
            f"{label}: {value} (N={counts.n_trig}, N_T={counts.n_trig_t}, "
            f"N_R={counts.n_trig_r}, N_TR={counts.n_trig_t_r})"
        )
    with open(os.path.join(outdir, "alpha_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines) + "\n")

    live_time = meta.get("live_time_s")
    if live_time:
        heralded_at = ~np.isnan(heralded.herald_kev)
        n_ref = int(heralded_at[:, DET_REF].sum())
        n_trans = int(heralded_at[:, DET_TRANS].sum())
        rates = stats_mod.rates_and_ratios(
            n_ref,
            n_trans,
            live_time,
            cfg.baseline_rate_hz,
            cfg.baseline_rate_err_hz,
        )
        with open(os.path.join(outdir, "rates.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"n_ref = {rates.n_ref:.6g} +- {rates.n_ref_err:.6g}\n")
            fh.write(f"n_trans = {rates.n_trans:.6g} +- {rates.n_trans_err:.6g}\n")
            fh.write(f"r_ref = {rates.r_ref:.6g} +- {rates.r_ref_err:.6g}\n")
            fh.write(f"r_trans = {rates.r_trans:.6g} +- {rates.r_trans_err:.6g}\n")


def cmd_sweep(cfg: RunConfig, outdir: str, start: float, stop: float, num: int, width_scale: float) -> None:
    """Standalone Bragg-angle sweep, optionally scaling the rocking width.

    The ridge of the pair intensity is solved on the config grid with
    theta_x refined to the scaled width (``spdc.sweep_grid``); the 2-D W is
    not built.
    """
    if num < 1:
        raise ConfigError(f"--num must be at least 1, got {num}")
    if not width_scale > 0:
        raise ConfigError(f"--width-scale must be positive, got {width_scale}")
    angles = np.linspace(start, stop, num).tolist()
    if not all(0.0 < a < 90.0 for a in angles):
        raise ConfigError(f"sweep angles must lie in (0, 90) degrees, got {start}..{stop}")
    base = replace(cfg.splitter, width_deg=cfg.splitter.width_deg * width_scale)
    ridge = spdc_mod.pair_ridge(cfg.spdc, spdc_mod.sweep_grid(cfg.grid, base.width_deg))
    _write_sweep(cfg, outdir, ridge, base, angles)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbsim",
        description="Heralded x-ray pair source and Bragg beam-splitter simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run-configuration file (default: bundled profile)")
        p.add_argument("--outdir", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a single config value (repeatable)",
        )

    common(sub.add_parser("model", help="deterministic model curves and ratios"))
    common(sub.add_parser("simulate", help="Monte Carlo event-stream generation"))
    p_an = sub.add_parser("analyze", help="estimators over an event file")
    common(p_an)
    p_an.add_argument("--events", required=True, help="event CSV produced by simulate")
    p_sw = sub.add_parser("sweep", help="Bragg-angle sweep of the splitter")
    common(p_sw)
    p_sw.add_argument("--start", type=float, default=5.0)
    p_sw.add_argument("--stop", type=float, default=45.0)
    p_sw.add_argument("--num", type=int, default=81)
    p_sw.add_argument("--width-scale", type=float, default=1.0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        outdir = _outdir(args)
        if args.command == "model":
            cmd_model(cfg, outdir)
        elif args.command == "simulate":
            cmd_simulate(cfg, outdir)
        elif args.command == "analyze":
            cmd_analyze(cfg, args.events, outdir)
        elif args.command == "sweep":
            cmd_sweep(cfg, outdir, args.start, args.stop, args.num, args.width_scale)
    except (ConfigError, spdc_mod.EmptyWindowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
