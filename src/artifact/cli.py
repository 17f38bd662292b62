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


# model's Bragg-angle sweep, and sweep's default one: start and stop in
# degrees, number of angles.
SWEEP_ANGLES = (5.0, 45.0, 81)


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
    all folded from one ridge (``spdc.pair_ridge`` on ``spdc.sweep_grid``):
    the sweep and the rate fractions (``spdc.port_rates``) at its zeros, the
    spectra from its lines.  The sweep, which fails on a window without a
    ridge zero, is written first."""
    grid = spdc_mod.sweep_grid(cfg.grid, cfg.splitter.width_deg)
    ridge = spdc_mod.pair_ridge(cfg.spdc, grid)
    _write_sweep(cfg, outdir, ridge, cfg.splitter, np.linspace(*SWEEP_ANGLES).tolist())

    graphite = load_table("graphite")
    r_ref, r_trans = spdc_mod.port_rates(ridge, cfg.splitter, graphite)
    energies, refl_dens, trans_dens = spdc_mod.port_energy_spectra(ridge, grid, cfg.splitter, graphite)
    _write_rows(
        os.path.join(outdir, "model_spectra.csv"),
        "energy_kev,reflected_density,transmitted_density",
        zip(energies.tolist(), refl_dens.tolist(), trans_dens.tolist()),
    )

    with open(os.path.join(outdir, "model_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"r_reflected = {r_ref:.6f}\n")
        fh.write(f"r_transmitted = {r_trans:.6f}\n")


def _drawn_near(background: mc.StrayBackground, logic: bool, starts_ns: np.ndarray,
                reach_ns: float, rest_ns: float, tally: np.ndarray,
                rng: np.random.Generator) -> mc.Stream:
    """``background``'s pulses with (``logic``) or without a logic pulse,
    drawn on ``mc.reach_windows(starts_ns, reach_ns)``
    (``mc.first_cover_times``) and only counted on the ``rest_ns`` of the
    slice outside them (one Poisson count); both go to ``tally``."""
    rate = background.rate_hz(logic)
    times = mc.first_cover_times(rng, rate, starts_ns, reach_ns)
    tally[background.detector, mc.ORIGIN_STRAY, int(logic)] += (
        len(times) + int(rng.poisson(rate * rest_ns * 1e-9)))
    return background.pulses(logic, times, rng)


def _slice_pulses(cfg: RunConfig, ridge: spdc_mod.Ridge, tally: np.ndarray):
    """Yield (end_ns, pulses) per time slice of the run (``slice_edges_s``),
    adding each slice's pulses to ``tally`` by (detector, origin, logic).

    Slice k draws from one generator, seeded with the k-th child of the run
    seed (one, not one per stage: each costs about 25 us to set up).  The
    background is drawn directly as pulses: the samplers draw its times at
    ``mc.StrayBackground.rate_hz`` and ``StrayBackground.pulses`` gives
    them energies.  A pulse can change a capture only within
    ``DaqConfig.reach_ns`` of a logic pulse of the other side, so after
    drawing the pairs (routed once per run: ``mc.PairRoutes``) and
    detecting them, a slice
      1. draws the trigger detector's background logic pulses over the
         whole slice (``mc.poisson_times``), as times only, and puts the
         pair trigger logic starts and the edges in (``mc.insert_starts``);
      2. draws the output detectors' background pulses on the windows
         within that reach of a trigger logic pulse or a slice edge
         (``mc.reach_windows``), straight from the sorted starts
         (``mc.first_cover_times``), so the cost follows the pulses drawn;
      3. keeps, and gives energies to, the trigger logic pulses within
         that reach of an output logic pulse or a slice edge, and draws the
         trigger's pulses without a logic pulse there.
    The edges keep the pulses that events across them need.  Background
    pulses that are not drawn are counted into ``tally`` over the rest of
    the slice (``mc.reach_length``, once per set of starts), as are all the
    trigger logic pulses of step 1.  The nine parts (the three pair parts,
    then per detector the background with and without a logic pulse) are
    merged once.
    """
    edges = mc.slice_edges_s(cfg.source)
    routes = mc.PairRoutes.of(ridge, cfg.spdc.pump_energy_kev, cfg.splitter, cfg.source,
                              load_table("graphite"), air=load_table("air"),
                              helium=load_table("helium"))
    reach = cfg.daq.reach_ns()
    trig, *outputs = (mc.StrayBackground.of(cfg.source, det, cfg.detectors[det])
                      for det in mc.DETECTORS)
    origins = (mc.ORIGIN_PAIR_TRIGGER, mc.ORIGIN_PAIR_HERALD, mc.ORIGIN_PAIR_HERALD)
    for k, window in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.source.rng_seed, spawn_key=(k,)))
        t0, t1 = (t * 1e9 for t in window)
        photons = mc.generate_pairs(routes, cfg.source.pair_rate, rng=rng, window_ns=(t0, t1))
        pairs = [mc.detect(part, cfg.detectors[det], rng)
                 for part, det in zip(photons, mc.DETECTORS)]
        del photons
        for part, det, origin in zip(pairs, mc.DETECTORS, origins):
            logic = int(np.count_nonzero(part.logic))
            tally[det, origin] += (len(part) - logic, logic)
        trig_logic = mc.poisson_times(rng, trig.rate_hz(True), t0, t1)
        tally[mc.DET_TRIG, mc.ORIGIN_STRAY, 1] += len(trig_logic)
        starts = mc.insert_starts(trig_logic, pairs[0].time_ns[pairs[0].logic], t0, t1)
        # Rounding may take a fully covered slice's rest below 0.
        rest = max(0.0, t1 - t0 - mc.reach_length(starts, reach))
        outs = [_drawn_near(background, logic, starts, reach, rest, tally, rng)
                for background in outputs for logic in (True, False)]
        del starts  # the dense starts go before the output side's are built
        starts = np.concatenate([[t0], *(p.time_ns[p.logic] for p in (*pairs[1:], *outs)), [t1]])
        starts.sort(kind="stable")
        rest = max(0.0, t1 - t0 - mc.reach_length(starts, reach))
        trigs = [trig.pulses(True, mc.in_windows(trig_logic, mc.reach_windows(starts, reach)), rng),
                 _drawn_near(trig, False, starts, reach, rest, tally, rng)]
        del trig_logic
        # Pairs, then the background, each in TRIG, TRANS, REF order: one
        # stable sort keeps that order among equal times.
        yield t1, mc.merge_streams(*pairs, *trigs, *outs)


def cmd_simulate(cfg: RunConfig, outdir: str) -> np.ndarray:
    """Generate an event file plus pulse-stream and run summaries.  The
    Monte Carlo chain draws its pairs from the ridge zeros
    (``spdc.pair_ridge``) and runs one time slice at a time; each slice's
    events are written as they are built, so memory does not grow with the
    run length.  Returns the pulse counts by [detector, origin, logic]:
    every background pulse, whether drawn, drawn as a trigger logic time
    and not kept, or only counted (``_slice_pulses``), so the counts follow
    the full background rates; ``pulse_summary.txt`` sums them per
    detector."""
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


SIGMA_WINDOWS_NS = (100.0, 200.0, 400.0, 600.0, 800.0)


def cmd_analyze(cfg: RunConfig, events_path: str, outdir: str) -> None:
    """Spectra, correlation-degree curves, coincidence tallies, and rates."""
    try:
        events, meta = daq_mod.load_events(events_path)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    events, heralded = daq_mod.energy_select(events, cfg.daq)

    outputs = daq_mod.OUTPUT_PORTS
    for det in outputs:
        hist = stats_mod.spectra(heralded, det, cfg.bin_width_kev)
        _write_rows(
            os.path.join(outdir, f"spectrum_{mc.DETECTOR_NAMES[det]}.csv"),
            "bin_lo_kev,bin_hi_kev,count",
            zip(
                hist.edges[:-1].tolist(),
                hist.edges[1:].tolist(),
                hist.counts.tolist(),
            ),
        )

    modes = ("sum", "open")
    table = stats_mod.sigma_curves(events, SIGMA_WINDOWS_NS, outputs=outputs, energy_modes=modes)
    sigma_rows = [
        (window, mc.DETECTOR_NAMES[det], mode, value)
        for window, by_output in zip(SIGMA_WINDOWS_NS, table.tolist())
        for det, by_mode in zip(outputs, by_output)
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

    The pair ridge is solved on the config grid with theta_x refined to the
    scaled width (``spdc.sweep_grid``).
    """
    if num < 1:
        raise ConfigError(f"--num must be at least 1, got {num}")
    if not 0 < width_scale < np.inf:
        raise ConfigError(f"--width-scale must be finite and positive, got {width_scale}")
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
    start, stop, num = SWEEP_ANGLES
    p_sw.add_argument("--start", type=float, default=start)
    p_sw.add_argument("--stop", type=float, default=stop)
    p_sw.add_argument("--num", type=int, default=num)
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
    except (ConfigError, spdc_mod.EmptyWindowError, spdc_mod.GridTooFineError) as exc:
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
