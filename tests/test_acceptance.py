"""Acceptance suite: one test per release criterion.

Each test prints a single ``CRITERION nn: PASS|FAIL`` line (shown in captured
output) and asserts the same condition, so the -v test listing doubles as the
criterion report.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from artifact import daq, montecarlo as mc, spdc, stats
from artifact.cli import EXIT_OK, cmd_model, main
from artifact.montecarlo import DET_REF, DET_TRANS, DET_TRIG
from artifact.spdc import _Kinematics
from artifact.xoptics import LatticeSpec, bragg_angle

from conftest import run_chain


def _report(num, ok, detail=""):
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def model_outputs(tmp_path_factory, default_config):
    """cmd_model on the unmodified reference profile."""
    outdir = tmp_path_factory.mktemp("model")
    cmd_model(default_config, str(outdir))
    summary = dict(
        line.split(" = ")
        for line in (outdir / "model_summary.txt").read_text().strip().splitlines()
    )
    sweep = np.loadtxt(outdir / "bragg_sweep.csv", delimiter=",", skiprows=1)
    return {
        "r_reflected": float(summary["r_reflected"]),
        "r_transmitted": float(summary["r_transmitted"]),
        "sweep": sweep,
    }


def test_criterion_01_anticorrelation_table_values():
    r1 = stats.alpha(stats.CoincCounts(2264, 897, 1356, 11))
    r2 = stats.alpha(stats.CoincCounts(226400, 89798, 135698, 904))
    ok = (
        abs(r1.alpha - 0.02048) < 1e-4
        and abs(r1.sigma - 0.006) < 5e-4
        and abs(r2.alpha - 0.01680) < 1e-4
        and abs(r2.sigma - 0.0006) < 5e-5
    )
    _report(1, ok, f"alpha={r1.alpha:.5f}+-{r1.sigma:.4f}, "
                   f"{r2.alpha:.5f}+-{r2.sigma:.5f}")


def test_criterion_02_reference_bragg_angles():
    hopg = bragg_angle(10.5, LatticeSpec(3.354, "HOPG(002)"))
    c660 = bragg_angle(21.0, LatticeSpec(3.56712 / math.sqrt(72.0), "C(660)"))
    ok = abs(hopg - 10.1) < 0.1 and abs(c660 - 44.61) < 0.1
    _report(2, ok, f"theta_B = {hopg:.3f} deg, {c660:.3f} deg")


def test_criterion_03_port_rate_fractions(model_outputs):
    r_r = model_outputs["r_reflected"]
    r_t = model_outputs["r_transmitted"]
    ok = 0.10 <= r_r <= 0.16 and 0.13 <= r_t <= 0.21
    _report(3, ok, f"r_reflected={r_r:.4f}, r_transmitted={r_t:.4f}")


def test_criterion_04_rocking_width_scaling(default_config, amp_default, tables):
    base = default_config.splitter
    theta = base.nominal_bragg_deg()
    # Widening the rocking width by x100, from a perfect-crystal-like
    # profile up to the mosaic width, at fixed geometry.  Each side folds
    # the pair ridge on the grid the sweep rule gives for its width; for the
    # mosaic width that is the reference grid itself.
    narrow_spec = replace(base, width_deg=base.width_deg / 100.0)
    narrow_ridge = spdc.pair_ridge(
        default_config.spdc, spdc.sweep_grid(default_config.grid, narrow_spec.width_deg)
    )
    narrow = spdc.bragg_angle_sweep(
        narrow_ridge, narrow_spec, [theta],
        air=tables["air"], air_path_cm=default_config.source.air_path_cm,
    )[0][1]
    assert spdc.sweep_grid(default_config.grid, base.width_deg) is amp_default.grid
    wide = spdc.bragg_angle_sweep(
        amp_default.ridge, base, [theta],
        air=tables["air"], air_path_cm=default_config.source.air_path_cm,
    )[0][1]
    ratio = wide / narrow
    ok = 80.0 <= ratio <= 100.0
    _report(4, ok, f"x100 width rate ratio = {ratio:.2f}")


def test_criterion_05_sweep_monotone(model_outputs):
    sweep = model_outputs["sweep"]
    rates = sweep[:, 1]
    ok = (
        sweep.shape[0] == 81
        and sweep[0, 0] == 5.0
        and sweep[-1, 0] == 45.0
        and bool(np.all(np.diff(rates) < 0))
    )
    _report(5, ok, f"rate {rates[0]:.4f} -> {rates[-1]:.4f} over 5-45 deg")


def test_criterion_06_spectral_shape(
    default_config, amp_default, tables, pair_dominated_run
):
    energies, _refl, trans = spdc.port_energy_spectra(
        amp_default, default_config.splitter, tables["graphite"]
    )
    window = (energies > 9.8) & (energies < 11.2)
    seg_e, seg = energies[window], trans[window]
    i_min = int(np.argmin(seg))
    e_dip = float(seg_e[i_min])
    depth = seg[i_min] / min(seg[0], seg[-1])
    model_ok = 10.3 < e_dip < 10.8 and depth < 0.5

    heralded = pair_dominated_run["heralded"]
    h_trans = stats.spectra(heralded, DET_TRANS, 0.5)
    h_ref = stats.spectra(heralded, DET_REF, 0.5)

    def fwhm(hist):
        c = hist.counts.astype(float)
        idx = np.where(c >= 0.5 * c.max())[0]
        return (idx[-1] - idx[0] + 1) * (hist.edges[1] - hist.edges[0])

    width_ok = fwhm(h_ref) < fwhm(h_trans)

    # With 300 eV detector resolution and 0.5 keV bins the dip is not a
    # significant local minimum in the measured transmitted spectrum.
    c = h_trans.counts.astype(float)
    k = int(np.searchsorted(h_trans.edges, e_dip, side="right") - 1)
    z = (min(c[k - 1], c[k + 1]) - c[k]) / math.sqrt(c[k] + min(c[k - 1], c[k + 1]))
    dip_hidden = c.sum() >= 800 and z < 2.0

    ok = model_ok and width_ok and dip_hidden
    _report(6, ok, f"model dip {e_dip:.2f} keV depth {depth:.2f}, "
                   f"FWHM ref {fwhm(h_ref):.1f} < trans {fwhm(h_trans):.1f} keV, "
                   f"measured dip z={z:.2f}")


def test_criterion_07_unsplittability(default_config, amp_default):
    cfg = default_config
    # Background-free heralded pairs: a single photon never takes both ports.
    clean = replace(cfg, source=replace(
        cfg.source, pair_rate=1.2, stray_rates=(0.0, 0.0, 0.0), duration_s=1.0e5,
    ))
    _events, heralded, _rd, _ed, pulse_counts = run_chain(clean, amp_default, 23)
    # Pairs whose trigger photon was detected (every one that survived the
    # flight path: the quantum efficiency is 1), counted by the run itself.
    n_pairs = int(pulse_counts[DET_TRIG, mc.ORIGIN_PAIR_TRIGGER].sum())
    counts_clean = stats.counts_from_events(heralded)
    clean_ok = (
        n_pairs >= 100_000
        and counts_clean.n_trig_t_r == 0
        and stats.alpha(counts_clean).alpha == 0.0
    )

    # Stray-dominated stream, open energy windows, two run lengths.
    small_cfg = replace(cfg, source=replace(cfg.source, duration_s=41.4))
    ev_small, _, _, _, _ = run_chain(small_cfg, amp_default, 31)
    c_small = stats.counts_from_events(ev_small)
    totals = np.zeros(4, dtype=int)
    for k in range(9):
        shard_cfg = replace(cfg, source=replace(cfg.source, duration_s=480.0))
        ev_shard, _, _, _, _ = run_chain(shard_cfg, amp_default, 41 + k)
        c = stats.counts_from_events(ev_shard)
        totals += (c.n_trig, c.n_trig_t, c.n_trig_r, c.n_trig_t_r)
    c_big = stats.CoincCounts(*(int(v) for v in totals))

    a_small = stats.alpha(c_small)
    a_big = stats.alpha(c_big)
    expected = c_big.n_trig_t_r * c_small.n_trig / c_big.n_trig
    scaling_ok = abs(c_small.n_trig_t_r - expected) <= 3.0 * math.sqrt(expected + 1.0)
    stray_ok = a_small.alpha < 1.0 and a_big.alpha < 1.0 and scaling_ok

    ok = clean_ok and stray_ok
    _report(7, ok, f"clean triples {counts_clean.n_trig_t_r}/{n_pairs} pairs; "
                   f"alpha {a_small.alpha:.4f} (N={c_small.n_trig}), "
                   f"{a_big.alpha:.4f} (N={c_big.n_trig}); "
                   f"triples {c_small.n_trig_t_r} vs {expected:.1f}")


def _synthetic_events(n_t_arr, n_h_arr):
    """Event table with n_t trigger photons (10.4 keV) and n_h transmitted
    photons (10.6 keV) per event, all at zero offset."""
    sizes = np.column_stack([n_t_arr, n_h_arr]).astype(np.int64)
    detector = np.repeat(np.tile(np.array([DET_TRIG, DET_TRANS], dtype=np.int8), len(sizes)),
                         sizes.ravel())
    return daq.EventTable(
        np.zeros(len(sizes)),
        np.r_[0, np.cumsum(sizes.sum(axis=1))],
        detector,
        np.where(detector == DET_TRIG, 10.4, 10.6),
        np.zeros(len(detector)),
        np.zeros(len(detector), dtype=np.int8),
    )


def test_criterion_08_correlation_degree(pair_dominated_run):
    unit = _synthetic_events(np.ones(1000), np.ones(1000))
    zero_ok = stats.sigma(unit, 800.0) == 0.0

    rng = np.random.default_rng(19)
    poisson = _synthetic_events(rng.poisson(4.0, 1_000_000),
                                rng.poisson(4.0, 1_000_000))
    s_poisson = stats.sigma(poisson, 800.0)
    poisson_ok = abs(s_poisson - 1.0) <= 0.05

    events = pair_dominated_run["events"]
    windows = (100.0, 200.0, 400.0, 600.0, 800.0)
    curves = {}
    for port in (DET_TRANS, DET_REF):
        curves[port] = [stats.sigma(events, w, output=port, energy_mode="sum")
                        for w in windows]
    monotone_ok = all(
        all(a < b for a, b in zip(curve, curve[1:])) and curve[0] > 0.01
        for curve in curves.values()
    )

    ok = zero_ok and poisson_ok and monotone_ok
    t = curves[DET_TRANS]
    _report(8, ok, f"poisson sigma {s_poisson:.4f}; sum-window curve "
                   f"{t[0]:.3f} -> {t[-1]:.3f} (trans)")


def test_criterion_09_amplitude_matches_direct_integration(default_config):
    cfg = default_config.spdc
    grid = spdc.GridSpec(9.5, 11.5, 120, 5.0e-3, 40, 8)
    kin = _Kinematics(cfg)
    e = grid.energy_centers()[:, None, None]
    tx = grid.theta_x_centers()[None, :, None]
    ty = grid.theta_y_centers()[None, None, :]
    amplitude = spdc.amplitude_at(cfg, e, tx, ty)
    x = kin.half_phase(e, tx, ty)
    mask = np.isfinite(x) & (np.abs(amplitude) > 0.05 * cfg.kappa_l)
    x_sel = x[mask][::7][:300]
    a_sel = amplitude[mask][::7][:300]

    # Direct fourth-order integration of the coupled-mode equation
    # dB/du = i * kappa_l * exp(2 i x u) over the crystal, u in [0, 1].
    n_steps = 4000
    h = 1.0 / n_steps
    b = np.zeros_like(x_sel, dtype=complex)

    def f(u):
        return 1j * cfg.kappa_l * np.exp(2j * x_sel * u)

    for i in range(n_steps):
        u = i * h
        k1 = f(u)
        k23 = f(u + 0.5 * h)
        k4 = f(u + h)
        b += (h / 6.0) * (k1 + 4.0 * k23 + k4)

    rel = np.max(np.abs(b - 1j * a_sel) / np.abs(a_sel))
    ok = rel < 1e-3
    _report(9, ok, f"max relative deviation {rel:.2e} over {len(x_sel)} cells")


def test_criterion_10_pipeline_determinism(tmp_path):
    overrides = [
        "--set", "grid.n_energy=400", "--set", "grid.n_x=60",
        "--set", "grid.n_y=12", "--set", "source.duration_s=30.0",
        "--set", "source.pair_rate_hz=3.0",
    ]
    outputs = []
    for label in ("a", "b"):
        sim = tmp_path / f"sim_{label}"
        ana = tmp_path / f"ana_{label}"
        assert main(["simulate", "--outdir", str(sim), "--seed", "77"]
                    + overrides) == EXIT_OK
        assert main(["analyze", "--outdir", str(ana), "--seed", "77",
                     "--events", str(sim / "events.csv")] + overrides) == EXIT_OK
        blob = {}
        for d in (sim, ana):
            for path in sorted(d.iterdir()):
                blob[path.name] = path.read_bytes()
        outputs.append(blob)
    ok = outputs[0].keys() == outputs[1].keys() and all(
        outputs[0][k] == outputs[1][k] for k in outputs[0]
    )
    _report(10, ok, f"{len(outputs[0])} output files byte-identical")
