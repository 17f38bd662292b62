"""End-to-end tests of the command-line front end and its exit codes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from artifact import daq, montecarlo as mc, spdc, stats
from artifact.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from artifact.config import load_default_config
from artifact.xoptics import load_table

from conftest import simulate_events

# Coarse grid + short run so simulate/analyze stay fast; physics fidelity is
# covered elsewhere.
FAST = [
    "--set", "grid.n_energy=400",
    "--set", "grid.n_x=60",
    "--set", "grid.n_y=12",
    "--set", "source.duration_s=20.0",
    "--set", "source.pair_rate_hz=3.0",
    "--set", "source.stray_rate_trig_hz=1500",
    "--set", "source.stray_rate_trans_hz=1000",
    "--set", "source.stray_rate_ref_hz=800",
]


def test_unknown_config_key_exits_config_code(tmp_path):
    code = main(["simulate", "--outdir", str(tmp_path), "--set", "source.bogus=1"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["spdc.theta_trigger_deg=43.63", "spdc.kappa_l=0.01"])
def test_trigger_angle_key_exits_config_code(tmp_path, setting):
    # Neither key is read: the trigger direction follows from momentum
    # conservation, and the pair intensity is a shape whose rate is the
    # calibrated [source] pair_rate_hz.
    code = main(["model", "--outdir", str(tmp_path), "--set", setting])
    assert code == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["model", "simulate"])
def test_negative_splitter_incidence_exits_config_code(tmp_path, verb):
    code = main([verb, "--outdir", str(tmp_path),
                 "--set", "splitter.mount_offset_deg=-20"])
    assert code == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_rate_cap_below_one_exits_config_code(tmp_path):
    # int(cap) captures per second: a cap below 1 would keep none.
    code = main(["simulate", "--outdir", str(tmp_path),
                 "--set", "daq.max_event_rate_hz=0.5"])
    assert code == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_io_code(tmp_path):
    code = main(["simulate", "--outdir", str(tmp_path),
                 "--config", str(tmp_path / "absent.ini")])
    assert code == EXIT_IO


def test_missing_events_file_exits_io_code(tmp_path):
    code = main(["analyze", "--outdir", str(tmp_path),
                 "--events", str(tmp_path / "absent.csv")])
    assert code == EXIT_IO


def test_malformed_events_file_exits_schema_code(tmp_path):
    bad = tmp_path / "events.csv"
    bad.write_text("not an event file\n")
    code = main(["analyze", "--outdir", str(tmp_path), "--events", str(bad)])
    assert code == EXIT_SCHEMA


def _event_file(path, live_time_s="5.000000", rows=((0, 1000.0), (0, 1000.0))):
    """A small event file; ``rows`` are (event number, trigger_ns), each a
    trigger photon at 10.4 keV."""
    path.write_text(
        f"# eventfile v1\n# live_time_s: {live_time_s}\n# rate_dropped: 0\n"
        "# empty_dropped: 0\nevent,trigger_ns,detector,energy_kev,offset_ns,origin\n"
        + "".join(f"{n},{t:.6f},0,10.4,100.000000,2\n" for n, t in rows)
    )
    return path


@pytest.mark.parametrize("live_time_s,rates", [("5.000000", True), ("0.000000", False)])
def test_analyze_reads_live_time(tmp_path, live_time_s, rates):
    # 0 is what save_events writes for a run under 0.5 us: no rates.txt.
    events = _event_file(tmp_path / "events.csv", live_time_s)
    out = tmp_path / "out"
    assert main(["analyze", "--outdir", str(out), "--events", str(events)]) == EXIT_OK
    assert (out / "rates.txt").exists() == rates


@pytest.mark.parametrize("fields", [
    {"live_time_s": "-5"},
    {"live_time_s": "nan"},
    {"live_time_s": "inf"},
    {"rows": ((0, 1.0), (0, 1.0), (7, 2.0), (7, 2.0), (0, 3.0), (3, 4.0))},
    {"rows": ((1, 1.0), (2, 2.0))},
    {"rows": ((0, 1.0), (2, 2.0))},
    {"rows": ((0, 1.0), (0, 1.5))},
], ids=["live-negative", "live-nan", "live-inf", "numbers-jump-back", "numbers-start-at-1",
        "numbers-skip", "trigger-differs-in-event"])
def test_analyze_rejects_bad_event_file_with_schema_code(tmp_path, fields):
    events = _event_file(tmp_path / "events.csv", **fields)
    out = tmp_path / "out"
    assert main(["analyze", "--outdir", str(out), "--events", str(events)]) == EXIT_SCHEMA
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("old,new", [
    ("# rate_dropped: 0", "# rate_dropped: -3"),
    ("# empty_dropped: 0", "# empty_dropped: -1"),
    ("100.000000,2\n", "100.000000,9\n"),
    ("100.000000,2\n", "100.000000,-1\n"),
    (",10.4,", ",nan,"),
    (",10.4,", ",inf,"),
    (",100.000000,", ",nan,"),
    ("1000.000000,", "inf,"),
], ids=["rate-dropped-negative", "empty-dropped-negative", "origin-9", "origin-negative",
        "energy-nan", "energy-inf", "offset-nan", "trigger-inf"])
def test_analyze_rejects_rows_save_events_never_writes(tmp_path, old, new):
    # A good two-row file, edited by hand in both rows (or its header).
    events = _event_file(tmp_path / "events.csv")
    text = events.read_text()
    assert old in text
    events.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main(["analyze", "--outdir", str(out), "--events", str(events)]) == EXIT_SCHEMA
    assert list(out.iterdir()) == []


def test_cli_import_loads_no_scipy():
    # Every verb starts with numpy alone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(spdc.__file__)))
    probe = "import sys, artifact.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


def test_sweep_command_writes_monotone_curve(tmp_path):
    code = main(["sweep", "--outdir", str(tmp_path),
                 "--start", "8", "--stop", "16", "--num", "5"])
    assert code == EXIT_OK
    rows = (tmp_path / "bragg_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "bragg_angle_deg,normalized_rate"
    rates = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(rates) == 5
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("bounds", [
    ["--start", "0", "--stop", "10", "--num", "3"],
    ["--start", "10", "--stop", "90", "--num", "3"],
    ["--num", "-1"],
    ["--num", "0"],
    ["--width-scale", "0"],
    ["--width-scale", "inf"],
])
def test_sweep_rejects_bad_range_with_config_code(tmp_path, bounds):
    assert main(["sweep", "--outdir", str(tmp_path)] + bounds) == EXIT_CONFIG
    assert not (tmp_path / "bragg_sweep.csv").exists()


@pytest.mark.parametrize("verb", [
    ["sweep", "--width-scale", "1e-12"],
    ["model", "--set", "splitter.width_deg=1e-12"],
])
def test_too_fine_sweep_grid_exits_config_code(tmp_path, capsys, verb):
    # Either width asks sweep_grid for about 3e13 theta_x cells: numpy used
    # to fail allocating the grid (exit 1) instead of a config error.
    assert main(verb + ["--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_then_analyze_pipeline(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--outdir", str(out), "--seed", "21"] + FAST) == EXIT_OK
    for name in ("events.csv", "pulse_summary.txt", "run_meta.txt"):
        assert (out / name).exists()

    ana = tmp_path / "ana"
    assert main(["analyze", "--outdir", str(ana), "--seed", "21",
                 "--events", str(out / "events.csv")] + FAST) == EXIT_OK
    for name in ("spectrum_trans.csv", "spectrum_ref.csv", "sigma_curves.csv",
                 "counts_heralded.csv", "counts_all.csv", "alpha_report.txt",
                 "rates.txt"):
        assert (ana / name).exists()

    sigma_rows = (ana / "sigma_curves.csv").read_text().strip().splitlines()
    assert sigma_rows[0] == "window_ns,output,energy_mode,sigma"
    # Five windows, two outputs, two energy modes.
    assert len(sigma_rows) == 1 + 5 * 2 * 2

    counts = (ana / "counts_all.csv").read_text().strip().splitlines()[1]
    n, nt, nr, ntr = (int(v) for v in counts.split(","))
    assert n > 0 and nt + nr >= n


def test_model_outputs(tmp_path, monkeypatch):
    # Coarse grid: this checks plumbing, not the calibrated ratios.
    ridges = []
    solve = spdc.pair_ridge

    def keep(*args, **kwargs):
        ridges.append(solve(*args, **kwargs))
        return ridges[-1]

    monkeypatch.setattr(spdc, "pair_ridge", keep)
    code = main(["model", "--outdir", str(tmp_path),
                 "--set", "grid.n_energy=300",
                 "--set", "grid.n_x=40",
                 "--set", "grid.n_y=8"])
    assert code == EXIT_OK
    summary = (tmp_path / "model_summary.txt").read_text()
    values = dict(line.split(" = ") for line in summary.strip().splitlines())
    assert 0.0 < float(values["r_reflected"]) < 1.0
    assert 0.0 < float(values["r_transmitted"]) < 1.0
    # The rate fractions fold the port responses at the zeros of the one
    # ridge, to the six digits written.
    cfg = load_default_config()
    assert len(ridges) == 1
    want = spdc.port_rates(ridges[0], cfg.splitter, load_table("graphite"))
    assert (values["r_reflected"], values["r_transmitted"]) == tuple(f"{r:.6f}" for r in want)
    spectra = np.loadtxt(tmp_path / "model_spectra.csv", delimiter=",", skiprows=1)
    assert spectra.shape[1] == 3
    assert np.all(spectra[:, 1:] >= 0)
    sweep = np.loadtxt(tmp_path / "bragg_sweep.csv", delimiter=",", skiprows=1)
    assert sweep.shape == (81, 2)


@pytest.mark.parametrize("verb", [
    ["model"],
    ["sweep", "--num", "5"],
    ["simulate", "--set", "source.duration_s=5", "--set", "source.pair_rate_hz=3"],
])
def test_verb_builds_one_pair_intensity(tmp_path, monkeypatch, verb):
    # The rates, spectra, sweep and pair sampler fold one pair kernel: the
    # ridge is solved once per verb, on the config grid.
    ridge = spdc._ridge
    grids = []

    def counting(kin, grid):
        grids.append(grid)
        return ridge(kin, grid)

    monkeypatch.setattr(spdc, "_ridge", counting)
    code = main(verb + ["--outdir", str(tmp_path),
                        "--set", "grid.n_energy=300",
                        "--set", "grid.n_x=40",
                        "--set", "grid.n_y=8"])
    assert code == EXIT_OK
    assert len(grids) == 1
    assert (grids[0].n_energy, grids[0].n_x, grids[0].n_y) == (300, 40, 8)


def test_narrow_sweep_solves_the_ridge_without_building_w(tmp_path, monkeypatch):
    # At x0.01 the sweep rule refines theta_x to 2985 columns; the sweep
    # folds the ridge there and never spreads its lines over energy.
    def no_spectra(*args, **kwargs):
        raise AssertionError("sweep built the port spectra")

    monkeypatch.setattr(spdc, "port_energy_spectra", no_spectra)
    monkeypatch.setattr(spdc, "_deposit_lines", no_spectra)
    code = main(["sweep", "--outdir", str(tmp_path), "--num", "5", "--width-scale", "0.01",
                 "--set", "grid.n_energy=300", "--set", "grid.n_y=4"])
    assert code == EXIT_OK
    assert len((tmp_path / "bragg_sweep.csv").read_text().strip().splitlines()) == 6


def test_simulate_samples_the_ridge_without_building_w(tmp_path, monkeypatch):
    # simulate draws its pairs from the ridge zeros alone: it never spreads
    # their lines over energy.
    def no_spectra(*args, **kwargs):
        raise AssertionError("simulate built the port spectra")

    monkeypatch.setattr(spdc, "port_energy_spectra", no_spectra)
    monkeypatch.setattr(spdc, "_deposit_lines", no_spectra)
    assert main(["simulate", "--outdir", str(tmp_path), "--seed", "21"] + FAST) == EXIT_OK
    meta = (tmp_path / "run_meta.txt").read_text()
    assert "events = 0" not in meta


@pytest.mark.parametrize("verb", [
    ["model"],
    ["simulate", "--set", "source.duration_s=20", "--set", "source.pair_rate_hz=5"],
])
def test_splitter_cutoff_inside_the_window_exits_ok(tmp_path, verb):
    # 2d = 1.1 A: energies below 11.27 keV, most of the 8.5-12.5 keV
    # window, meet no Bragg reflection; they are transmitted (R = 0) and
    # the run goes on.
    code = main(verb + ["--outdir", str(tmp_path),
                        "--set", "splitter.d_angstrom=0.55",
                        "--set", "splitter.nominal_energy_kev=12",
                        "--set", "grid.n_energy=200", "--set", "grid.n_x=20",
                        "--set", "grid.n_y=4"])
    assert code == EXIT_OK


def test_simulate_writes_events_without_selecting_them(tmp_path, monkeypatch):
    # The event file holds no selection column, so simulate does not
    # energy-select the events; analyze selects on the file.
    def unused(*args, **kwargs):
        raise AssertionError("simulate selected the events it writes")

    monkeypatch.setattr(daq, "energy_select", unused)
    assert main(["simulate", "--outdir", str(tmp_path), "--seed", "21"] + FAST) == EXIT_OK
    assert (tmp_path / "events.csv").stat().st_size > 0


def test_model_over_a_window_below_the_sweep_cutoff_exits_ok(tmp_path):
    # A family retuned to 45 deg reflects nothing below 7.42 keV, and this
    # window starts at 6 keV: the sweep runs instead of failing on the
    # energies the family cannot reflect.
    code = main(["model", "--outdir", str(tmp_path),
                 "--set", "grid.energy_lo_kev=6.0", "--set", "grid.n_energy=200",
                 "--set", "grid.n_x=20", "--set", "grid.n_y=4"])
    assert code == EXIT_OK
    sweep = np.loadtxt(tmp_path / "bragg_sweep.csv", delimiter=",", skiprows=1)
    assert sweep.shape == (81, 2) and np.all(np.diff(sweep[:, 1]) < 0)


@pytest.mark.parametrize("verb", [
    ["model", "--set", "grid.energy_lo_kev=11.80"],
    ["sweep", "--num", "5", "--width-scale", "2", "--set", "grid.energy_lo_kev=11.80"],
    ["model", "--set", "grid.energy_lo_kev=12.0"],
    ["simulate", "--set", "grid.energy_lo_kev=12.0"],
    ["simulate", "--set", "grid.energy_lo_kev=11.80"],
])
def test_window_without_a_ridge_zero_exits_config_code(tmp_path, verb):
    # On this 20-column grid the ridge zeros end at 11.74 keV, and their
    # lines' bands reach to 11.81 keV: a window from 11.80 keV holds some of
    # W but no zero to normalize the sweep, the rates or the pair sampler
    # by, and one from 12.0 keV holds no W either.  (Width x2 keeps the
    # grid.)
    code = main(verb + ["--outdir", str(tmp_path), "--set", "grid.n_energy=200",
                        "--set", "grid.n_x=20", "--set", "grid.n_y=4"])
    assert code == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


def test_model_sweep_follows_air_path(tmp_path):
    # [source] air_path_cm reaches the sweep: no air at 0 cm, less rate at
    # every angle at 200 cm than at the bundled 10 cm.
    coarse = ["grid.n_energy=300", "grid.n_x=40", "grid.n_y=8"]

    def sweep_file(path_cm):
        out = tmp_path / path_cm
        sets = coarse + [f"source.air_path_cm={path_cm}"]
        assert main(["model", "--outdir", str(out)] + [a for s in sets for a in ("--set", s)]) == EXIT_OK
        return out / "bragg_sweep.csv"

    cfg = load_default_config(coarse)
    ridge = spdc.pair_ridge(cfg.spdc, spdc.sweep_grid(cfg.grid, cfg.splitter.width_deg))
    no_air = spdc.bragg_angle_sweep(ridge, cfg.splitter, np.linspace(5.0, 45.0, 81).tolist(),
                                    air=load_table("air"), air_path_cm=0.0)
    expected = "bragg_angle_deg,normalized_rate\n" + "".join(f"{t:.9g},{r:.9g}\n" for t, r in no_air)
    assert sweep_file("0").read_text() == expected
    r10, r200 = (np.loadtxt(sweep_file(p), delimiter=",", skiprows=1)[:, 1] for p in ("10", "200"))
    assert np.all(r200 < r10)


def test_simulate_merges_photon_streams_once(tmp_path, monkeypatch):
    # Each whole-second time slice draws its pairs and the trigger
    # detector's background logic pulses over its whole window, then each
    # output detector's background (with, then without a logic pulse) on
    # the windows around those trigger logic pulses, then the trigger's
    # pulses without a logic pulse on the windows around the output logic
    # pulses.  It orders its nine parts with one merge.  A run shorter than
    # one slice is a single slice.
    merge, whole, near = mc.merge_streams, mc.poisson_times, mc.first_cover_times
    rate_hz = mc.StrayBackground.rate_hz
    merges, wholes, covers, draws = [], [], [], []
    monkeypatch.setattr(mc, "merge_streams", lambda *s: merges.append(len(s)) or merge(*s))
    monkeypatch.setattr(mc, "poisson_times", lambda rng, rate, t0, t1:
                        wholes.append((t0, t1)) or whole(rng, rate, t0, t1))
    monkeypatch.setattr(mc, "first_cover_times", lambda rng, rate, starts, reach:
                        covers.append(starts) or near(rng, rate, starts, reach))
    # Each drawn background process reads its rate once.
    monkeypatch.setattr(mc.StrayBackground, "rate_hz",
                        lambda self, logic: draws.append((self.detector, logic))
                        or rate_hz(self, logic))
    cfg = load_default_config([a for a in FAST if a != "--set"])
    length, reach = math.floor(mc.PHOTONS_PER_SLICE / cfg.source.photon_rate_hz()), cfg.daq.reach_ns()
    assert length > 5.0  # so the 5 s run is shorter than one slice
    for duration_s in (5.0, 20.0, 47.5):
        merges.clear()
        wholes.clear()
        covers.clear()
        draws.clear()
        args = FAST + ["--set", f"source.duration_s={duration_s}"]
        assert main(["simulate", "--outdir", str(tmp_path / str(duration_s))] + args) == EXIT_OK
        edges = [*range(0, math.ceil(duration_s / length) * length, length), duration_s]
        per_slice = [(mc.DET_TRIG, True), (mc.DET_TRANS, True), (mc.DET_TRANS, False),
                     (mc.DET_REF, True), (mc.DET_REF, False), (mc.DET_TRIG, False)]
        assert draws == per_slice * (len(edges) - 1)
        # Per slice: the pairs and the trigger logic pulses on the whole
        # slice, then four output draws around one set of starts, then the
        # trigger draw around another.
        assert len(wholes) == 2 * (len(edges) - 1) and len(covers) == 5 * (len(edges) - 1)
        for k, (t0, t1) in enumerate(zip(edges[:-1], edges[1:])):
            assert wholes[2 * k:2 * k + 2] == [(t0 * 1e9, t1 * 1e9)] * 2
            output, *same, trig = covers[5 * k:5 * k + 5]
            assert all(s is output for s in same) and trig is not output
            for starts in (output, trig):
                assert starts[0] == t0 * 1e9 and starts[-1] == t1 * 1e9 and 2 < starts.size
                assert np.all(np.diff(starts) >= 0)
                assert mc.reach_length(starts, reach) < 0.1 * (t1 - t0) * 1e9
        assert merges == [9] * (len(edges) - 1)


def _open_sigma(events, window_ns, output):
    """sigma = Var(N_t - N_h) / Mean(N_t + N_h) over every event with a
    photon within ``window_ns``, as ``stats.sigma_curves`` takes it in open
    mode, and its standard error from the linearised ratio."""
    counts = events.counts(np.abs(events.offset_ns) <= window_ns)
    n_t, n_h = counts[:, mc.DET_TRIG], counts[:, output]
    seen = n_t + n_h > 0
    d, total = (n_t - n_h)[seen].astype(float), (n_t + n_h)[seen].astype(float)
    mean = total.mean()
    value = d.var() / mean
    influence = ((d - d.mean()) ** 2 - d.var()) / mean - value * (total - mean) / mean
    return value, influence.std() / math.sqrt(d.size)


def test_restricted_output_background_matches_the_whole_slice_draw(monkeypatch):
    """Drawing the output detectors' background only near trigger logic
    pulses, and the trigger detector's only near output logic pulses, and
    counting it elsewhere, changes no distribution: at 3 seeds, runs with
    the windows and runs whose windows (both sets) are the whole slice
    agree within 4 sigma on events, rows per detector, alpha, sigma at 800
    ns and each pulse tally, and in rows per event (chi^2)."""
    runs = {}
    for whole in (False, True):
        with monkeypatch.context() as patch:
            if whole:
                patch.setattr(mc, "first_cover_times", lambda rng, rate, starts, reach:
                              mc.poisson_times(rng, rate, starts[0], starts[-1]))
                patch.setattr(mc, "reach_length", lambda starts, reach: starts[-1] - starts[0])
                patch.setattr(mc, "reach_windows", lambda starts, reach: (starts[:1], starts[-1:]))
            for seed in (3, 4, 5):
                cfg = load_default_config(["grid.n_energy=400", "grid.n_x=60", "grid.n_y=12",
                                           "source.duration_s=100", "source.pair_rate_hz=3",
                                           f"run.seed={seed}"])
                events, _heralded, _rate, _empty, tally = simulate_events(cfg)
                runs[whole, seed] = (events, tally)

    def z(a, b, var_a, var_b):
        return abs(a - b) / math.sqrt(var_a + var_b) if var_a + var_b > 0 else 0.0

    for seed in (3, 4, 5):
        (restricted, tally_r), (full, tally_f) = runs[False, seed], runs[True, seed]
        assert len(restricted) > 3000
        assert z(len(restricted), len(full), len(restricted), len(full)) < 4
        for a, b in zip(restricted.counts().sum(axis=0), full.counts().sum(axis=0)):
            assert z(a, b, a, b) < 4
        alpha_r, alpha_f = (stats.alpha(stats.counts_from_events(e)) for e in (restricted, full))
        assert z(alpha_r.alpha, alpha_f.alpha, alpha_r.sigma ** 2, alpha_f.sigma ** 2) < 4
        for output in (mc.DET_TRANS, mc.DET_REF):
            (s_r, e_r), (s_f, e_f) = (_open_sigma(e, 800.0, output) for e in (restricted, full))
            table = stats.sigma_curves(restricted, [800.0], outputs=[output], energy_modes=["open"])
            assert s_r == pytest.approx(table[0, 0, 0], rel=1e-12)
            assert z(s_r, s_f, e_r ** 2, e_f ** 2) < 4
        # Every cell has one distribution in both runs.
        for a, b in zip(tally_r.ravel(), tally_f.ravel()):
            assert z(a, b, a, b) < 4
        assert tally_r[mc.DET_TRANS, mc.ORIGIN_STRAY, 1] > 1e5
        # Two-sample chi^2 of the rows-per-event histograms.
        rows_r, rows_f = (np.bincount(np.diff(e.start), minlength=12)[:12]
                          for e in (restricted, full))
        kept = rows_r + rows_f >= 10
        a, b = rows_r[kept], rows_f[kept]
        scale = math.sqrt(b.sum() / a.sum())
        chi2 = float(np.sum((a * scale - b / scale) ** 2 / (a + b)))
        dof = int(kept.sum()) - 1
        assert dof >= 2 and chi2 < dof + 4.0 * math.sqrt(2.0 * dof)


@pytest.mark.parametrize("name", ["ref", "trans"])
def test_each_part_is_detected_with_its_detectors_spec(tmp_path, name):
    # A blind output detector counts no pulse; the other two still count
    # theirs, so each part met its own detector's spec.
    args = FAST + ["--set", f"detector.{name}.quantum_efficiency=0"]
    assert main(["simulate", "--outdir", str(tmp_path)] + args) == EXIT_OK
    lines = (tmp_path / "pulse_summary.txt").read_text().splitlines()
    counts = {line.split(":")[0]: line for line in lines}
    assert counts[name] == f"{name}: analog=0 logic=0"
    for other in set(mc.DETECTOR_NAMES.values()) - {name}:
        analog, logic = (int(v.split("=")[1]) for v in counts[other].split(": ")[1].split())
        assert analog > 0 and logic > 0
