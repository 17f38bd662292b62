"""Unit tests for configuration parsing, validation, and overrides."""

import pytest

from artifact.cli import EXIT_CONFIG, main
from artifact.config import (
    ConfigError,
    default_config_path,
    load_config,
    load_default_config,
)
from artifact.montecarlo import DET_REF, DET_TRANS, DET_TRIG


def test_default_profile_loads():
    cfg = load_default_config()
    assert cfg.spdc.pump_energy_kev == 21.0
    assert cfg.splitter.nominal_energy_kev == 10.5
    assert cfg.daq.acceptance_kev == (7.0, 17.0)
    assert set(cfg.detectors) == {DET_TRIG, DET_TRANS, DET_REF}


def test_default_path_matches_bundled_profile():
    cfg = load_config(default_config_path())
    assert cfg == load_default_config()


def test_overrides_apply():
    cfg = load_default_config(["source.duration_s=12.5", "run.seed=99"])
    assert cfg.source.duration_s == 12.5
    assert cfg.source.rng_seed == 99


def test_override_whitespace_is_stripped():
    cfg = load_default_config([" source . duration_s = 5 "])
    assert cfg.source.duration_s == 5.0


def test_output_detector_pulse_widths_rejected():
    for key in ("logic_width_ns", "analog_width_ns"):
        for section in ("detector.ref", "detector.trans"):
            with pytest.raises(ConfigError, match=key):
                load_default_config([f"{section}.{key}=500"])


def test_trigger_detector_pulse_width_reaches_daq():
    # [detector.trig] overrides a width; the other falls back to [detector].
    cfg = load_default_config(["detector.trig.logic_width_ns=500", "detector.analog_width_ns=150"])
    assert cfg.daq.logic_width_ns == 500.0
    assert cfg.daq.analog_width_ns == 150.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_default_config(["source.typo_rate=1.0"])


def test_trigger_angle_key_rejected():
    # The trigger direction follows from transverse momentum conservation,
    # so a configured trigger angle would be ignored.
    with pytest.raises(ConfigError, match="theta_trigger_deg"):
        load_default_config(["spdc.theta_trigger_deg=43.63"])


@pytest.mark.parametrize("offset", ["-20", "-10.2", "170", "200"])
def test_splitter_incidence_outside_0_180_rejected(offset):
    # theta_B(10.5 keV, HOPG) is 10.1 deg and the grid spans +-0.14 deg.
    with pytest.raises(ConfigError, match="incidence"):
        load_default_config([f"splitter.mount_offset_deg={offset}"])


def test_splitter_incidence_inside_0_180_accepted():
    cfg = load_default_config(["splitter.mount_offset_deg=-9.8"])
    assert cfg.splitter.mount_offset_deg == -9.8


@pytest.mark.parametrize("cap", ["0.5", "0.999", "nan"])
def test_rate_cap_below_one_rejected(cap):
    with pytest.raises(ConfigError, match="max_event_rate_hz"):
        load_default_config([f"daq.max_event_rate_hz={cap}"])
    assert load_default_config(["daq.max_event_rate_hz=1"]).daq.max_event_rate_hz == 1.0


@pytest.mark.parametrize("setting", [
    "daq.half_window_ns=nan",
    "detector.trig.logic_width_ns=nan",
    "detector.analog_width_ns=nan",
    "daq.sum_halfwidth_kev=nan",
    "source.pair_rate_hz=nan",
    "source.pair_rate_hz=inf",
    "source.stray_rate_ref_hz=nan",
    "source.stray_line_kev=nan",
    "source.air_path_cm=nan",
    "source.helium_path_cm=-1",
    "detector.resolution_fwhm_ev=-300",
    "detector.resolution_fwhm_ev=nan",
    "detector.reference_energy_kev=nan",
    # ``x > 0`` and ``x >= 1`` let infinity through to the electronics.
    "daq.max_event_rate_hz=inf",
    "daq.half_window_ns=inf",
    "detector.trig.logic_width_ns=inf",
    "detector.analog_width_ns=inf",
    "daq.acceptance_lo_kev=-inf",
    "daq.acceptance_hi_kev=inf",
    "run.seed=-5",  # numpy's SeedSequence raised after the pair intensity
    # Every [source] and [detector] value is finite.  Infinite ones crashed
    # simulate (the flat band's edge, the duration), gave NaN pulse heights
    # (the line energy, the resolution) or zeroed the resolution (the
    # reference energy).
    "source.stray_flat_hi_kev=inf",
    "source.duration_s=inf",
    "source.stray_line_kev=inf",
    "source.air_path_cm=inf",
    "detector.resolution_fwhm_ev=inf",
    "detector.reference_energy_kev=inf",
    "detector.sca_hi_kev=inf",
])
def test_nan_and_negative_values_exit_config_code(tmp_path, setting):
    # Checks written as ``not x > 0`` reject NaN; ``x <= 0`` let it through.
    code = main(["simulate", "--outdir", str(tmp_path / "out"), "--set", setting])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_config_code(tmp_path):
    code = main(["simulate", "--outdir", str(tmp_path / "out"), "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    "spdc.pump_energy_kev=nan",
    "spdc.pump_energy_kev=inf",
    "spdc.pump_energy_kev=0",
    "spdc.pump_energy_kev=-21",
    "spdc.pump_energy_kev=1",  # below the crystal's Bragg cut-off
    "spdc.detune_deg=nan",
    "spdc.detune_deg=inf",
    "spdc.theta_heralded_deg=nan",
    "spdc.theta_heralded_deg=-inf",
    "spdc.thickness_mm=inf",
])
def test_bad_spdc_values_exit_config_code(tmp_path, setting):
    # These used to pass the config and crash the pair-intensity kernel.
    code = main(["model", "--outdir", str(tmp_path / "out"), "--set", setting])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    "grid.energy_lo_kev=inf",
    "grid.energy_hi_kev=inf",
    "grid.angle_span_mrad=inf",
    "spdc.crystal_d_angstrom=inf",
    "splitter.d_angstrom=inf",
    "splitter.width_deg=inf",
    "splitter.thickness_mm=inf",
])
def test_infinite_grid_lattice_splitter_values_exit_config_code(tmp_path, setting):
    # Checks written as ``x > 0`` let infinity through to the kernel and the
    # attenuation tables.
    code = main(["model", "--outdir", str(tmp_path / "out"), "--set", setting])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    "grid.energy_lo_kev=2.5",  # heralded below graphite and air (3 keV)
    "grid.energy_hi_kev=31",  # heralded above graphite (30 keV)
    "grid.energy_hi_kev=18.5",  # trigger from 2.5 keV, below air
    "spdc.pump_energy_kev=60",  # trigger 47.5-51.5 keV, above air (40 keV)
])
def test_energy_window_outside_the_attenuation_tables_exits_config_code(tmp_path, setting):
    # A window the tables do not cover used to pass the config and crash
    # the port spectra.
    code = main(["model", "--outdir", str(tmp_path / "out"), "--set", setting,
                 "--set", "grid.n_energy=200", "--set", "grid.n_x=20", "--set", "grid.n_y=4"])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def small_events_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--outdir", str(out), "--seed", "3",
                 "--set", "grid.n_energy=200", "--set", "grid.n_x=20",
                 "--set", "grid.n_y=4", "--set", "source.duration_s=4"]) == 0
    return out / "events.csv"


@pytest.mark.parametrize("setting", [
    "analysis.bin_width_kev=nan",
    "analysis.bin_width_kev=inf",
    "analysis.bin_width_kev=0",
    "analysis.bin_width_kev=-0.5",
    "analysis.baseline_rate_hz=nan",
    "analysis.baseline_rate_hz=inf",
    "analysis.baseline_rate_hz=0",
    "analysis.baseline_rate_err_hz=nan",
    "analysis.baseline_rate_err_hz=inf",
    "analysis.baseline_rate_err_hz=-0.01",
])
def test_bad_analysis_values_exit_config_code(tmp_path, small_events_file, setting):
    code = main(["analyze", "--outdir", str(tmp_path / "out"),
                 "--events", str(small_events_file), "--set", setting])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_zero_baseline_error_accepted():
    assert load_default_config(["analysis.baseline_rate_err_hz=0"]).baseline_rate_err_hz == 0.0


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        load_default_config(["nonsense.value=1.0"])


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        load_default_config(["source.duration_s=fast"])


def test_invalid_physics_value_rejected():
    with pytest.raises(ConfigError):
        load_default_config(["spdc.thickness_mm=-1"])


def test_malformed_override_rejected():
    with pytest.raises(ConfigError):
        load_default_config(["duration_s=1.0"])


def test_per_detector_override_sections():
    cfg = load_default_config(["detector.ref.quantum_efficiency=0.5"])
    assert cfg.detectors[DET_REF].quantum_efficiency == 0.5
    assert cfg.detectors[DET_TRIG].quantum_efficiency == 1.0


def test_missing_value_rejected(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[spdc]\npump_energy_kev = 21.0\n")
    with pytest.raises(ConfigError):
        load_config(path)
