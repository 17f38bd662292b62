"""Run-configuration file parsing and validation.

The run configuration is a single INI-style file.  The bundled profile
(``artifact/data/defaults.ini``) is its schema: every key in it is accepted
and required, and any other section or key is a hard error, so that typos
in physics parameters cannot pass silently.  The per-detector sections
``[detector.trig]``, ``[detector.trans]`` and ``[detector.ref]`` are
optional and take ``[detector]``'s keys, each overriding that section's
value for one detector.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

from .daq import DaqConfig
from .montecarlo import DETECTOR_NAMES, DetectorSpec, SourceConfig, StraySpectrum
from .spdc import GridSpec, SpdcConfig
from .splitter import SplitterSpec
from .xoptics import LatticeSpec, load_table


class ConfigError(Exception):
    """Invalid, unknown, or missing configuration content."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to run the model and the event-stream simulation."""

    spdc: SpdcConfig
    grid: GridSpec
    splitter: SplitterSpec
    source: SourceConfig
    detectors: dict[int, DetectorSpec]
    daq: DaqConfig
    bin_width_kev: float
    baseline_rate_hz: float
    baseline_rate_err_hz: float

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0.0 < self.bin_width_kev < math.inf:
            raise ValueError("[analysis] bin_width_kev must be finite and positive")
        if not 0.0 < self.baseline_rate_hz < math.inf:
            raise ValueError("[analysis] baseline_rate_hz must be finite and positive")
        if not 0.0 <= self.baseline_rate_err_hz < math.inf:
            raise ValueError("[analysis] baseline_rate_err_hz must be finite and non-negative")


def _validate(parser: configparser.ConfigParser, schema: dict[str, set[str]]):
    """Reject a section or key of ``parser`` that ``schema`` (the bundled
    profile's keys by section, ``_sections``) does not hold; each
    ``[detector.<name>]`` takes ``[detector]``'s keys."""
    per_detector = {f"detector.{name}" for name in DETECTOR_NAMES.values()}
    for section in parser.sections():
        allowed = schema.get("detector" if section in per_detector else section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _get(parser, section, key, kind=float):
    """[section] key of ``parser``, read as ``kind``."""
    try:
        raw = parser.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError) as exc:
        raise ConfigError(f"missing config value [{section}] {key}") from exc
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _detector_from(parser, section: str) -> DetectorSpec:
    """The detector of a per-detector section: keys set there override the
    shared [detector] section's."""
    def get(key):
        use = section if parser.has_option(section, key) else "detector"
        return _get(parser, use, key)

    return DetectorSpec(
        quantum_efficiency=get("quantum_efficiency"),
        resolution_fwhm_ev=get("resolution_fwhm_ev"),
        reference_energy_kev=get("reference_energy_kev"),
        sca_window_kev=(get("sca_lo_kev"), get("sca_hi_kev")),
    )


def _check_incidence(splitter: SplitterSpec, grid: GridSpec):
    """Reject a mount whose incidence on the splitter planes leaves (0, 180) deg.

    The heralded beam meets the plate at theta_B(nominal) + mount offset +
    theta_x, with theta_x spanning the grid's angular window.
    """
    mount = splitter.nominal_bragg_deg() + splitter.mount_offset_deg
    half = math.degrees(0.5 * grid.angle_span_rad)
    if not (0.0 < mount - half and mount + half < 180.0):
        raise ConfigError(
            f"splitter incidence {mount - half:g}..{mount + half:g} deg leaves "
            "(0, 180) deg: check [splitter] mount_offset_deg"
        )


def _check_energy_windows(grid: GridSpec, pump_energy_kev: float):
    """Reject a grid window whose heralded energies [lo, hi], or trigger
    energies [E_pump - hi, E_pump - lo], leave the range of an attenuation
    table those photons pass: the heralded photon crosses the graphite
    splitter and both flight paths (air, then helium), the trigger photon
    the flight paths."""
    lo, hi = grid.energy_lo_kev, grid.energy_hi_kev
    heralded = ("heralded", lo, hi)
    trigger = ("trigger", pump_energy_kev - hi, pump_energy_kev - lo)
    for material, photons in (
        ("graphite", (heralded,)),
        ("air", (heralded, trigger)),
        ("helium", (heralded, trigger)),
    ):
        energies = load_table(material).energies_kev
        for photon, e_lo, e_hi in photons:
            if not (energies[0] <= e_lo and e_hi <= energies[-1]):
                raise ConfigError(
                    f"{photon} energies {e_lo:g}..{e_hi:g} keV leave the {material} "
                    f"attenuation table's {energies[0]:g}..{energies[-1]:g} keV: check [grid] "
                    "energy_lo_kev and energy_hi_kev"
                )


def build_config(parser: configparser.ConfigParser, schema: dict[str, set[str]]) -> RunConfig:
    """Validate a parsed INI file against ``schema``, the bundled profile's
    keys by section (``_sections``), and construct the typed configuration."""
    _validate(parser, schema)
    try:
        spdc = SpdcConfig(
            pump_energy_kev=_get(parser, "spdc", "pump_energy_kev"),
            crystal=LatticeSpec(
                _get(parser, "spdc", "crystal_d_angstrom"),
                _get(parser, "spdc", "crystal_name", str),
            ),
            thickness_mm=_get(parser, "spdc", "thickness_mm"),
            detune_deg=_get(parser, "spdc", "detune_deg"),
            theta_heralded_deg=_get(parser, "spdc", "theta_heralded_deg"),
        )
        grid = GridSpec(
            energy_lo_kev=_get(parser, "grid", "energy_lo_kev"),
            energy_hi_kev=_get(parser, "grid", "energy_hi_kev"),
            n_energy=_get(parser, "grid", "n_energy", int),
            angle_span_rad=_get(parser, "grid", "angle_span_mrad") * 1e-3,
            n_x=_get(parser, "grid", "n_x", int),
            n_y=_get(parser, "grid", "n_y", int),
        )
        splitter = SplitterSpec(
            lattice=LatticeSpec(
                _get(parser, "splitter", "d_angstrom"),
                _get(parser, "splitter", "name", str),
            ),
            peak_reflectivity=_get(parser, "splitter", "peak_reflectivity"),
            width_deg=_get(parser, "splitter", "width_deg"),
            thickness_mm=_get(parser, "splitter", "thickness_mm"),
            nominal_energy_kev=_get(parser, "splitter", "nominal_energy_kev"),
            mount_offset_deg=_get(parser, "splitter", "mount_offset_deg"),
        )
        _check_incidence(splitter, grid)
        _check_energy_windows(grid, spdc.pump_energy_kev)
        source = SourceConfig(
            pair_rate=_get(parser, "source", "pair_rate_hz"),
            stray_rates=(
                _get(parser, "source", "stray_rate_trig_hz"),
                _get(parser, "source", "stray_rate_trans_hz"),
                _get(parser, "source", "stray_rate_ref_hz"),
            ),
            spectrum=StraySpectrum(
                flat_lo_kev=_get(parser, "source", "stray_flat_lo_kev"),
                flat_hi_kev=_get(parser, "source", "stray_flat_hi_kev"),
                line_energy_kev=_get(parser, "source", "stray_line_kev"),
                line_fraction=_get(parser, "source", "stray_line_fraction"),
            ),
            duration_s=_get(parser, "source", "duration_s"),
            rng_seed=_get(parser, "run", "seed", int),
            air_path_cm=_get(parser, "source", "air_path_cm"),
            helium_path_cm=_get(parser, "source", "helium_path_cm"),
        )
        detectors = {det: _detector_from(parser, f"detector.{name}")
                     for det, name in DETECTOR_NAMES.items()}
        daq = DaqConfig(
            half_window_ns=_get(parser, "daq", "half_window_ns"),
            logic_width_ns=_get(parser, "daq", "logic_width_ns"),
            analog_width_ns=_get(parser, "daq", "analog_width_ns"),
            max_event_rate_hz=_get(parser, "daq", "max_event_rate_hz"),
            acceptance_kev=(
                _get(parser, "daq", "acceptance_lo_kev"),
                _get(parser, "daq", "acceptance_hi_kev"),
            ),
            sum_halfwidth_kev=_get(parser, "daq", "sum_halfwidth_kev"),
            pump_energy_kev=_get(parser, "spdc", "pump_energy_kev"),
        )
        return RunConfig(
            spdc=spdc,
            grid=grid,
            splitter=splitter,
            source=source,
            detectors=detectors,
            daq=daq,
            bin_width_kev=_get(parser, "analysis", "bin_width_kev"),
            baseline_rate_hz=_get(parser, "analysis", "baseline_rate_hz"),
            baseline_rate_err_hz=_get(parser, "analysis", "baseline_rate_err_hz"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None)


def _profile() -> configparser.ConfigParser:
    """The bundled reference profile, parsed."""
    parser = _parser()
    parser.read_string(
        resources.files("artifact.data").joinpath("defaults.ini").read_text(encoding="utf-8"))
    return parser


def _sections(parser: configparser.ConfigParser) -> dict[str, set[str]]:
    """The keys of each section of ``parser``."""
    return {section: set(parser[section]) for section in parser.sections()}


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    """Load and validate a config file, applying ``section.key=value`` overrides."""
    parser = _parser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _apply_overrides(parser, overrides or [])
    return build_config(parser, _sections(_profile()))


def load_default_config(overrides: list[str] | None = None) -> RunConfig:
    """Load the bundled reference-configuration profile."""
    parser = _profile()
    schema = _sections(parser)  # taken before the overrides add to it
    _apply_overrides(parser, overrides or [])
    return build_config(parser, schema)


def _apply_overrides(parser: configparser.ConfigParser, overrides: list[str]):
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = (part.strip() for part in target.rsplit(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
