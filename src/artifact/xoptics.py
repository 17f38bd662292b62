"""Photon-energy conversions, Bragg-law geometry, and attenuation primitives.

Conventions used throughout the package:

* photon energies are in keV,
* lengths are in Angstrom for wavelengths / wave numbers and in cm for
  macroscopic paths,
* angles are in radians internally; degrees appear only at I/O boundaries
  and in a few convenience signatures that mirror lab bookkeeping.

The refractive index is taken as exactly 1 (hard x-rays deviate by ~1e-6,
far below the precision of anything computed here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

# Conversion constant between photon energy and wavelength: E[keV] * lambda[A].
HC_KEV_ANGSTROM = 12.39842


def wavelength(energy_kev):
    """Photon wavelength in Angstrom for an energy in keV."""
    return HC_KEV_ANGSTROM / np.asarray(energy_kev, dtype=float)


def wavenumber(energy_kev):
    """Vacuum wave number k = 2*pi/lambda in 1/Angstrom."""
    return 2.0 * math.pi * np.asarray(energy_kev, dtype=float) / HC_KEV_ANGSTROM


@dataclass(frozen=True)
class LatticeSpec:
    """A single reflection of a crystal, identified by its interplanar spacing."""

    d_spacing: float  # Angstrom
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.d_spacing < math.inf:  # NaN fails too
            raise ValueError(f"d_spacing must be finite and positive, got {self.d_spacing}")


def bragg_angle(energy_kev, lattice: LatticeSpec):
    """Bragg angle in degrees for the given photon energy and lattice planes.

    Solves lambda = 2 d sin(theta_B).  Raises ``ValueError`` when the
    wavelength exceeds 2d and no Bragg reflection exists.
    """
    s = wavelength(energy_kev) / (2.0 * lattice.d_spacing)
    if np.any(s > 1.0):
        raise ValueError(
            f"no Bragg reflection: wavelength exceeds 2d for {lattice.name or 'lattice'}"
        )
    return np.degrees(np.arcsin(s))


@dataclass(frozen=True)
class AttenuationTable:
    """Mass-attenuation samples for one material with log-log interpolation."""

    energies_kev: np.ndarray  # strictly increasing, keV
    mu_over_rho: np.ndarray  # cm^2/g, finite and positive
    density: float  # g/cm^3, finite and positive
    name: str = ""

    def __post_init__(self):
        e = np.asarray(self.energies_kev, dtype=float)
        m = np.asarray(self.mu_over_rho, dtype=float)
        if e.ndim != 1 or e.size < 2 or m.shape != e.shape:
            raise ValueError("attenuation table needs matching 1-D energy/value arrays")
        # Written so that NaN and infinity fail.
        if not np.all((e > 0) & (e < math.inf) & (m > 0) & (m < math.inf)):
            raise ValueError("attenuation samples must be finite and positive")
        if not np.all(np.diff(e) > 0):
            raise ValueError("attenuation energies must be strictly increasing")
        if not 0.0 < self.density < math.inf:
            raise ValueError("density must be finite and positive")
        object.__setattr__(self, "energies_kev", e)
        object.__setattr__(self, "mu_over_rho", m)

    def mass_attenuation(self, energy_kev):
        """mu/rho (cm^2/g) at the given energies, log-log interpolated."""
        e = np.asarray(energy_kev, dtype=float)
        lo, hi = self.energies_kev[0], self.energies_kev[-1]
        if np.any(e < lo) or np.any(e > hi):
            raise ValueError(
                f"energy outside attenuation table range [{lo}, {hi}] keV for "
                f"{self.name or 'material'}"
            )
        return np.exp(
            np.interp(np.log(e), np.log(self.energies_kev), np.log(self.mu_over_rho))
        )

    def linear_attenuation(self, energy_kev):
        """mu (1/cm) at the table's nominal density."""
        return self.mass_attenuation(energy_kev) * self.density

    @classmethod
    def from_file(cls, path, name: str = "") -> "AttenuationTable":
        """Load a two-column (keV, cm^2/g) text table.

        Lines starting with '#' are comments; a comment of the form
        ``# density_g_cm3: <value>`` gives the density, which is required.
        """
        energies, values = [], []
        density = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.lower().startswith("density_g_cm3:"):
                        density = float(body.split(":", 1)[1])
                    continue
                cols = line.split()
                if len(cols) < 2:
                    raise ValueError(f"malformed attenuation line: {line!r}")
                energies.append(float(cols[0]))
                values.append(float(cols[1]))
        if density is None:
            raise ValueError(f"no density given for attenuation table {path}")
        return cls(np.asarray(energies), np.asarray(values), density, name=name)


def load_table(material: str) -> AttenuationTable:
    """Load one of the bundled attenuation tables: air, helium, graphite, diamond."""
    ref = resources.files("artifact.data").joinpath(f"{material}.txt")
    with resources.as_file(ref) as path:
        return AttenuationTable.from_file(path, name=material)


def transmittance(energy_kev, table: AttenuationTable, path_cm):
    """Intensity transmission exp(-mu * path) through ``path_cm`` of material."""
    path = np.asarray(path_cm, dtype=float)
    if np.any(path < 0):
        raise ValueError("path length must be non-negative")
    return np.exp(-table.linear_attenuation(energy_kev) * path)

