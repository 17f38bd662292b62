"""Mosaic-crystal Bragg beam splitter: Gaussian reflectance model.

The mosaic crystal reflects a narrow band around the Bragg condition with a
Gaussian rocking profile and transmits the rest, attenuated by absorption
along the slant path through the plate.  ``response`` gives both port
responses from one reflectivity evaluation; the model spectra, the port
rates and the pair sampler use it, and the Bragg sweep ``reflectivity``.
All bookkeeping is in intensities: the reflectivity peaks at A, and the
rocking width parameter b is that of the amplitude profile
sqrt(A) * exp(-arg^2 / (2 b^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .xoptics import AttenuationTable, LatticeSpec, bragg_angle, wavelength


@dataclass(frozen=True)
class SplitterSpec:
    """Geometry and rocking-curve parameters of the mosaic beam splitter."""

    lattice: LatticeSpec
    peak_reflectivity: float = 0.5  # A, peak intensity reflectivity
    width_deg: float = 0.48  # b, Gaussian rocking width parameter
    thickness_mm: float = 0.7
    nominal_energy_kev: float = 10.5  # energy whose Bragg angle sets the mount
    mount_offset_deg: float = 0.0  # extra rotation of the plate from nominal

    def __post_init__(self):
        if not (0.0 < self.peak_reflectivity <= 1.0):
            raise ValueError("peak_reflectivity must lie in (0, 1]")
        # Written so that NaN and infinity fail.
        if not 0.0 < self.width_deg < math.inf:
            raise ValueError("width parameter must be finite and positive")
        if not 0.0 < self.thickness_mm < math.inf:
            raise ValueError("thickness must be finite and positive")

    def nominal_bragg_deg(self) -> float:
        return float(bragg_angle(self.nominal_energy_kev, self.lattice))


def reflectivity(spec: SplitterSpec, energy_kev, dtheta_deg):
    """Intensity reflectivity A * exp(-arg^2 / b^2), peaking at A, and 0
    where the wavelength exceeds 2d and no Bragg reflection exists.

    ``dtheta_deg`` is the deviation of the incidence angle from the nominal
    mount angle, and arg = dtheta + theta_B(nominal) - theta_B(energy) in
    degrees: the reflectivity peaks on the locus where the incidence angle
    equals the Bragg angle for ``energy_kev``.
    """
    # sin(theta_B) as xoptics.bragg_angle takes it; R = 0 where it exceeds 1.
    s = wavelength(energy_kev) / (2.0 * spec.lattice.d_spacing)
    # The chain works in one buffer.  asarray makes a scalar arg a writable
    # 0-d array, and [()] returns a scalar for it again.
    r = np.asarray(
        np.asarray(dtheta_deg, dtype=float)
        + spec.nominal_bragg_deg()
        - np.degrees(np.arcsin(np.minimum(s, 1.0)))
    )
    r /= spec.width_deg
    np.square(r, out=r)
    np.negative(r, out=r)
    np.exp(r, out=r)
    r *= spec.peak_reflectivity
    r *= s <= 1.0
    return r[()]


def response(spec: SplitterSpec, energy_kev, dtheta_deg, material: AttenuationTable):
    """Intensity reflectivity R and transmission T of the plate, as (R, T).

    R is ``reflectivity``.  T = (1 - R) * exp(-mu * t / sin(incidence)),
    where the incidence angle to the atomic planes is theta_B(nominal) +
    dtheta + mount offset: the reflective (Bragg) channel removes R and the
    remainder is absorbed along the slant path through the plate thickness.
    """
    incidence_deg = (
        spec.nominal_bragg_deg()
        + np.asarray(dtheta_deg, dtype=float)
        + spec.mount_offset_deg
    )
    if np.any((incidence_deg <= 0) | (incidence_deg >= 180)):
        raise ValueError("incidence angle to the planes must lie in (0, 180) degrees")
    slant_cm = (spec.thickness_mm / 10.0) / np.sin(np.radians(incidence_deg))
    absorption = np.asarray(np.multiply(-material.linear_attenuation(energy_kev), slant_cm))
    np.exp(absorption, out=absorption)
    r = reflectivity(spec, energy_kev, dtheta_deg)
    t = np.subtract(1.0, r)
    t *= absorption
    return r, t
