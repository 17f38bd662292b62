"""Deterministic simulator and analysis toolkit for a heralded x-ray photon
source split on a mosaic Bragg crystal.

Submodules:

* :mod:`artifact.xoptics`    – energy/wavelength units, Bragg geometry, attenuation
* :mod:`artifact.spdc`       – theta_y-integrated pair intensity, port spectra, Bragg sweep
* :mod:`artifact.splitter`   – Gaussian mosaic-crystal beam-splitter model
* :mod:`artifact.montecarlo` – seeded photon-stream and detector simulation
* :mod:`artifact.daq`        – coincidence-electronics emulation
* :mod:`artifact.stats`      – spectra, correlation degree, anticorrelation ratio
* :mod:`artifact.cli`        – batch front end
"""

__version__ = "0.1.0"
