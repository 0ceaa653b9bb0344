"""Octonionic Heisenberg group geometry, bispherical spectra, and the
sharp constants of the HLS / Sobolev / Log-Sobolev family, with
independent quadrature and Monte Carlo cross-checks."""

#: homogeneous dimension of the group under the dilation (dz, d^2 t): dim O + 2 dim Im O
Q = 8 + 2 * 7

__all__ = ["Q"]
__version__ = "0.1.0"
