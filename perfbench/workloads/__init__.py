"""Workload definitions.

Each workload module provides

* ``make_inputs(seed)``: imports what it needs of ``octhls`` and builds
  every program input from the seed (this is the timed set-up);
* ``references()``: the high-precision values its checks compare with;
* ``operations(inputs, refs)``: the list of ``Op`` making up one pass.

An ``Op`` runs one call into the program (``run``, the timed part) and
then checks the result (``check``, untimed), returning ``None`` when the
result is right or a one-line reason when it is not.  ``known_fault``
marks an operation that fails today because of a recorded program fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

NAMES = ("oracle", "sphere", "geometry", "cli")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_fault: bool = False


def nonfinite(value):
    """True when any number inside value (nested dicts, sequences, arrays) is inf or NaN."""
    if isinstance(value, dict):
        return any(nonfinite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(nonfinite(v) for v in value)
    if isinstance(value, (float, int, np.ndarray, np.generic)) and not isinstance(value, bool):
        return not np.all(np.isfinite(value))
    return False


def within(label, value, ref, tol):
    """None when |value - ref| / |ref| < tol, else a reason."""
    err = abs(value - ref) / abs(ref)
    return None if err < tol else f"{label}: rel err {err:.3e} >= {tol:.0e}"


def below(label, value, tol):
    return None if value < tol else f"{label}: {value:.3e} >= {tol:.0e}"


def first(*reasons):
    """The first failure reason among several checks, or None."""
    return next((r for r in reasons if r), None)


def unit_vector(rng, n=16):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def p_of(lam, q=22):
    """Lebesgue exponent 2Q / (2Q - lambda) paired with the HLS exponent lambda."""
    return 2.0 * q / (2.0 * q - lam)


def sphere_grid(n_theta=200, n_phi=200):
    """Gauss-Legendre tensor grid on [0, pi/2] x [0, pi] carrying the S^15 measure.

    Returns (TH, PH, W) with sum(W * F(TH, PH)) the integral of a zonal
    profile F; the measure is |S^7| |S^6| sin^7 cos^7 theta sin^6 phi.
    """
    s7 = 2.0 * math.pi ** 4 / math.factorial(3)
    s6 = 16.0 * math.pi ** 3 / 15.0
    x, w = np.polynomial.legendre.leggauss(n_theta)
    th = 0.25 * math.pi * (x + 1.0)
    wt = 0.25 * math.pi * w * np.sin(th) ** 7 * np.cos(th) ** 7
    x, w = np.polynomial.legendre.leggauss(n_phi)
    ph = 0.5 * math.pi * (x + 1.0)
    wp = 0.5 * math.pi * w * np.sin(ph) ** 6
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    return TH, PH, s7 * s6 * np.outer(wt, wp)
