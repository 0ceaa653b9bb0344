"""High-precision references for the benchmark checks, in mpmath.

Each function transcribes a closed form of Christ-Liu-Zhang,
arXiv:1407.3419, and evaluates it at ``DIGITS`` significant digits.
Nothing here imports ``octhls``: these are the values the program's
float64 routes are checked against.  Results are returned as Python
floats (rounded once, at the end).

Print (regenerate) the reference values every workload checks against:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import importlib
import json

import mpmath as mp

DIGITS = 40
Q = 22


def sphere_measure():
    """|S| = 2 pi^8 / 7!, the surface measure of the unit sphere in R^16."""
    with mp.workdps(DIGITS):
        return float(2 * mp.pi ** 8 / mp.factorial(7))


def _eig_K1(j, k, a):
    # 2 pi^8 Gamma(11 - 2a) (a)_j (a - 3)_k / (Gamma(j + 11 - a) Gamma(k + 8 - a))
    return (
        2 * mp.pi ** 8 * mp.gamma(11 - 2 * a) * mp.rf(a, j) * mp.rf(a - 3, k)
        / (mp.gamma(j + 11 - a) * mp.gamma(k + 8 - a))
    )


def eig_K1(j, k, alpha):
    """Eigenvalue of |1 - w|^(-2 alpha) on the bispherical subspace W_{j,k}."""
    with mp.workdps(DIGITS):
        return float(_eig_K1(j, k, mp.mpf(alpha)))


def eig_K2(j, k, alpha):
    """Eigenvalue of |w|^2 |1 - w|^(-2 alpha) on W_{j,k}: the four-term form.

    lambda_K1 - 2 pi^8 Gamma(12-2a) (a)_j (a-4)_k / (Gamma(k+8-a) Gamma(j+12-a))
      - 2 pi^8 Gamma(12-2a) (a-4) (a)_{j-1} (a-3)_k / (Gamma(k+9-a) Gamma(j+11-a))
      + 2 pi^8 Gamma(13-2a) (a-4) (a)_{j-1} (a-4)_k / (Gamma(k+9-a) Gamma(j+12-a)),
    with (a)_{-1} = 1 / (a - 1).
    """
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        c = 2 * mp.pi ** 8
        p1 = mp.rf(a, j - 1) if j > 0 else 1 / (a - 1)
        term_a = -c * mp.gamma(12 - 2 * a) * mp.rf(a, j) * mp.rf(a - 4, k) / (
            mp.gamma(k + 8 - a) * mp.gamma(j + 12 - a)
        )
        term_b = -c * mp.gamma(12 - 2 * a) * (a - 4) * p1 * mp.rf(a - 3, k) / (
            mp.gamma(k + 9 - a) * mp.gamma(j + 11 - a)
        )
        term_c = c * mp.gamma(13 - 2 * a) * (a - 4) * p1 * mp.rf(a - 4, k) / (
            mp.gamma(k + 9 - a) * mp.gamma(j + 12 - a)
        )
        return float(_eig_K1(j, k, a) + term_a + term_b + term_c)


def _c_hls_group(lam):
    s = 2 * mp.pi ** 8 / mp.factorial(7)
    b = (2 * Q - lam) / 4
    return (
        mp.mpf(2) ** (-4 * lam / Q) * s ** (lam / Q) * mp.factorial(7)
        * mp.gamma((Q - lam) / 2) / (mp.gamma(b) * mp.gamma(b - 3))
    )


def C_hls_group(lam):
    """Sharp group-side HLS constant."""
    with mp.workdps(DIGITS):
        return float(_c_hls_group(mp.mpf(lam)))


def C_hls_sphere(lam):
    """Sharp sphere-side HLS constant, 2^(15 lam / Q) times the group constant."""
    with mp.workdps(DIGITS):
        lam = mp.mpf(lam)
        return float(mp.mpf(2) ** (15 * lam / Q) * _c_hls_group(lam))


def C_sobolev(d):
    """Sharp degree-d Sobolev constant (c_d C_hls_sphere(Q - d))^-1, 0 < d < Q - 12."""
    with mp.workdps(DIGITS):
        d = mp.mpf(d)
        b = (Q - d) / 4
        inv_cd = mp.mpf(2) ** ((Q - d) / 2 + 1) * mp.pi ** 8 * mp.gamma(d / 2) / (
            mp.gamma(b) * mp.gamma(b - 3)
        )
        lam = Q - d
        return float(inv_cd / (mp.mpf(2) ** (15 * lam / Q) * _c_hls_group(lam)))


def C_logsobolev():
    """Sharp log-Sobolev constant 2^(Q/2 + 3) pi^8 / (Q Gamma(Q/4) Gamma(Q/4 - 3))."""
    with mp.workdps(DIGITS):
        q4 = mp.mpf(Q) / 4
        return float(mp.mpf(2) ** (Q // 2 + 3) * mp.pi ** 8 / (Q * mp.gamma(q4) * mp.gamma(q4 - 3)))


def hls_constant_pair(lam):
    """I(1, 1) = |S| 2^(lam/2) lambda_00(lam/4): the bilinear form at f = g = 1."""
    with mp.workdps(DIGITS):
        lam = mp.mpf(lam)
        s = 2 * mp.pi ** 8 / mp.factorial(7)
        return float(s * mp.mpf(2) ** (lam / 2) * _eig_K1(0, 0, lam / 4))


def eig_table(kind, alpha, jmax):
    """{(j, k): eigenvalue} for j <= jmax, k <= j, kind "K1" or "K2"."""
    fn = {"K1": eig_K1, "K2": eig_K2}[kind]
    return {(j, k): fn(j, k, alpha) for j in range(jmax + 1) for k in range(j + 1)}


def _dump():
    from workloads import NAMES  # noqa: PLC0415  (script use only)

    refs = {name: importlib.import_module(f"workloads.{name}").references() for name in NAMES}

    def plain(obj):
        if isinstance(obj, dict):
            return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): plain(v) for k, v in obj.items()}
        return obj

    print(json.dumps(plain(refs), indent=1, sort_keys=True))


if __name__ == "__main__":
    _dump()
