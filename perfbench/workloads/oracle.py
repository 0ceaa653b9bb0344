"""oracle: Funk-Hecke quadrature tables against the closed-form eigenvalues.

Six ``eig_quadrature_table`` calls (K1 and K2 at jmax 6 for alpha in
{3.5, 4, 5}) plus one K1 table at alpha = 5.45, jmax 2.  Every entry is
compared with the mpmath closed form at the acceptance tolerance 1e-6
(|value| < 1e-8 where the eigenvalue vanishes).  The alpha = 5.45 table
is a known fault: alpha is inside the advertised domain alpha < 11/2,
but the kernel evaluation overflows near the singular corner and the
table comes back as inf.  The inputs do not depend on the seed; the
harness only orders the operations by it.
"""

from __future__ import annotations

import functools

import reference as ref
from workloads import Op, nonfinite

TABLES = [(kind, alpha, 6) for alpha in (3.5, 4.0, 5.0) for kind in ("K1", "K2")]
FAULT = ("K1", 5.45, 2)
TOL, ZERO_TOL = 1e-6, 1e-8


def make_inputs(seed):
    from octhls import spectra

    kernels = {"K1": spectra.kernel_K1, "K2": spectra.kernel_K2}
    return [(kind, alpha, jmax, kernels[kind](alpha)) for kind, alpha, jmax in TABLES + [FAULT]]


@functools.cache
def references():
    return {(kind, alpha): ref.eig_table(kind, alpha, jmax) for kind, alpha, jmax in TABLES + [FAULT]}


def _check_table(expected):
    def check(values):
        if nonfinite(values):
            return "non-finite table entries"
        if set(values) != set(expected):
            return "wrong index set"
        worst = 0.0
        for jk, cf in expected.items():
            qd = values[jk]
            if cf == 0.0:
                if abs(qd) >= ZERO_TOL:
                    return f"{jk}: {qd:.3e} where the eigenvalue vanishes"
            else:
                worst = max(worst, abs(qd - cf) / abs(cf))
        return None if worst < TOL else f"worst rel err {worst:.3e} >= {TOL:.0e}"

    return check


def operations(inputs, refs, trace_dir=None):
    from octhls import spectra

    ops = []
    for kind, alpha, jmax, kern in inputs:
        def run(kern=kern, alpha=alpha, jmax=jmax):
            return dict(spectra.eig_quadrature_table(kern, alpha, jmax).values)

        ops.append(Op(f"{kind}@{alpha}/j{jmax}", run, _check_table(refs[(kind, alpha)]),
                      known_fault=(kind, alpha, jmax) == FAULT))
    return ops
