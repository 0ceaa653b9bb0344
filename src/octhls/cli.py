"""Command-line frontend: verification runs and table emission.

Subcommands: constants, eigs, margin, verify.  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration or domain error.  Output is
deterministic for a fixed (config, seed): rows are sorted by grid key
and JSON carries a schema_version tag.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import cayley, constants, functional, nilgroup, spectra
from .nilgroup import Q

SCHEMA_VERSION = 1


def _float_list(text):
    if text is None or text.strip() == "":
        return []
    return [float(v) for v in text.split(",")]


def _emit(command, rows, columns, fmt, out):
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([r.get(c, "") for c in columns])
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectral_constant(lam):
    """The sharp sphere constant from the spectrum: 2^(lam/2) lambda_00(lam/4) |S|^((lam-Q)/Q)."""
    return (
        2.0 ** (lam / 2.0)
        * spectra.eig_K1(0, 0, lam / 4.0)
        * constants.sphere_measure() ** ((lam - Q) / Q)
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args):
    rows = []
    for lam in sorted(_float_list(args.lam)):
        cg = constants.C_hls_group(lam)
        cs = constants.C_hls_sphere(lam)
        resid = abs(cs - _spectral_constant(lam)) / cs
        rows.append({"name": "C_hls_group", "parameter": lam, "value": cg, "residual": ""})
        rows.append({"name": "C_hls_sphere", "parameter": lam, "value": cs, "residual": resid})
    for d in sorted(_float_list(args.d)):
        rows.append(
            {"name": "C_sobolev", "parameter": d, "value": constants.C_sobolev(d), "residual": ""}
        )
    rows.append(
        {"name": "C_logsobolev", "parameter": "", "value": constants.C_logsobolev(), "residual": ""}
    )
    _emit("constants", rows, ["name", "parameter", "value", "residual"], args.format, args.out)
    return 0


def cmd_eigs(args):
    alphas = sorted(_float_list(args.alpha))
    jmax, kmax = args.jmax, args.kmax if args.kmax is not None else args.jmax
    rtol = 1e-6 if args.tolerance is None else args.tolerance
    rows = []
    failed = False
    for alpha in alphas:
        for kind, kern in (("K1", spectra.kernel_K1(alpha)), ("K2", spectra.kernel_K2(alpha))):
            closed = {"K1": spectra.eig_K1, "K2": spectra.eig_K2}[kind]
            table = spectra.eig_quadrature_table(
                kern, alpha, jmax, kmax, args.nodes_theta, args.nodes_phi
            )
            for j, k in table.indices():
                cf = closed(j, k, alpha)
                qd = table.get(j, k)
                if cf != 0.0:
                    ok = abs(qd - cf) / abs(cf) < rtol
                    rel = abs(qd - cf) / abs(cf)
                else:
                    ok = abs(qd) < 1e-8
                    rel = abs(qd)
                failed = failed or not ok
                rows.append(
                    {
                        "j": j,
                        "k": k,
                        "alpha": alpha,
                        "kernel": kind,
                        "closed_form": float(cf),
                        "quadrature": float(qd),
                        "rel_diff": float(rel),
                        "pass": bool(ok),
                    }
                )
    rows.sort(key=lambda r: (r["alpha"], r["kernel"], r["j"], r["k"]))
    _emit(
        "eigs",
        rows,
        ["j", "k", "alpha", "kernel", "closed_form", "quadrature", "rel_diff", "pass"],
        args.format,
        args.out,
    )
    return 1 if failed else 0


def cmd_margin(args):
    alphas = sorted(_float_list(args.alpha))
    rows = []
    for alpha in alphas:
        worst, arg = math.inf, None
        zeros = []
        for j in range(args.jmax + 1):
            for k in range(min(j, args.kmax if args.kmax is not None else j) + 1):
                m = spectra.bilinear_margin(j, k, alpha)
                if m < worst:
                    worst, arg = m, (j, k)
                if abs(m) < 1e-10:
                    zeros.append([j, k])
        rows.append(
            {
                "alpha": alpha,
                "min_margin": worst,
                "argmin_j": arg[0],
                "argmin_k": arg[1],
                "violated": worst < -1e-12,
                "zero_count": len(zeros),
            }
        )
    _emit(
        "margin",
        rows,
        ["alpha", "min_margin", "argmin_j", "argmin_k", "violated", "zero_count"],
        args.format,
        args.out,
    )
    return 0


def _check(name, param, value, reference, tol, mode="abs"):
    abs_err = abs(value - reference)
    rel_err = abs_err / abs(reference) if reference != 0.0 else abs_err
    err = rel_err if mode == "rel" else abs_err
    return {
        "check": name,
        "lambda_or_alpha": param,
        "value": value,
        "reference": reference,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tolerance": tol,
        "pass": bool(err < tol),
    }


def cmd_verify(args):
    if args.mc_samples < 2:
        raise ValueError(f"--mc-samples must be at least 2, got {args.mc_samples}")

    def tol(default):
        return default if args.tolerance is None else args.tolerance

    rng = np.random.Generator(np.random.Philox(key=[args.seed, 99]))
    n = args.mc_samples
    reports = []

    # Cayley round trip, Jacobian duality, distance relation on pairs (2i, 2i+1)
    zs = rng.standard_normal((n, 8))
    ts = rng.standard_normal((n, 7))
    zeta = cayley.cayley_zt(zs, ts)
    zb, tb = cayley.cayley_inv_arrays(zeta)
    worst_rt = float(max(np.abs(zb - zs).max(), np.abs(tb - ts).max()))
    jg = cayley.jac_cayley_zt(zs, ts)
    worst_jac = float(np.max(np.abs(jg - cayley.jac_cayley_sphere_arrays(zeta)) / jg))
    even, odd = slice(0, n - 1, 2), slice(1, n, 2)
    lhs = cayley.sdist_arrays(zeta[even], zeta[odd])
    rhs = (
        2.0 ** (7.0 / Q - 1.0)
        * (jg[even] * jg[odd]) ** (1.0 / (2.0 * Q))
        * nilgroup.hnorm_zt(*nilgroup.gmul_zt(-zs[odd], -ts[odd], zs[even], ts[even]))
    )
    worst_dr = float(np.max(np.abs(lhs - rhs)))
    reports.append(_check("cayley_round_trip", "", worst_rt, 0.0, tol(1e-11)))
    reports.append(_check("jacobian_duality", "", worst_jac, 0.0, tol(1e-10)))
    reports.append(_check("distance_relation", "", worst_dr, 0.0, tol(1e-10)))

    # spectral identity for the sharp constant
    for lam in (12.0, 16.0, 20.0):
        reports.append(
            _check("sharp_constant_spectral", lam, _spectral_constant(lam),
                   constants.C_hls_sphere(lam), tol(1e-12), "rel")
        )

    # intertwining consistency
    worst = 0.0
    for d in (2.0, 4.0, 8.0):
        for j in range(4):
            for k in range(j + 1):
                v = (
                    spectra.c_d(d)
                    * 2.0 ** ((Q - d) / 2.0)
                    * spectra.eig_K1(j, k, (Q - d) / 4.0)
                    * spectra.intertwining_spectrum(d, j, k)
                )
                worst = max(worst, abs(v - 1.0))
    reports.append(_check("intertwining_identity", "", worst, 0.0, tol(1e-10)))

    # eigenvalue oracle, small grid
    alpha = 4.0
    table = spectra.eig_quadrature_table(
        spectra.kernel_K1(alpha), alpha, 3, None, args.nodes_theta, args.nodes_phi
    )
    worst = max(
        abs(table.get(j, k) - spectra.eig_K1(j, k, alpha)) / spectra.eig_K1(j, k, alpha)
        for j, k in table.indices()
    )
    reports.append(_check("eigenvalue_oracle", alpha, worst, 0.0, tol(1e-6)))

    # margin spot checks
    reports.append(_check("margin_zero_00", 4.0, spectra.bilinear_margin(0, 0, 4.0), 0.0, tol(1e-12)))
    reports.append(
        _check(
            "margin_violation_25",
            2.5,
            min(spectra.bilinear_margin(j, k, 2.5) for j in range(21) for k in range(j + 1)),
            -0.011,
            tol(0.01),
        )
    )

    # HLS quotient at f = 1 and at a projected extremizer
    one = functional.AxisZonalFunction(lambda th, ph: np.ones_like(th))
    reports.append(
        _check("hls_quotient_constant", 12.0, functional.hls_quotient(one, 12.0, jmax=2),
               constants.C_hls_sphere(12.0), tol(1e-10), "rel")
    )
    ex = functional.ExtremizerParams(xi=0.3 * functional.NORTH_AXIS, lam=16.0)
    h = functional.extremizer_profile(ex)
    reports.append(
        _check("hls_quotient_extremizer", 16.0, functional.hls_quotient(h, 16.0, jmax=40),
               constants.C_hls_sphere(16.0), tol(1e-4), "rel")
    )

    # Euler-Lagrange residuals
    reports.append(_check("el_residual_extremizer", 16.0, functional.el_residual(ex), 0.0, tol(1e-4)))

    # recentering
    p = 2.0 * Q / (2.0 * Q - 16.0)
    params, gn = functional.recenter(h, p)
    resid = float(np.linalg.norm(functional.center_mass(gn, p)))
    reports.append(_check("recenter_residual", 16.0, resid, 0.0, tol(1e-8)))

    # Log-Sobolev pair at the constant
    lhs, rhs = functional.log_sobolev_pair(one, jmax=4)
    reports.append(_check("log_sobolev_constant", "", abs(lhs) + abs(rhs), 0.0, tol(1e-10)))

    failed = any(not r["pass"] for r in reports)
    _emit(
        "verify",
        reports,
        ["check", "lambda_or_alpha", "value", "reference", "abs_err", "rel_err", "tolerance", "pass"],
        args.format,
        args.out,
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="octhls",
        description="verification tables for the octonionic Heisenberg sharp-constant suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lambda", dest="lam", default="", help="comma-separated lambda grid")
        p.add_argument("--alpha", default="", help="comma-separated alpha grid")
        p.add_argument("--d", default="", help="comma-separated degree grid")
        p.add_argument("--jmax", type=int, default=6)
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--nodes-theta", type=int, default=256)
        p.add_argument("--nodes-phi", type=int, default=256)
        p.add_argument("--mc-samples", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--tolerance", type=float, default=None,
                       help="override every check tolerance")

    for name, fn in (
        ("constants", cmd_constants),
        ("eigs", cmd_eigs),
        ("margin", cmd_margin),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
