"""Command-line frontend: verification runs and table emission.

Subcommands: constants, eigs, margin, verify.  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration or domain error.  Output is
deterministic for a fixed (config, seed): rows are sorted by grid key
and JSON carries a schema_version tag.
Each subcommand imports only the layers it runs, so --help and a usage
error exit before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import Q

SCHEMA_VERSION = 1


def _nonnegative_int(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _seed(text):
    """A Philox key word: an integer in [0, 2^63)."""
    if not text.isdecimal() or int(text) >= 2 ** 63:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**63), got {text!r}")
    return int(text)


def _float_list(text):
    try:
        return [float(v) for v in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _alpha_grid(alphas):
    """The sorted --alpha grid of eigs and margin, which check nothing without one."""
    if not alphas:
        raise ValueError("--alpha needs at least one value")
    return sorted(alphas)


def _emit(command, rows, fmt, out):
    """Write rows as JSON, or as CSV under a header of the first row's keys: every
    row of a command is built with the same keys in column order."""
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(rows[0])
        w.writerows(r.values() for r in rows)
        text = buf.getvalue()
    if out:
        try:
            fh = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:  # a configuration error: main exits 2
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectral_constant(lam):
    """The sharp sphere constant from the spectrum: 2^(lam/2) lambda_00(lam/4) |S|^((lam-Q)/Q)."""
    from . import constants, spectra
    return (
        2.0 ** (lam / 2.0)
        * spectra.eig_K1(0, 0, lam / 4.0)
        * constants.sphere_measure() ** ((lam - Q) / Q)
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args):
    from . import constants
    rows = []
    for lam in sorted(args.lam):
        cg = constants.C_hls_group(lam)
        cs = constants.C_hls_sphere(lam)
        resid = abs(cs - _spectral_constant(lam)) / cs
        rows.append({"name": "C_hls_group", "parameter": lam, "value": cg, "residual": ""})
        rows.append({"name": "C_hls_sphere", "parameter": lam, "value": cs, "residual": resid})
    for d in sorted(args.d):
        rows.append(
            {"name": "C_sobolev", "parameter": d, "value": constants.C_sobolev(d), "residual": ""}
        )
    rows.append(
        {"name": "C_logsobolev", "parameter": "", "value": constants.C_logsobolev(), "residual": ""}
    )
    _emit("constants", rows, args.format, args.out)
    return 0


def cmd_eigs(args):
    from . import spectra
    alphas = _alpha_grid(args.alpha)
    rows = []
    failed = False
    for alpha in alphas:
        for kind, kern in (("K1", spectra.kernel_K1(alpha)), ("K2", spectra.kernel_K2(alpha))):
            closed = {"K1": spectra.eig_K1, "K2": spectra.eig_K2}[kind]
            table = spectra.eig_quadrature_table(kern, alpha, args.jmax)
            for (j, k), qd in sorted(table.values.items()):
                cf = closed(j, k, alpha)
                rel = abs(qd - cf) / abs(cf) if cf != 0.0 else abs(qd)
                ok = rel < (1e-6 if cf != 0.0 else 1e-8)
                failed = failed or not ok
                rows.append({"j": j, "k": k, "alpha": alpha, "kernel": kind,
                             "closed_form": float(cf), "quadrature": float(qd),
                             "rel_diff": float(rel), "pass": bool(ok)})
    rows.sort(key=lambda r: (r["alpha"], r["kernel"], r["j"], r["k"]))
    _emit("eigs", rows, args.format, args.out)
    return 1 if failed else 0


def _margin_scan(alpha, jmax):
    """(minimum margin, its (j, k), zero count, violated) over the margin_table grid.

    The margin is a product that is exactly 0.0 where it vanishes, so a
    cell is a zero when its margin is 0.0 and a violation when it is below.
    The argmin is the first cell in scan order (j, then k) at the minimum:
    a block's argmin is its first, and a later block replaces it only when
    strictly lower.
    """
    from . import spectra
    worst, arg, zeros, violated = math.inf, None, 0, False
    for j, k, m in spectra.margin_table(alpha, jmax):
        i = int(m.argmin())
        if m[i] < worst:
            worst, arg = float(m[i]), (int(j[i]), int(k[i]))
        zeros += int((m == 0.0).sum())
        violated = violated or bool((m < 0.0).any())
    return worst, arg, zeros, violated


def cmd_margin(args):
    alphas = _alpha_grid(args.alpha)
    rows = []
    for alpha in alphas:
        worst, arg, zeros, violated = _margin_scan(alpha, args.jmax)
        rows.append({"alpha": alpha, "min_margin": worst, "argmin_j": arg[0], "argmin_k": arg[1],
                     "violated": violated, "zero_count": zeros})
    _emit("margin", rows, args.format, args.out)
    return 0


def _margin_four_term_error(alpha, jmax):
    """Largest |margin - (lambda(K1) + lambda(K2) - lambda(K1^(alpha-1))
    - 2a/(11-a) lambda(K1))| over the sum of the four term sizes, on the margin_table cells
    j <= jmax (which builds those cells only, where bilinear_margin builds a whole block)."""
    from . import spectra
    worst = 0.0
    for block in spectra.margin_table(alpha, jmax):
        for j, k, margin in zip(*(a.tolist() for a in block)):
            lam1 = spectra.eig_K1(j, k, alpha)
            terms = (lam1, spectra.eig_K2(j, k, alpha), -spectra.eig_K1(j, k, alpha - 1.0),
                     -(2.0 * alpha / (11.0 - alpha)) * lam1)
            total = 0.0 + terms[0] + terms[1] + terms[2] + terms[3]
            worst = max(worst, abs(margin - total) / sum(abs(x) for x in terms))
    return worst


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

    import numpy as np

    from . import cayley, constants, functional, nilgroup, spectra

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
    reports.append(_check("cayley_round_trip", "", worst_rt, 0.0, 1e-11))
    reports.append(_check("jacobian_duality", "", worst_jac, 0.0, 1e-10))
    reports.append(_check("distance_relation", "", worst_dr, 0.0, 1e-10))

    # spectral identity for the sharp constant
    for lam in (12.0, 16.0, 20.0):
        reports.append(
            _check("sharp_constant_spectral", lam, _spectral_constant(lam),
                   constants.C_hls_sphere(lam), 1e-12, "rel")
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
    reports.append(_check("intertwining_identity", "", worst, 0.0, 1e-13))

    # eigenvalue oracle, small grid: it measures about 1e-15, so the bound is 1e-12
    alpha = 4.0
    table = spectra.eig_quadrature_table(spectra.kernel_K1(alpha), alpha, 3)
    worst = max(
        abs(qd - spectra.eig_K1(j, k, alpha)) / spectra.eig_K1(j, k, alpha)
        for (j, k), qd in sorted(table.values.items())
    )
    reports.append(_check("eigenvalue_oracle", alpha, worst, 0.0, 1e-12))

    # margin spot checks: the product form against its four-term definition, and the
    # violation below alpha = 3
    reports.append(_check("margin_four_terms", 4.0, _margin_four_term_error(4.0, 20), 0.0, 4e-15))
    reports.append(_check("margin_violation_25", 2.5, _margin_scan(2.5, 20)[0], -0.011, 0.01))

    # HLS quotient at f = 1 and at a projected extremizer, and the Euler-Lagrange residual:
    # none depends on the seed or the sample count; they measure 5.6e-15, 2.8e-15, 1.6e-14
    one = functional.AxisZonalFunction(lambda th, ph: np.ones_like(th))
    reports.append(_check("hls_quotient_constant", 12.0, functional.hls_quotient(one, 12.0, jmax=2),
                          constants.C_hls_sphere(12.0), 1e-13, "rel"))
    ex = functional.ExtremizerParams(xi=0.3 * functional.NORTH_AXIS, lam=16.0)
    h = functional.extremizer_profile(ex)
    reports.append(_check("hls_quotient_extremizer", 16.0,
                          functional.hls_quotient(h, 16.0, jmax=40),
                          constants.C_hls_sphere(16.0), 1e-12, "rel"))
    reports.append(_check("el_residual_extremizer", 16.0, functional.el_residual(ex), 0.0, 1e-11))

    # recentering
    p = 2.0 * Q / (2.0 * Q - 16.0)
    _, gn = functional.recenter(h, p)
    resid = float(np.linalg.norm(functional.center_mass(gn, p)))
    reports.append(_check("recenter_residual", 16.0, resid, 0.0, 1e-8))

    # Log-Sobolev pair at the constant
    lhs, rhs = functional.log_sobolev_pair(one, jmax=4)
    reports.append(_check("log_sobolev_constant", "", abs(lhs) + abs(rhs), 0.0, 1e-10))

    failed = any(not r["pass"] for r in reports)
    _emit("verify", reports, args.format, args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------


#: every flag: name -> add_argument keywords
_FLAGS = {
    "--lambda": dict(dest="lam", type=_float_list, default="", help="comma-separated lambda grid"),
    "--alpha": dict(type=_float_list, default="", help="comma-separated alpha grid"),
    "--d": dict(type=_float_list, default="", help="comma-separated degree grid"),
    "--jmax": dict(type=_nonnegative_int, default=6),
    "--mc-samples": dict(type=int, default=100000),
    "--seed": dict(type=_seed, default=0),
}

#: subcommand -> (function, the flags it reads besides --format and --out)
_COMMANDS = {
    "constants": (cmd_constants, ("--lambda", "--d")),
    "eigs": (cmd_eigs, ("--alpha", "--jmax")),
    "margin": (cmd_margin, ("--alpha", "--jmax")),
    "verify": (cmd_verify, ("--mc-samples", "--seed")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="octhls",
        description="verification tables for the octonionic Heisenberg sharp-constant suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
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
