"""Command-line frontend: verification runs and table emission.

Subcommands: constants, eigs, margin, verify.  Exit codes: 0 all checks
pass, 1 a check failed (for margin: a negative cell at some alpha >= 3),
2 configuration or domain error.  Output is deterministic for a fixed
(config, seed): rows are sorted by grid key and JSON carries a
schema_version tag.  Each subcommand imports only the layers it runs, so
--help, a usage error and constants finish before numpy loads.
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


def _alpha_grid(alphas, lo):
    """The sorted --alpha grid of eigs and margin, which check nothing without one, each
    value checked against the command's domain (lo, Q/4) before any table is built."""
    if not alphas:
        raise ValueError("--alpha needs at least one value")
    from .constants import _check_alpha
    return sorted(_check_alpha(a, lo) for a in alphas)


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
    """The sharp sphere constant from the spectrum: 2^(lam/2) lambda_00(lam/4) |S|^((lam-Q)/Q),
    lambda_00 the K1 eigenvalue on W_00, as spectra.eig_K1(0, 0, lam / 4) to the last bit."""
    from . import constants
    return 2.0 ** (lam / 2.0) * constants._lambda00(lam / 4.0) * constants.sphere_measure() ** ((lam - Q) / Q)


def _oracle_cells(kind, alpha, jmax):
    """(j, k, closed form, quadrature, error) per cell of the kind's ("K1" or "K2") oracle
    table at alpha, in scan order; the error is relative, or absolute where the closed form is 0."""
    from . import spectra
    kernel, closed = getattr(spectra, f"kernel_{kind}"), getattr(spectra, f"eig_{kind}")
    for (j, k), qd in sorted(spectra.eig_quadrature_table(kernel(alpha), alpha, jmax).values.items()):
        cf = closed(j, k, alpha)
        yield j, k, cf, qd, abs(qd - cf) / abs(cf) if cf != 0.0 else abs(qd)


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
    alphas = _alpha_grid(args.alpha, -1.0)
    rows = []
    failed = False
    for alpha in alphas:
        for kind in ("K1", "K2"):
            for j, k, cf, qd, rel in _oracle_cells(kind, alpha, args.jmax):
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
    alphas = _alpha_grid(args.alpha, 0.0)
    rows = []
    for alpha in alphas:
        worst, arg, zeros, violated = _margin_scan(alpha, args.jmax)
        rows.append({"alpha": alpha, "min_margin": worst, "argmin_j": arg[0], "argmin_k": arg[1],
                     "violated": violated, "zero_count": zeros})
    _emit("margin", rows, args.format, args.out)
    # the margin is nonnegative from alpha = 3 on; below, the paper expects violations
    return 1 if any(r["violated"] and r["alpha"] >= 3.0 for r in rows) else 0


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

    from . import _checks, cayley, constants, functional

    rng = np.random.Generator(np.random.Philox(key=[args.seed, 99]))
    n = args.mc_samples
    zs, ts = rng.standard_normal((n, 8)), rng.standard_normal((n, 7))
    # the distance relation on the pairs (2i, 2i+1)
    rt, jac, dr = _checks.cayley_identities(zs, ts, slice(0, n - 1, 2), slice(1, n, 2))
    sphere = constants.C_hls_sphere
    ex = functional.ExtremizerParams(xi=0.3 * cayley.NORTH_POLE, lam=16.0)
    h = functional.extremizer_profile(ex)
    reports = [
        _check("cayley_round_trip", "", rt, 0.0, 1e-11),
        _check("jacobian_duality", "", jac, 0.0, 1e-10),
        _check("distance_relation", "", dr, 0.0, 1e-10),
        *(_check("sharp_constant_spectral", lam, _spectral_constant(lam), sphere(lam), 1e-12, "rel")
          for lam in (12.0, 16.0, 20.0)),
        _check("intertwining_identity", "", _checks.intertwining_error(3), 0.0, 1e-13),
        # the oracle on a small grid measures about 1e-15, so the bound is 1e-12
        _check("eigenvalue_oracle", 4.0, _checks.oracle_error("K1", 4.0, 3), 0.0, 1e-12),
        # the margin's product form against its four terms, and its violation below alpha = 3
        _check("margin_four_terms", 4.0, _checks.margin_four_term_error(4.0, 20), 0.0, 4e-15),
        _check("margin_violation_25", 2.5, _margin_scan(2.5, 20)[0], -0.011, 0.01),
        # seed-free rows: the HLS quotient at f = 1 and at a projected extremizer, and the
        # Euler-Lagrange residual measure 5.6e-15, 2.8e-15, 1.6e-14
        _check("hls_quotient_constant", 12.0, functional.hls_quotient(_checks.ONE, 12.0, jmax=2),
               sphere(12.0), 1e-13, "rel"),
        _check("hls_quotient_extremizer", 16.0, functional.hls_quotient(h, 16.0, jmax=40),
               sphere(16.0), 1e-12, "rel"),
        _check("el_residual_extremizer", 16.0, functional.el_residual(ex), 0.0, 1e-11),
        _check("recenter_residual", 16.0, _checks.recenter_residual(h, 2.0 * Q / (2.0 * Q - 16.0))[1],
               0.0, 1e-8),
        _check("log_sobolev_constant", "",
               sum(map(abs, functional.log_sobolev_pair(_checks.ONE, jmax=4))), 0.0, 1e-10),
    ]
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
