"""cli: the octhls subcommands as a user runs them, each in a fresh process.

``python -m octhls.cli`` with ``src/`` on ``PYTHONPATH`` (the environment
``run.py`` sets up), plus a bare ``python -c "import octhls.cli"``:

* ``constants --lambda 12,16,20 --d 2,6``: every constant against mpmath
  (rel 1e-12) and the spectral residuals below 1e-12;
* ``eigs --alpha 3.5,4 --jmax 6``: closed forms against mpmath (1e-12),
  quadrature against mpmath (1e-6), every row passing;
* ``margin --alpha 2.5,3,4 --jmax 200``: violated only at 2.5, with a
  minimum below -1e-6 there and >= -1e-12 elsewhere;
* ``verify --mc-samples 2000 --seed <from the benchmark seed>``: every
  check passing, and its sharp-constant references equal to mpmath.

Every subcommand must exit 0 and print JSON with ``schema_version``.
Set-up builds only the reference values; it does not import octhls.
With tracing on, the subcommands run through ``cliboot.py``, which
installs the span wrappers before it calls ``octhls.cli.main``.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import reference as ref
from workloads import Op, below, first, nonfinite, within

BOOT = Path(__file__).resolve().parent.parent / "cliboot.py"
#: the operations run in child processes: calibrate between them, not beside them
CHILD_PROCESSES = True
LAMBDAS, DEGREES = (12.0, 16.0, 20.0), (2.0, 6.0)
EIG_ALPHAS, EIG_JMAX = (3.5, 4.0), 6
MARGIN_ALPHAS, MARGIN_JMAX = (2.5, 3.0, 4.0), 200
MC_SAMPLES = 2000
TIMEOUT_S = 150


def make_inputs(seed):
    references()
    return {"verify_seed": seed % 2 ** 31}


@functools.cache
def references():
    return {
        "C_hls_group": {lam: ref.C_hls_group(lam) for lam in LAMBDAS},
        "C_hls_sphere": {lam: ref.C_hls_sphere(lam) for lam in LAMBDAS},
        "C_sobolev": {d: ref.C_sobolev(d) for d in DEGREES},
        "C_logsobolev": ref.C_logsobolev(),
        "eig": {(kind, a): ref.eig_table(kind, a, EIG_JMAX) for a in EIG_ALPHAS for kind in ("K1", "K2")},
    }


def _check_constants(rows, refs):
    reasons = []
    for r in rows:
        name, par = r["name"], r["parameter"]
        expected = refs[name] if name == "C_logsobolev" else refs[name][par]
        reasons.append(within(f"{name}({par})", r["value"], expected, 1e-12))
        if name == "C_hls_sphere":
            reasons.append(below(f"spectral residual({par})", r["residual"], 1e-12))
    seen = {(r["name"], r["parameter"]) for r in rows}
    want = {(n, lam) for n in ("C_hls_group", "C_hls_sphere") for lam in LAMBDAS}
    want |= {("C_sobolev", d) for d in DEGREES} | {("C_logsobolev", "")}
    return first(None if seen == want else "missing or extra rows", *reasons)


def _check_eigs(rows, refs):
    seen = {(r["kernel"], r["alpha"], r["j"], r["k"]) for r in rows}
    want = {(kind, a, j, k) for (kind, a), table in refs["eig"].items() for j, k in table}
    reasons = [None if seen == want else "missing or extra rows"]
    for r in rows:
        cf = refs["eig"][(r["kernel"], r["alpha"])][(r["j"], r["k"])]
        label = f"{r['kernel']}@{r['alpha']} ({r['j']},{r['k']})"
        reasons += [
            None if r["pass"] else f"{label} reported failing",
            within(f"{label} closed form", r["closed_form"], cf, 1e-12),
            within(f"{label} quadrature", r["quadrature"], cf, 1e-6),
        ]
    return first(*reasons)


def _check_margin(rows, refs):
    if sorted(r["alpha"] for r in rows) != list(MARGIN_ALPHAS):
        return "missing or extra rows"
    reasons = []
    for r in rows:
        m = r["min_margin"]
        if r["alpha"] < 3.0:
            reasons.append(None if r["violated"] and m < -1e-6 else f"no violation at {r['alpha']}")
        else:
            reasons.append(None if not r["violated"] and m >= -1e-12 else f"violated at {r['alpha']}")
    return first(*reasons)


def _check_verify(rows, refs):
    reasons = [None if len(rows) >= 15 else f"only {len(rows)} checks reported"]
    for r in rows:
        reasons.append(None if r["pass"] else f"{r['check']} failed: {r['value']!r}")
        if r["check"] in ("sharp_constant_spectral", "hls_quotient_constant", "hls_quotient_extremizer"):
            lam = r["lambda_or_alpha"]
            reasons.append(within(f"{r['check']} reference", r["reference"], refs["C_hls_sphere"][lam], 1e-12))
    return first(*reasons)


def _subcommand_check(command, check_rows, refs):
    def check(proc):
        if proc.returncode != 0:
            return f"exit status {proc.returncode}: {proc.stderr.strip()[-200:]}"
        payload = json.loads(proc.stdout, parse_constant=float)
        if payload.get("command") != command or "schema_version" not in payload:
            return f"unexpected {command} payload header"
        rows = payload["rows"]
        if nonfinite(rows):
            return "non-finite value in output"
        return check_rows(rows, refs)

    return check


def _run(argv):
    def run():
        return subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)
    return run


def operations(inputs, refs, trace_dir=None):
    py = sys.executable
    commands = [
        ("constants", ["--lambda", ",".join(f"{v:g}" for v in LAMBDAS),
                       "--d", ",".join(f"{v:g}" for v in DEGREES)], _check_constants),
        ("eigs", ["--alpha", ",".join(f"{v:g}" for v in EIG_ALPHAS), "--jmax", str(EIG_JMAX)], _check_eigs),
        ("margin", ["--alpha", ",".join(f"{v:g}" for v in MARGIN_ALPHAS),
                    "--jmax", str(MARGIN_JMAX)], _check_margin),
        ("verify", ["--mc-samples", str(MC_SAMPLES), "--seed", str(inputs["verify_seed"])], _check_verify),
    ]
    # operations are named after the per-subcommand times they give
    ops = [Op("import_s", _run([py, "-c", "import octhls.cli"]),
              lambda proc: None if proc.returncode == 0 else f"exit status {proc.returncode}")]
    for name, args, check_rows in commands:
        i = len(ops)
        if trace_dir is None:
            argv = [py, "-m", "octhls.cli", name, *args]
        else:
            argv = [py, str(BOOT), str(trace_dir / f"spans-cli-op{i}"), str(i), name, *args]
        ops.append(Op(f"{name}_s", _run(argv), _subcommand_check(name, check_rows, refs)))
    return ops
