"""Command-line interface: subcommands, formats, exit codes, determinism."""

import ast
import csv
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import octhls
from octhls import cayley, cli, constants, functional, spectra


ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _readme_command_lines():
    """The ``octhls ...`` lines of README's "Command line" block, comments cut."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("octhls ")]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run(["constants", "--lambda", "12,16", "--d", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "constants"
    names = {r["name"] for r in payload["rows"]}
    assert {"C_hls_group", "C_hls_sphere", "C_sobolev", "C_logsobolev"} <= names
    sphere12 = [r for r in payload["rows"] if r["name"] == "C_hls_sphere" and r["parameter"] == 12.0]
    assert abs(sphere12[0]["value"] - constants.C_hls_sphere(12.0)) < 1e-9
    assert sphere12[0]["residual"] < 1e-12


def test_constants_csv_format(capsys):
    code, out, _ = run(["constants", "--lambda", "12", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "parameter", "value", "residual"]
    assert "\r" not in out


def test_constants_out_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out, _ = run(["constants", "--lambda", "12", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["command"] == "constants"


def test_spectral_constant_reads_lambda00_bit_for_bit():
    # constants' residual column, computed without numpy, is the spectral route through
    # spectra.eig_K1 to the last bit
    for lam in [22.0 * i / 2200 for i in range(1, 2200)]:
        want = 2.0 ** (lam / 2.0) * spectra.eig_K1(0, 0, lam / 4.0) * constants.sphere_measure() ** (
            (lam - octhls.Q) / octhls.Q)
        assert cli._spectral_constant(lam).hex() == want.hex(), lam


def test_eigs_oracle_rows(capsys):
    code, out, _ = run(["eigs", "--alpha", "4", "--jmax", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert all(r["pass"] for r in rows)
    kinds = {r["kernel"] for r in rows}
    assert kinds == {"K1", "K2"}
    r00 = [r for r in rows if (r["j"], r["k"], r["kernel"]) == (0, 0, "K1")][0]
    assert abs(r00["closed_form"] - spectra.eig_K1(0, 0, 4.0)) < 1e-12
    assert r00["rel_diff"] < 1e-6


def test_eigs_sorted_canonically(capsys):
    code, out, _ = run(["eigs", "--alpha", "4,3.5", "--jmax", "2"], capsys)
    keys = [
        (r["alpha"], r["kernel"], r["j"], r["k"]) for r in json.loads(out)["rows"]
    ]
    assert keys == sorted(keys)


def test_margin_flags(capsys):
    code, out, _ = run(["margin", "--alpha", "4,2.5", "--jmax", "12"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    by_alpha = {r["alpha"]: r for r in rows}
    assert not by_alpha[4.0]["violated"]
    assert by_alpha[4.0]["zero_count"] == 1  # only (0, 0)
    assert by_alpha[2.5]["violated"]
    assert by_alpha[2.5]["min_margin"] < 0.0


@pytest.mark.parametrize("alpha, code", [(4.0, 1), (2.5, 0)])
def test_margin_negative_cell_fails_from_alpha_three(capsys, monkeypatch, alpha, code):
    # one negative cell is a failed check at alpha >= 3, where the margin is nonnegative;
    # below 3 the paper expects violations, so the row reports it and the exit stays 0
    def margin_table(a, jmax):
        yield np.array([0, 1, 1]), np.array([0, 0, 1]), np.array([0.0, -1e-3, 2e-3])

    monkeypatch.setattr(spectra, "margin_table", margin_table)
    got, out, _ = run(["margin", "--alpha", str(alpha), "--jmax", "1"], capsys)
    assert got == code
    assert json.loads(out)["rows"] == [{"alpha": alpha, "min_margin": -1e-3, "argmin_j": 1,
                                        "argmin_k": 0, "violated": True, "zero_count": 1}]


def test_margin_zero_set_alpha_three(capsys):
    code, out, _ = run(["margin", "--alpha", "3", "--jmax", "8"], capsys)
    rows = json.loads(out)["rows"]
    # {(0,0)} plus every k >= 2 cell of the j <= 8, k <= j triangle
    expected = 1 + sum(max(0, j - 1) for j in range(2, 9))
    assert rows[0]["zero_count"] == expected
    assert not rows[0]["violated"]


def test_margin_rounding_zero_not_violated(capsys):
    # the (0, 0) margin is zero in exact arithmetic; near alpha = 11/2 the
    # four-term sum left about -6e-11 there, and the product gives 0.0
    code, out, _ = run(["margin", "--alpha", "5.499", "--jmax", "3"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert not row["violated"]
    assert (row["argmin_j"], row["argmin_k"]) == (0, 0)
    assert row["min_margin"] == 0.0


def test_margin_zero_set_is_relative(capsys):
    # margins near 7.6e-11 at j ~ 200 are small but not zero: only (0, 0) is
    code, out, _ = run(["margin", "--alpha", "4", "--jmax", "200"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["zero_count"] == 1
    assert not row["violated"]


def scalar_margin_rows(alphas, jmax):
    """The margin rows by a cell-by-cell loop: one bilinear_margin call per
    cell, 0.0 a zero and below it a violation, the first minimum kept."""
    rows = []
    for alpha in sorted(alphas):
        worst, arg = math.inf, None
        zeros, violated = 0, False
        for j in range(jmax + 1):
            for k in range(j + 1):
                m = spectra.bilinear_margin(j, k, alpha)
                if m < worst:
                    worst, arg = m, (j, k)
                zeros += m == 0.0
                violated = violated or m < 0.0
        rows.append(
            {
                "alpha": alpha,
                "min_margin": worst,
                "argmin_j": arg[0],
                "argmin_k": arg[1],
                "violated": violated,
                "zero_count": zeros,
            }
        )
    return rows


# at 3, 4.5 and 5.499 the minimum is a tie among exact zeros
@pytest.mark.parametrize("alphas, jmax", [((2.5, 3.0, 4.0), 200), ((3.0, 4.5, 5.499), 70)])
def test_margin_rows_match_the_scalar_loop(capsys, alphas, jmax):
    argv = ["margin", "--alpha", ",".join(map(str, alphas)), "--jmax", str(jmax)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    want = scalar_margin_rows(alphas, jmax)
    assert rows == want
    # == takes -0.0 for 0.0; the sign of a zero minimum must match too
    assert [math.copysign(1.0, r["min_margin"]) for r in rows] == [
        math.copysign(1.0, r["min_margin"]) for r in want
    ]


def test_margin_argmin_is_the_first_cell_at_the_minimum(capsys):
    # the minimum 0.0 is reached at (0, 0) and, at alpha = 3, at every k >= 2 cell;
    # the argmin is the first of them in scan order (j, then k)
    code, out, _ = run(["margin", "--alpha", "3,4,5.499", "--jmax", "200"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["min_margin"], r["argmin_j"], r["argmin_k"], r["zero_count"]) for r in rows] == [
        (0.0, 0, 0, 19_901), (0.0, 0, 0, 1), (0.0, 0, 0, 1)
    ]
    assert not any(r["violated"] for r in rows)
    assert all(math.copysign(1.0, r["min_margin"]) == 1.0 for r in rows)


def test_margin_memory_is_bounded_by_the_block(capsys):
    # the scan holds one margin block at a time, not the grid.  A block holds at most
    # 2^B + jmax + 1 cells, and its rows' (j column, k row) rectangle at most twice
    # that, so 20 float arrays of the rectangle (21 MiB here) bound it, where four float
    # arrays of the grid take 138 MiB
    jmax = 3000
    bound = 20 * 8 * 2 * ((1 << spectra._MARGIN_BITS) + jmax + 1)
    assert bound < 4 * 8 * (jmax + 1) * (jmax + 2) // 2 // 4
    tracemalloc.start()
    try:
        code, _, _ = run(["margin", "--alpha", "4", "--jmax", str(jmax)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound


def test_verify_exit_zero(capsys):
    code, out, _ = run(["verify", "--mc-samples", "200"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["pass"] for r in rows)
    checks = {r["check"] for r in rows}
    assert "distance_relation" in checks
    assert "log_sobolev_constant" in checks
    assert "margin_four_terms" in checks and len(rows) == 15


def _scaled(factor):
    """A fault: the layer function's result (each array of a tuple) times factor."""
    def fault(f):
        def scaled(*args, **kwargs):
            out = f(*args, **kwargs)
            return tuple(x * factor for x in out) if isinstance(out, tuple) else out * factor
        return scaled
    return fault


def _margin_flipped_at_4(table):
    """A fault: margin_table with the wrong sign at alpha = 4."""
    return lambda alpha, jmax: ((j, k, (-1.0 if alpha == 4.0 else 1.0) * m)
                                for j, k, m in table(alpha, jmax))


def _oracle_cell_off(table):
    """A fault: cell (3, 1) of every quadrature table off by 1e-10, relative."""
    def off(kern, alpha, jmax):
        out = table(kern, alpha, jmax)
        out.values[(3, 1)] *= 1.0 + 1e-10
        return out
    return off


def _quotient_off_at(lam):
    """A fault: hls_quotient off by 1e-10, relative, at lambda = lam alone."""
    return lambda quotient: lambda f, at, jmax=40: quotient(f, at, jmax) * (1.0 + 1e-10 * (at == lam))


#: (the verify row, the layer and the function a fault replaces, the fault, the field
#: of the row it moves and the range the field then falls in)
VERIFY_FAULTS = [
    # the margin row compares the product form with its four-term definition
    ("margin_four_terms", spectra, "margin_table", _margin_flipped_at_4, "value", 0.1, math.inf),
    # the oracle row measures about 1e-15 against its 1e-12 bound, where the 1e-6 bound
    # of eigs would not see this cell
    ("eigenvalue_oracle", spectra, "eig_quadrature_table", _oracle_cell_off, "value", 9e-11, 1.1e-10),
    # the quotient rows measure below 6e-15 against bounds of 1e-13 and 1e-12
    ("hls_quotient_constant", functional, "hls_quotient", _quotient_off_at(12.0), "rel_err",
     9e-11, 1.1e-10),
    ("hls_quotient_extremizer", functional, "hls_quotient", _quotient_off_at(16.0), "rel_err",
     9e-11, 1.1e-10),
    # the Cayley rows measure below 1e-13 against bounds of 1e-11, 1e-10 and 1e-10
    ("cayley_round_trip", cayley, "cayley_inv_arrays", _scaled(1.0 + 1e-9), "value", 3e-9, 4e-9),
    ("jacobian_duality", cayley, "jac_cayley_sphere_arrays", _scaled(1.0 + 1e-8), "value",
     9e-9, 1.1e-8),
    ("distance_relation", cayley, "sdist_arrays", _scaled(1.0 + 1e-8), "value", 6e-9, 7e-9),
    # the intertwining row measures about 4e-15 against its 1e-13 bound
    ("intertwining_identity", spectra, "intertwining_spectrum", _scaled(1.0 + 1e-11), "value",
     9e-12, 1.1e-11),
]


@pytest.mark.parametrize("check, layer, name, fault, field, low, high", VERIFY_FAULTS,
                         ids=[case[0] for case in VERIFY_FAULTS])
def test_verify_row_fails_alone(capsys, monkeypatch, check, layer, name, fault, field, low, high):
    # a fault in one layer function fails one verify row, and only it
    monkeypatch.setattr(layer, name, fault(getattr(layer, name)))
    code, out, _ = run(["verify", "--mc-samples", "50"], capsys)
    assert code == 1
    failed = [r for r in json.loads(out)["rows"] if not r["pass"]]
    assert [r["check"] for r in failed] == [check]
    assert low < failed[0][field] < high


def test_verify_builds_no_margin_block(capsys):
    # the margin rows read margin_table, which keeps no block, so verify builds none
    # of bilinear_margin's blocks (block 0 alone holds rows 0-255, 32,896 cells)
    spectra._margin_cells.cache_clear()
    code, _, _ = run(["verify", "--mc-samples", "50"], capsys)
    assert code == 0
    assert spectra._margin_cells.cache_info().currsize == 0


def test_eigs_high_degree_exits_zero(capsys):
    # every K1 and K2 cell at jmax 100 meets the 1e-6 bound
    code, out, _ = run(["eigs", "--alpha", "4", "--jmax", "100"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2 * 101 * 102 // 2
    assert all(r["pass"] for r in rows)
    assert max(r["rel_diff"] for r in rows) < 1e-6


@pytest.mark.parametrize("n", ["0", "1", "-5"])
def test_verify_rejects_too_few_samples(capsys, n):
    code, out, err = run(["verify", "--mc-samples", n], capsys)
    assert code == 2
    assert out == ""
    assert "--mc-samples must be at least 2" in err


def test_eigs_failing_cell_exits_one(capsys, monkeypatch):
    # a closed form off by 1e-5 at one cell fails that row (and only it) against the
    # 1e-6 bound, and the command exits 1
    eig_K2 = spectra.eig_K2
    monkeypatch.setattr(
        spectra, "eig_K2", lambda j, k, a: eig_K2(j, k, a) * (1.0 + 1e-5 * ((j, k) == (1, 1)))
    )
    code, out, _ = run(["eigs", "--alpha", "4", "--jmax", "1"], capsys)
    assert code == 1
    failed = [r for r in json.loads(out)["rows"] if not r["pass"]]
    assert [(r["kernel"], r["j"], r["k"]) for r in failed] == [("K2", 1, 1)]
    assert 9e-6 < failed[0]["rel_diff"] < 1.1e-5


def test_domain_error_exit_two(capsys):
    code, _, err = run(["constants", "--lambda", "25"], capsys)
    assert code == 2
    assert "error" in err


def test_eigs_bad_alpha_exit_two(capsys):
    code, _, err = run(["eigs", "--alpha", "6"], capsys)
    assert code == 2


def test_eigs_non_convergence_exit_two(capsys, monkeypatch):
    # a K1 whose values are not finite (inf, under the name of alpha = 4): the quadrature
    # cannot integrate it, and the command exits 2 with a message that names the kernel
    kernel_K1 = spectra.kernel_K1
    monkeypatch.setattr(spectra, "kernel_K1", lambda alpha: spectra.ZonalKernel(
        lambda d2, theta: np.full_like(d2, np.inf), kernel_K1(alpha).name))
    code, out, err = run(["eigs", "--alpha", "4", "--jmax", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "K1 at alpha = 4.0 is not finite" in err


@pytest.mark.parametrize("command, table, domain", [
    ("eigs", "eig_quadrature_table", "(-1.0, 5.5)"), ("margin", "margin_table", "(0.0, 5.5)")])
@pytest.mark.parametrize("alpha", ["6", "5.5", "-2", "4,6"])
def test_alpha_grid_is_checked_before_any_table(capsys, monkeypatch, command, table, domain, alpha):
    # every alpha of the grid is checked against the command's domain first: no table is
    # built, not even for an alpha of the grid inside the domain
    tables = []
    monkeypatch.setattr(spectra, table, lambda *args: tables.append(args))
    code, out, err = run([command, "--alpha", alpha, "--jmax", "2"], capsys)
    assert code == 2 and out == "" and tables == []
    assert f"exponent alpha = {float(alpha.split(',')[-1])} outside {domain}" in err


def test_unwritable_out_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(["constants", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert not path.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63), str(10 ** 23), "1.5"])
def test_seed_outside_key_range_exits_two(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", seed])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --seed: must be an integer in [0, 2**63), got '{seed}'" in out.err


def test_seed_key_range_upper_end(capsys):
    # the largest accepted seed draws sample points without a numpy cast warning
    code, out, _ = run(["verify", "--mc-samples", "50", "--seed", str(2 ** 63 - 1)], capsys)
    assert code == 0
    assert json.loads(out)["rows"]


@pytest.mark.parametrize("command", ["eigs", "margin"])
@pytest.mark.parametrize("alpha", [None, "", " "])
def test_empty_alpha_grid_exits_two(capsys, command, alpha):
    code, out, err = run([command] + ([] if alpha is None else ["--alpha", alpha]), capsys)
    assert code == 2
    assert out == ""
    assert "--alpha needs at least one value" in err


@pytest.mark.parametrize(
    "command, flag, text",
    [("constants", "--lambda", ",12"), ("constants", "--d", "2;6"), ("eigs", "--alpha", "4,x"),
     ("margin", "--alpha", "4,,3")],
)
def test_bad_grid_names_its_flag(capsys, command, flag, text):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, text])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: must be comma-separated numbers, got {text!r}" in out.err


@pytest.mark.parametrize("command", ["eigs", "margin"])
def test_negative_index_bound_exits_two(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--alpha", "4", "--jmax", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --jmax: must be a non-negative integer" in out.err


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line(capsys, line):
    code, out, _ = run(shlex.split(line)[1:], capsys)
    assert code == 0
    assert out.strip()


def test_determinism(capsys):
    argv = ["verify", "--mc-samples", "50"]
    a = run([*argv, "--seed", "1"], capsys)[1]
    b = run([*argv, "--seed", "1"], capsys)[1]
    c = run([*argv, "--seed", "2"], capsys)[1]
    assert a == b
    assert a != c  # the seed draws verify's sample points


#: every flag with a valid value, and the flags each subcommand reads; --nodes-theta,
#: --nodes-phi, --kmax and --tolerance are read by none (the oracle's rule follows jmax,
#: eigs reports every k <= j, and each check keeps its own bound), so they exit 2
FLAG_VALUES = {
    "--lambda": "12", "--alpha": "4", "--d": "2", "--jmax": "1", "--kmax": "1",
    "--nodes-theta": "64", "--nodes-phi": "64", "--mc-samples": "50", "--seed": "3",
    "--tolerance": "1e-6", "--format": "csv", "--out": "x.csv",
}
OUTPUT = {"--format", "--out"}
READS = {
    "constants": OUTPUT | {"--lambda", "--d"},
    "eigs": OUTPUT | {"--alpha", "--jmax"},
    "margin": OUTPUT | {"--alpha", "--jmax"},
    "verify": OUTPUT | {"--mc-samples", "--seed"},
}


@pytest.mark.parametrize("command", sorted(READS))
def test_subcommand_accepts_its_flags(command):
    argv = [command]
    for flag in sorted(READS[command]):
        argv += [flag, FLAG_VALUES[flag]]
    assert cli.build_parser().parse_args(argv).command == command


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in sorted(READS) for f in FLAG_VALUES if f not in READS[c]],
)
def test_stray_flag_exits_two(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err


def _python_with_src(code):
    """The stripped standard output of ``code`` run in a fresh interpreter with src/ on the path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would add about 0.3 s to every octhls command
    code = "import octhls.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python_with_src(code) == "[]"


def test_import_loads_no_numpy():
    # numpy is about 180 ms of a bare import; the package and cli import only the standard library
    code = (
        "import sys, octhls\n"
        "print('numpy' in sys.modules)\n"
        "import octhls.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _python_with_src(code).splitlines() == ["False", "False"]


def test_q_is_defined_in_the_package():
    # reading Q loads no submodule, and every module that uses Q binds the package's value
    assert octhls.Q == 8 + 2 * 7
    code = (
        "import importlib, pkgutil, sys, octhls\n"
        "print(octhls.Q, sorted(m for m in sys.modules if m.startswith('octhls.')))\n"
        "mods = [importlib.import_module(f'octhls.{m.name}') for m in pkgutil.iter_modules(octhls.__path__)]\n"
        "print(dict(sorted((m.__name__, m.Q) for m in mods if 'Q' in vars(m))))\n"
    )
    alone, users = _python_with_src(code).splitlines()
    assert alone == f"{octhls.Q} []"
    users = ast.literal_eval(users)
    assert {"octhls.nilgroup", "octhls.spectra", "octhls.cli"} <= set(users)
    assert set(users.values()) == {octhls.Q}


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format", "csv"], ["--out", "OUT"]],
                         ids=["json", "csv", "out"])
def test_constants_loads_no_numpy(tmp_path, fmt):
    # constants is scalar gamma math: it runs on the cli and constants modules alone
    argv = ["constants", "--lambda", "12,16,20", "--d", "2,6"] + [
        str(tmp_path / "c.json") if f == "OUT" else f for f in fmt]
    code = (
        "import contextlib, io, sys\n"
        "from octhls import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('octhls.')))\n"
    )
    assert _python_with_src(code) == "0 False ['octhls.cli', 'octhls.constants']"


def test_commands_load_only_their_layers():
    # eigs and margin run on spectra (and what it imports) alone
    code = (
        "import contextlib, io, sys\n"
        "from octhls import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['eigs', '--alpha', '4', '--jmax', '1'])\n"
        "    cli.main(['margin', '--alpha', '4', '--jmax', '2'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('octhls.')))\n"
    )
    assert _python_with_src(code) == "['octhls.cli', 'octhls.constants', 'octhls.specfun', 'octhls.spectra']"


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["verify", "--help"], 0), (["eigs", "--lambda", "12"], 2), ([], 2),
     (["constants", "--lambda", ",12"], 2)],
    ids=["help", "verify-help", "stray-flag", "no-command", "bad-grid"],
)
def test_usage_exits_load_no_numpy(argv, code):
    # --help and argparse errors exit before any layer, and with it numpy, is imported
    script = (
        "import contextlib, io, sys\n"
        "from octhls import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert _python_with_src(script) == f"{code} False"


def test_commands_load_no_numpy_ma():
    # numpy.ma costs about 20 ms to import, and no octhls command needs it
    code = (
        "import contextlib, io, sys\n"
        "from octhls import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['eigs', '--alpha', '4', '--jmax', '2'])\n"
        "    cli.main(['margin', '--alpha', '4', '--jmax', '2'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert _python_with_src(code) == "[]"


def test_runs_on_numpy_alone():
    # pyproject.toml declares numpy as the only run-time dependency: with scipy, mpmath
    # and sympy unimportable, every module imports and `verify` passes
    code = (
        "import importlib, pkgutil, sys\n"
        "for name in ('scipy', 'mpmath', 'sympy'):\n"
        "    sys.modules[name] = None\n"
        "import octhls\n"
        "for mod in pkgutil.iter_modules(octhls.__path__):\n"
        "    importlib.import_module(f'octhls.{mod.name}')\n"
        "from octhls import cli\n"
        "print(cli.main(['verify', '--mc-samples', '200']))\n"
    )
    assert _python_with_src(code).splitlines()[-1] == "0"
