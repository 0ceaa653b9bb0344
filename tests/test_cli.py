"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json

import pytest

from octhls import cli, constants, spectra


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


def test_margin_zero_set_alpha_three(capsys):
    code, out, _ = run(["margin", "--alpha", "3", "--jmax", "8"], capsys)
    rows = json.loads(out)["rows"]
    # {(0,0)} plus every k >= 2 cell of the j <= 8, k <= j triangle
    expected = 1 + sum(max(0, j - 1) for j in range(2, 9))
    assert rows[0]["zero_count"] == expected
    assert not rows[0]["violated"]


def test_verify_exit_zero(capsys):
    code, out, _ = run(
        ["verify", "--mc-samples", "200", "--nodes-theta", "128", "--nodes-phi", "128"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["pass"] for r in rows)
    checks = {r["check"] for r in rows}
    assert "distance_relation" in checks
    assert "log_sobolev_constant" in checks


def test_verify_tolerance_override_failure(capsys):
    code, out, _ = run(["verify", "--mc-samples", "50", "--tolerance", "1e-30"], capsys)
    assert code == 1
    rows = json.loads(out)["rows"]
    assert any(not r["pass"] for r in rows)


def test_verify_tolerance_zero_is_honoured(capsys):
    code, out, _ = run(["verify", "--mc-samples", "50", "--tolerance", "0"], capsys)
    assert code == 1
    rows = json.loads(out)["rows"]
    assert all(r["tolerance"] == 0.0 for r in rows)


@pytest.mark.parametrize("n", ["0", "1", "-5"])
def test_verify_rejects_too_few_samples(capsys, n):
    code, out, err = run(["verify", "--mc-samples", n], capsys)
    assert code == 2
    assert out == ""
    assert "--mc-samples must be at least 2" in err


def test_eigs_tolerance_override_failure(capsys):
    code, out, _ = run(["eigs", "--alpha", "4", "--jmax", "1", "--tolerance", "1e-30"], capsys)
    assert code == 1
    assert any(not r["pass"] for r in json.loads(out)["rows"])


def test_domain_error_exit_two(capsys):
    code, _, err = run(["constants", "--lambda", "25"], capsys)
    assert code == 2
    assert "error" in err


def test_eigs_bad_alpha_exit_two(capsys):
    code, _, err = run(["eigs", "--alpha", "6"], capsys)
    assert code == 2


def test_determinism(capsys):
    a = run(["margin", "--alpha", "3.5", "--jmax", "6", "--seed", "1"], capsys)[1]
    b = run(["margin", "--alpha", "3.5", "--jmax", "6", "--seed", "1"], capsys)[1]
    assert a == b
