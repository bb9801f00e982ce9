"""CLI behaviour: exit codes, output schemas, byte-for-byte determinism."""

import json
import math
from fractions import Fraction

import pytest

from cspherelab.basis import build_basis
from cspherelab.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_csv(capsys):
    code, out, _ = run_cli(capsys, "dims", "--d", "2", "--lmax", "2", "--grading", "max")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,a_l,d_l,cum_dim"
    assert lines[-1] == "2,5,19,27"


def test_check_addition_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "addition", "--d", "2", "--m", "2", "--n", "1",
                           "--samples", "1000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["deviation"] < 1e-9 and doc["seed"] == 0


def test_check_fails_with_impossible_tolerance(capsys):
    code, out, _ = run_cli(capsys, "check", "addition", "--d", "2", "--m", "1", "--n", "1",
                           "--samples", "200", "--seed", "0", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_gegenbauer(capsys):
    code, out, _ = run_cli(capsys, "check", "gegenbauer", "--d", "2", "--lmax", "4",
                           "--samples", "500", "--seed", "0")
    assert code == 0
    assert json.loads(out)["deviation"] < 1e-9


def test_check_dim_bounds(capsys):
    code, out, _ = run_cli(capsys, "check", "dim-bounds", "--d", "2", "--lmax", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["leading_coefficient"] == 3.0
    assert doc["relative_gap"] < 0.1


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "--bogus")[0] == 2
    assert run_cli(capsys, "dims", "--d", "2")[0] == 2  # missing --lmax
    # semantic argument error from the library also maps to 2
    code, _, err = run_cli(capsys, "basis", "--d", "2", "--m", "9", "--n", "0")
    assert code == 2 and "error" in err


def test_unwritable_output_exits_1(capsys):
    code, _, err = run_cli(capsys, "dims", "--d", "2", "--lmax", "1",
                           "--out", "/nonexistent-dir/out.csv")
    assert code == 1 and "error" in err


def test_check_nikolskii_cli(capsys):
    code, out, _ = run_cli(capsys, "check", "nikolskii", "--d", "2", "--N", "0", "--lmax", "1",
                           "--p", "2", "--samples", "200", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["violations_sup"] == 0


def test_byte_identical_reruns(capsys):
    argv = ("levy", "--d", "2", "--N", "0", "--lmax", "1", "--family", "exp:gamma=1,r=1",
            "--p", "2", "--sphere-samples", "200", "--omega-samples", "2000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_levy_json_schema(capsys):
    code, out, _ = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "1",
                           "--family", "id", "--p", "2", "--sphere-samples", "100",
                           "--omega-samples", "0", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    for key in ("estimate", "stderr", "lower", "upper", "case", "empirical_C"):
        assert key in doc
    assert doc["case"] == "d"
    assert doc["estimate"] == pytest.approx(1.0)
    assert doc["seed"] == 0


def test_seq_json(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "exp:gamma=1,r=1", "--d", "2",
                           "--N", "3", "--eps", "0.5", "--grading", "max")
    assert code == 0
    doc = json.loads(out)
    assert doc["Nk"][:4] == [3, 4, 5, 6]
    assert doc["M"] == 8 and doc["theta12"] == 61 and doc["mk"][0] == 64
    assert set(doc["kclass_ratio"]) == {"1", "1.5", "2"}


def test_widths_spectrum_and_fit_roundtrip(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "widths", "spectrum", "--family", "fs:gamma=3,xi=0",
                         "--d", "2", "--grading", "max", "--nmax", "100000",
                         "--out", str(table_path))
    assert code == 0
    header = table_path.read_text().splitlines()[0]
    assert header == "n,d_n"
    code, out, _ = run_cli(capsys, "widths", "fit", str(table_path), "--model", "power",
                           "--N", "1000", "--nmax", "99999")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "power"
    assert abs(doc["slope"] + 1.0) < 0.05
    for key in ("slope", "intercept", "residual"):
        assert key in doc


def test_widths_bounds_and_hypothesis_gate(capsys):
    code, out, _ = run_cli(capsys, "widths", "bounds", "--theorem", "T6.4", "--d", "2",
                           "--gamma", "1", "--r", "1", "--nmax", "100")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0)
    code, _, err = run_cli(capsys, "widths", "bounds", "--theorem", "T6.2-upper", "--d", "2",
                           "--gamma", "1", "--p", "1", "--q", "2", "--nmax", "100")
    assert code == 2 and "hypothesis" in err


def test_widths_compare_gradings(capsys):
    code, out, _ = run_cli(capsys, "widths", "compare-gradings", "--family", "exp:gamma=1,r=1",
                           "--d", "2", "--nmax", "100000")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "gradings differ"
    assert doc["slope_ratio"] == pytest.approx(3 ** (1 / 3), rel=0.03)


def test_basis_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "basis", "--d", "2", "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    built = build_basis(2, 1, 1)
    assert len(doc["vectors"]) == built.dim
    # rebuild the exact rationals from the document and compare losslessly
    for terms, vec, norm_str, norm in zip(doc["vectors"], built.vectors,
                                          doc["sq_norms"], built.sq_norms):
        rebuilt = {(tuple(t["alpha"]), tuple(t["beta"])):
                   Fraction(t["numerator"], t["denominator"]) for t in terms}
        assert rebuilt == vec.terms
        assert Fraction(norm_str) == norm


def test_project_reproducing_property(capsys):
    code, out, _ = run_cli(capsys, "project", "--d", "2", "--m", "1", "--n", "1",
                           "--j", "1", "--samples", "20000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    estimate = complex(doc["estimate_re"], doc["estimate_im"])
    expected = complex(doc["expected_re"], doc["expected_im"])
    assert abs(estimate - expected) < 4 * doc["stderr"]


def test_cli_deterministic_across_processes():
    import os
    import subprocess
    import sys

    import cspherelab

    # the child processes import the same package as this one
    src = os.path.dirname(os.path.dirname(cspherelab.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    cmd = [sys.executable, "-m", "cspherelab.cli", "levy", "--d", "2", "--N", "0",
           "--lmax", "1", "--family", "exp:gamma=1,r=1", "--p", "4",
           "--sphere-samples", "100", "--omega-samples", "2000", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout


def test_infinity_p_parses(capsys):
    code, out, _ = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "1",
                           "--family", "id", "--p", "inf", "--sphere-samples", "100",
                           "--omega-samples", "2000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "b"
    assert doc["upper"] == "unknown-constant"
    assert math.isfinite(doc["estimate"])