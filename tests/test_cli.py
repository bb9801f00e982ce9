"""CLI behaviour: exit codes, output schemas, byte-for-byte determinism."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import cspherelab
from cspherelab import basis, cli, dimensions, levy, report, widths
from cspherelab.basis import build_basis
from cspherelab.cli import _input_bytes, run
from cspherelab.dimensions import dim_layer
from cspherelab.multipliers import exp_analytic, finite_smooth, identity
from cspherelab.widths import (WidthTable, _loadtxt_runs, expand_spectrum, l2_width_table, table_from_csv,
                               table_from_values)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


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


def test_check_gegenbauer_d1_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "gegenbauer", "--d", "1", "--lmax", "2",
                             "--samples", "10", "--seed", "0")
    assert code == 2 and out == ""
    assert "d must be >= 2" in err and "Traceback" not in err


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


@pytest.mark.parametrize("argv, code", [
    (("check", "addition", "--d", "2", "--m", "1", "--n", "1", "--samples", "200"), 0),
    (("check", "gegenbauer", "--d", "2", "--lmax", "2", "--samples", "200"), 0),
    # the window-(0, 1] sup comparison at p = 4 fails by design
    (("check", "nikolskii", "--d", "2", "--N", "0", "--lmax", "1", "--p", "4", "--samples", "20"), 1),
    (("levy", "--d", "2", "--N", "0", "--lmax", "1", "--family", "id", "--p", "2",
      "--sphere-samples", "100", "--omega-samples", "0"), 0),
    (("project", "--d", "2", "--m", "1", "--n", "1", "--j", "0", "--samples", "2000"), 0),
])
def test_chunk_flag_is_gone(capsys, argv, code):
    # sampling has one fixed layout; only --seed selects the stream
    assert run_cli(capsys, *argv, "--seed", "0", "--chunk", "4096")[0] == 2
    assert run_cli(capsys, *argv, "--seed", "0")[0] == code


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


@pytest.mark.parametrize("argv", [
    ("check", "nikolskii", "--d", "2", "--N", "0", "--lmax", "1", "--p", "nan", "--samples", "10"),
    ("levy", "--d", "2", "--N", "0", "--lmax", "1", "--family", "id", "--p", "nan",
     "--sphere-samples", "100", "--omega-samples", "2000"),
], ids=["nikolskii", "levy"])
def test_nan_p_exits_2_before_any_basis(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: need p >= 1 or p = inf, got nan\n"


@pytest.mark.parametrize("argv", [
    ("check", "addition", "--d", "2", "--m", "1", "--n", "1", "--samples", "10"),
    ("check", "gegenbauer", "--d", "2", "--lmax", "2", "--samples", "10"),
    ("check", "nikolskii", "--d", "2", "--N", "0", "--lmax", "1", "--samples", "10"),
    ("check", "dim-bounds", "--d", "2", "--lmax", "10"),
], ids=["addition", "gegenbauer", "nikolskii", "dim-bounds"])
def test_nan_tol_exits_2_at_parse_time(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the check ran")

    for name in ("verify_addition", "verify_gegenbauer"):
        monkeypatch.setattr(basis, name, refuse)
    monkeypatch.setattr(levy, "nikolskii_check", refuse)
    monkeypatch.setattr(dimensions, "check_dim_bounds", refuse)
    code, out, err = run_cli(capsys, *argv, "--tol", "nan")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --tol: NaN is not a tolerance: every comparison with it"
                        " is false\n")


COMMAND_PATHS = [("dims",), ("basis",), ("check",), ("check", "addition"),
                 ("check", "gegenbauer"), ("check", "nikolskii"), ("check", "dim-bounds"),
                 ("levy",), ("seq",), ("widths",), ("widths", "spectrum"), ("widths", "fit"),
                 ("widths", "bounds"), ("widths", "compare-gradings"), ("project",)]
LEAF_PATHS = {path for path in COMMAND_PATHS if path not in (("check",), ("widths",))}


def _filled_commands(parser, path=()):
    """The subcommand paths whose parser holds arguments of its own (beyond -h)."""
    filled = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                filled |= _filled_commands(sub, path + (name,))
        elif path and action.dest != "help":
            filled.add(path)
    return filled


@pytest.mark.parametrize("argv, filled", [
    (None, LEAF_PATHS),
    ((), LEAF_PATHS),
    (("-h",), LEAF_PATHS),
    (("nosuch", "dims"), LEAF_PATHS),
    (("dims", "--d", "2"), {("dims",)}),
    (("check",), {path for path in LEAF_PATHS if path[0] == "check"}),
    (("check", "--help"), {path for path in LEAF_PATHS if path[0] == "check"}),
    (("check", "dim-bounds", "--d", "4"), {("check", "dim-bounds")}),
    (("widths", "fit", "table.csv"), {("widths", "fit")}),
    (("dims", "check", "widths"), {("dims",)}),
])
def test_build_parser_fills_only_the_named_subcommand(argv, filled):
    assert _filled_commands(cli.build_parser(argv)) == filled


def _parse_outcome(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("path", [()] + COMMAND_PATHS, ids=lambda path: " ".join(path) or "top")
def test_partly_filled_parser_reads_and_words_argv_as_the_whole_parser(path, capsys):
    # help, usage and every error message, byte for byte
    tails = [("-h",), ("--help",), (), ("--bogus",), ("--d", "x"), ("nosuch",),
             ("--d", "3", "--lmax", "4", "--tol", "nan"), ("--d", "2", "--m", "1", "--n", "1")]
    whole = cli.build_parser()
    for tail in tails:
        argv = list(path + tail)
        assert _parse_outcome(cli.build_parser(argv), argv, capsys) == \
            _parse_outcome(whole, argv, capsys), argv


# The whole parser's --help at 80 columns, pinned byte for byte.
HELP_TEXTS = {
    (): (
        'usage: cspherelab [-h] {dims,basis,check,levy,seq,widths,project} ...\n'
        '\n'
        'Laboratory for harmonic analysis and approximation widths on complex spheres.\n'
        '\n'
        'positional arguments:\n'
        '  {dims,basis,check,levy,seq,widths,project}\n'
        '    dims                layer dimension table for one grading\n'
        '    basis               exact orthogonal harmonic basis of one bidegree, as\n'
        '                        JSON\n'
        '    check               verification commands (exit 0 iff within --tol)\n'
        '    levy                Levy mean of a weighted norm on a coefficient sphere\n'
        '    seq                 level sequence and rank budget for a multiplier family\n'
        '    widths              width tables, rate fits, bound factors\n'
        '    project             reproducing-property projection of a basis function\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ("check",): (
        'usage: cspherelab check [-h] {addition,gegenbauer,nikolskii,dim-bounds} ...\n'
        '\n'
        'positional arguments:\n'
        '  {addition,gegenbauer,nikolskii,dim-bounds}\n'
        '    addition            reproducing-kernel identity of one bidegree space\n'
        '    gegenbauer          real-sphere zonal vs sum of complex zonals, degrees\n'
        '                        0..lmax\n'
        '    nikolskii           norm comparison inequalities on random polynomials\n'
        '    dim-bounds          two-sided layer-dimension bound slack\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ("widths",): (
        'usage: cspherelab widths [-h] {spectrum,fit,bounds,compare-gradings} ...\n'
        '\n'
        'positional arguments:\n'
        '  {spectrum,fit,bounds,compare-gradings}\n'
        '    spectrum            exact Hilbert-space width table as CSV\n'
        '    fit                 fit a decay law to a width table CSV\n'
        '    bounds              structural bound factor of one theorem\n'
        '    compare-gradings    fit the same multiplier under both gradings and\n'
        '                        compare\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
}


@pytest.mark.parametrize("path", sorted(HELP_TEXTS), ids=lambda path: " ".join(path) or "top")
def test_help_text_is_pinned(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *path, "--help") == (0, HELP_TEXTS[path], "")


@pytest.mark.parametrize("family, named", [
    ("fs:gamma=3,gama=9", "'gama'"),
    ("exp:gamma=1,r=1,xi=7", "'xi'"),
    ("fs:gamma=nan", "'gamma=nan'"),
])
def test_family_arguments_it_does_not_use_exit_2(capsys, family, named):
    code, out, err = run_cli(capsys, "seq", "--d", "2", "--family", family, "--N", "3",
                             "--eps", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_dims_negative_lmax_exits_2(capsys):
    code, out, err = run_cli(capsys, "dims", "--d", "2", "--lmax", "-3")
    assert code == 2 and out == ""
    assert err == "error: need --lmax >= 0, got -3\n"
    assert run_cli(capsys, "dims", "--d", "2", "--lmax", "0")[1] == "l,a_l,d_l,cum_dim\n0,1,1,1\n"


def test_levy_refused_by_its_cost_exits_2(capsys, monkeypatch):
    # 2 x 1000 x 3919 x 10^6 flops on d = 3, window (0, 6]; the basis would
    # take gigabytes, so building one fails the test at once.
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    code, out, err = run_cli(capsys, "levy", "--d", "3", "--N", "0", "--lmax", "6", "--family",
                             "fs:gamma=3,xi=0", "--p", "4", "--omega-samples", "1000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Levy mean for d=3, window (0, 6] refused")
    assert "2 x 1000 x 3919 x 1000000 = 7.84e+12 flops > 2e+12, an estimated 235 s" in err


def test_check_nikolskii_refused_by_its_memory_exits_2(capsys, monkeypatch):
    # s = 28223 on d = 4, window (0, 6]: one cap pass alone, 200 x 256 x s
    # values, would take 11.6 GB, so the check refuses before any basis.
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    code, out, err = run_cli(capsys, "check", "nikolskii", "--d", "4", "--N", "0", "--lmax", "6")
    assert code == 2 and out == ""
    assert err.startswith("error: Nikolskii check for d=4, window (0, 6] refused: its arrays take an"
                          " estimated 12.7 GB (cloud values 28223 x 4096, ")
    assert "cap pass 51200 x 28223) > 2 GB" in err


def test_levy_exact_path_refused_by_its_memory_exits_2(capsys, monkeypatch):
    # p = 2 with no cloud: 10^9 squared norms and their standard deviation's
    # temporary would take 16 GB, so the estimate refuses before any basis.
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    code, out, err = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "3", "--family", "id",
                             "--p", "2", "--omega-samples", "0", "--sphere-samples", "1000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Levy mean for d=2, window (0, 3] refused: its outer-sample arrays"
                          " take an estimated 16.0 GB")


def test_levy_refused_by_its_memory_exits_2(capsys, monkeypatch):
    # 1.6e11 flops pass the flop guard; the (1250000, 3919) cloud block would
    # take 39 GB, so the estimate refuses it before anything is built.
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    code, out, err = run_cli(capsys, "levy", "--d", "3", "--N", "0", "--lmax", "6", "--family",
                             "fs:gamma=3,xi=0", "--p", "4", "--sphere-samples", "2",
                             "--omega-samples", "10000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Levy mean for d=3, window (0, 6] refused")
    assert "cloud arrays take an estimated 39.7 GB" in err and err.rstrip().endswith("> 2 GB")


def test_levy_json_schema(capsys):
    code, out, _ = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "1",
                           "--family", "id", "--p", "2", "--sphere-samples", "100",
                           "--omega-samples", "0", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    for key in ("estimate", "stderr", "stderr_outer", "stderr_cloud", "lower", "upper", "case",
                "empirical_C"):
        assert key in doc
    keys = list(doc)
    assert keys[keys.index("stderr"):keys.index("stderr") + 3] == [
        "stderr", "stderr_outer", "stderr_cloud"]
    assert doc["case"] == "d"
    assert doc["estimate"] == pytest.approx(1.0)
    assert doc["seed"] == 0
    # the exact p = 2 path has no point cloud
    assert doc["stderr_cloud"] == 0.0
    assert doc["stderr"] == math.hypot(doc["stderr_outer"], doc["stderr_cloud"])
    code, out, _ = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "1",
                           "--family", "id", "--p", "4", "--sphere-samples", "100",
                           "--omega-samples", "1000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["stderr_outer"] > 0 and doc["stderr_cloud"] > 0
    assert doc["stderr"] == math.hypot(doc["stderr_outer"], doc["stderr_cloud"])


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


def test_basis_json_matches_benchmark_goldens(capsys):
    # The benchmark's exact-basis ops, rendered in-process; the goldens are
    # only read here (bench/capture.py writes them).
    ops = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["ops"]
    cases = {name: re.fullmatch(r"basis-d(\d+)-(\d+)-(\d+)", name) for name in ops}
    cases = {name: match.groups() for name, match in cases.items() if match}
    assert cases
    for name, (d, m, n) in sorted(cases.items()):
        code, out, _ = run_cli(capsys, "basis", "--d", d, "--m", m, "--n", n)
        data = out.encode("utf-8")
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == \
            (ops[name]["bytes"], ops[name]["sha256"]), name


# The benchmark's spectrum and seq command lines, by golden name.
GOLDEN_OPS = {
    "spectrum-fs3-d2": "widths spectrum --family fs:gamma=3,xi=0 --d 2 --grading max --nmax 500000",
    "spectrum-sobolev-d3": "widths spectrum --family sobolev:gamma=2 --d 3 --grading star --nmax 500000",
    "spectrum-fs3-d2-json": "widths spectrum --family fs:gamma=3,xi=0 --d 2 --nmax 1000000 --format json",
    "dims-d3": "dims --d 3 --lmax 200",
    "dim-bounds-d4": "check dim-bounds --d 4 --lmax 200",
    "bounds-t62": "widths bounds --theorem T6.2-upper --d 2 --gamma 3 --nmax 1000",
    "seq-fs3-d2": "seq --family fs:gamma=3,xi=0 --d 2 --N 3 --eps 0.5",
    "seq-exp-d3": "seq --family exp:gamma=1,r=1 --d 3 --N 1 --eps 0.5",
    "seq-fs1-d2": "seq --family fs:gamma=1,xi=0 --d 2 --N 3 --eps 0.5",
}


def test_spectrum_and_seq_match_benchmark_goldens(tmp_path, capsys):
    # Rendered in-process through --out, byte for byte what the benchmark
    # reads on stdout; the goldens are only read here.
    ops = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["ops"]
    assert {name for name in ops if name.startswith("seq-")} <= set(GOLDEN_OPS)
    for name, line in GOLDEN_OPS.items():
        out_path = tmp_path / f"{name}.out"
        code, _, _ = run_cli(capsys, *line.split(), "--out", str(out_path))
        data = out_path.read_bytes()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == \
            (ops[name]["bytes"], ops[name]["sha256"]), name


def _csv_text(runs):
    return "".join(widths.csv_runs(runs))


def _per_row_csv(table):
    # The per-row writer that csv_runs replaced, kept as its oracle.
    rows = ((n, float(v)) for n, v in enumerate(table.values()))
    return report.csv_lines(("n", "d_n"), rows)


def _assert_same_lines(text, expected):
    # As line lists, a mismatch is reported by its first differing line;
    # pytest's diff of two long strings would take minutes.
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


TRUNCATED_N_MAX = 10**6

WRITER_TABLES = {
    "identity": l2_width_table(identity(), 2, 300),
    "exp-near-1e-300": l2_width_table(exp_analytic(70, 1), 2, 1300),
    "exp-subnormal": l2_width_table(exp_analytic(74, 1), 2, 1300),
    "table-truncated-at-rank": WidthTable(runs=expand_spectrum(
        [(v, dim_layer(2, l, "max")) for l, v in enumerate([1.0, 0.5, 0.0, 0.25, 0.0])],
        TRUNCATED_N_MAX)),
    "single-run": table_from_values([0.125] * 7),
}


@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_spectrum_writer_matches_per_row_formatter(name):
    table = WRITER_TABLES[name]
    _assert_same_lines(_csv_text(table.runs), _per_row_csv(table))


# Ranks where the formatter changes: the first thousand-block (a fourth
# digit), a fifth and a sixth digit; a run's pieces end every
# _PIECE_ROWS = 4096 rows.
RANK_EDGES = (999, 1000, 1001, 9999, 10000, 99999, 100000)
EDGE_VALUES = (0.5, math.nan, -0.0, 5e-324, 2.2250738585072009e-308, 0.1)


def _edge_runs(edge):
    """Runs that start at, end at and cross the rank edge, and a run whose
    piece edges fall on it (from edge 4096 on)."""
    values = iter(EDGE_VALUES * 2)
    lead = edge % 4096
    return {
        "start-at": ((next(values), edge), (next(values), 3 * 4096 + 1)),
        "end-at": ((next(values), edge + 1), (next(values), 1)),
        "cross": ((next(values), edge - 1), (next(values), 2), (next(values), 4095)),
        "pieces": ((next(values), lead), (next(values), edge - lead + 4096), (next(values), 4097)),
    }


@pytest.mark.parametrize("edge", RANK_EDGES)
def test_spectrum_writer_matches_per_row_formatter_at_rank_edges(edge):
    for name, runs in _edge_runs(edge).items():
        text = _csv_text(runs)
        _assert_same_lines(text, _per_row_csv(WidthTable(runs=runs)))
        assert _hex_runs(widths.parse_csv_runs(text.encode())) == _hex_runs(runs), name


def test_spectrum_writer_matches_per_row_formatter_on_one_row_runs():
    # 1100 runs of one row each, through the first thousand-block edge
    runs = tuple((EDGE_VALUES[k % 6] if k % 6 else 1.0 / (k + 1), 1) for k in range(1100))
    text = _csv_text(runs)
    _assert_same_lines(text, _per_row_csv(WidthTable(runs=runs)))
    assert _hex_runs(widths.parse_csv_runs(text.encode())) == _hex_runs(runs)


@pytest.mark.parametrize("start, stop", [(0, 0), (0, 1), (998, 1002), (999, 1000), (1000, 1001),
                                         (1999, 2001), (4095, 4097), (99999, 100001),
                                         (123456, 127552), (10**9 - 1, 10**9 + 1)])
def test_rank_rows_formats_each_rank_as_percent_d(start, stop):
    sep = ",0.25\n"
    assert widths._rank_rows(start, stop, sep) == "".join(f"{k}{sep}" for k in range(start, stop))


@pytest.mark.parametrize("rank", [999, 1000, 1999, 2000, 9999, 10000, 12288, 12289])
@pytest.mark.parametrize("part", ["rank", "value"])
def test_fast_width_reader_checks_bytes_at_thousand_block_edges(rank, part):
    # one byte changed in the row of rank, inside a long run; 12288 is the
    # last row of the run's third checked piece, a row the end search never reads
    runs = ((1.0, 1), (0.5, 20000), (0.25, 3))
    data = _csv_text(runs).encode()
    assert widths.parse_csv_runs(data) == runs
    row = b"\n%d,0.5\n" % rank
    assert data.count(row) == 1
    at = data.index(row) + (len(b"%d" % rank) if part == "rank" else len(row) - 2)
    changed = data[:at] + (b"7" if data[at:at + 1] != b"7" else b"8") + data[at + 1:]
    assert len(changed) == len(data) and changed != data
    assert widths.parse_csv_runs(changed) is None


def test_spectrum_csv_is_written_in_bounded_pieces(tmp_path, capsys):
    # The 5.5 MiB file of 200001 rows goes out at most _PIECE_ROWS rows at a
    # time; building the whole text first took an 11 MiB peak.
    path = tmp_path / "spectrum.csv"
    argv = ("widths", "spectrum", "--family", "fs:gamma=3,xi=0", "--d", "2", "--nmax", "200000",
            "--out", str(path))
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and path.stat().st_size > 5 * 2**20
    assert peak < 2 * 2**20


def test_spectrum_writer_cases_cover_their_edges():
    assert WRITER_TABLES["identity"].runs == ((1.0, 301),)
    assert 0 < min(v for v, _ in WRITER_TABLES["exp-near-1e-300"].runs) < 1e-300
    assert min(v for v, _ in WRITER_TABLES["exp-subnormal"].runs) < 2.2250738585072014e-308
    truncated = WRITER_TABLES["table-truncated-at-rank"]
    assert truncated.size < TRUNCATED_N_MAX
    assert len(WRITER_TABLES["single-run"].runs) == 1


def test_identity_spectrum_csv(capsys):
    code, out, err = run_cli(capsys, "widths", "spectrum", "--family", "id", "--d", "2",
                             "--nmax", "300")
    assert code == 0 and "warning" in err
    _assert_same_lines(out, _per_row_csv(WRITER_TABLES["identity"]))


def _hex_runs(runs):
    # Bit-level identity of the values: == would not tell -0.0 from 0.0.
    return [(value.hex(), count) for value, count in runs]


def test_spectrum_csv_reads_back_bit_identical(tmp_path, monkeypatch):
    for table in (l2_width_table(exp_analytic(0.5, 0.7), 3, 20000),
                  WRITER_TABLES["exp-subnormal"]):
        text = _csv_text(table.runs)
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        expected = _hex_runs(table.runs)
        assert _hex_runs(table_from_csv(path.read_bytes()).runs) == expected
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert _hex_runs(table_from_csv(_input_bytes("-")).runs) == expected


READER_TABLES = {**WRITER_TABLES, "exp-d3": l2_width_table(exp_analytic(0.5, 0.7), 3, 20000)}


@pytest.mark.parametrize("name", sorted(READER_TABLES))
def test_width_csv_fast_path_matches_loadtxt(name):
    runs = READER_TABLES[name].runs
    data = _csv_text(runs).encode()
    fast = widths.parse_csv_runs(data)
    assert fast is not None
    assert _hex_runs(fast) == _hex_runs(_loadtxt_runs(data)) == _hex_runs(runs)


@pytest.mark.parametrize("old, new", [("\n5000,0.5\n", "\n5001,0.5\n"),
                                      ("\n5000,0.5\n", "\n5000,0.6\n")])
def test_fast_width_reader_checks_every_row(old, new):
    # one altered row inside a long run, where neither the end search nor
    # the first row looks
    data = _csv_text(((1.0, 1), (0.5, 9999), (0.25, 3))).encode()
    assert widths.parse_csv_runs(data) == ((1.0, 1), (0.5, 9999), (0.25, 3))
    assert data.count(old.encode()) == 1
    assert widths.parse_csv_runs(data.replace(old.encode(), new.encode())) is None


CANONICAL_CSV = "n,d_n\n0,1\n1,0.5\n2,0.5\n3,0.25\n"


@pytest.mark.parametrize("text", [
    CANONICAL_CSV.replace("2,0.5", "2,0.50"),      # a value not written as %.17g
    CANONICAL_CSV.replace("1,0.5", "1, 0.5"),      # a space after the comma
    CANONICAL_CSV.replace("2,0.5\n", "2,0.5\n\n"),  # a blank line
    CANONICAL_CSV.replace("\n", "\r\n"),          # CRLF line ends
    CANONICAL_CSV[:-1],                           # no final newline
], ids=["0.50", "space", "blank-line", "crlf", "no-final-newline"])
def test_noncanonical_width_csv_takes_the_fallback(tmp_path, text):
    data = text.encode()
    assert widths.parse_csv_runs(data) is None
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    expected = widths.parse_csv_runs(CANONICAL_CSV.encode())
    assert expected == ((1.0, 1), (0.5, 2), (0.25, 1))
    assert _hex_runs(table_from_csv(path.read_bytes()).runs) == _hex_runs(expected)


@pytest.mark.parametrize("body", [
    "0,0.5\n1,nan\n2,nan\n",    # the writer's own text for NaN: read on the fast path
    "0,0.5\n1,NaN\n2,0.25\n",   # read by loadtxt
], ids=["writer-nan", "loadtxt-nan"])
def test_widths_fit_refuses_nan(tmp_path, capsys, body):
    path = tmp_path / "table.csv"
    path.write_text("n,d_n\n" + body, encoding="utf-8")
    code, out, err = run_cli(capsys, "widths", "fit", str(path), "--N", "0", "--nmax", "30")
    assert code == 2 and out == ""
    assert err.startswith("error: width value at row 1 is NaN")


@pytest.mark.parametrize("argv", [
    ["dims", "--d", "1", "--lmax", "3"],
    ["seq", "--d", "1", "--family", "fs:gamma=3,xi=0", "--N", "3", "--eps", "0.5"],
    ["widths", "spectrum", "--d", "1", "--family", "fs:gamma=3", "--nmax", "100"],
    ["widths", "bounds", "--theorem", "T6.2-upper", "--d", "1", "--gamma", "3", "--nmax", "100"],
    ["widths", "bounds", "--theorem", "T6.4", "--d", "0", "--gamma", "3", "--r", "1",
     "--nmax", "100"],
    ["widths", "fit", None, "--model", "stretched", "--d", "1", "--nmax", "20000"],
], ids=["dims", "seq", "widths-spectrum", "widths-bounds", "widths-bounds-d0", "widths-fit"])
def test_complex_dimension_below_2_exits_2(tmp_path, capsys, argv):
    argv = [_writer_csv(tmp_path) if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: complex dimension d must be >= 2, got ")


@pytest.mark.parametrize("argv", [
    ["widths", "fit", None, "--model", "stretched", "--r", "nan", "--nmax", "20000"],
    ["widths", "bounds", "--theorem", "T6.2-upper", "--d", "2", "--gamma", "3", "--xi", "nan",
     "--nmax", "100"],
    ["widths", "bounds", "--theorem", "T6.2-upper", "--d", "2", "--gamma", "inf", "--nmax", "100"],
    ["widths", "bounds", "--theorem", "T6.4", "--d", "2", "--gamma", "1", "--r=-inf",
     "--nmax", "100"],
], ids=["fit-r-nan", "bounds-xi-nan", "bounds-gamma-inf", "bounds-r-minus-inf"])
def test_non_finite_widths_parameters_exit_2_at_parse_time(tmp_path, capsys, argv):
    argv = [_writer_csv(tmp_path) if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: argument --" in err and "not a finite number" in err


def test_levy_star_grading_exits_2(capsys):
    # the max-graded window weighted by the star-graded lambda(m+n) once
    # printed a lower bound above its own exact Parseval value
    code, out, err = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "3", "--family",
                             "fs:gamma=3,xi=0", "--p", "2", "--omega-samples", "0", "--grading",
                             "star", "--sphere-samples", "2000")
    assert code == 2 and out == ""
    assert err.startswith("error: Levy windows are max-graded") and "'star'" in err


def test_widths_fit_refuses_more_coefficients_than_plateaus(tmp_path, capsys):
    # ranks 10 .. 29 hold the plateaus starting at 10 and 20: two points
    path = tmp_path / "table.csv"
    path.write_text(_csv_text(((1.0, 10), (0.5, 10), (0.25, 10))))
    argv = ("widths", "fit", str(path), "--N", "10", "--nmax", "29")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["slope"] == pytest.approx(-1.0, abs=1e-12)
    code, out, err = run_cli(capsys, *argv, "--model", "power-log")
    assert code == 2 and out == ""
    assert "covers 2 plateau(s), fewer than the model's 3 coefficients" in err


@pytest.mark.parametrize("body, reason", [
    ("0,0.5\n1,abc\n", "could not convert string 'abc'"),    # a non-numeric value
    ("0,0.5\n1,0.25,3\n", "requires 2 columns but 3"),       # a three-column row
    ("0,0.5\n2,0.25\n", "contiguous from 0, got 2 at row 1"),  # a gap in the ranks
    ("", "no data rows"),                                   # a header-only file
    ("0,0.5\n1.5,0.25\n", "could not convert string '1.5'"),  # a non-integer rank
])
def test_widths_fit_rejects_malformed_csv(tmp_path, capsys, body, reason):
    path = tmp_path / "table.csv"
    path.write_text("n,d_n\n" + body, encoding="utf-8")
    code, out, err = run_cli(capsys, "widths", "fit", str(path), "--N", "0", "--nmax", "30")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize("head", [
    b"n,d\xffn\n0,1\n",                                                # in the header
    b"n,d_n\n" + b"".join(b"%d,%r\n" % (n, 1 / (n + 1)) for n in range(2000)),  # past 8 KiB
], ids=["header", "past-first-chunk"])
def test_widths_fit_of_a_csv_that_is_not_utf8_exits_2(tmp_path, capsys, head):
    path = tmp_path / "table.csv"
    path.write_bytes(head + b"\xff\n")
    code, out, err = run_cli(capsys, "widths", "fit", str(path), "--N", "0", "--nmax", "30")
    assert code == 2 and out == ""
    assert err.startswith("error: malformed width CSV: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_seq_slow_family_and_overflow_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "fs:gamma=0.5,xi=0", "--d", "2",
                           "--N", "3", "--eps", "0.5")
    assert code == 0
    assert len(json.loads(out)["Nk"]) == 20
    for family, d in (("fs:gamma=0.01,xi=0", "2"), ("fs:gamma=0.2,xi=0", "4")):
        code, out, err = run_cli(capsys, "seq", "--family", family, "--d", d,
                                 "--N", "3", "--eps", "0.5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "finite_smooth" in err


def test_spectrum_underflow_exits_2_naming_its_cause(capsys):
    code, out, err = run_cli(capsys, "widths", "spectrum", "--family", "exp:gamma=70,r=1",
                             "--d", "2", "--nmax", "1331")
    assert code == 2 and out == ""
    assert err.startswith("error: lambda underflows to 0.0 at level 11 ")
    assert err.rstrip().endswith("the largest n_max it can tabulate is 1330")
    code, out, err = run_cli(capsys, "widths", "compare-gradings", "--family",
                             "exp:gamma=70,r=1", "--d", "2", "--nmax", "1000000")
    assert code == 2 and "underflows to 0.0 at level 11" in err


def test_project_reproducing_property(capsys):
    code, out, _ = run_cli(capsys, "project", "--d", "2", "--m", "1", "--n", "1",
                           "--j", "1", "--samples", "20000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    estimate = complex(doc["estimate_re"], doc["estimate_im"])
    expected = complex(doc["expected_re"], doc["expected_im"])
    assert abs(estimate - expected) < 4 * doc["stderr"]


def _child_env():
    """Environment in which a child process imports the same package as this one."""
    src = os.path.dirname(os.path.dirname(cspherelab.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_cli_deterministic_across_processes():
    env = _child_env()
    cmd = [sys.executable, "-m", "cspherelab.cli", "levy", "--d", "2", "--N", "0",
           "--lmax", "1", "--family", "exp:gamma=1,r=1", "--p", "4",
           "--sphere-samples", "100", "--omega-samples", "2000", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout


# Runs the command in argv in this process (with no argv, only imports cli),
# then prints the numpy submodules that were imported, the package modules
# whose code has run and every module imported. The "numpy" entry itself is
# no evidence: it is a deferred stub until numpy's initialisation runs, which
# imports its submodules. Likewise a package module registered through
# _lazy that nothing has used yet is not of type types.ModuleType; type()
# does not run it, as vars() or any attribute access would.
_PROBE = """
import contextlib, io, json, sys, types
from cspherelab import cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy.")),
                  sorted(name[len("cspherelab."):] for name, module in sys.modules.items()
                         if name.startswith("cspherelab.") and type(module) is types.ModuleType),
                  sorted(sys.modules)]))
"""


def _loaded_after(argv):
    """(exit code, numpy submodules imported, package modules run, modules imported) of one command."""
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          text=True, check=True, env=_child_env())
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv", [
    ["basis", "--d", "2", "--m", "2", "--n", "1"],
    ["dims", "--d", "3", "--lmax", "20"],
    ["dims", "--d", "3", "--lmax", "20", "--format", "json"],
    ["seq", "--d", "2", "--family", "fs:gamma=3", "--N", "2", "--eps", "0.5"],
    ["check", "dim-bounds", "--d", "3", "--lmax", "10", "--tol", "1"],
    ["widths", "bounds", "--theorem", "T6.2-upper", "--d", "2", "--gamma", "3", "--nmax", "100"],
    ["widths", "spectrum", "--d", "2", "--family", "fs:gamma=3", "--nmax", "200"],
    ["widths", "spectrum", "--d", "2", "--family", "fs:gamma=3", "--nmax", "200",
     "--format", "json"],
], ids=["basis", "dims-csv", "dims-json", "seq", "check-dim-bounds", "widths-bounds",
        "spectrum-csv", "spectrum-json"])
def test_exact_commands_never_load_numpy(argv):
    code, loaded, *_ = _loaded_after(argv)
    assert code == 0
    assert loaded == []


def _writer_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    table = l2_width_table(finite_smooth(3, 0), 2, 20000)
    path.write_text(_csv_text(table.runs), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("model", ["power", "power-log", "stretched"])
def test_widths_fit_of_a_writer_csv_never_loads_numpy(tmp_path, model):
    code, loaded, *_ = _loaded_after(["widths", "fit", _writer_csv(tmp_path), "--model", model,
                                     "--nmax", "20000"])
    assert code == 0
    assert loaded == []


def test_compare_gradings_never_loads_numpy():
    code, loaded, *_ = _loaded_after(["widths", "compare-gradings", "--family", "fs:gamma=3",
                                     "--d", "2", "--nmax", "20000"])
    assert code == 0
    assert loaded == []


def test_numeric_commands_still_load_numpy():
    code, loaded, *_ = _loaded_after(["check", "addition", "--d", "2", "--m", "1", "--n", "1",
                                     "--samples", "50"])
    assert code == 0
    assert "numpy.linalg" in loaded


_PACKAGE_MODULES = {"basis", "dimensions", "levy", "multipliers", "polynomials", "report",
                    "sphere", "widths"}


def test_importing_cli_runs_no_package_module():
    code, _, executed, _ = _loaded_after([])
    assert code == 0
    assert executed == ["_lazy", "cli", "errors"]


@pytest.mark.parametrize("argv, never", [
    (["dims", "--d", "3", "--lmax", "20"], {"basis", "levy", "widths", "sphere", "polynomials"}),
    (["check", "dim-bounds", "--d", "3", "--lmax", "10", "--tol", "1"],
     {"basis", "levy", "widths", "sphere", "polynomials"}),
    (["seq", "--d", "2", "--family", "fs:gamma=3", "--N", "2", "--eps", "0.5"],
     {"basis", "levy"}),
    (["widths", "spectrum", "--d", "2", "--family", "fs:gamma=3", "--nmax", "200"],
     {"basis", "levy"}),
    (["basis", "--d", "2", "--m", "2", "--n", "1"],
     {"levy", "widths", "multipliers", "sphere", "polynomials"}),
    # The numeric commands run basis, dimensions, report and sphere, and
    # levy and multipliers or polynomials; none runs widths.
    (["levy", "--d", "2", "--N", "0", "--lmax", "1", "--family", "fs:gamma=3", "--p", "4",
      "--sphere-samples", "10", "--omega-samples", "1000"], {"widths", "polynomials"}),
    (["check", "nikolskii", "--d", "2", "--N", "0", "--lmax", "1", "--p", "2", "--samples", "10",
      "--omega-samples", "1000"], {"widths", "polynomials"}),
    (["check", "addition", "--d", "2", "--m", "1", "--n", "1", "--samples", "50"],
     {"widths", "levy", "multipliers"}),
    (["check", "gegenbauer", "--d", "2", "--lmax", "2", "--samples", "50"],
     {"widths", "levy", "multipliers"}),
    (["project", "--d", "2", "--m", "1", "--n", "1", "--samples", "100"],
     {"widths", "levy", "multipliers"}),
], ids=["dims", "check-dim-bounds", "seq", "spectrum", "basis", "levy", "check-nikolskii",
        "check-addition", "check-gegenbauer", "project"])
def test_commands_run_only_the_modules_they_use(argv, never):
    code, _, executed, _ = _loaded_after(argv)
    assert code == 0
    assert never <= _PACKAGE_MODULES
    assert not never & set(executed)


@pytest.mark.parametrize("argv", [
    ["dims", "--d", "3", "--lmax", "20"],
    ["basis", "--d", "2", "--m", "2", "--n", "1"],
    ["seq", "--d", "2", "--family", "fs:gamma=3", "--N", "2", "--eps", "0.5"],
    ["check", "dim-bounds", "--d", "3", "--lmax", "10", "--tol", "1"],
    ["widths", "spectrum", "--d", "2", "--family", "fs:gamma=3", "--nmax", "200"],
    ["widths", "bounds", "--theorem", "T6.2-upper", "--d", "2", "--gamma", "3", "--nmax", "100"],
    ["widths", "compare-gradings", "--family", "fs:gamma=3", "--d", "2", "--nmax", "20000"],
    ["widths", "fit", None, "--nmax", "20000"],
], ids=["dims", "basis", "seq", "check-dim-bounds", "widths-spectrum", "widths-bounds",
        "compare-gradings", "widths-fit"])
def test_exact_commands_never_import_dataclasses(tmp_path, argv):
    # dataclasses imports inspect (and with it ast, dis and tokenize), which
    # would cost an exact command more start-up than its own modules.
    argv = [_writer_csv(tmp_path) if arg is None else arg for arg in argv]
    code, _, _, imported = _loaded_after(argv)
    assert code == 0
    assert not {"dataclasses", "inspect"} & set(imported)


def test_tracer_resolves_every_target_in_a_fresh_process(tmp_path):
    # The tracer lists the package's modules in sys.modules right after
    # importing cli and then resolves its targets in them, which runs each
    # deferred module; so every package module must be registered by cli.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    trace = tmp_path / "t.json"
    done = subprocess.run([sys.executable, str(tracer), str(trace), "basis", "--d", "2",
                           "--m", "1", "--n", "1"], capture_output=True, text=True,
                          env=_child_env())
    assert done.returncode == 0, done.stderr
    assert "basis.build_basis" in {span[0] for span in json.loads(trace.read_text())["spans"]}
    done = subprocess.run([sys.executable, str(tracer), str(trace), "widths", "fit",
                           _writer_csv(tmp_path), "--nmax", "20000"], capture_output=True,
                          text=True, env=_child_env())
    assert done.returncode == 0, done.stderr
    assert "widths.fit" in {span[0] for span in json.loads(trace.read_text())["spans"]}
    # polynomials and sphere are first run inside Tracer.install(), and are still wrapped
    done = subprocess.run([sys.executable, str(tracer), str(trace), "check", "gegenbauer",
                           "--d", "2", "--lmax", "2", "--samples", "200"], capture_output=True,
                          text=True, env=_child_env())
    assert done.returncode == 0, done.stderr
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"polynomials.gegenbauer_eval", "polynomials.disk_poly_eval",
            "sphere.sample_points"} <= spans


def test_infinity_p_parses(capsys):
    code, out, _ = run_cli(capsys, "levy", "--d", "2", "--N", "0", "--lmax", "1",
                           "--family", "id", "--p", "inf", "--sphere-samples", "100",
                           "--omega-samples", "2000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "b"
    assert doc["upper"] == "unknown-constant"
    assert math.isfinite(doc["estimate"])