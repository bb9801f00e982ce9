"""Tests of the benchmark itself: op lines, names, tracer targets and checks."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from cspherelab import cli

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _op(name):
    return next(op for w in workloads.WORKLOADS for op in workloads.all_ops(w) if op.name == name)


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_op_line_parses(workload):
    parser = cli.build_parser()
    for op, argv in workloads.schedule(workload, seed=3):
        args = parser.parse_args(argv)
        sub = getattr(args, "check_command", None) or getattr(args, "widths_command", None)
        assert (args.command, sub) in cli._DISPATCH, op.name


def test_schedule_is_a_function_of_the_seed():
    assert workloads.schedule("levy-mc", 5) == workloads.schedule("levy-mc", 5)
    assert workloads.schedule("levy-mc", 5) != workloads.schedule("levy-mc", 6)
    for workload in workloads.WORKLOADS:
        names = [op.name for op, _ in workloads.schedule(workload, 7)]
        assert sorted(names) == sorted(op.name for op in workloads.all_ops(workload))


def test_names_match_the_benchmark_file():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert set(run.DETERMINISTIC) <= set(run.PER_LAYER)


def test_every_op_has_a_golden():
    golden = checks.load_golden()
    for workload in workloads.WORKLOADS:
        for op in workloads.all_ops(workload):
            assert op.name in golden
            assert op.check in checks.CHECKERS


def test_tracer_targets_exist():
    assert len(tracer.resolve_targets()) == len(tracer.TARGETS)


def test_checker_rejects_a_golden_with_one_altered_digit():
    op = _op("dims-d3")
    golden = checks.load_golden()[op.name]
    data = _cli_stdout(list(op.argv))
    assert checks.check(op, list(op.argv), 0, data, golden) is None
    altered = data.replace(b"1", b"2", 1)
    assert checks.check(op, list(op.argv), 0, altered, golden) is not None

    op = _op("fit-fs3-d2")
    ref = checks.load_golden()[op.name]
    doc = dict(ref["doc"])
    text = repr(doc["slope"])
    digit = next(i for i, c in enumerate(text) if c.isdigit() and c != "0")
    doc["slope"] = float(text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:])
    assert checks.check(op, list(op.argv), 0, json.dumps(ref["doc"]).encode(), ref) is None
    assert checks.check(op, list(op.argv), 0, json.dumps(doc).encode(), ref) is not None


def _check_levy_moved_by(stderrs):
    op = _op("levy-d2-p4")
    ref = checks.load_golden()[op.name]
    doc = dict(ref["doc"], seed=11)
    doc["estimate"] += stderrs * doc["stderr"]
    return checks.check(op, list(op.argv) + ["--seed", "11"], 0, json.dumps(doc).encode(), ref)


def test_checker_accepts_levy_estimate_moved_by_under_one_stderr():
    assert _check_levy_moved_by(0.99) is None
    assert _check_levy_moved_by(-0.99) is None
    assert _check_levy_moved_by(8.0) is not None


def test_checker_enforces_the_expected_exit_code():
    op = _op("nikolskii-d2-p4")
    assert op.exit_code == 1
    assert checks.check(op, list(op.argv), 0, b"{}", {"doc": {}}).startswith("exit code 0")


def test_level_rule_rejects_a_shifted_level():
    op = _op("seq-fs1-d2")
    family, d = checks._arg(op.argv, "--family"), int(checks._arg(op.argv, "--d"))
    levels = json.loads(_cli_stdout(list(op.argv)))["Nk"]
    assert checks.level_rule_error(family, d, levels) is None
    for k in range(1, len(levels)):
        for step in (-1, 1):
            shifted = levels[:k] + [levels[k] + step] + levels[k + 1:]
            assert checks.level_rule_error(family, d, shifted) is not None


def test_summarize_derives_self_times():
    doc = {"import_s": 0.2, "counts": {"x.calls": 3}, "spans": [
        ["cli.run", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 6.0, 7.0, 0],
    ]}
    got = tracer.summarize(doc)
    assert got["x.calls"] == 3 and got["cli.import_s"] == 0.2
    assert math.isclose(got["cli.run.self_s"], 5.0)
    assert math.isclose(got["a.s"], 5.0) and math.isclose(got["a.self_s"], 4.0)
    assert math.isclose(got["b.self_s"], 1.0)
