"""Output checks for the benchmark's ops, against goldens stored beside them.

Exact ops must match their golden byte for byte (by SHA-256). Monte Carlo
ops are checked against references that survive a declared change of
random streams: a `levy` estimate must lie within a few reported standard
errors of the captured one, p = 2 must agree with its own Parseval value,
verification commands must report a pass, and a projection must have a
small z-score. Outputs may gain fields; golden fields may not change.

Every checker returns None for an accepted output, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Allowed distance between two Monte Carlo values, in combined reported
# standard errors.
Z_MAX = 5.0
# Relative tolerance for deterministic floats that pass through BLAS or
# LAPACK, whose summation order may change between builds.
REL_TOL = 1e-9

# Fields of a Monte Carlo output that change with --seed.
_SEEDED_FIELDS = {
    "levy": {"estimate", "stderr", "empirical_C", "seed"},
    "parseval": {"estimate", "stderr", "empirical_C", "seed"},
    "nikolskii": {"seed", "violations_sup", "worst_ratio_sup", "violations_p_vs_2",
                  "worst_ratio_p_vs_2"},
    "pass": {"seed", "deviation"},
    "project": {"seed", "estimate_re", "estimate_im", "stderr", "z_score"},
}


def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
            or not isinstance(b, (int, float)):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _same_fields(doc, ref, skip=()):
    """Reason the golden fields of ref (less skip) differ in doc, else None."""
    for key, want in ref.items():
        if key in skip:
            continue
        if key not in doc:
            return f"field {key!r} is missing"
        got = doc[key]
        if isinstance(want, dict) and isinstance(got, dict):
            reason = _same_fields(got, want)
            if reason:
                return f"{key}: {reason}"
        elif isinstance(want, list) and isinstance(got, list):
            if len(want) != len(got) or not all(_close(g, w) for g, w in zip(got, want)):
                return f"field {key!r} is {got!r}, golden {want!r}"
        elif not _close(got, want):
            return f"field {key!r} is {got!r}, golden {want!r}"
    return None


def _seed_of(argv):
    return int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check_exact(op, argv, data, golden):
    if digest(data) != golden["sha256"]:
        return f"output differs from golden ({len(data)} bytes, golden {golden['bytes']} bytes)"
    return None


def check_close(op, argv, data, golden):
    return _same_fields(json.loads(data), golden["doc"])


def _lambda(family, d, t):
    """The multiplier at level t, computed independently of the program."""
    name, _, argstr = family.partition(":")
    args = {k: float(v) for k, _, v in (p.partition("=") for p in argstr.split(",") if p)}
    if name == "fs":
        return t ** (-args["gamma"]) * math.log(t) ** (-args.get("xi", 0.0)) if t > 1 else 0.0
    if name == "exp":
        return math.exp(-args["gamma"] * t ** args["r"])
    if name == "sobolev":
        return (t * (t + 2 * d - 2)) ** (-args["gamma"] / 2.0) if t > 0 else 0.0
    raise ValueError(f"no reference multiplier for family {family!r}")


def level_rule_error(family, d, levels):
    """Reason a level sequence breaks e*l(N+) <= l(N) < e*l(N+ - 1), else None."""
    slack = 1.0 + 1e-12
    for cur, nxt in zip(levels, levels[1:]):
        lam = _lambda(family, d, cur)
        if not math.e * _lambda(family, d, nxt) <= lam * slack:
            return f"level {nxt} does not drop the multiplier of level {cur} by a factor e"
        if not lam < math.e * _lambda(family, d, nxt - 1) * slack:
            return f"level {nxt - 1} already drops the multiplier of level {cur} by a factor e"
    return None


def check_seq(op, argv, data, golden):
    """Exact output whose level sequence obeys the defining rule."""
    return check_exact(op, argv, data, golden) or level_rule_error(
        _arg(argv, "--family"), int(_arg(argv, "--d")), json.loads(data)["Nk"])


def _seeded_doc(op, argv, data, golden):
    """Parsed output after the seed-independent comparison, or a reason string."""
    doc = json.loads(data)
    reason = _same_fields(doc, golden["doc"], skip=_SEEDED_FIELDS[op.check])
    if reason:
        return reason
    if doc.get("seed") != _seed_of(argv):
        return f"seed echoed as {doc.get('seed')!r}, passed {_seed_of(argv)}"
    return doc


def check_levy(op, argv, data, golden):
    doc = _seeded_doc(op, argv, data, golden)
    if isinstance(doc, str):
        return doc
    ref = golden["doc"]
    spread = math.hypot(doc["stderr"], ref["stderr"])
    if not abs(doc["estimate"] - ref["estimate"]) <= Z_MAX * spread:
        return (f"estimate {doc['estimate']!r} is more than {Z_MAX} stderrs from"
                f" golden {ref['estimate']!r} (combined stderr {spread!r})")
    return None


def check_parseval(op, argv, data, golden):
    doc = _seeded_doc(op, argv, data, golden)
    if isinstance(doc, str):
        return doc
    if not abs(doc["estimate"] - doc["parseval"]) <= Z_MAX * doc["stderr"]:
        return (f"estimate {doc['estimate']!r} is more than {Z_MAX} stderrs from"
                f" its Parseval value {doc['parseval']!r}")
    return None


def check_nikolskii(op, argv, data, golden):
    doc = _seeded_doc(op, argv, data, golden)
    if isinstance(doc, str):
        return doc
    if doc["pass"] is not (op.exit_code == 0):
        return f"pass is {doc['pass']!r} but the expected exit code is {op.exit_code}"
    return None


def check_pass(op, argv, data, golden):
    doc = _seeded_doc(op, argv, data, golden)
    if isinstance(doc, str):
        return doc
    if not (doc["pass"] is True and doc["deviation"] <= doc["tol"]):
        return f"check failed: deviation {doc['deviation']!r} above tol {doc['tol']!r}"
    return None


def check_project(op, argv, data, golden):
    doc = _seeded_doc(op, argv, data, golden)
    if isinstance(doc, str):
        return doc
    if not doc["z_score"] <= Z_MAX:
        return f"z_score {doc['z_score']!r} above {Z_MAX}"
    return None


CHECKERS = {
    "exact": check_exact,
    "close": check_close,
    "seq": check_seq,
    "levy": check_levy,
    "parseval": check_parseval,
    "nikolskii": check_nikolskii,
    "pass": check_pass,
    "project": check_project,
}


def check(op, argv, exit_code, data, golden):
    """Judge one op's exit code and output against its golden record."""
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    try:
        return CHECKERS[op.check](op, argv, data, golden)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
