"""Command line interface: every laboratory operation behind one entry point.

Exit codes: 0 success (and, for `check` subcommands, the measured deviation
or violation count is within tolerance); 1 check failure or unwritable
output; 2 argument or usage errors. All randomised subcommands take --seed
(default 0) and echo it, and their output is byte-identical for identical
arguments.

A subcommand is one _DISPATCH entry: its help, the filler that adds its
arguments and its handler. A handler returns its JSON document, which run
writes to --out; a document whose "pass" is false exits 1. A handler that
writes its own output (the CSV formats) returns None.
"""

from __future__ import annotations

import argparse
import math
import sys

from ._lazy import _deferred, numpy as np
from .errors import ArgumentError, HypothesisError, LabError

# Each module runs when a command first uses it (see _lazy). polynomials and
# sphere, which no handler names, are registered too: the tracer wraps
# functions only in the modules that are in sys.modules when it starts.
basis, dimensions, levy, multipliers, polynomials, report, sphere, widths = (
    _deferred(f"{__package__}.{name}") for name in
    ("basis", "dimensions", "levy", "multipliers", "polynomials", "report", "sphere", "widths"))


def _float_or_inf(text):
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _tolerance(text):
    tol = _float_or_inf(text)
    if math.isnan(tol):
        raise argparse.ArgumentTypeError("NaN is not a tolerance: every comparison with it is false")
    return tol


def _seed(text):
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed is a nonnegative integer, got {seed}")
    return seed


def _finite(text):
    value = _float_or_inf(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_common(parser, *names, seed=True):
    if "d" in names:
        parser.add_argument("--d", type=int, required=True, help="complex dimension of the ambient space")
    if "grading" in names:
        parser.add_argument("--grading", choices=("star", "max"), default="max",
                            help="level function on bidegrees: star = m+n, max = max(m,n)")
    if "family" in names:
        parser.add_argument("--family", required=True,
                            help="multiplier family: sobolev:gamma=G | fs:gamma=G,xi=X | exp:gamma=G,r=R | id")
    if seed:
        parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (echoed in the output)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _fill_dims(p):
    _add_common(p, "d", "grading", seed=False)
    p.add_argument("--lmax", type=int, required=True, help="largest level to tabulate")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _fill_basis(p):
    _add_common(p, "d", seed=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)


def _fill_check_addition(c):
    _add_common(c, "d")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--samples", type=int, default=1000, help="random point pairs")
    c.add_argument("--tol", type=_tolerance, default=1e-9)


def _fill_check_gegenbauer(c):
    _add_common(c, "d")
    c.add_argument("--lmax", type=int, required=True, help="largest total degree to check")
    c.add_argument("--samples", type=int, default=1000, help="random point pairs, shared by every degree")
    c.add_argument("--tol", type=_tolerance, default=1e-9)


def _fill_check_nikolskii(c):
    _add_common(c, "d")
    c.add_argument("--N", type=int, required=True, help="window start level (exclusive)")
    c.add_argument("--lmax", type=int, required=True, help="window end level (inclusive)")
    c.add_argument("--p", type=_float_or_inf, default=2.0)
    c.add_argument("--samples", type=int, default=1000, help="random polynomial trials")
    c.add_argument("--omega-samples", type=int, default=4096)
    c.add_argument("--tol", type=_tolerance, default=0.0, help="allowed number of violations")


def _fill_check_dim_bounds(c):
    _add_common(c, "d", seed=False)
    c.add_argument("--lmax", type=int, required=True)
    c.add_argument("--tol", type=_tolerance, default=0.1,
                   help="allowed relative gap of the last ratio to the leading coefficient")


def _fill_levy(p):
    _add_common(p, "d", "grading", "family")
    p.add_argument("--N", type=int, required=True, help="window start level (exclusive)")
    p.add_argument("--lmax", type=int, required=True, help="window end level (inclusive)")
    p.add_argument("--p", type=_float_or_inf, default=2.0)
    p.add_argument("--sphere-samples", type=int, default=1000)
    p.add_argument("--omega-samples", type=int, default=10000,
                   help="inner sphere samples (0 prints the exact Parseval value, p = 2 only)")


def _fill_seq(p):
    _add_common(p, "d", "grading", "family", seed=False)
    p.add_argument("--N", type=int, required=True, help="start level")
    p.add_argument("--eps", type=float, required=True, help="geometric budget parameter")


def _fill_widths_spectrum(c):
    _add_common(c, "d", "grading", "family", seed=False)
    c.add_argument("--nmax", type=int, required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")


def _fill_widths_fit(c):
    c.add_argument("input", help="CSV file with columns n,d_n ('-' for stdin)")
    c.add_argument("--model", choices=("power", "power-log", "stretched"), default="power")
    c.add_argument("--N", type=int, default=1000, help="fit range start rank")
    c.add_argument("--nmax", type=int, required=True, help="fit range end rank")
    c.add_argument("--d", type=int, default=2, help="complex dimension (stretched model)")
    c.add_argument("--r", type=_finite, default=1.0, help="stretch parameter (stretched model)")
    c.add_argument("--out", default=None)


def _fill_widths_bounds(c):
    c.add_argument("--theorem", required=True,
                   help="T3.4a..T3.4i | T6.2-upper | T6.2-lower | T6.3-lower | T6.4 | T6.5-upper | Tstar-R*")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--gamma", type=_finite, default=0.0)
    c.add_argument("--xi", type=_finite, default=0.0)
    c.add_argument("--r", type=_finite, default=0.0)
    c.add_argument("--p", type=_float_or_inf, default=2.0)
    c.add_argument("--q", type=_float_or_inf, default=2.0)
    c.add_argument("--side", choices=("lower", "upper"), default=None,
                   help="bound side for the bracketed smoothness-class cases")
    c.add_argument("--nmax", type=int, required=True, help="width index at which to evaluate")
    c.add_argument("--out", default=None)


def _fill_widths_compare(c):
    _add_common(c, "d", "family", seed=False)
    c.add_argument("--nmax", type=int, required=True)


def _fill_project(p):
    _add_common(p, "d")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=0, help="basis function index")
    p.add_argument("--samples", type=int, default=20000)


def _family_from(args):
    return multipliers.parse_family(args.family, getattr(args, "d", 2), args.grading)


def _cmd_dims(args):
    if args.lmax < 0:
        raise ArgumentError(f"need --lmax >= 0, got {args.lmax}")
    rows = []
    for l in range(args.lmax + 1):
        summary = dimensions.layer(args.d, l, args.grading)
        rows.append((summary.l, summary.a_l, summary.d_l, summary.cum_dim))
    if args.format == "csv":
        report.write_output(report.csv_lines(("l", "a_l", "d_l", "cum_dim"), rows), args.out)
        return None
    return {"d": args.d, "grading": args.grading,
            "layers": [{"l": r[0], "a_l": r[1], "d_l": r[2], "cum_dim": r[3]} for r in rows]}


def _cmd_basis(args):
    built = basis.build_basis(args.d, args.m, args.n)
    vectors = []
    for vec in built.vectors:
        terms = [{"alpha": list(a), "beta": list(b),
                  "numerator": c.numerator, "denominator": c.denominator}
                 for (a, b), c in sorted(vec.terms.items())]
        vectors.append(terms)
    return {"d": built.d, "m": built.m, "n": built.n,
            "vectors": vectors, "sq_norms": list(built.sq_norms)}


def _cmd_check_addition(args):
    deviation = basis.verify_addition(args.d, args.m, args.n, args.samples, args.seed)
    return {"check": "addition", "d": args.d, "m": args.m, "n": args.n,
            "samples": args.samples, "seed": args.seed,
            "deviation": deviation, "tol": args.tol, "pass": deviation <= args.tol}


def _cmd_check_gegenbauer(args):
    worst = basis.verify_gegenbauer(args.d, args.lmax, args.samples, args.seed)
    return {"check": "gegenbauer", "d": args.d, "k_max": args.lmax,
            "samples": args.samples, "seed": args.seed,
            "deviation": worst, "tol": args.tol, "pass": worst <= args.tol}


def _cmd_check_nikolskii(args):
    rep = levy.nikolskii_check(args.d, args.N, args.lmax, args.p, args.samples, args.seed,
                               omega_samples=args.omega_samples)
    violations = rep["violations_sup"] + (rep["violations_p_vs_2"] or 0)
    return {"check": "nikolskii", "seed": args.seed, **rep, "tol": args.tol,
            "pass": violations <= args.tol}


def _cmd_check_dim_bounds(args):
    rep = dimensions.check_dim_bounds(args.d, 1, args.lmax)
    rel_gap = abs(rep["ratio_last"] / rep["leading_coefficient"] - 1.0)
    ok = rel_gap <= args.tol
    bidegree = rep["bidegree_bound"]
    if "lower_bound_holds" in bidegree:
        ok = ok and bidegree["lower_bound_holds"]
    return {"check": "dim-bounds", "d": args.d, "l_range": rep["l_range"],
            "leading_coefficient": rep["leading_coefficient"],
            "ratio_first": rep["ratio_first"], "ratio_last": rep["ratio_last"],
            "relative_gap": rel_gap, "C1": rep["C1"], "C2": rep["C2"],
            "bidegree_bound": bidegree, "tol": args.tol, "pass": ok}


def _cmd_levy(args):
    fam = _family_from(args)
    problem = levy.LevyProblem(args.d, args.N, args.lmax, fam, args.p)
    estimate = levy.levy_mean_mc(problem, args.sphere_samples, args.omega_samples, args.seed)
    bounds = levy.levy_bounds(problem)
    doc = {
        "estimate": estimate.value,
        "stderr": estimate.stderr,
        "stderr_outer": estimate.stderr_outer,
        "stderr_cloud": estimate.stderr_cloud,
        "lower": bounds.lower,
        "upper": bounds.upper if bounds.upper_known else "unknown-constant",
        "case": bounds.case,
        "empirical_C": estimate.value / bounds.upper if bounds.upper > 0 else None,
        "structural_upper_factor": None if bounds.upper_known else bounds.upper,
        "inconsistent": bounds.inconsistent,
        "monotone": bounds.monotone,
        "family": fam.describe(),
        "grading": fam.grading,
        "p": args.p,
        "window": [args.N, args.lmax],
        "sphere_samples": estimate.sphere_samples,
        "omega_samples": estimate.omega_samples,
        "seed": args.seed,
    }
    if args.p == 2:
        doc["parseval"] = levy.levy_mean_parseval(problem)
    return doc


def _cmd_seq(args):
    fam = _family_from(args)
    plan = multipliers.plan_beta(fam, args.d, args.N, args.eps)
    return {
        "family": fam.describe(), "grading": fam.grading, "d": args.d,
        "N": plan.N, "eps": plan.eps, "Nk": list(plan.Nk), "M": plan.M,
        "mk": list(plan.mk), "beta": plan.beta, "theta12": plan.theta12,
        "kclass_ratio": {("%g" % p): v for p, v in plan.kclass_ratio.items()},
        "plateau": plan.plateau,
    }


def _cmd_widths_spectrum(args):
    fam = _family_from(args)
    table = widths.l2_width_table(fam, args.d, args.nmax)
    if args.format == "json":
        return {"family": fam.describe(), "grading": fam.grading, "d": args.d,
                "n_max": args.nmax, "warning": table.warning or None,
                "runs": [[v, c] for v, c in table.runs]}
    if table.warning:
        print(f"warning: {table.warning}", file=sys.stderr)
    with report.open_output(args.out) as handle:
        for piece in widths.csv_runs(table.runs):
            report.write_output(piece, handle)
    return None


def _input_bytes(path):
    """The whole of a file, or of stdin for '-', as bytes."""
    if path != "-":
        with open(path, "rb") as handle:
            return handle.read()
    stdin = getattr(sys.stdin, "buffer", None)
    return stdin.read() if stdin is not None else sys.stdin.read().encode("utf-8")


def _cmd_widths_fit(args):
    table = widths.table_from_csv(_input_bytes(args.input))
    if args.model == "stretched":
        fit = widths.fit_stretched(table, args.d, args.r, args.N, args.nmax)
    else:
        fit = widths.fit_power(table, args.N, args.nmax, with_log_factor=args.model == "power-log")
    doc = {"model": fit.model, "slope": fit.slope, "intercept": fit.intercept,
           "residual": fit.residual_rms, "points": fit.points,
           "range": [fit.n_lo, fit.n_hi]}
    if fit.loglog_coeff is not None:
        doc["loglog_coeff"] = fit.loglog_coeff
    if fit.stretch_exponent is not None:
        doc["stretch_exponent"] = fit.stretch_exponent
    return doc


def _cmd_widths_bounds(args):
    spec = widths.BoundSpec(theorem=args.theorem, d=args.d, gamma=args.gamma, xi=args.xi,
                            r=args.r, p=args.p, q=args.q, side=args.side or "")
    return {"theorem": args.theorem, "d": args.d, "gamma": args.gamma, "xi": args.xi,
            "r": args.r, "p": args.p, "q": args.q, "side": args.side,
            "m": args.nmax, "value": widths.bound_eval(spec, args.nmax)}


def _cmd_widths_compare(args):
    return widths.grading_compare(multipliers.parse_family(args.family, args.d, "max"), args.d, args.nmax)


def _cmd_project(args):
    pole = np.zeros(args.d, dtype=complex)
    pole[-1] = 1.0
    # project_mc refuses before its first call of f, so the basis is built after the refusal
    f = lambda pts: basis.build_basis(args.d, args.m, args.n).eval_orthonormal(pts, args.j)  # noqa: E731
    estimate, stderr = basis.project_mc(f, args.d, args.m, args.n, pole, args.samples, args.seed)
    expected = complex(f(pole))
    z_score = abs(estimate - expected) / stderr if stderr > 0 else 0.0
    return {"d": args.d, "m": args.m, "n": args.n, "j": args.j,
            "pole": "e_d", "samples": args.samples, "seed": args.seed,
            "estimate_re": estimate.real, "estimate_im": estimate.imag,
            "expected_re": expected.real, "expected_im": expected.imag,
            "stderr": stderr, "z_score": z_score}


# Every subcommand, in the order of --help: (command, subcommand) -> (help,
# filler, handler), with subcommand None for a command without subcommands.
# A filler adds the subcommand's arguments. The commands with subcommands
# (the groups) take their help from _GROUP_HELP, and their subcommand is read
# into the dest "<command>_command".
_DISPATCH = {
    ("dims", None): ("layer dimension table for one grading", _fill_dims, _cmd_dims),
    ("basis", None): ("exact orthogonal harmonic basis of one bidegree, as JSON", _fill_basis, _cmd_basis),
    ("check", "addition"): ("reproducing-kernel identity of one bidegree space",
                            _fill_check_addition, _cmd_check_addition),
    ("check", "gegenbauer"): ("real-sphere zonal vs sum of complex zonals, degrees 0..lmax",
                              _fill_check_gegenbauer, _cmd_check_gegenbauer),
    ("check", "nikolskii"): ("norm comparison inequalities on random polynomials",
                             _fill_check_nikolskii, _cmd_check_nikolskii),
    ("check", "dim-bounds"): ("two-sided layer-dimension bound slack",
                              _fill_check_dim_bounds, _cmd_check_dim_bounds),
    ("levy", None): ("Levy mean of a weighted norm on a coefficient sphere", _fill_levy, _cmd_levy),
    ("seq", None): ("level sequence and rank budget for a multiplier family", _fill_seq, _cmd_seq),
    ("widths", "spectrum"): ("exact Hilbert-space width table as CSV",
                             _fill_widths_spectrum, _cmd_widths_spectrum),
    ("widths", "fit"): ("fit a decay law to a width table CSV", _fill_widths_fit, _cmd_widths_fit),
    ("widths", "bounds"): ("structural bound factor of one theorem", _fill_widths_bounds, _cmd_widths_bounds),
    ("widths", "compare-gradings"): ("fit the same multiplier under both gradings and compare",
                                     _fill_widths_compare, _cmd_widths_compare),
    ("project", None): ("reproducing-property projection of a basis function", _fill_project, _cmd_project),
}

_GROUP_HELP = {
    "check": "verification commands (exit 0 iff within --tol)",
    "widths": "width tables, rate fits, bound factors",
}


def _add_commands(sub, argv, group=None):
    """Register the subcommands of group (None: the commands) on sub, filling the one argv[0] names.

    A name that is not argv[0] keeps its help in the list, but its own
    parser stays empty; if argv[0] names no subcommand, all are filled.
    """
    level = {}  # name -> (help, filler), or (help, None) for a group
    for (command, name), (help_text, fill, _) in _DISPATCH.items():
        if group is None:
            level.setdefault(command, (_GROUP_HELP[command], None) if name else (help_text, fill))
        elif command == group:
            level[name] = (help_text, fill)
    chosen = argv[0] if argv and argv[0] in level else None
    for name, (help_text, fill) in level.items():
        p = sub.add_parser(name, help=help_text)
        if chosen is not None and name != chosen:
            continue
        if fill is None:
            _add_commands(p.add_subparsers(dest=f"{name}_command", required=True), argv[1:], name)
        else:
            fill(p)


def build_parser(argv=None):
    """The command line parser; with argv, only the subcommand it names gets its arguments.

    Filling one subcommand's parser instead of all thirteen saves most of
    the parser's build time on every command. Help, usage and error text
    are those of the whole parser, which argv None (or an argv that names
    no subcommand first, such as -h) builds.
    """
    parser = argparse.ArgumentParser(
        prog="cspherelab",
        description="Laboratory for harmonic analysis and approximation widths on complex spheres.")
    _add_commands(parser.add_subparsers(dest="command", required=True), argv or ())
    return parser


def run(argv=None):
    """Parse argv, run its handler, write the handler's document to --out; the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    handler = _DISPATCH[(args.command, getattr(args, f"{args.command}_command", None))][2]
    try:
        doc = handler(args)
        if doc is not None:
            report.write_output(report.dumps(doc), args.out)
    except (ArgumentError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if doc is None or doc.get("pass", True) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
