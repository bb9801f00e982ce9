"""Command line interface: every laboratory operation behind one entry point.

Exit codes: 0 success (and, for `check` subcommands, the measured deviation
or violation count is within tolerance); 1 check failure or unwritable
output; 2 argument or usage errors. All randomised subcommands take --seed
(default 0) and echo it, and their output is byte-identical for identical
arguments.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import warnings

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
        parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in the output)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cspherelab",
        description="Laboratory for harmonic analysis and approximation widths on complex spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="layer dimension table for one grading")
    _add_common(p, "d", "grading", seed=False)
    p.add_argument("--lmax", type=int, required=True, help="largest level to tabulate")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("basis", help="exact orthogonal harmonic basis of one bidegree, as JSON")
    _add_common(p, "d", seed=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check", help="verification commands (exit 0 iff within --tol)")
    check_sub = p.add_subparsers(dest="check_command", required=True)

    c = check_sub.add_parser("addition", help="reproducing-kernel identity of one bidegree space")
    _add_common(c, "d")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--samples", type=int, default=1000, help="random point pairs")
    c.add_argument("--tol", type=float, default=1e-9)

    c = check_sub.add_parser("gegenbauer",
                             help="real-sphere zonal vs sum of complex zonals, degrees 0..lmax")
    _add_common(c, "d")
    c.add_argument("--lmax", type=int, required=True, help="largest total degree to check")
    c.add_argument("--samples", type=int, default=1000, help="random point pairs, shared by every degree")
    c.add_argument("--tol", type=float, default=1e-9)

    c = check_sub.add_parser("nikolskii", help="norm comparison inequalities on random polynomials")
    _add_common(c, "d")
    c.add_argument("--N", type=int, required=True, help="window start level (exclusive)")
    c.add_argument("--lmax", type=int, required=True, help="window end level (inclusive)")
    c.add_argument("--p", type=_float_or_inf, default=2.0)
    c.add_argument("--samples", type=int, default=1000, help="random polynomial trials")
    c.add_argument("--omega-samples", type=int, default=4096)
    c.add_argument("--tol", type=float, default=0.0, help="allowed number of violations")

    c = check_sub.add_parser("dim-bounds", help="two-sided layer-dimension bound slack")
    _add_common(c, "d", seed=False)
    c.add_argument("--lmax", type=int, required=True)
    c.add_argument("--tol", type=float, default=0.1,
                   help="allowed relative gap of the last ratio to the leading coefficient")

    p = sub.add_parser("levy", help="Levy mean of a weighted norm on a coefficient sphere")
    _add_common(p, "d", "grading", "family")
    p.add_argument("--N", type=int, required=True, help="window start level (exclusive)")
    p.add_argument("--lmax", type=int, required=True, help="window end level (inclusive)")
    p.add_argument("--p", type=_float_or_inf, default=2.0)
    p.add_argument("--sphere-samples", type=int, default=1000)
    p.add_argument("--omega-samples", type=int, default=10000,
                   help="inner sphere samples (0 selects the exact path, p = 2 only)")

    p = sub.add_parser("seq", help="level sequence and rank budget for a multiplier family")
    _add_common(p, "d", "grading", "family", seed=False)
    p.add_argument("--N", type=int, required=True, help="start level")
    p.add_argument("--eps", type=float, required=True, help="geometric budget parameter")

    p = sub.add_parser("widths", help="width tables, rate fits, bound factors")
    widths_sub = p.add_subparsers(dest="widths_command", required=True)

    c = widths_sub.add_parser("spectrum", help="exact Hilbert-space width table as CSV")
    _add_common(c, "d", "grading", "family", seed=False)
    c.add_argument("--nmax", type=int, required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")

    c = widths_sub.add_parser("fit", help="fit a decay law to a width table CSV")
    c.add_argument("input", help="CSV file with columns n,d_n ('-' for stdin)")
    c.add_argument("--model", choices=("power", "power-log", "stretched"), default="power")
    c.add_argument("--N", type=int, default=1000, help="fit range start rank")
    c.add_argument("--nmax", type=int, required=True, help="fit range end rank")
    c.add_argument("--d", type=int, default=2, help="complex dimension (stretched model)")
    c.add_argument("--r", type=float, default=1.0, help="stretch parameter (stretched model)")
    c.add_argument("--out", default=None)

    c = widths_sub.add_parser("bounds", help="structural bound factor of one theorem")
    c.add_argument("--theorem", required=True,
                   help="T3.4a..T3.4i | T6.2-upper | T6.2-lower | T6.3-lower | T6.4 | T6.5-upper | Tstar-R*")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--gamma", type=float, default=0.0)
    c.add_argument("--xi", type=float, default=0.0)
    c.add_argument("--r", type=float, default=0.0)
    c.add_argument("--p", type=_float_or_inf, default=2.0)
    c.add_argument("--q", type=_float_or_inf, default=2.0)
    c.add_argument("--side", choices=("lower", "upper"), default=None,
                   help="bound side for the bracketed smoothness-class cases")
    c.add_argument("--nmax", type=int, required=True, help="width index at which to evaluate")
    c.add_argument("--out", default=None)

    c = widths_sub.add_parser("compare-gradings",
                              help="fit the same multiplier under both gradings and compare")
    _add_common(c, "d", "family", seed=False)
    c.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("project", help="reproducing-property projection of a basis function")
    _add_common(p, "d")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=0, help="basis function index")
    p.add_argument("--samples", type=int, default=20000)

    return parser


def _family_from(args):
    return multipliers.parse_family(args.family, getattr(args, "d", 2), args.grading)


def _cmd_dims(args):
    rows = []
    for l in range(args.lmax + 1):
        summary = dimensions.layer(args.d, l, args.grading)
        rows.append((summary.l, summary.a_l, summary.d_l, summary.cum_dim))
    if args.format == "csv":
        report.write_output(report.csv_lines(("l", "a_l", "d_l", "cum_dim"), rows), args.out)
    else:
        doc = {"d": args.d, "grading": args.grading,
               "layers": [{"l": r[0], "a_l": r[1], "d_l": r[2], "cum_dim": r[3]} for r in rows]}
        report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_basis(args):
    built = basis.build_basis(args.d, args.m, args.n)
    vectors = []
    for vec in built.vectors:
        terms = [{"alpha": list(a), "beta": list(b),
                  "numerator": c.numerator, "denominator": c.denominator}
                 for (a, b), c in sorted(vec.terms.items())]
        vectors.append(terms)
    doc = {"d": built.d, "m": built.m, "n": built.n,
           "vectors": vectors, "sq_norms": list(built.sq_norms)}
    report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_check_addition(args):
    deviation = basis.verify_addition(args.d, args.m, args.n, args.samples, args.seed)
    ok = deviation <= args.tol
    doc = {"check": "addition", "d": args.d, "m": args.m, "n": args.n,
           "samples": args.samples, "seed": args.seed,
           "deviation": deviation, "tol": args.tol, "pass": ok}
    report.write_output(report.dumps(doc), args.out)
    return 0 if ok else 1


def _cmd_check_gegenbauer(args):
    worst = basis.verify_gegenbauer(args.d, args.lmax, args.samples, args.seed)
    ok = worst <= args.tol
    doc = {"check": "gegenbauer", "d": args.d, "k_max": args.lmax,
           "samples": args.samples, "seed": args.seed,
           "deviation": worst, "tol": args.tol, "pass": ok}
    report.write_output(report.dumps(doc), args.out)
    return 0 if ok else 1


def _cmd_check_nikolskii(args):
    rep = levy.nikolskii_check(args.d, args.N, args.lmax, args.p, args.samples, args.seed,
                               omega_samples=args.omega_samples)
    violations = rep["violations_sup"] + (rep["violations_p_vs_2"] or 0)
    ok = violations <= args.tol
    doc = {"check": "nikolskii", "seed": args.seed, **rep, "tol": args.tol, "pass": ok}
    report.write_output(report.dumps(doc), args.out)
    return 0 if ok else 1


def _cmd_check_dim_bounds(args):
    rep = dimensions.check_dim_bounds(args.d, 1, args.lmax)
    rel_gap = abs(rep["ratio_last"] / rep["leading_coefficient"] - 1.0)
    ok = rel_gap <= args.tol
    bidegree = rep["bidegree_bound"]
    if "lower_bound_holds" in bidegree:
        ok = ok and bidegree["lower_bound_holds"]
    doc = {"check": "dim-bounds", "d": args.d, "l_range": rep["l_range"],
           "leading_coefficient": rep["leading_coefficient"],
           "ratio_first": rep["ratio_first"], "ratio_last": rep["ratio_last"],
           "relative_gap": rel_gap, "C1": rep["C1"], "C2": rep["C2"],
           "bidegree_bound": bidegree, "tol": args.tol, "pass": ok}
    report.write_output(report.dumps(doc), args.out)
    return 0 if ok else 1


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
    report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_seq(args):
    fam = _family_from(args)
    plan = multipliers.plan_beta(fam, args.d, args.N, args.eps)
    doc = {
        "family": fam.describe(), "grading": fam.grading, "d": args.d,
        "N": plan.N, "eps": plan.eps, "Nk": list(plan.Nk), "M": plan.M,
        "mk": list(plan.mk), "beta": plan.beta, "theta12": plan.theta12,
        "kclass_ratio": {("%g" % p): v for p, v in plan.kclass_ratio.items()},
        "plateau": plan.plateau,
    }
    report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_widths_spectrum(args):
    fam = _family_from(args)
    table = widths.l2_width_table(fam, args.d, args.nmax)
    if args.format == "json":
        doc = {"family": fam.describe(), "grading": fam.grading, "d": args.d,
               "n_max": args.nmax, "warning": table.warning or None,
               "runs": [[v, c] for v, c in table.runs]}
        report.write_output(report.dumps(doc), args.out)
        return 0
    if table.warning:
        print(f"warning: {table.warning}", file=sys.stderr)
    with report.open_output(args.out) as handle:
        for piece in report.csv_runs(("n", "d_n"), table.runs):
            report.write_output(piece, handle)
    return 0


def _input_bytes(path):
    """The whole of a file, or of stdin for '-', as bytes."""
    if path != "-":
        with open(path, "rb") as handle:
            return handle.read()
    stdin = getattr(sys.stdin, "buffer", None)
    return stdin.read() if stdin is not None else sys.stdin.read().encode("utf-8")


def _loadtxt_runs(data):
    """Runs of a width CSV (bytes) in any layout numpy's loadtxt accepts.

    The header must read 'n,d_n' (spaces ignored), blank lines are skipped
    and values are bit-identical to float(). A malformed row, a rank column
    that is not 0, 1, 2, ... or an empty body raises ArgumentError.
    """
    row = np.dtype([("n", np.int64), ("d_n", np.float64)])
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    header = handle.readline().strip()
    if header.replace(" ", "") != "n,d_n":
        raise ArgumentError(f"expected header 'n,d_n', got {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
        try:
            rows = np.loadtxt(handle, delimiter=",", dtype=row, ndmin=1)
        except ValueError as exc:
            reason = str(exc).partition("; use `usecols`")[0]  # numpy's hint names its API
            raise ArgumentError(f"malformed width CSV: {reason}") from exc
    if rows.size == 0:
        raise ArgumentError("width CSV has no data rows")
    gaps = np.flatnonzero(rows["n"] != np.arange(rows.size))
    if gaps.size:
        idx = int(gaps[0])
        raise ArgumentError(
            f"width CSV ranks must be contiguous from 0, got {rows['n'][idx]} at row {idx}")
    return widths.run_lengths(rows["d_n"].tolist())


def _read_width_csv(path):
    """(value, count) runs of the widths d_0, d_1, ... in a CSV with header 'n,d_n'.

    path '-' reads stdin. The input is read once, as bytes, and takes one of
    two paths:

    * a file byte for byte as `widths spectrum` writes it is decoded by
      report.parse_csv_runs, run by run, without numpy and without a float
      per row;
    * any other file (hand-written, CRLF line ends, blank lines, values not
      in %.17g, ...) is parsed by numpy's loadtxt (_loadtxt_runs), which
      decides what such a file may hold and words the errors.

    An empty body raises ArgumentError on either path. The caller validates
    the runs with widths.table_from_runs.
    """
    data = _input_bytes(path)
    runs = report.parse_csv_runs(("n", "d_n"), data)
    if runs is None:
        return _loadtxt_runs(data)
    if not runs:
        raise ArgumentError("width CSV has no data rows")
    return runs


def _cmd_widths_fit(args):
    table = widths.table_from_runs(_read_width_csv(args.input))
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
    report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_widths_bounds(args):
    spec = widths.BoundSpec(theorem=args.theorem, d=args.d, gamma=args.gamma, xi=args.xi,
                            r=args.r, p=args.p, q=args.q, side=args.side or "")
    value = widths.bound_eval(spec, args.nmax)
    doc = {"theorem": args.theorem, "d": args.d, "gamma": args.gamma, "xi": args.xi,
           "r": args.r, "p": args.p, "q": args.q, "side": args.side,
           "m": args.nmax, "value": value}
    report.write_output(report.dumps(doc), args.out)
    return 0


def _cmd_widths_compare(args):
    fam = multipliers.parse_family(args.family, args.d, "max")
    rep = widths.grading_compare(fam, args.d, args.nmax)
    report.write_output(report.dumps(rep), args.out)
    return 0


def _cmd_project(args):
    built = basis.build_basis(args.d, args.m, args.n)
    if not 0 <= args.j < built.dim:
        raise ArgumentError(f"basis index {args.j} out of range [0, {built.dim})")
    pole = np.zeros(args.d, dtype=complex)
    pole[-1] = 1.0
    f = lambda pts: built.eval_orthonormal(pts, args.j)  # noqa: E731
    estimate, stderr = basis.project_mc(f, args.d, args.m, args.n, pole, args.samples, args.seed)
    expected = complex(built.eval_orthonormal(pole, args.j))
    z_score = abs(estimate - expected) / stderr if stderr > 0 else 0.0
    doc = {"d": args.d, "m": args.m, "n": args.n, "j": args.j,
           "pole": "e_d", "samples": args.samples, "seed": args.seed,
           "estimate_re": estimate.real, "estimate_im": estimate.imag,
           "expected_re": expected.real, "expected_im": expected.imag,
           "stderr": stderr, "z_score": z_score}
    report.write_output(report.dumps(doc), args.out)
    return 0


_DISPATCH = {
    ("dims", None): _cmd_dims,
    ("basis", None): _cmd_basis,
    ("check", "addition"): _cmd_check_addition,
    ("check", "gegenbauer"): _cmd_check_gegenbauer,
    ("check", "nikolskii"): _cmd_check_nikolskii,
    ("check", "dim-bounds"): _cmd_check_dim_bounds,
    ("levy", None): _cmd_levy,
    ("seq", None): _cmd_seq,
    ("widths", "spectrum"): _cmd_widths_spectrum,
    ("widths", "fit"): _cmd_widths_fit,
    ("widths", "bounds"): _cmd_widths_bounds,
    ("widths", "compare-gradings"): _cmd_widths_compare,
    ("project", None): _cmd_project,
}


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    subcommand = getattr(args, "check_command", None) or getattr(args, "widths_command", None)
    handler = _DISPATCH[(args.command, subcommand)]
    try:
        return handler(args)
    except (ArgumentError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
