"""Acceptance suite: one test per acceptance criterion.

Each test prints one PASS/FAIL line per sub-case and then asserts them all,
at the stated tolerances and sample sizes. Three sub-cases are known to be
mathematically unattainable as stated and fail honestly rather than being
weakened (the failure messages state the exact obstruction):

* criterion 6, lower bounds at p in {4, inf}: with the non-normalised
  surface measure (total mass omega > 1), sup|f| <= sqrt(d_l/omega) holds
  uniformly on a single layer, which caps the Levy mean strictly below the
  stated lower bound s^(-1/2) (sum lambda(l)^2 d_l)^(1/2); the bound is
  missing the factor omega^(1/p - 1/2) on the lower side.
* criterion 7, sup-norm comparison at p = 4: the interpolated inequality
  sup|t| <= (s/omega)^(1/p) ||t||_p is false at intermediate p for small
  windows; exact witness: t = 2 Re(z_1)/sqrt(omega) on the window (0, 1]
  of the d = 2 sphere violates it by a factor 1.0339.
* criterion 8, sequence-class ratio for the finitely-smooth family at
  p = 1: gamma/(2d-1) = 1 equals 1/p instead of exceeding it, so the
  layered geometric sum grows like sqrt(theta12) and is unbounded in N
  (about 13.4 at N = 3 and 204 at N = 20).
"""

import math
import time

import numpy as np
import pytest

from cspherelab.basis import verify_addition, verify_gegenbauer
from cspherelab.dimensions import (
    cum_dim,
    dim_complex_harmonic,
    dim_real_harmonic,
    laplacian_kernel_rank,
)
from cspherelab.levy import LevyProblem, levy_bounds, levy_mean_mc, levy_mean_parseval, nikolskii_check
from cspherelab.multipliers import exp_analytic, finite_smooth, identity, plan_beta, sobolev
from cspherelab.widths import fit_power, fit_stretched, grading_compare, l2_width_table

SEED = 0


def _check(results, ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        results.append(label)


def _assert_clean(results):
    assert not results, "failed sub-cases:\n" + "\n".join(results)


def test_criterion_1_exact_identities():
    start = time.time()
    results = []

    transfer_ok = all(
        sum(dim_complex_harmonic(d, m, k - m) for m in range(k + 1)) == dim_real_harmonic(2 * d, k)
        for d in (2, 3, 4) for k in range(51))
    _check(results, transfer_ok,
           "criterion 1: bidegree dimensions transfer to the real sphere (d in {2,3,4}, k <= 50)")

    cube_ok = all(cum_dim(2, n, "max") == (n + 1) ** 3 for n in range(101))
    _check(results, cube_ok, "criterion 1: cumulative max-grading dimension is (N+1)^3 (N <= 100)")

    oracle_ok = all(
        dim_complex_harmonic(d, m, n) == laplacian_kernel_rank(d, m, n)
        for d in (2, 3) for m in range(5) for n in range(5))
    _check(results, oracle_ok,
           "criterion 1: dimension formula matches the Laplacian kernel rank (m,n <= 4, d in {2,3})")

    elapsed = time.time() - start
    _check(results, elapsed < 10, f"criterion 1: runtime {elapsed:.1f}s < 10s")
    _assert_clean(results)


def test_criterion_2_addition_formula():
    start = time.time()
    results = []
    for d in (2, 3):
        for m in range(5):
            for n in range(5):
                deviation = verify_addition(d, m, n, 1000, SEED)
                _check(results, deviation < 1e-9,
                       f"criterion 2: addition identity d={d} (m,n)=({m},{n}) deviation {deviation:.2e} < 1e-9")
    elapsed = time.time() - start
    _check(results, elapsed < 60, f"criterion 2: runtime {elapsed:.1f}s < 60s")
    _assert_clean(results)


def test_criterion_3_zonal_sum_identity():
    results = []
    for d in (2, 3):
        for k in range(7):
            deviation = verify_gegenbauer(d, k, 1000, SEED + k)
            _check(results, deviation < 1e-9,
                   f"criterion 3: zonal-sum identity d={d} k={k} deviation {deviation:.2e} < 1e-9")
    _assert_clean(results)


def test_criterion_4_finitely_smooth_rates():
    start = time.time()
    results = []

    table = l2_width_table(finite_smooth(3, 0, "max"), 2, 10**6)
    fit = fit_power(table, 10**3, 10**6)
    _check(results, abs(fit.slope + 1.0) <= 0.05,
           f"criterion 4: power slope {fit.slope:.4f} = -1.00 +- 0.05 (gamma=3, xi=0)")

    table_log = l2_width_table(finite_smooth(3, 2, "max"), 2, 10**6)
    fit_log = fit_power(table_log, 10**3, 10**6, with_log_factor=True)
    _check(results, abs(fit_log.loglog_coeff + 2.0) <= 0.3,
           f"criterion 4: log-factor exponent {fit_log.loglog_coeff:.3f} = -2.0 +- 0.3 (xi=2)")

    elapsed = time.time() - start
    _check(results, elapsed < 60, f"criterion 4: runtime {elapsed:.1f}s < 60s")
    _assert_clean(results)


def test_criterion_5_analytic_rates_and_gradings():
    start = time.time()
    results = []

    table_max = l2_width_table(exp_analytic(1, 1, "max"), 2, 10**6)
    fit_max = fit_stretched(table_max, 2, 1.0, 10**3, 10**6)
    _check(results, abs(fit_max.slope + 1.0) <= 0.02,
           f"criterion 5: max-grading stretched slope {fit_max.slope:.4f} = -1.00 +- 0.02")

    table_star = l2_width_table(exp_analytic(1, 1, "star"), 2, 10**6)
    fit_star = fit_stretched(table_star, 2, 1.0, 10**3, 10**6)
    star_const = 3 ** (1 / 3)
    _check(results, abs(fit_star.slope + star_const) <= 0.03,
           f"criterion 5: star-grading stretched slope {fit_star.slope:.4f} = -{star_const:.4f} +- 0.03")

    ratio = fit_star.slope / fit_max.slope
    _check(results, abs(ratio / star_const - 1.0) <= 0.03,
           f"criterion 5: slope ratio {ratio:.4f} within 3% of 3^(1/3)")

    compare = grading_compare(finite_smooth(3, 0, "max"), 2, 10**6)
    _check(results, compare["slope_gap"] <= 0.05,
           f"criterion 5: finitely-smooth grading slopes agree within 0.05 (gap {compare['slope_gap']:.4f})")

    elapsed = time.time() - start
    _check(results, elapsed < 60, f"criterion 5: runtime {elapsed:.1f}s < 60s")
    _assert_clean(results)


LEVY_WINDOWS = [(0, 1), (1, 2)]
OUTER, INNER = 1000, 10000


def test_criterion_6a_parseval_vs_mc():
    results = []
    for fam in (identity("max"), exp_analytic(1, 1, "max")):
        for window in LEVY_WINDOWS:
            problem = LevyProblem(2, *window, fam, 2)
            est = levy_mean_mc(problem, OUTER, INNER, SEED)
            exact = levy_mean_parseval(problem)
            gap = abs(est.value - exact)
            _check(results, gap <= 3 * est.stderr,
                   f"criterion 6: coefficient identity vs MC {fam.kind} window {window}: "
                   f"|{est.value:.5f} - {exact:.5f}| <= 3*{est.stderr:.5f}")
    _assert_clean(results)


def test_criterion_6b_levy_lower_bounds():
    # The p = 2 rows hold; p in {4, inf} rows fail for every family because
    # the stated lower bound omits omega^(1/p-1/2) (see module docstring).
    results = []
    for fam in (identity("max"), sobolev(1, 2, "max"), exp_analytic(1, 1, "max")):
        for window in LEVY_WINDOWS:
            for p in (2, 4, math.inf):
                problem = LevyProblem(2, *window, fam, p)
                est = levy_mean_mc(problem, OUTER, INNER, SEED)
                lower = levy_bounds(problem).lower
                _check(results, lower <= est.value + 3 * est.stderr,
                       f"criterion 6: lower bound {fam.kind} window {window} p={p}: "
                       f"{lower:.4f} <= {est.value:.4f} + 3*{est.stderr:.4f}")
    _assert_clean(results)


def test_criterion_6b_levy_lower_bounds_that_hold():
    # The sub-cases of test_criterion_6b_levy_lower_bounds that hold, with
    # the same calls: every p = 2 row, and the sobolev window (0, 1), whose
    # lower side is 0, at p in {4, inf}.
    sob = sobolev(1, 2, "max")
    cases = [(fam, window, 2) for fam in (identity("max"), sob, exp_analytic(1, 1, "max"))
             for window in LEVY_WINDOWS]
    cases += [(sob, (0, 1), p) for p in (4, math.inf)]
    results = []
    for fam, window, p in cases:
        problem = LevyProblem(2, *window, fam, p)
        est = levy_mean_mc(problem, OUTER, INNER, SEED)
        lower = levy_bounds(problem).lower
        _check(results, lower <= est.value + 3 * est.stderr,
               f"criterion 6: lower bound {fam.kind} window {window} p={p}: "
               f"{lower:.4f} <= {est.value:.4f} + 3*{est.stderr:.4f}")
    _assert_clean(results)


def test_criterion_6c_case_d_sandwich():
    start = time.time()
    results = []
    for fam in (identity("max"), exp_analytic(1, 1, "max")):
        for window in LEVY_WINDOWS:
            problem = LevyProblem(2, *window, fam, 2)
            est = levy_mean_mc(problem, OUTER, INNER, SEED)
            bounds = levy_bounds(problem)
            ok = (bounds.lower <= est.value + 3 * est.stderr
                  and est.value - 3 * est.stderr <= bounds.upper)
            _check(results, ok,
                   f"criterion 6: two-sided p=2 sandwich {fam.kind} window {window}: "
                   f"{bounds.lower:.4f} <= {est.value:.4f} <= {bounds.upper:.4f}")
    elapsed = time.time() - start
    _check(results, elapsed < 300, f"criterion 6: runtime {elapsed:.1f}s < 300s")
    _assert_clean(results)


def test_criterion_7_nikolskii():
    # The sup-norm comparison is false at p = 4 (exact witness in the module
    # docstring), so those sub-cases report their violations honestly.
    results = []
    for window in [(0, 1), (0, 2)]:
        for p in (2, 4):
            report = nikolskii_check(2, *window, p, 1000, SEED)
            _check(results, report["violations_sup"] == 0,
                   f"criterion 7: sup-norm comparison window {window} p={p}: "
                   f"{report['violations_sup']} violations (worst ratio {report['worst_ratio_sup']:.4f})")
            _check(results, report["violations_p_vs_2"] == 0,
                   f"criterion 7: p-vs-2 comparison window {window} p={p}: "
                   f"{report['violations_p_vs_2']} violations (worst ratio {report['worst_ratio_p_vs_2']:.4f})")
    _assert_clean(results)


def test_criterion_7_nikolskii_comparisons_that_hold():
    # The sub-cases of test_criterion_7_nikolskii that hold, with the same
    # calls: the sup comparison at p = 2 and the p-vs-2 comparison at
    # p in {2, 4}, on both windows.
    results = []
    for window in [(0, 1), (0, 2)]:
        for p in (2, 4):
            report = nikolskii_check(2, *window, p, 1000, SEED)
            if p == 2:
                _check(results, report["violations_sup"] == 0,
                       f"criterion 7: sup-norm comparison window {window} p={p}: "
                       f"{report['violations_sup']} violations (worst ratio {report['worst_ratio_sup']:.4f})")
            _check(results, report["violations_p_vs_2"] == 0,
                   f"criterion 7: p-vs-2 comparison window {window} p={p}: "
                   f"{report['violations_p_vs_2']} violations (worst ratio {report['worst_ratio_p_vs_2']:.4f})")
    _assert_clean(results)


def test_criterion_8a_two_sided_sandwich():
    table = l2_width_table(finite_smooth(3, 0, "max"), 2, 10**6)
    values = table.values()
    n = np.arange(values.size)
    mask = (n >= 10**3) & (n <= 10**6)
    products = values[mask] * n[mask]
    spread = float(products.max() / products.min())
    results = []
    _check(results, spread < 10,
           f"criterion 8: d_n * n spread over [1e3, 1e6] is {spread:.3f} < 10 (gamma=3, xi=0)")
    _assert_clean(results)


def test_criterion_8b_kclass_ratio_bounded():
    # exp_analytic passes at both p; finite_smooth(3, 0) fails at p = 1
    # because gamma/(2d-1) = 1/p exactly (see module docstring).
    results = []
    for fam, label in ((exp_analytic(1, 1, "max"), "exp_analytic(1,1)"),
                       (finite_smooth(3, 0, "max"), "finite_smooth(3,0)")):
        for p in (1.0, 2.0):
            worst = max(plan_beta(fam, 2, n, 0.5).kclass_ratio[p] for n in range(3, 21))
            _check(results, worst <= 10,
                   f"criterion 8: sequence-class ratio {label} p={p}: max over N in 3..20 is {worst:.2f} <= 10")
    _assert_clean(results)


def test_criterion_8b_kclass_ratios_that_hold():
    # The sub-cases of test_criterion_8b_kclass_ratio_bounded that hold, with
    # the same calls: exp_analytic(1,1) at p in {1, 2}, finite_smooth(3,0) at p = 2.
    results = []
    for fam, label, p in ((exp_analytic(1, 1, "max"), "exp_analytic(1,1)", 1.0),
                          (exp_analytic(1, 1, "max"), "exp_analytic(1,1)", 2.0),
                          (finite_smooth(3, 0, "max"), "finite_smooth(3,0)", 2.0)):
        worst = max(plan_beta(fam, 2, n, 0.5).kclass_ratio[p] for n in range(3, 21))
        _check(results, worst <= 10,
               f"criterion 8: sequence-class ratio {label} p={p}: max over N in 3..20 is {worst:.2f} <= 10")
    _assert_clean(results)
