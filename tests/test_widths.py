"""Width tables against the sorted-multiplier oracle, fits, bound factors."""

import math

import numpy as np
import pytest

from cspherelab.dimensions import dim_layer, dim_real_harmonic
from cspherelab.errors import ArgumentError, HypothesisError
from cspherelab.multipliers import exp_analytic, finite_smooth, first_positive_level, identity, lambda_value, sobolev
from cspherelab.widths import (
    LEVEL_CAP,
    BoundSpec,
    WidthTable,
    bound_eval,
    expand_spectrum,
    fit_power,
    fit_stretched,
    grading_compare,
    l2_width_table,
    table_from_runs,
    table_from_values,
)


def test_expand_spectrum_hand_oracle():
    # three distinct values with hand-set multiplicities expand to the
    # hand-sorted list
    runs = expand_spectrum([(0.5, 2), (1.0, 1), (0.25, 3)], 5)
    assert runs == ((1.0, 1), (0.5, 2), (0.25, 3))
    flat = [1.0, 0.5, 0.5, 0.25, 0.25, 0.25]
    assert list(np.repeat([v for v, c in runs], [c for _, c in runs])) == flat
    # run-length encoding the flat list gives the runs back; the last run
    # ends at the last rank
    assert table_from_values(flat).runs == runs
    assert table_from_values([0.5]).runs == ((0.5, 1),)
    assert table_from_values([0.5] * 4).runs == ((0.5, 4),)
    # an uptick within 1e-12 is tolerated and starts a run of its own
    up = 0.5 + 5e-13
    assert table_from_values([1.0, 0.5, up, up, 0.25]).runs == ((1.0, 1), (0.5, 1), (up, 2), (0.25, 1))
    with pytest.raises(ArgumentError):
        table_from_values([1.0, 0.5, 0.5 + 1e-9])


def test_table_from_runs_refuses_nan():
    # NaN compares false both ways, so the non-increasing check alone lets it through
    with pytest.raises(ArgumentError, match="row 2 is NaN"):
        table_from_values([1.0, 0.5, math.nan, 0.25])
    with pytest.raises(ArgumentError, match="row 3 is NaN"):
        table_from_runs(((1.0, 1), (0.5, 2), (math.nan, 4)))


def test_table_from_runs_refuses_infinite_and_negative_widths():
    for runs, fault in [(((math.inf, 2), (0.5, 1)), "row 0 is inf"),
                        (((1.0, 1), (-0.5, 3)), "row 1 is -0.5"),
                        (((-math.inf, 1),), "row 0 is -inf")]:
        with pytest.raises(ArgumentError, match=f"{fault}; a width is finite and nonnegative"):
            table_from_runs(runs)
    assert table_from_runs(((1.0, 1), (-0.0, 2))).runs == ((1.0, 1), (-0.0, 2))


def test_expand_spectrum_truncates_at_rank():
    runs = expand_spectrum([(1.0, 2), (0.0, 5)], 10)
    assert runs == ((1.0, 2),)


def test_identity_table_is_constant():
    table = l2_width_table(identity("max"), 2, 50)
    assert table.warning == "non-compact: constant table"
    assert np.all(table.values() == 1.0)


def test_exp_star_table_pattern():
    table = l2_width_table(exp_analytic(1, 1, "star"), 2, 20)
    v = table.values()
    assert v[0] == 1.0
    assert np.allclose(v[1:5], math.exp(-1))
    assert np.allclose(v[5:14], math.exp(-2))


def test_sobolev_star_table_pattern():
    table = l2_width_table(sobolev(2, 2, "star"), 2, 15)
    v = table.values()
    assert np.allclose(v[0:4], 1 / 3)   # lambda(1) = (1*3)^(-1), multiplicity 4
    assert np.allclose(v[4:13], 1 / 8)  # lambda(2) = (2*4)^(-1), multiplicity 9


def test_table_monotone():
    for fam in (finite_smooth(3, 0, "max"), exp_analytic(1, 1, "star"), sobolev(1, 2, "star")):
        v = l2_width_table(fam, 2, 2000).values()
        assert np.all(np.diff(v) <= 0)


def test_star_table_matches_real_sphere_multiplicities():
    # the star-grading table equals the table built from real-sphere
    # harmonic dimensions on S^(2d-1)
    for d in (2, 3):
        fam = exp_analytic(1, 1, "star")
        table = l2_width_table(fam, d, 500)
        pairs = [(math.exp(-k), dim_real_harmonic(2 * d, k)) for k in range(30)]
        assert table.runs == expand_spectrum(pairs, 500)


def _brute_force_widths(values, d, grading, n_max):
    # every level's |lambda| repeated dim_layer times, fully sorted, zeros
    # dropped, cut to ranks 0 .. n_max
    brute = np.sort(np.concatenate([
        np.full(dim_layer(d, l, grading), abs(v)) for l, v in enumerate(values)]))[::-1]
    return brute[brute > 0][: n_max + 1]


def test_width_oracle_against_brute_force():
    # random (value, multiplicity) pairs, checked against a naive full expansion
    rng = np.random.default_rng(42)
    for trial in range(20):
        levels = int(rng.integers(2, 9))
        values = rng.uniform(0, 1, levels)
        values[rng.uniform(size=levels) < 0.2] = 0.0  # sprinkle zero multipliers
        n_max = int(rng.integers(5, 200))
        pairs = [(float(values[l]), dim_layer(2, l, "max")) for l in range(levels)]
        table = WidthTable(runs=expand_spectrum(pairs, n_max))
        assert np.array_equal(table.values(), _brute_force_widths(values, 2, "max", n_max))


@pytest.mark.parametrize("grading", ["max", "star"])
@pytest.mark.parametrize("d", [2, 3])
def test_parametric_spectrum_against_brute_force(d, grading):
    # the early stop of l2_width_table against a full sort over many more
    # levels; n_max runs over the rank boundaries of the first levels, so
    # the zero-width start levels of sobolev and finite_smooth are crossed
    families = [sobolev(1.5, d, grading), finite_smooth(2, 0, grading),
                finite_smooth(2, 1, grading), exp_analytic(0.7, 0.5, grading),
                exp_analytic(0.7, 1, grading), identity(grading)]
    for fam in families:
        values = [lambda_value(fam, l) for l in range(16)]
        edges = np.cumsum([dim_layer(d, l, grading) for l, v in enumerate(values[:6]) if v > 0])
        for n_max in sorted({1, 2, *(edges - 1).tolist(), *edges.tolist()} - {0}):
            table = l2_width_table(fam, d, n_max)
            assert table.size == n_max + 1
            assert np.array_equal(table.values(), _brute_force_widths(values, d, grading, n_max)), \
                (fam.describe(), n_max)


def test_zero_multipliers_truncate():
    pairs = [(1.0, dim_layer(2, 0, "max")), (0.5, dim_layer(2, 1, "max")),
             (0.0, dim_layer(2, 2, "max"))]
    table = WidthTable(runs=expand_spectrum(pairs, 100))
    # table runs out at the operator rank: 1 + 7 positive entries
    assert table.size == 8


def test_level_cap_guard():
    with pytest.raises(ArgumentError):
        l2_width_table(exp_analytic(1, 1, "max"), 2, 10**10)


def test_underflow_names_its_level_and_the_largest_n_max():
    # exp(-70 * 11) is 0.0 in floats, and levels 0 .. 10 carry 11^3 = 1331 ranks
    fam = exp_analytic(70, 1, "max")
    assert l2_width_table(fam, 2, 1330).size == 1331
    with pytest.raises(ArgumentError, match=r"underflows to 0\.0 at level 11 .*is 1330$"):
        l2_width_table(fam, 2, 1331)


@pytest.mark.parametrize("fam, level", [(finite_smooth(2000, 0, "max"), 2), (sobolev(3000, 2, "max"), 1),
                                        (exp_analytic(800, 1, "max"), 1), (finite_smooth(2000, 0, "star"), 2)])
def test_underflow_at_the_first_positive_level_is_named_at_once(fam, level, monkeypatch):
    from cspherelab import widths

    scanned = []
    monkeypatch.setattr(widths, "lambda_value", lambda f, l: scanned.append(l) or lambda_value(f, l))
    with pytest.raises(ArgumentError, match=f"underflows to 0\\.0 at level {level} "):
        l2_width_table(fam, 2, 10)
    assert scanned == list(range(first_positive_level(fam), level + 1))


def test_level_cap_message():
    # levels 0 .. 1000 carry 1001^3 - 8 (about 1.0e9) positive ranks
    with pytest.raises(ArgumentError, match=f"level cap {LEVEL_CAP} before covering rank 10000000000"):
        l2_width_table(finite_smooth(3, 0, "max"), 2, 10**10)


def test_fit_power_synthetic_exact():
    # d_n = n^(-1) at ranks 1..2999 (rank 0 holds a sentinel top value)
    values = np.concatenate([[2.0], 1.0 / np.arange(1, 3000, dtype=float)])
    fit = fit_power(table_from_values(values), 100, 2999)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual_rms < 1e-12


def test_fit_stretched_synthetic_exact():
    ranks = np.arange(1, 5000, dtype=float)
    values = np.concatenate([[1.0], np.exp(-2.0 * ranks ** (1 / 3))])
    fit = fit_stretched(table_from_values(values), 2, 1.0, 100, 4999)
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)


def test_fit_stretched_refuses_d_below_2_and_non_finite_r():
    table = table_from_values(np.exp(-np.arange(100) / 10.0))
    with pytest.raises(ArgumentError, match="d must be >= 2, got 1"):
        fit_stretched(table, 1, 1.0, 10, 90)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ArgumentError, match="r must be positive and finite"):
            fit_stretched(table, 2, r, 10, 90)


def _lstsq_fit(table, lo, hi, model, d=2, r=1.0):
    # The numpy fit that the Householder QR replaced, kept as its oracle:
    # (coefficients, residual RMS) of numpy.linalg.lstsq on the same points.
    n, v = table.plateau_points(lo if model == "stretched" else max(lo, 2), hi)
    n = np.asarray(n, dtype=float)
    ln_n = np.log(n)
    columns = {"power": [np.ones_like(n), ln_n],
               "power_log": [np.ones_like(n), ln_n, np.log(ln_n)],
               "stretched": [np.ones_like(n), n ** (r / (2.0 * d - 1.0))]}[model]
    a, y = np.column_stack(columns), np.log(v)
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    return coef.tolist(), float(np.sqrt(np.mean((y - a @ coef) ** 2)))


# (family, d, grading, n_max, model): the benchmark's fit-fs3-d2, fit-sobolev-d3
# and compare-fs3-d2 (both gradings) fits, then a log factor and stretched fits.
ORACLE_FITS = [
    (finite_smooth(3, 0, "max"), 2, 500000, "power"),
    (sobolev(2, 3, "star"), 3, 500000, "power_log"),
    (finite_smooth(3, 0, "star"), 2, 10**6, "power"),
    (finite_smooth(3, 0, "max"), 2, 10**6, "power"),
    (finite_smooth(3, 2, "max"), 2, 10**6, "power_log"),
    (exp_analytic(1, 1, "max"), 2, 10**6, "stretched"),
    (exp_analytic(1, 1, "star"), 3, 10**6, "stretched"),
    (exp_analytic(0.5, 0.7, "max"), 3, 10**5, "stretched"),
]


@pytest.mark.parametrize("fam, d, n_max, model", ORACLE_FITS,
                         ids=[f"{f.describe()}-{f.grading}-d{d}-{m}" for f, d, _, m in ORACLE_FITS])
def test_fits_match_the_lstsq_oracle(fam, d, n_max, model):
    table = l2_width_table(fam, d, n_max)
    if model == "stretched":
        fit = fit_stretched(table, d, fam.r, 10**3, n_max)
        coef = [fit.intercept, fit.slope]
    else:
        fit = fit_power(table, 10**3, n_max, with_log_factor=model == "power_log")
        coef = [fit.intercept, fit.slope] + ([fit.loglog_coeff] if model == "power_log" else [])
    want, rms = _lstsq_fit(table, 10**3, n_max, model, d, fam.r)
    # relative to the largest coefficient: an intercept near 0 has no
    # relative accuracy of its own in either solver
    scale = max(abs(c) for c in want)
    assert all(abs(got - ref) <= 1e-12 * scale for got, ref in zip(coef, want)), (coef, want)
    # an exact fit's residual (exp at max grading) is rounding noise, about 1e-14
    assert math.isclose(fit.residual_rms, rms, rel_tol=1e-12, abs_tol=1e-13)


@pytest.mark.parametrize("model, runs, lo, hi", [
    ("power", ((1.0, 5), (0.5, 40)), 5, 44),
    ("stretched", ((1.0, 5), (0.5, 40)), 5, 44),
    ("power_log", ((1.0, 10), (0.5, 10), (0.25, 10)), 10, 29),
])
def test_fits_refuse_fewer_plateaus_than_coefficients(model, runs, lo, hi):
    table = WidthTable(runs=runs)
    need = 3 if model == "power_log" else 2
    with pytest.raises(ArgumentError, match=f"fewer than the model's {need} coefficients"):
        if model == "stretched":
            fit_stretched(table, 2, 1.0, lo, hi)
        else:
            fit_power(table, lo, hi, with_log_factor=model == "power_log")


def test_fit_power_range_errors():
    table = table_from_values(1.0 / np.arange(1, 200, dtype=float))
    with pytest.raises(ArgumentError):
        fit_power(table, 10, 15)  # fewer than 20 ranks
    with pytest.raises(ArgumentError):
        fit_power(table, 50, 5000)  # beyond the table rank
    short = WidthTable(runs=expand_spectrum([(1.0, 1), (0.5, 7), (0.0, 19)], 100))
    with pytest.raises(ArgumentError):
        fit_power(short, 0, 50)  # zeros inside the range


def test_finite_smooth_rate_short_range():
    table = l2_width_table(finite_smooth(3, 0, "max"), 2, 10**5)
    fit = fit_power(table, 10**3, 10**5)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_sobolev_star_rate():
    # the Sobolev-type family decays like t^(-gamma), hence width slope
    # -gamma/(2d-1)
    table = l2_width_table(sobolev(3, 2, "star"), 2, 10**6)
    fit = fit_power(table, 10**3, 10**6)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_stretched_constants_for_d3():
    # decay constants carry the dimension: gamma (d!(d-1)!/2)^(r/(2d-1))
    # under max and gamma ((2d-1)!/2)^(r/(2d-1)) under star
    table = l2_width_table(exp_analytic(1, 1, "max"), 3, 10**6)
    fit = fit_stretched(table, 3, 1.0, 10**3, 10**6)
    assert fit.slope == pytest.approx(-(6.0 ** 0.2), rel=0.02)
    table_star = l2_width_table(exp_analytic(1, 1, "star"), 3, 10**6)
    fit_star = fit_stretched(table_star, 3, 1.0, 10**3, 10**6)
    assert fit_star.slope == pytest.approx(-((math.factorial(5) / 2) ** 0.2), rel=0.02)


def test_bound_eval_constants():
    assert bound_eval(BoundSpec("T6.4", 2, gamma=1, r=1), 10) == pytest.approx(1.0)
    assert bound_eval(BoundSpec("Tstar-R*", 2, gamma=1, r=1), 10) == pytest.approx(3 ** (1 / 3))
    # the two constants differ by ((2d-1)!/(d!(d-1)!))^(r/(2d-1))
    for d in (2, 3):
        ratio = bound_eval(BoundSpec("Tstar-R*", d, gamma=2, r=0.5), 10) \
            / bound_eval(BoundSpec("T6.4", d, gamma=2, r=0.5), 10)
        expect = (math.factorial(2 * d - 1) / (math.factorial(d) * math.factorial(d - 1))) \
            ** (0.5 / (2 * d - 1))
        assert ratio == pytest.approx(expect)


def test_bound_eval_rate_factors():
    value = bound_eval(BoundSpec("T6.2-upper", 2, gamma=3, xi=0, p=2, q=2), 10**4)
    assert value == pytest.approx(math.sqrt(2) * 1e-4)
    value = bound_eval(BoundSpec("T6.3-lower", 2, gamma=3, xi=1, p=2, q=2), 100)
    assert value == pytest.approx(100 ** (-1.0) / math.log(100))
    value = bound_eval(BoundSpec("T6.5-upper", 2, gamma=1, r=1, p=1, q=2), 1000)
    assert value == pytest.approx(math.exp(-1000 ** (1 / 3)) * 1000 ** ((2 / 3) * 0.5))


def test_bound_eval_selector_cases():
    base = dict(d=2, gamma=3, xi=0)
    assert bound_eval(BoundSpec("T6.3-lower", p=2, q=2, **base), 100) \
        == bound_eval(BoundSpec("T6.3-lower", p=1, q=4, **base), 100)
    with_log = bound_eval(BoundSpec("T6.3-lower", p=1, q=1, **base), 100)
    assert with_log == pytest.approx(100 ** (-1.0) * math.log(100) ** (-0.5))


def test_bound_eval_refuses_d_below_2():
    for spec in (BoundSpec("T6.2-upper", 1, gamma=3), BoundSpec("T6.4", 0, gamma=1, r=1)):
        with pytest.raises(ArgumentError, match=f"d must be >= 2, got {spec.d}"):
            bound_eval(spec, 100)


def test_bound_eval_hypothesis_errors():
    with pytest.raises(HypothesisError, match="gamma"):
        bound_eval(BoundSpec("T6.2-upper", 2, gamma=1, p=1, q=2), 100)  # needs gamma > 3
    with pytest.raises(HypothesisError, match="q"):
        bound_eval(BoundSpec("T6.5-upper", 2, gamma=1, r=0.5, p=2, q=1), 100)
    with pytest.raises(HypothesisError):
        bound_eval(BoundSpec("T3.4h", 2, gamma=10, p=3, q=4), 100)  # needs p <= 2


def test_bound_eval_analytic_upper_large_r():
    # r > 1 branch is evaluation-only, indexed by the level
    value = bound_eval(BoundSpec("T6.5-upper", 2, gamma=1, r=2, p=1, q=2), 10)
    assert value == pytest.approx(math.exp(-100.0) * 10 ** (2 * 0.5))
    value = bound_eval(BoundSpec("T6.5-upper", 2, gamma=1, r=2, p=2, q=2), 10)
    assert value == pytest.approx(math.exp(-100.0))


def test_bound_eval_smoothness_cases():
    value = bound_eval(BoundSpec("T3.4h", 2, gamma=10, p=1, q=4), 100)
    assert value == pytest.approx(100 ** (-10 / 3 + 0.5))
    with pytest.raises(ArgumentError):
        bound_eval(BoundSpec("T3.4d", 2, gamma=10, p=4, q=2), 100)  # needs a side
    upper = bound_eval(BoundSpec("T3.4d", 2, gamma=10, p=4, q=2, side="upper"), 100)
    lower = bound_eval(BoundSpec("T3.4d", 2, gamma=10, p=4, q=2, side="lower"), 100)
    assert upper / lower == pytest.approx(math.sqrt(math.log(100)))


def test_grading_compare_finite_smooth_agrees():
    report = grading_compare(finite_smooth(3, 0, "max"), 2, 10**5)
    assert report["agree"]
    assert abs(report["slope_star"] - report["slope_max"]) <= 0.05


def test_grading_compare_exp_differs():
    report = grading_compare(exp_analytic(1, 1, "max"), 2, 10**5)
    assert report["verdict"] == "gradings differ"
    assert report["slope_ratio"] == pytest.approx(3 ** (1 / 3), rel=0.03)


def test_grading_compare_identity():
    report = grading_compare(identity("max"), 2, 100)
    assert report["verdict"] == "non-compact, no rates"
