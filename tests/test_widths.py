"""Width tables against the sorted-multiplier oracle, fits, bound factors."""

import math

import numpy as np
import pytest

from cspherelab.dimensions import dim_real_harmonic
from cspherelab.errors import ArgumentError, HypothesisError
from cspherelab.multipliers import exp_analytic, finite_smooth, identity, sobolev, table_family
from cspherelab.widths import (
    BoundSpec,
    bound_eval,
    expand_spectrum,
    fit_power,
    fit_stretched,
    grading_compare,
    l2_width_table,
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


def test_width_oracle_against_brute_force():
    # random-valued table families, checked against a naive full expansion
    rng = np.random.default_rng(42)
    from cspherelab.dimensions import dim_layer

    for trial in range(20):
        levels = int(rng.integers(2, 9))
        values = rng.uniform(0, 1, levels)
        values[rng.uniform(size=levels) < 0.2] = 0.0  # sprinkle zero multipliers
        fam = table_family({l: float(values[l]) for l in range(levels)}, "max")
        n_max = int(rng.integers(5, 200))
        table = l2_width_table(fam, 2, n_max)
        brute = np.sort(np.concatenate([
            np.full(dim_layer(2, l, "max"), abs(values[l])) for l in range(levels)]))[::-1]
        brute = brute[brute > 0][: n_max + 1]
        assert np.array_equal(table.values(), brute)


def test_zero_multipliers_truncate():
    fam = table_family({0: 1.0, 1: 0.5, 2: 0.0}, "max")
    table = l2_width_table(fam, 2, 100)
    # table runs out at the operator rank: 1 + 7 positive entries
    assert table.size == 8


def test_level_cap_guard():
    with pytest.raises(ArgumentError):
        l2_width_table(exp_analytic(1, 1, "max"), 2, 10**10)


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


def test_fit_power_range_errors():
    table = table_from_values(1.0 / np.arange(1, 200, dtype=float))
    with pytest.raises(ArgumentError):
        fit_power(table, 10, 15)  # fewer than 20 ranks
    with pytest.raises(ArgumentError):
        fit_power(table, 50, 5000)  # beyond the table rank
    fam = table_family({0: 1.0, 1: 0.5, 2: 0.0}, "max")
    short = l2_width_table(fam, 2, 100)
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
