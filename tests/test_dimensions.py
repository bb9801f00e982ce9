"""Dimension combinatorics against the symbolic Laplacian-kernel oracle."""

from fractions import Fraction
from math import factorial

import pytest

from cspherelab.dimensions import (
    check_dim_bounds,
    cum_dim,
    dim_complex_harmonic,
    dim_layer,
    dim_layer_by_members,
    dim_real_harmonic,
    laplacian_kernel_rank,
    layer,
    layer_members,
    theta,
)
from cspherelab.errors import ArgumentError


def test_complex_dimension_examples():
    assert dim_complex_harmonic(2, 0, 0) == 1
    assert dim_complex_harmonic(2, 2, 1) == 4
    assert dim_complex_harmonic(3, 1, 1) == 8


def test_complex_dimension_d2_closed_form():
    # on the sphere of C^2 the bidegree dimension is m + n + 1
    for m in range(8):
        for n in range(8):
            assert dim_complex_harmonic(2, m, n) == m + n + 1


def test_complex_dimension_matches_kernel_rank_oracle():
    for d in (2, 3):
        for m in range(4):
            for n in range(4):
                assert dim_complex_harmonic(d, m, n) == laplacian_kernel_rank(d, m, n)


def test_real_dimension_examples():
    assert dim_real_harmonic(4, 0) == 1
    assert dim_real_harmonic(4, 2) == 9
    assert dim_real_harmonic(3, 1) == 3
    for k in range(20):
        assert dim_real_harmonic(4, k) == (k + 1) ** 2  # S^3 closed form
        assert dim_real_harmonic(3, k) == (2 * k + 1 if k else 1)  # S^2 closed form


def test_dimension_argument_errors():
    with pytest.raises(ArgumentError):
        dim_complex_harmonic(1, 1, 1)
    with pytest.raises(ArgumentError):
        dim_real_harmonic(2, 1)
    for d in (0, 1):  # cum_dim guards dim_layer, theta, layer and their callers
        for call in (lambda: cum_dim(d, 3, "max"), lambda: dim_layer(d, 3, "star"),
                     lambda: theta(d, 0, 2, "max"), lambda: layer(d, 2, "max")):
            with pytest.raises(ArgumentError, match=f"d must be >= 2, got {d}"):
                call()


def test_transfer_identity():
    # summing bidegree dimensions over m + n = k reproduces the real-sphere count
    for d in (2, 3, 4):
        for k in range(51):
            total = sum(dim_complex_harmonic(d, m, k - m) for m in range(k + 1))
            assert total == dim_real_harmonic(2 * d, k)


def test_layer_members_and_summaries():
    zero = layer(2, 0, "max")
    assert zero.members == ((0, 0),) and zero.a_l == 1 and zero.d_l == 1

    one = layer(2, 1, "max")
    assert one.members == ((0, 1), (1, 0), (1, 1))
    assert one.a_l == 3 and one.d_l == 7 and one.cum_dim == 8

    one_star = layer(2, 1, "star")
    assert one_star.members == ((0, 1), (1, 0))
    assert one_star.d_l == 4


def test_layer_closed_form_matches_member_sum():
    for d in (2, 3, 4):
        for grading in ("star", "max"):
            for l in range(12):
                assert dim_layer(d, l, grading) == dim_layer_by_members(d, l, grading)


def test_cum_dim_cube_law():
    for n in range(101):
        assert cum_dim(2, n, "max") == (n + 1) ** 3


def test_theta_examples_and_consistency():
    assert theta(2, 0, 1, "max") == 7
    assert theta(2, 1, 2, "max") == 19
    assert theta(2, 0, 2, "max") == 26
    for d in (2, 3):
        for grading in ("star", "max"):
            for a, b in [(0, 3), (2, 5), (1, 9)]:
                assert theta(d, a, b, grading) == cum_dim(d, b, grading) - cum_dim(d, a, grading)


def test_theta_rejects_bad_range():
    with pytest.raises(ArgumentError):
        theta(2, 2, 2, "max")
    with pytest.raises(ArgumentError):
        theta(2, 3, 1, "max")


def test_layer_members_rejects_bad_grading():
    with pytest.raises(ArgumentError):
        layer_members(1, "diag")


def test_check_dim_bounds_d2():
    rep = check_dim_bounds(2, 1, 50)
    # layer dims are 3l^2 + 3l + 1, so the ratio at l = 50 sits 2% above 3
    assert rep["leading_coefficient"] == pytest.approx(3.0)
    assert abs(rep["ratio_last"] / 3.0 - 1.0) < 0.10
    assert rep["bidegree_bound"]["skipped"].startswith("d=2")


def test_check_dim_bounds_d3():
    rep = check_dim_bounds(3, 1, 30)
    lead = 2 * 5 / (6 * 2)  # 2(2d-1)/(d!(d-1)!)
    assert rep["leading_coefficient"] == pytest.approx(lead)
    # the trend approaches the leading coefficient from above
    assert rep["ratio_last"] < rep["ratio_first"]
    assert abs(rep["ratio_last"] / lead - 1.0) < 0.25
    assert rep["bidegree_bound"]["lower_bound_holds"]
    assert rep["bidegree_bound"]["smallest_admissible_C"] > 0


def _bidegree_bound_by_fractions(d, l_min, l_max):
    """The per-bidegree bound report, every comparison made on Fractions."""
    dfac = factorial(d - 1) * factorial(d - 2)
    worst_c = Fraction(0)
    lower_ok = True
    skipped = 0
    for l in range(l_min, l_max + 1):
        for m, n in layer_members(l, "max"):
            if m == 0 or n == 0:
                skipped += 1
                continue
            dmn = dim_complex_harmonic(d, m, n)
            lower = Fraction((m + n) * (m * n) ** (d - 2), dfac)
            if lower > dmn:
                lower_ok = False
            excess = dmn - lower
            if excess > 0:
                worst_c = max(worst_c, excess / ((m + n) * m ** (d - 2) * n ** (d - 3)))
    return {"lower_bound_holds": lower_ok, "smallest_admissible_C": float(worst_c),
            "skipped_mn_zero": skipped}


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("l_min, l_max", [(1, 1), (1, 2), (1, 9), (3, 17), (1, 60)])
def test_check_dim_bounds_matches_fraction_oracle(d, l_min, l_max):
    rep = check_dim_bounds(d, l_min, l_max)
    assert rep["bidegree_bound"] == _bidegree_bound_by_fractions(d, l_min, l_max)


def _bidegree_bound_by_dim_calls(d, l_min, l_max):
    """The earlier per-bidegree loop: one dim_complex_harmonic call per bidegree."""
    dfac = factorial(d - 1) * factorial(d - 2)
    worst_num, worst_den = 0, 1
    lower_ok = True
    skipped = 0
    for l in range(l_min, l_max + 1):
        for m, n in layer_members(l, "max"):
            if m == 0 or n == 0:
                skipped += 1
                continue
            scaled_lower = (m + n) * (m * n) ** (d - 2)
            scaled_excess = dim_complex_harmonic(d, m, n) * dfac - scaled_lower
            if scaled_excess < 0:
                lower_ok = False
            elif scaled_excess > 0:
                den = dfac * (m + n) * m ** (d - 2) * n ** (d - 3)
                if scaled_excess * worst_den > worst_num * den:
                    worst_num, worst_den = scaled_excess, den
    return {"lower_bound_holds": lower_ok,
            "smallest_admissible_C": float(Fraction(worst_num, worst_den)),
            "skipped_mn_zero": skipped}


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("l_min, l_max", [(1, 1), (2, 3), (1, 200), (150, 200)])
def test_check_dim_bounds_matches_per_call_loop(d, l_min, l_max):
    rep = check_dim_bounds(d, l_min, l_max)
    assert rep["bidegree_bound"] == _bidegree_bound_by_dim_calls(d, l_min, l_max)


def test_check_dim_bounds_rejects_empty_range():
    with pytest.raises(ArgumentError):
        check_dim_bounds(2, 5, 4)
