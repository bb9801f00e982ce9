"""Multiplier families, their action on coefficients, and the level-sequence plan."""

import math

import numpy as np
import pytest

from cspherelab.basis import build_basis
from cspherelab.dimensions import cum_dim, layer_members
from cspherelab.errors import ArgumentError, DivergenceError
from cspherelab.multipliers import (
    build_level_sequence,
    exp_analytic,
    finite_smooth,
    identity,
    lambda_value,
    multiplier_at,
    parse_family,
    plan_beta,
    sobolev,
    table_family,
)
from cspherelab.sphere import omega, sample_points


def test_lambda_values():
    assert lambda_value(sobolev(2, 2), 1) == pytest.approx(1 / 3)
    assert lambda_value(sobolev(2, 2), 0) == 0.0
    assert lambda_value(finite_smooth(3, 1), 1) == 0.0
    assert lambda_value(finite_smooth(3, 1), 0.5) == 0.0
    assert lambda_value(exp_analytic(1, 1), 2) == pytest.approx(math.exp(-2))
    assert lambda_value(identity(), 17) == 1.0
    assert lambda_value(table_family({0: 1.0, 1: 0.5}), 1) == 0.5
    with pytest.raises(ArgumentError):
        lambda_value(table_family({0: 1.0}), 3)


def test_multiplier_at_gradings():
    assert multiplier_at(identity(), 4, 9) == 1.0
    assert multiplier_at(exp_analytic(1, 1, "star"), 1, 1) == pytest.approx(math.exp(-2))
    assert multiplier_at(exp_analytic(1, 1, "max"), 1, 1) == pytest.approx(math.exp(-1))
    assert multiplier_at(sobolev(2, 2, "star"), 0, 0) == 0.0


def test_grading_symmetry():
    for fam in (sobolev(1.5, 2, "star"), finite_smooth(2, 1, "max"), exp_analytic(1, 0.5, "max")):
        for m, n in [(0, 3), (2, 5), (4, 1)]:
            assert multiplier_at(fam, m, n) == multiplier_at(fam, n, m)


def test_monotone_tail():
    for fam in (sobolev(1, 2), finite_smooth(3, 2), exp_analytic(1, 0.5)):
        values = [abs(lambda_value(fam, l)) for l in range(2, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_parseval_scaling_against_monte_carlo():
    # the coefficient-space norm of the filtered vector equals the sampled
    # function-space norm of the filtered expansion
    rng = np.random.default_rng(1)
    fam = exp_analytic(1, 1, "max")
    bases = [build_basis(2, m, n) for l in range(3) for m, n in layer_members(l, "max")]
    lam = np.concatenate([np.full(b.dim, multiplier_at(fam, b.m, b.n)) for b in bases])
    pairs = rng.standard_normal((lam.size, 2))
    filtered = (pairs[:, 0] + 1j * pairs[:, 1]) * lam

    pts = sample_points(2, 4 * 10**4, seed=2)
    values = np.hstack([b.eval_orthonormal(pts) for b in bases]) @ filtered
    sq = np.abs(values) ** 2
    mc_norm = math.sqrt(omega(2) * sq.mean())
    se = omega(2) * sq.std(ddof=1) / math.sqrt(sq.size) / (2 * mc_norm)
    assert abs(mc_norm - np.linalg.norm(filtered)) < 3 * se


def test_level_sequence_examples():
    assert build_level_sequence(exp_analytic(1, 1, "max"), 3, 4) == [3, 4, 5, 6]
    assert build_level_sequence(finite_smooth(3, 0, "max"), 3, 2) == [3, 5]


def test_level_sequence_errors():
    with pytest.raises(DivergenceError):
        build_level_sequence(identity(), 3, 2)
    with pytest.raises(ArgumentError):
        build_level_sequence(finite_smooth(3, 0, "max"), 1, 2)  # lambda(1) = 0


def test_plan_beta_exp_example():
    plan = plan_beta(exp_analytic(1, 1, "max"), 2, 3, 0.5)
    assert plan.Nk[:4] == (3, 4, 5, 6)
    assert plan.mk[0] == cum_dim(2, 3, "max") == 64
    assert plan.theta12 == 61
    assert plan.M == int(math.floor(math.log(61) / 0.5)) == 8
    assert plan.beta == sum(plan.mk)
    assert len(plan.Nk) == plan.M + 1
    assert not plan.plateau


def test_plan_beta_budget_bound():
    # sum of the geometric ranks stays within the (eps-dependent) multiple
    # of the first gap dimension
    for fam in (exp_analytic(1, 1, "max"), finite_smooth(3, 0, "max")):
        for start in (3, 6):
            plan = plan_beta(fam, 2, start, 0.5)
            c_eps = sum(math.exp(-0.5 * k) for k in range(1, plan.M + 1)) + plan.M / plan.theta12
            assert plan.beta <= cum_dim(2, start, "max") + c_eps * plan.theta12 + 1e-9


def test_plan_beta_finite_smooth():
    plan = plan_beta(finite_smooth(3, 0, "max"), 2, 3, 0.5)
    assert plan.Nk[:2] == (3, 5)
    assert plan.beta > 0 and plan.theta12 == 152
    assert all(v > 0 and math.isfinite(v) for v in plan.kclass_ratio.values())


def test_plan_beta_propagates_divergence():
    with pytest.raises(DivergenceError):
        plan_beta(identity(), 2, 3, 0.5)


def test_parse_family():
    fam = parse_family("sobolev:gamma=2", 2, "star")
    assert fam.kind == "sobolev" and fam.gamma == 2 and fam.d == 2
    fam = parse_family("fs:gamma=3,xi=0.5", 2, "max")
    assert fam.kind == "finite_smooth" and fam.xi == 0.5
    fam = parse_family("exp:gamma=1,r=0.5", 2, "max")
    assert fam.kind == "exp_analytic" and fam.r == 0.5
    assert parse_family("id", 2, "max").kind == "identity"
    for bad in ("exp", "exp:gamma=1", "nope:x=1", "fs:gamma"):
        with pytest.raises(ArgumentError):
            parse_family(bad, 2, "max")
