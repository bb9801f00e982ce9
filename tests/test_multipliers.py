"""Multiplier families, their action on coefficients, and the level-sequence plan."""

import math

import numpy as np
import pytest

from cspherelab.basis import build_basis
from cspherelab.dimensions import cum_dim, layer_members
from cspherelab.errors import ArgumentError, DivergenceError
from cspherelab.multipliers import (
    FAMILY_KINDS,
    build_level_sequence,
    exp_analytic,
    finite_smooth,
    identity,
    lambda_value,
    parse_family,
    plan_beta,
    sobolev,
)
from cspherelab.sphere import omega, sample_points


def test_lambda_values():
    assert lambda_value(sobolev(2, 2), 1) == pytest.approx(1 / 3)
    assert lambda_value(sobolev(2, 2), 0) == 0.0
    assert lambda_value(finite_smooth(3, 1), 1) == 0.0
    assert lambda_value(finite_smooth(3, 1), 0.5) == 0.0
    assert lambda_value(exp_analytic(1, 1), 2) == pytest.approx(math.exp(-2))
    assert lambda_value(identity(), 17) == 1.0


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
    lam = np.concatenate([np.full(b.dim, lambda_value(fam, max(b.m, b.n))) for b in bases])
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


def _linear_scan_sequence(fam, start, count):
    # The forward scan the level search replaced, kept as its oracle.
    levels = [start]
    while len(levels) < count:
        target = abs(lambda_value(fam, levels[-1])) / math.e
        for l in range(levels[-1] + 1, levels[-1] + 10**6 + 1):
            if abs(lambda_value(fam, l)) <= target:
                levels.append(l)
                break
        else:
            raise AssertionError("oracle scan exhausted")
    return levels


@pytest.mark.parametrize("grading", ["max", "star"])
def test_level_search_matches_linear_scan(grading):
    families = [sobolev(1, 2, grading), sobolev(2.5, 3, grading),
                finite_smooth(1, 0, grading), finite_smooth(3, 0, grading),
                finite_smooth(1, 0.5, grading), finite_smooth(2, 0.5, grading),
                exp_analytic(1, 0.5, grading), exp_analytic(0.3, 1, grading),
                exp_analytic(1, 1, grading), exp_analytic(0.05, 2, grading)]
    for fam in families:
        for start in (2, 3, 7, 40):
            expected = _linear_scan_sequence(fam, start, 6)
            assert build_level_sequence(fam, start, 6) == expected, (fam.describe(), start)


def test_slow_family_sequence_obeys_the_level_rule():
    # gamma = 0.5: levels grow by about e^2 per step, far past any forward scan
    fam = finite_smooth(0.5, 0, "max")
    plan = plan_beta(fam, 2, 3, 0.5)
    assert plan.Nk[-1] > 10**16
    for cur, nxt in zip(plan.Nk, plan.Nk[1:]):
        lam = lambda_value(fam, cur)
        assert math.e * lambda_value(fam, nxt) <= lam < math.e * lambda_value(fam, nxt - 1)


def test_level_beyond_float_range_diverges():
    with pytest.raises(DivergenceError, match="finite_smooth"):
        build_level_sequence(finite_smooth(0.01, 0, "max"), 3, 10)
    with pytest.raises(DivergenceError, match="sobolev"):
        build_level_sequence(sobolev(2, 2), 10**400, 2)
    with pytest.raises(DivergenceError, match="exp_analytic"):
        build_level_sequence(exp_analytic(1, 0.001), 3, 10)
    # lambda_value names lambda(level) where the level fits a float
    with pytest.raises(DivergenceError, match=r"^lambda\(2\) is beyond the float range \(finite_smooth"):
        lambda_value(finite_smooth(3, 1e308, "max"), 2)
    with pytest.raises(DivergenceError, match=r"^a level of 801 digits is beyond the float range"):
        lambda_value(sobolev(2, 2), 10**800)
    # every level fits a float, but theta_k / theta12 at d = 4 does not
    with pytest.raises(DivergenceError, match="finite_smooth"):
        plan_beta(finite_smooth(0.2, 0, "max"), 4, 3, 0.5)


def test_level_sequence_stops_where_lambda_underflows():
    # exp(-l) is 0.0 from level 746 on. That level may end a sequence, but a
    # step from it would take every later level, one by one
    fam = exp_analytic(1, 1, "max")
    levels = build_level_sequence(fam, 1, 731)
    assert levels[-1] == 746 and lambda_value(fam, 746) == 0.0 < lambda_value(fam, levels[-2])
    with pytest.raises(DivergenceError, match="underflows to 0.0 at level 746, "):
        build_level_sequence(fam, 1, 732)


def test_plan_beta_budget_beyond_float_range_diverges():
    # theta12 has 900 digits, so e^(-eps k) theta12 overflows a float
    with pytest.raises(DivergenceError, match=r"rank budget .* \(theta12 has 900 digits"):
        plan_beta(exp_analytic(1e-300, 1, "max"), 2, 1, 5.0)


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


def test_plan_beta_refuses_nonpositive_or_nan_eps():
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ArgumentError, match="eps must be positive"):
            plan_beta(finite_smooth(3, 0, "max"), 2, 3, eps)


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


@pytest.mark.parametrize("spec, message", [
    ("fs:gamma=3,gama=9", "family 'fs' takes no argument 'gama' (it takes: gamma, xi)"),
    ("exp:gamma=1,r=1,xi=7", "family 'exp' takes no argument 'xi' (it takes: gamma, r)"),
    ("id:gamma=1", "family 'id' takes no argument 'gamma' (it takes: none)"),
    ("fs:gamma=nan", "non-finite family argument 'gamma=nan'"),
    ("exp:gamma=1,r=inf", "non-finite family argument 'r=inf'"),
    ("sobolev:gamma=1e400", "non-finite family argument 'gamma=1e400'"),
    ("fs:gamma=3,gamma=4", "repeated family argument 'gamma'"),
])
def test_parse_family_refuses_arguments_it_does_not_use(spec, message):
    with pytest.raises(ArgumentError) as info:
        parse_family(spec, 2, "max")
    assert message in str(info.value)


FAMILY_SPECS = {"sobolev": "sobolev:gamma=2.5", "finite_smooth": "fs:gamma=3,xi=0.5",
                "exp_analytic": "exp:gamma=1,r=0.5", "identity": "id"}


def _spec_from_description(description):
    # "finite_smooth(gamma=3.0, xi=0.5)" -> "fs:gamma=3.0,xi=0.5"; d comes from --d
    kind, _, argstr = description.partition("(")
    prefix = FAMILY_SPECS[kind].partition(":")[0]
    pieces = [p for p in argstr.rstrip(")").split(", ") if p and not p.startswith("d=")]
    return prefix + (":" + ",".join(pieces) if pieces else "")


def test_every_family_kind_parses():
    # each kind the library knows is reachable from a family spec string
    assert set(FAMILY_SPECS) == set(FAMILY_KINDS)
    for kind in FAMILY_KINDS:
        for grading in ("max", "star"):
            fam = parse_family(FAMILY_SPECS[kind], 3, grading)
            assert fam.kind == kind
            assert parse_family(_spec_from_description(fam.describe()), 3, grading) == fam
