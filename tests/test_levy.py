"""Levy means, their two-sided bounds, and the norm-comparison checks."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cspherelab import basis, levy, sphere
from cspherelab.basis import build_basis
from cspherelab.dimensions import dim_layer, theta
from cspherelab.errors import ArgumentError
from cspherelab.levy import (
    LevyEstimate,
    LevyProblem,
    build_real_system,
    check_cloud_cost,
    levy_bounds,
    levy_mean_mc,
    levy_mean_parseval,
    nikolskii_check,
)
from cspherelab.multipliers import exp_analytic, finite_smooth, identity, lambda_value, parse_family, sobolev
from cspherelab.sphere import (
    _CAP_ROUNDS,
    _CAP_SAMPLES,
    _CAP_SHRINK,
    _chunk_rng,
    abs_power_inplace,
    lp_norm_mc,
    omega,
    power_needs_base,
    sample_points,
    sup_norm_refined,
)


def _exact_member(system, k):
    """Exact form (poly, sq_norm, phase) of member k of a real coordinate system.

    The member equals phase * poly / sqrt(sq_norm * omega(d)), where poly
    has rational coefficients and sq_norm = <poly, poly> in units of
    omega(d).
    """
    member = system.members[k]
    base = build_basis(system.d, *member.bidegree)
    v, q = base.vectors[member.index], base.sq_norms[member.index]
    if member.part == "real":
        return v, q, 1.0
    if member.part == "re":
        return v + v.conj(), 2 * q, 1.0
    return v - v.conj(), 2 * q, -1.0j


def _member_multipliers(system, fam):
    """Each member's multiplier, lambda(max(m, n)) of its own bidegree: an oracle independent of
    LevyProblem.layers."""
    return np.array([lambda_value(fam, max(member.bidegree)) for member in system.members])


def _exact_gram(system):
    """Exact pairwise inner products of a system's members (should be the identity), as floats.

    Polynomial inner products are already in units of omega(d), matching
    the sq_norm units, so no measure constant appears here.
    """
    forms = [_exact_member(system, k) for k in range(system.s)]
    g = np.zeros((system.s, system.s))
    for i, (poly_i, q_i, phase_i) in enumerate(forms):
        for j in range(i, system.s):
            poly_j, q_j, phase_j = forms[j]
            val = poly_i.inner(poly_j)
            phase = (phase_i * np.conj(phase_j)).real
            g[i, j] = g[j, i] = float(val) * phase / math.sqrt(float(q_i) * float(q_j))
    return g


def test_real_system_sizes():
    assert build_real_system(2, 0, 1).s == theta(2, 0, 1, "max") == 7
    assert build_real_system(2, 1, 2).s == theta(2, 1, 2, "max") == 19
    assert build_real_system(3, 0, 1).s == theta(3, 0, 1, "max") == 14


def test_real_system_exactly_orthonormal():
    # (3, 0, 2) and (2, 2, 4) contain diagonal bidegrees (m, m) with m >= 2
    for d, m1, m2 in [(2, 0, 1), (2, 1, 2), (3, 0, 2), (2, 2, 4)]:
        system = build_real_system(d, m1, m2)
        gram = _exact_gram(system)
        assert np.array_equal(gram, np.eye(system.s))


def test_zero_signature_vectors_are_real():
    # the real coordinates take the sigma = 0 basis vectors of (m, m) as they are
    for d, m in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        zero = [v for v in build_basis(d, m, m).vectors
                if all(a == b for a, b in v.terms)]
        assert zero
        for v in zero:
            assert v.conj().terms == v.terms


def test_eval_matrix_matches_exact_members():
    # every column is its member's exact polynomial, evaluated directly
    for d, m1, m2 in [(2, 0, 3), (3, 1, 2)]:
        system = build_real_system(d, m1, m2)
        pts = sample_points(d, 500, seed=4)
        bmat = system.eval_matrix(pts)
        for k in range(system.s):
            poly, sq_norm, phase = _exact_member(system, k)
            direct = phase * poly.eval(pts) / math.sqrt(float(sq_norm) * omega(d))
            assert np.max(np.abs(direct.imag)) < 1e-12
            assert np.max(np.abs(bmat[:, k] - direct.real)) < 1e-12


def test_real_system_rejects_bad_window():
    with pytest.raises(ArgumentError):
        build_real_system(2, 2, 2)


def test_levy_problem_refuses_a_star_graded_family():
    with pytest.raises(ArgumentError, match="max-graded.*'star'"):
        LevyProblem(2, 0, 3, finite_smooth(3, 0, "star"), 2)
    problem = LevyProblem(2, 0, 3, finite_smooth(3, 0, "max"), 2)
    with pytest.raises(ArgumentError, match="'star'"):
        problem._replace(fam=finite_smooth(3, 0, "star"))


def test_parseval_closed_forms():
    assert levy_mean_parseval(LevyProblem(2, 0, 1, identity("max"), 2)) == 1.0
    value = levy_mean_parseval(LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2))
    assert value == pytest.approx(math.exp(-1))


def test_exact_path_matches_parseval():
    for problem in (LevyProblem(2, 0, 1, identity("max"), 2),
                    LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2),
                    LevyProblem(2, 0, 3, finite_smooth(3, 0, "max"), 2)):
        assert levy_mean_mc(problem, 500, 0, seed=0) == LevyEstimate(
            value=levy_mean_parseval(problem), stderr=0.0, stderr_outer=0.0, stderr_cloud=0.0,
            sphere_samples=500, omega_samples=0)


_TABLE_FAMILIES = ("id", "fs:gamma=3,xi=0", "fs:gamma=2,xi=1", "exp:gamma=1,r=1", "exp:gamma=0.5,r=2",
                   "sobolev:gamma=2", "sobolev:gamma=0.5")
_TABLE_WINDOWS = [(d, m1, m2) for d, top in [(2, 5), (3, 3), (4, 2)]
                  for m1 in range(top) for m2 in range(m1 + 1, top + 1)]


@pytest.mark.parametrize("d, m1, m2", _TABLE_WINDOWS)
def test_level_table_gives_every_member_its_multiplier(d, m1, m2):
    # Members are listed level by level, so the table repeated by its counts
    # is the member vector, byte for byte; and the Parseval value from the
    # table agrees with the mean over that vector.
    system = build_real_system(d, m1, m2)
    for spec in _TABLE_FAMILIES:
        problem = LevyProblem(d, m1, m2, parse_family(spec, d, "max"), 2)
        lam = _member_multipliers(system, problem.fam)
        assert np.repeat(*zip(*problem.layers())).tobytes() == lam.tobytes()
        oracle = math.sqrt(float(np.mean(lam**2)))
        assert abs(levy_mean_parseval(problem) - oracle) <= 1e-15 * oracle


@pytest.mark.parametrize("d, m1, m2", [(2, 0, 12), (5, 10, 30)])
@pytest.mark.parametrize("spec", ["fs:gamma=3,xi=0", "sobolev:gamma=2", "exp:gamma=0.5,r=1", "id"])
def test_parseval_past_the_basis_cap_matches_the_exact_sum(d, m1, m2, spec, monkeypatch):
    # Levels past basis.MAX_BIDEGREE: the value comes from the level table
    # alone, and equals the rational sum_l lambda(l)^2 theta_l / s rounded.
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    monkeypatch.setattr(levy, "build_basis", refuse)
    fam = parse_family(spec, d, "max")
    levels = range(m1 + 1, m2 + 1)
    exact = (sum(Fraction(lambda_value(fam, l)) ** 2 * dim_layer(d, l, "max") for l in levels)
             / theta(d, m1, m2, "max"))
    expected = math.sqrt(float(exact))
    assert abs(levy_mean_parseval(LevyProblem(d, m1, m2, fam, 2)) - expected) <= 1e-15 * expected


def test_empty_window_is_refused_by_the_level_table():
    problem = LevyProblem(2, 2, 2, identity("max"), 2)
    for compute in (LevyProblem.layers, levy_bounds, levy_mean_parseval):
        with pytest.raises(ArgumentError, match="need 0 <= M1 < M2"):
            compute(problem)


def test_exact_path_draws_nothing(monkeypatch):
    # 2 x 10^8 outer samples on d = 2, window (0, 1]: a sampled path would
    # hold gigabytes; the exact path reads the sample count only to echo it.
    def refuse(*args):
        raise AssertionError("a coefficient was drawn")

    monkeypatch.setattr(levy, "_chunk_rng", refuse)
    monkeypatch.setattr(levy, "_weighted_rows", refuse)
    problem = LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2)
    est = levy_mean_mc(problem, 2 * 10**8, 0, seed=0)
    assert est.value == levy_mean_parseval(problem)
    assert (est.stderr, est.stderr_outer, est.stderr_cloud) == (0.0, 0.0, 0.0)
    assert est.sphere_samples == 2 * 10**8


@pytest.mark.parametrize("d, m1, m2", [(2, 0, 3), (2, 1, 4), (3, 0, 2), (4, 0, 2)])
def test_window_kernel_is_constant_and_gives_the_parseval_value(d, m1, m2):
    # The addition formula makes sum_k B_k(z)^2 the constant s / omega at
    # every z, and with it sum_k lambda_k^2 B_k(z)^2 = mean(lambda^2) s / omega,
    # the identity behind the exact p = 2 value.
    system = build_real_system(d, m1, m2)
    values = system.eval_matrix(sample_points(d, 1000, seed=11))
    w = omega(d)
    np.testing.assert_allclose(np.sum(values**2, axis=1), system.s / w, rtol=1e-12, atol=0)
    problem = LevyProblem(d, m1, m2, finite_smooth(3, 0, "max"), 2)
    lam = _member_multipliers(system, problem.fam)
    np.testing.assert_allclose(w * (values**2 @ lam**2) / system.s, levy_mean_parseval(problem) ** 2,
                               rtol=1e-12, atol=0)


def test_mc_path_agrees_with_parseval():
    for fam in (identity("max"), exp_analytic(1, 1, "max")):
        for window in [(0, 1), (1, 2)]:
            problem = LevyProblem(2, *window, fam, 2)
            est = levy_mean_mc(problem, 400, 4000, seed=1)
            assert abs(est.value - levy_mean_parseval(problem)) < 3 * est.stderr


def test_identity_p1_levy_mean():
    problem = LevyProblem(2, 0, 1, identity("max"), 1)
    est = levy_mean_mc(problem, 800, 8000, seed=2)
    bounds = levy_bounds(problem)
    # hard bound: the p <= 2 lower estimate sqrt(omega)/2
    assert bounds.lower == pytest.approx(math.sqrt(omega(2)) / 2)
    assert est.value + 3 * est.stderr > bounds.lower
    # soft cross-check: the Gaussian heuristic sqrt(2 omega / pi)
    assert est.value == pytest.approx(math.sqrt(2 * omega(2) / math.pi), rel=0.10)


def test_levy_bounds_case_d_example():
    bounds = levy_bounds(LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2))
    assert bounds.case == "d"
    assert bounds.lower == pytest.approx(math.exp(-1))
    assert bounds.upper == pytest.approx(1.0)
    assert bounds.upper_known and not bounds.inconsistent


def test_levy_bounds_case_c_flagged_inconsistent():
    bounds = levy_bounds(LevyProblem(2, 0, 1, identity("max"), 1))
    assert bounds.case == "c"
    assert bounds.lower == pytest.approx(math.sqrt(omega(2)) / 2)
    assert bounds.upper == pytest.approx(1.0)
    # the stated lower estimate exceeds the stated upper one: flagged, not hidden
    assert bounds.inconsistent


def test_levy_bounds_case_a_structural():
    bounds = levy_bounds(LevyProblem(2, 1, 3, sobolev(1, 2, "max"), 4))
    assert bounds.case == "a"
    assert not bounds.upper_known
    assert bounds.upper > 0 and bounds.lower > 0


def test_levy_case_d_sandwich():
    for fam in (identity("max"), exp_analytic(1, 1, "max")):
        for window in [(0, 1), (1, 2)]:
            problem = LevyProblem(2, *window, fam, 2)
            est = levy_mean_mc(problem, 400, 4000, seed=3)
            bounds = levy_bounds(problem)
            assert bounds.lower <= est.value + 3 * est.stderr
            assert est.value - 3 * est.stderr <= bounds.upper


def test_case_a_empirical_constant_bounded():
    # the extracted constant (estimate over the structural upper factor)
    # stays below 10 across the test grid
    for fam in (identity("max"), exp_analytic(1, 1, "max")):
        for window in [(0, 1), (1, 2)]:
            problem = LevyProblem(2, *window, fam, 4)
            est = levy_mean_mc(problem, 300, 4000, seed=9)
            bounds = levy_bounds(problem)
            assert bounds.case == "a" and not bounds.upper_known
            assert est.value / bounds.upper <= 10


def test_nikolskii_constant_formula():
    # for a constant c: sup = |c|, ||c||_2 = |c| sqrt(omega), so the p = 2
    # sup ratio is exactly 1/sqrt(s)
    s, w = 7.0, omega(2)
    sup, norm2 = 1.0, math.sqrt(w)
    assert sup / ((s / w) ** 0.5 * norm2) == pytest.approx(1 / math.sqrt(s))


def test_nikolskii_p2_no_violations():
    for window in [(0, 1), (0, 2)]:
        report = nikolskii_check(2, *window, 2, 300, seed=0)
        assert report["violations_sup"] == 0
        assert report["violations_p_vs_2"] == 0
        # p = 2 in the p-versus-2 comparison is the exact equality case
        assert report["worst_ratio_p_vs_2"] == pytest.approx(1.0, abs=1e-12)


def test_nikolskii_p4_detects_sup_counterexample():
    # The interpolated sup bound sup|t| <= (s/omega)^(1/p) ||t||_p fails at
    # p = 4 on small windows. Exact witness on the window (0, 1]: the
    # normalised function 2 Re(z_1)/sqrt(omega) has sup 2/sqrt(omega) and
    # fourth-power integral 2/omega, and
    # 2/sqrt(omega) > (7/omega)^(1/4) (2/omega)^(1/4). The checker must
    # report these violations rather than hide them.
    w = omega(2)
    sup_exact = 2 / math.sqrt(w)
    l4_exact = (2 / w) ** 0.25
    assert sup_exact > (7 / w) ** 0.25 * l4_exact
    report = nikolskii_check(2, 0, 1, 4, 300, seed=0)
    assert report["violations_sup"] > 0
    assert report["worst_ratio_sup"] > 1.0
    # the companion p-versus-2 inequality is norm interpolation and holds
    assert report["violations_p_vs_2"] == 0


def test_nikolskii_rejects_bad_arguments():
    with pytest.raises(ArgumentError):
        nikolskii_check(2, 0, 1, 0.5, 10, seed=0)
    with pytest.raises(ArgumentError):
        nikolskii_check(2, 0, 1, 2, 0, seed=0)


def test_levy_mc_outer_chunking_invariant(monkeypatch):
    problem = LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 4)
    monkeypatch.setattr(levy, "_OUTER_ROWS", 7)
    a = levy_mean_mc(problem, 100, 2000, seed=11)
    monkeypatch.setattr(levy, "_OUTER_ROWS", 64)
    b = levy_mean_mc(problem, 100, 2000, seed=11)
    assert a.value == b.value and a.stderr == b.stderr


def test_nikolskii_cap_passes_invariant(monkeypatch):
    # 150 trials in passes of 64 (two full, one short) against one pass: the
    # cloud norms are blocked by _OUTER_ROWS (the cap passes by _CAP_ROWS)
    for p in (1, 3, 4, math.inf):
        reports = []
        for rows in (64, 1000):
            monkeypatch.setattr(levy, "_OUTER_ROWS", rows)
            reports.append(nikolskii_check(2, 0, 1, p, 150, seed=3))
        assert reports[0] == reports[1], p



def test_signed_passes_at_powers_of_two_change_no_bit(monkeypatch):
    # at p = 2^k the passes keep their signs, which the first squaring drops;
    # p = 512 underflows on this window and the window (0, 1] has lambda = 0
    asked = []

    def with_abs(coeffs, values, rows, signed=False):
        asked.append(signed)
        return sphere._abs_products(coeffs, values, rows)

    fs3 = finite_smooth(3, 0, "max")
    for p in (2, 4, 8):
        problem = LevyProblem(2, 0, 3, fs3, p)
        signed = levy_mean_mc(problem, 100, 4000, seed=9)
        with monkeypatch.context() as patch:
            patch.setattr(levy, "_abs_products", with_abs)
            assert levy_mean_mc(problem, 100, 4000, seed=9) == signed, p
        assert asked and all(asked)
        asked.clear()
    with pytest.raises(ArgumentError, match="p = 512"):
        levy_mean_mc(LevyProblem(2, 0, 3, fs3, 512), 50, 4000, seed=0)
    zero = levy_mean_mc(LevyProblem(2, 0, 1, fs3, 512), 50, 4000, seed=0)
    assert zero.value == zero.stderr == 0


def test_cloud_products_are_formed_only_by_the_pass_layer(monkeypatch):
    # 150 rows are passes of 64, 64 and 22, for each cloud block of the Levy
    # mean. At p = inf the Levy mean is homogeneous bit for bit (max, squares,
    # mean and sqrt of values scaled by 2), so doubling every yielded pass
    # doubles it exactly only if no cloud product bypasses the layer.
    passes, scale = [], 1.0

    def counted(coeffs, values, rows, signed=False):
        for part, mags in sphere._abs_products(coeffs, values, rows, signed):
            passes.append(len(mags))
            yield part, np.multiply(mags, scale, out=mags)

    monkeypatch.setattr(levy, "_abs_products", counted)
    levy_mean_mc(LevyProblem(2, 0, 2, finite_smooth(3, 0, "max"), 3), 150, 4000, seed=5)
    assert passes == [64, 64, 22] * levy._CLOUD_BLOCKS
    passes.clear()
    nikolskii_check(2, 0, 2, 4, 150, seed=3)
    assert passes == [64, 64, 22]
    problem = LevyProblem(2, 0, 2, finite_smooth(3, 0, "max"), math.inf)
    plain = levy_mean_mc(problem, 150, 4000, seed=5)
    scale = 2.0
    doubled = levy_mean_mc(problem, 150, 4000, seed=5)
    assert (doubled.value, doubled.stderr_outer, doubled.stderr_cloud) == (
        2 * plain.value, 2 * plain.stderr_outer, 2 * plain.stderr_cloud)


# The benchmark's four cloud levy ops at their p, at reduced sizes: 250 outer
# rows are three full passes of 64 and a short one of 58, or one full pass
# of 200 and a short one of 50.
@pytest.mark.parametrize("d, m1, m2, family, p", [
    (2, 0, 3, "fs:gamma=3,xi=0", 4), (2, 0, 3, "fs:gamma=3,xi=0", math.inf),
    (3, 0, 2, "fs:gamma=3,xi=0", 3), (2, 1, 4, "sobolev:gamma=2", 1)])
def test_levy_mc_equal_at_64_and_200_outer_rows(monkeypatch, d, m1, m2, family, p):
    problem = LevyProblem(d, m1, m2, parse_family(family, d, "max"), p)
    estimates = []
    for rows in (64, 200):
        monkeypatch.setattr(levy, "_OUTER_ROWS", rows)
        estimates.append(levy_mean_mc(problem, 250, 4000, seed=29))
    a, b = estimates
    assert (a.value, a.stderr_outer, a.stderr_cloud) == (b.value, b.stderr_outer, b.stderr_cloud)


@pytest.mark.parametrize("p", [4, math.inf])
def test_nikolskii_equal_at_64_and_200_rows(monkeypatch, p):
    # the benchmark's window; 450 trials: seven full passes of 64 and a short
    # one of 2, or two full passes of 200 and a short one of 50
    reports = []
    for rows in (64, 200):
        monkeypatch.setattr(levy, "_OUTER_ROWS", rows)
        reports.append(nikolskii_check(2, 0, 2, p, 450, seed=19))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("p", [3, math.inf])
def test_nikolskii_equal_at_16_64_and_1000_cap_rows(monkeypatch, p):
    # 150 trials: cap passes of 16 (nine full, one short of 6), of 64 (two
    # full, one short of 22), or one pass
    reports = []
    for rows in (16, 64, 1000):
        monkeypatch.setattr(levy, "_CAP_ROWS", rows)
        reports.append(nikolskii_check(2, 0, 2, p, 150, seed=23))
    assert reports[0] == reports[1] == reports[2]


def test_levy_mc_argument_errors():
    problem = LevyProblem(2, 0, 1, identity("max"), 4)
    with pytest.raises(ArgumentError):
        levy_mean_mc(problem, 1, 4000, seed=0)
    with pytest.raises(ArgumentError):
        levy_mean_mc(problem, 100, 10, seed=0)  # inner cloud too small
    with pytest.raises(ArgumentError):
        levy_mean_mc(LevyProblem(2, 0, 1, identity("max"), 0.5), 100, 4000, seed=0)


def test_nan_exponent_is_refused():
    # NaN fails every comparison, so "p < 1" let it through; "not p >= 1" does not
    with pytest.raises(ArgumentError, match="need p >= 1"):
        levy_mean_mc(LevyProblem(2, 0, 1, identity("max"), math.nan), 100, 4000, seed=0)
    with pytest.raises(ArgumentError, match="need p >= 1"):
        nikolskii_check(2, 0, 1, math.nan, 10, seed=0)
    with pytest.raises(ArgumentError, match="need p >= 1"):
        lp_norm_mc(np.ones((2, 10)), math.nan, 2)
    assert lp_norm_mc(np.ones(10), math.inf, 2) == (1.0, 0.0)


def _chunked_levy_oracle(prob, sphere_samples, omega_samples, seed, chunk=200, cloud_blocks=8):
    """The earlier levy_mean_mc: one-shot outer draw, np.abs and ** on each chunk's full product.

    Returns (value, stderr_outer, stderr_cloud) of the shared-cloud path.
    """
    system, p = prob.system(), prob.p
    lam = _member_multipliers(system, prob.fam)
    x = _chunk_rng(seed, 777).standard_normal((sphere_samples, system.s))
    weighted = x / np.linalg.norm(x, axis=1, keepdims=True) * lam
    omega_samples -= omega_samples % cloud_blocks
    bmat = system.eval_matrix(sample_points(prob.d, omega_samples, seed + 1))
    per_block = omega_samples // cloud_blocks
    block_stat = np.empty((sphere_samples, cloud_blocks))
    for start in range(0, sphere_samples, chunk):
        vals = np.abs(weighted[start:start + chunk] @ bmat.T)
        shaped = vals.reshape(vals.shape[0], cloud_blocks, per_block)
        if p == math.inf:
            block_stat[start:start + chunk] = shaped.max(axis=2)
        else:
            block_stat[start:start + chunk] = (shaped**p).mean(axis=2)
    w = omega(prob.d)
    if p == math.inf:
        sq = block_stat.max(axis=1) ** 2
        block_means = np.sqrt(np.mean(block_stat**2, axis=0))
    else:
        sq = ((w * block_stat.mean(axis=1)) ** (1.0 / p)) ** 2
        block_means = np.sqrt(np.mean((w * block_stat) ** (2.0 / p), axis=0))
    se_cloud = float(np.std(block_means, ddof=1)) / math.sqrt(cloud_blocks)
    value = math.sqrt(float(np.mean(sq)))
    se_outer = float(np.std(sq, ddof=1)) / math.sqrt(sphere_samples) / (2.0 * value)
    return value, se_outer, se_cloud


@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 6, math.inf])
def test_levy_mc_matches_chunked_oracle(p):
    # 450 outer rows: two full chunks of 200 and a short one of 50
    problem = LevyProblem(2, 0, 2, finite_smooth(3, 0, "max"), p)
    est = levy_mean_mc(problem, 450, 4004, seed=5)
    value, se_outer, se_cloud = _chunked_levy_oracle(problem, 450, 4004, seed=5)
    assert est.omega_samples == 4000
    assert est.value == pytest.approx(value, rel=1e-13, abs=0)
    assert est.stderr == pytest.approx(math.hypot(se_outer, se_cloud), rel=1e-13, abs=0)
    assert est.stderr_outer == pytest.approx(se_outer, rel=1e-13, abs=0)
    assert est.stderr_cloud == pytest.approx(se_cloud, rel=1e-13, abs=0)
    assert est.stderr == math.hypot(est.stderr_outer, est.stderr_cloud)


def test_levy_mc_memory_stays_one_block_buffer():
    # 1000 x 50000 at p = 4 on a window with s = 63. The (omega_samples, s)
    # cloud matrix (25 MB) is never held: the outer rows are 0.5 MB, one
    # cloud block's points 0.2 MB, the block 3.2 MB and the 64-row pass
    # buffer 3.2 MB; the peak is about 6.6 MiB, and 13.9 MiB when the call
    # compiles the window's MonomialMap.
    problem = LevyProblem(2, 0, 3, parse_family("fs:gamma=3,xi=0", 2, "max"), 4)
    assert problem.system().s == 63
    tracemalloc.start()
    try:
        levy_mean_mc(problem, 1000, 50000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_levy_mc_peak_grows_by_one_cloud_block():
    # Doubling omega_samples from 24000 to 48000 adds 3000 rows to the
    # cloud block buffer (s = 63 columns) and 3000 columns to the pass
    # buffer (64 rows), plus 3000 complex points of one block (the bound
    # still allows 24000); a held (omega_samples, s) cloud matrix would add
    # 12 MB more, and 200-row passes 3.3 MB. Exact row means need a whole
    # block row at once, so these buffers must grow with omega_samples.
    problem = LevyProblem(2, 0, 3, parse_family("fs:gamma=3,xi=0", 2, "max"), 4)
    levy_mean_mc(problem, 2, 1000, seed=0)  # compile the window first
    peaks = []
    for omega_samples in (24000, 48000):
        tracemalloc.start()
        try:
            levy_mean_mc(problem, 1000, omega_samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    streamed = 3000 * (63 + 64) * 8 + 24000 * 2 * 16
    assert peaks[1] - peaks[0] <= streamed + 2**18


def test_levy_mc_block_is_one_evaluation_call():
    # levy-d2-sobolev-p1: d = 2, window (1, 4], s = 117, 1000 x 25000 at p = 1.
    # Each (3125, 117) cloud block is one eval_matrix call, freed before the
    # next is evaluated; the peak is about 7.9 MiB. Copying evaluation chunks
    # into a reused block buffer, which keeps the last (2048, 117) chunk alive
    # beside the block through the pass products, peaks near 10.7 MiB.
    problem = LevyProblem(2, 1, 4, parse_family("sobolev:gamma=2", 2, "max"), 1)
    assert problem.system().s == 117
    levy_mean_mc(problem, 1000, 25000, seed=0)  # compile the window first
    tracemalloc.start()
    try:
        levy_mean_mc(problem, 1000, 25000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20


# Peaks in MiB with the window's map compiled: 7.93 and 6.60 here; 8.52 and
# 13.09 with 200-row passes; 8.60 and 8.13 with the whole cloud's points drawn
# up front; 9.46 and 9.44 with pass buffers held beside the next block's
# evaluation; 8.99 and 7.02 with each coordinate's (2048, F) factor table;
# 8.39 and 6.60 with a second (2048, s) product for the padded last chunk;
# 7.93 and 7.54 with the padding rows kept in the block.
@pytest.mark.parametrize("d, m1, m2, family, p, omega_samples, bound_mib", [
    (2, 1, 4, "sobolev:gamma=2", 1, 25000, 8.2),
    (2, 0, 3, "fs:gamma=3,xi=0", 4, 50000, 7)])
def test_levy_mc_peak_of_64_row_passes_and_64_column_gathers(d, m1, m2, family, p, omega_samples,
                                                              bound_mib):
    problem = LevyProblem(d, m1, m2, parse_family(family, d, "max"), p)
    levy_mean_mc(problem, 2, 1000, seed=0)  # compile the window first
    tracemalloc.start()
    try:
        levy_mean_mc(problem, 1000, omega_samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_nikolskii_holds_one_cloud_array():
    # The (s, 4096) cloud coordinate values are the one array of cloud size
    # that lives through the cloud passes, which form |t| 64 trials at a
    # time; they are released before the cap search.
    tracemalloc.start()
    try:
        nikolskii_check(2, 0, 2, 4, 500, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_nikolskii_peak_is_bounded_by_blocked_passes():
    # One pass of 64 trials holds its 2 MiB of |t| on the 4096-point cloud
    # and one work buffer of that size for |t|^q and its deviations; the cap
    # passes hold one pass of 16 trials' coordinate values at a time. The
    # peak is about 8.0 MiB (13.6 MiB with 200-row passes, 10.1 MiB with
    # 64-trial cap passes, 8.9 MiB with the cloud values held through the
    # cap search). No (trials, omega_samples) array is formed.
    nikolskii_check(2, 0, 2, 4, 10, 17)  # compiles the window's map
    tracemalloc.start()
    try:
        nikolskii_check(2, 0, 2, 4, 500, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20


def test_nikolskii_cap_phase_holds_no_cloud_and_one_16_trial_pass(monkeypatch):
    # d = 2, window (0, 2] (s = 26): 64 trials on 16,384 cloud points. The cap
    # search holds the (64, 256, 2) cap array (0.5 MiB), its moduli, the
    # caps' values and one pass of 16 trials: the (4096, 26) coordinate
    # values of its cap points (0.8 MiB) and the evaluator's tables. Its peak
    # is about 2.4 MiB. The (26, 16384) cloud values (3.3 MiB) held into it,
    # or 64-trial passes (3.3 MiB of coordinate values), break the bound.
    peaks = []

    def traced(*args):
        tracemalloc.reset_peak()
        best = sup_norm_refined(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return best

    monkeypatch.setattr(levy, "sup_norm_refined", traced)
    nikolskii_check(2, 0, 2, 4, 64, 1, omega_samples=16384)  # compiles the window's map
    tracemalloc.start()
    try:
        nikolskii_check(2, 0, 2, 4, 64, 1, omega_samples=16384)
    finally:
        tracemalloc.stop()
    assert peaks[-1] < 3 * 2**20


def test_nikolskii_pass_holds_two_cloud_size_arrays():
    # Per cloud point a pass holds |t| and the one work buffer of both
    # norms, 2 x 64 x 8 bytes, besides the cloud values and the points. A
    # third pass array (a |t|^q copy, or std's deviations beside it) would
    # exceed the bound by 4 MiB at 8192 more points.
    s = build_real_system(2, 0, 2).s
    nikolskii_check(2, 0, 2, 3, 200, 17, omega_samples=1000)  # compiles the window's map
    peaks = []
    for omega_samples in (8192, 16384):
        tracemalloc.start()
        try:
            nikolskii_check(2, 0, 2, 3, 200, 17, omega_samples=omega_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_point = 2 * 64 * 8 + s * 8 + 2 * 16  # two pass arrays, the cloud, the points
    assert peaks[1] - peaks[0] <= 8192 * per_point + 2**18


def _full_matrix_levy_oracle(prob, sphere_samples, omega_samples, seed):
    """The earlier levy_mean_mc: the whole (omega_samples, s) cloud matrix, passes outside."""
    p = prob.p
    system = prob.system()
    lam = _member_multipliers(system, prob.fam)
    rng = _chunk_rng(seed, 777)
    omega_samples -= omega_samples % levy._CLOUD_BLOCKS
    pts = sample_points(prob.d, omega_samples, seed + 1)
    bmat = system.eval_matrix(pts)
    per_block = omega_samples // levy._CLOUD_BLOCKS
    blocks = [bmat[b * per_block:(b + 1) * per_block].T for b in range(levy._CLOUD_BLOCKS)]
    buf = np.empty((min(levy._OUTER_ROWS, sphere_samples), per_block))
    block_stat = np.empty((sphere_samples, levy._CLOUD_BLOCKS))
    for start in range(0, sphere_samples, levy._OUTER_ROWS):
        rows = min(levy._OUTER_ROWS, sphere_samples - start)
        x = rng.standard_normal((rows, system.s))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x *= lam
        for b, block in enumerate(blocks):
            v = np.matmul(x, block, out=buf[:rows])
            if p == math.inf:
                block_stat[start:start + rows, b] = np.maximum(v.max(axis=1), -v.min(axis=1))
            else:
                block_stat[start:start + rows, b] = abs_power_inplace(v, p).mean(axis=1)
    w = omega(prob.d)
    if p == math.inf:
        sq = block_stat.max(axis=1) ** 2
        block_means = np.sqrt(np.mean(block_stat**2, axis=0))
    else:
        norms = (w * block_stat.mean(axis=1)) ** (1.0 / p)
        sq = norms**2
        block_means = np.sqrt(np.mean((w * block_stat) ** (2.0 / p), axis=0))
    se_cloud = float(np.std(block_means, ddof=1)) / math.sqrt(levy._CLOUD_BLOCKS)
    value = math.sqrt(float(np.mean(sq)))
    se_outer = float(np.std(sq, ddof=1)) / math.sqrt(sphere_samples)
    se_outer = se_outer / (2.0 * value) if value > 0 else 0.0
    return LevyEstimate(value=value, stderr=math.hypot(se_outer, se_cloud),
                        stderr_outer=se_outer, stderr_cloud=se_cloud,
                        sphere_samples=sphere_samples, omega_samples=omega_samples)


# 4004 points: blocks of 500, four to one 2048-point evaluation chunk;
# 20005 points: blocks of 2500, each straddling a chunk boundary, and a
# short last chunk of 1568.
@pytest.mark.parametrize("omega_samples", [4004, 20005])
@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 6, math.inf])
def test_levy_mc_equals_full_matrix_oracle(p, omega_samples):
    # 450 outer rows: seven full passes of 64 and a short one of 2
    problem = LevyProblem(2, 0, 2, finite_smooth(3, 0, "max"), p)
    est = levy_mean_mc(problem, 450, omega_samples, seed=5)
    assert est == _full_matrix_levy_oracle(problem, 450, omega_samples, seed=5)


def _full_mags_sup_oracle(f, points, mags, seed):
    """The earlier sup_norm_refined: starts from the full (B, N) mags; fresh cap arrays per round."""
    best = mags.max(axis=1)
    centers = points[mags.argmax(axis=1)]
    batch, d = centers.shape
    sigma = _CAP_SHRINK
    for r in range(_CAP_ROUNDS):
        rng = _chunk_rng(seed, 9000 + r)
        offsets = rng.standard_normal((batch, _CAP_SAMPLES, d)) \
            + 1j * rng.standard_normal((batch, _CAP_SAMPLES, d))
        cap = centers[:, None, :] + sigma * offsets
        cap /= np.sqrt(np.sum(np.abs(cap) ** 2, axis=2, keepdims=True))
        cap_vals = np.abs(f(cap))
        round_best = cap_vals.max(axis=1)
        improved = round_best > best
        centers = np.where(improved[:, None], cap[np.arange(batch), cap_vals.argmax(axis=1)], centers)
        best = np.maximum(best, round_best)
        sigma *= _CAP_SHRINK
    return best


def _full_array_nikolskii_oracle(d, m1, m2, p, trials, seed, omega_samples=4096):
    """The earlier nikolskii_check: the whole (trials, omega_samples) array of |t|."""
    system = build_real_system(d, m1, m2)
    s = system.s
    w = omega(d)
    coeffs = _chunk_rng(seed, 555).standard_normal((trials, s))
    pts = sample_points(d, omega_samples, seed + 2)
    mags = coeffs @ system.eval_matrix(pts).T
    np.abs(mags, out=mags)
    rows_per_pass = levy._OUTER_ROWS

    def cap_values(cap):
        out = np.empty(cap.shape[:-1])
        for start in range(0, trials, rows_per_pass):
            rows = slice(start, start + rows_per_pass)
            out[rows] = np.einsum("ts,tns->tn", coeffs[rows], system.eval_matrix(
                cap[rows].reshape(-1, d)).reshape(-1, cap.shape[1], s))
        return out

    sup = _full_mags_sup_oracle(cap_values, pts, mags, seed)

    def cloud_norms(q):
        parts = [lp_norm_mc(mags[start:start + rows_per_pass], q, d)
                 for start in range(0, trials, rows_per_pass)]
        return np.concatenate([v for v, _ in parts]), np.concatenate([e for _, e in parts])

    norm2, se_2 = cloud_norms(2)
    if p == math.inf:
        norm_p, se_p = sup, np.zeros(trials)
    else:
        norm_p, se_p = cloud_norms(p)
    ratio_sup = sup / ((s / w) ** (1.0 / p) * norm_p)
    se_ratio_sup = ratio_sup * se_p / norm_p
    report = {
        "d": d, "window": [m1, m2], "p": p, "trials": trials, "s": s,
        "violations_sup": int(np.sum(ratio_sup > 1.0 + 3.0 * se_ratio_sup)),
        "worst_ratio_sup": float(ratio_sup.max()),
    }
    if p >= 2:
        ratio_p2 = norm_p / ((s / w) ** (0.5 - 1.0 / p) * norm2)
        rel_se = np.sqrt((se_p / np.maximum(norm_p, 1e-300)) ** 2
                         + (se_2 / np.maximum(norm2, 1e-300)) ** 2)
        report["violations_p_vs_2"] = int(np.sum(ratio_p2 > 1.0 + 3.0 * ratio_p2 * rel_se))
        report["worst_ratio_p_vs_2"] = float(ratio_p2.max())
    else:
        report["violations_p_vs_2"] = None
        report["worst_ratio_p_vs_2"] = None
    return report


@pytest.mark.parametrize("p", [1, 2, 3, 4, math.inf])
def test_nikolskii_equals_full_array_oracle(p):
    # 450 trials: seven full passes of 64 and a short one of 2
    report = nikolskii_check(2, 0, 2, p, 450, seed=13)
    assert report == _full_array_nikolskii_oracle(2, 0, 2, p, 450, seed=13)


def test_levy_cost_guard_refuses_before_any_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    monkeypatch.setattr(levy, "build_basis", refuse)
    # d = 3, window (0, 6]: s = 3919, so 2 x 1000 x 3919 x 10^6 flops
    problem = LevyProblem(3, 0, 6, finite_smooth(3, 0, "max"), 4)
    assert theta(3, 0, 6, "max") == 3919
    with pytest.raises(ArgumentError, match=r"= 7\.84e\+12 flops > 2e\+12"):
        levy_mean_mc(problem, 1000, 10**6, seed=0)
    with pytest.raises(ArgumentError, match="refused"):
        check_cloud_cost(problem, 1000, 10**6)
    check_cloud_cost(problem, 1000, 10**5)  # 7.8e11 flops, about 24 s: accepted


def test_levy_memory_guard_refuses_before_any_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    monkeypatch.setattr(levy, "build_basis", refuse)
    # d = 3, window (0, 6] at 2 x 10^7: 1.6e11 flops pass the flop guard, but
    # the (1250000, 3919) cloud block alone is 39 GB. Only the estimate runs.
    problem = LevyProblem(3, 0, 6, finite_smooth(3, 0, "max"), 4)
    assert 2 * 2 * 3919 * 10**7 <= basis.MAX_CLOUD_FLOPS
    want = 8 * (2 * (3919 + 26) + 1250000 * 3919 + 2 * 1250000) + 16 * 1250000 * 3
    assert f"{want / 1e9:.1f}" == "39.3"
    with pytest.raises(ArgumentError, match=r"take an estimated 39\.3 GB .*cloud block"
                                            r" 1250000 x 3919.* > 2 GB"):
        levy_mean_mc(problem, 2, 10**7, seed=0)
    with pytest.raises(ArgumentError, match="refused"):
        check_cloud_cost(problem, 2, 10**7)
    # 6312000 + 3989 x omega_samples bytes at 200 outer samples in passes of 64,
    # with one cloud block's points: just under (1.985e9 B) and just over
    # (2.017e9 B) the ceiling
    check_cloud_cost(problem, 200, 496000)
    with pytest.raises(ArgumentError, match="estimated 2.0 GB"):
        check_cloud_cost(problem, 200, 504000)
    # d = 2, window (0, 1] has s = 7: at 3.5 x 10^7 outer samples the outer rows
    # take 1.96 GB, but the (3.5e7, 8) block statistics, the closing reduction's
    # two temporaries of that size, the norms and their squares add 26 floats
    # per sample, 9.2 GB in all, at 4.9e11 flops.
    small = LevyProblem(2, 0, 1, finite_smooth(3, 0, "max"), 4)
    assert 2 * 35 * 10**6 * 7 * 1000 <= basis.MAX_CLOUD_FLOPS
    assert 8 * 35 * 10**6 * 7 < basis.MAX_CLOUD_BYTES
    with pytest.raises(ArgumentError, match=r"estimated 9\.2 GB .*block statistics"
                                            r" 35000000 x 8 x 3, norms 35000000 x 2\)"):
        levy_mean_mc(small, 35 * 10**6, 1000, seed=0)


def test_levy_memory_guard_counts_the_powering_copy(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(levy, "build_real_system", refuse)
    monkeypatch.setattr(levy, "build_basis", refuse)
    # d = 2, window (0, 1] has s = 7. At 200 x 16 x 10^6 the arrays take 1.20 GB,
    # and at p = 3, 5, 6, 7 the powering's (64, 2 x 10^6) |v| buffer adds 1.0 GB.
    # Only the estimate runs.
    assert [p for p in (1, 2, 2.5, 3, 4, 5, 6, 7, 8, math.inf) if power_needs_base(p)] == [3, 5, 6, 7]
    want = 8 * (200 * (7 + 26) + 2 * 10**6 * 7 + 64 * 2 * 10**6) + 16 * 2 * 10**6 * 2
    assert f"{want / 1e9:.2f}" == "1.20"
    for p in (1, 2, 2.5, 4, 8, math.inf):
        check_cloud_cost(LevyProblem(2, 0, 1, identity("max"), p), 200, 16 * 10**6)
    for p in (3, 5, 6, 7):
        problem = LevyProblem(2, 0, 1, identity("max"), p)
        with pytest.raises(ArgumentError, match=r"estimated 2\.2 GB .*pass buffer 64 x 2000000 x 2,"):
            check_cloud_cost(problem, 200, 16 * 10**6)
        with pytest.raises(ArgumentError, match="refused"):
            levy_mean_mc(problem, 200, 16 * 10**6, seed=0)
    # 52800 + 139 x omega_samples bytes at p = 3: just under (1.99943e9) and
    # just over (2.00054e9) the ceiling; p = 4 holds 64 fewer per point
    check_cloud_cost(LevyProblem(2, 0, 1, identity("max"), 3), 200, 14384000)
    with pytest.raises(ArgumentError, match="refused"):
        check_cloud_cost(LevyProblem(2, 0, 1, identity("max"), 3), 200, 14392000)
    check_cloud_cost(LevyProblem(2, 0, 1, identity("max"), 4), 200, 14392000)


# The benchmark's levy command lines, as (d, N, lmax, sphere samples, omega samples).
BENCHMARK_LEVY_OPS = [(2, 0, 3, 1000, 50000), (3, 0, 2, 1000, 25000), (2, 1, 4, 1000, 25000),
                      (2, 0, 3, 100000, 0)]


@pytest.mark.parametrize("d, m1, m2, sphere_samples, omega_samples", BENCHMARK_LEVY_OPS)
def test_benchmark_levy_ops_pass_the_cost_guard(d, m1, m2, sphere_samples, omega_samples):
    check_cloud_cost(LevyProblem(d, m1, m2, identity("max"), 4), sphere_samples, omega_samples)
