"""Levy means, their two-sided bounds, and the norm-comparison checks."""

import math
import tracemalloc

import numpy as np
import pytest

from cspherelab import levy
from cspherelab.basis import build_basis
from cspherelab.dimensions import theta
from cspherelab.errors import ArgumentError
from cspherelab.levy import (
    LevyProblem,
    build_real_system,
    levy_bounds,
    levy_mean_mc,
    levy_mean_parseval,
    nikolskii_check,
)
from cspherelab.multipliers import exp_analytic, finite_smooth, identity, parse_family, sobolev
from cspherelab.sphere import _chunk_rng, omega, sample_points


def test_real_system_sizes():
    assert build_real_system(2, 0, 1).s == theta(2, 0, 1, "max") == 7
    assert build_real_system(2, 1, 2).s == theta(2, 1, 2, "max") == 19
    assert build_real_system(3, 0, 1).s == theta(3, 0, 1, "max") == 14


def test_real_system_exactly_orthonormal():
    # (3, 0, 2) and (2, 2, 4) contain diagonal bidegrees (m, m) with m >= 2
    for d, m1, m2 in [(2, 0, 1), (2, 1, 2), (3, 0, 2), (2, 2, 4)]:
        system = build_real_system(d, m1, m2)
        gram = system.exact_gram()
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
            poly, sq_norm, phase = system.exact_member(k)
            direct = phase * poly.eval(pts) / math.sqrt(float(sq_norm) * omega(d))
            assert np.max(np.abs(direct.imag)) < 1e-12
            assert np.max(np.abs(bmat[:, k] - direct.real)) < 1e-12


def test_real_system_rejects_bad_window():
    with pytest.raises(ArgumentError):
        build_real_system(2, 2, 2)


def test_parseval_closed_forms():
    assert levy_mean_parseval(LevyProblem(2, 0, 1, identity("max"), 2)) == 1.0
    value = levy_mean_parseval(LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2))
    assert value == pytest.approx(math.exp(-1))


def test_exact_path_matches_parseval():
    problem = LevyProblem(2, 0, 1, exp_analytic(1, 1, "max"), 2)
    est = levy_mean_mc(problem, 500, 0, seed=0)
    assert est.value == pytest.approx(levy_mean_parseval(problem), abs=1e-12)


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
    # cap passes and the cloud norms are both blocked by _OUTER_ROWS
    for p in (1, 3, 4, math.inf):
        reports = []
        for rows in (64, 1000):
            monkeypatch.setattr(levy, "_OUTER_ROWS", rows)
            reports.append(nikolskii_check(2, 0, 1, p, 150, seed=3))
        assert reports[0] == reports[1], p


def test_levy_mc_argument_errors():
    problem = LevyProblem(2, 0, 1, identity("max"), 4)
    with pytest.raises(ArgumentError):
        levy_mean_mc(problem, 1, 4000, seed=0)
    with pytest.raises(ArgumentError):
        levy_mean_mc(problem, 100, 10, seed=0)  # inner cloud too small
    with pytest.raises(ArgumentError):
        levy_mean_mc(LevyProblem(2, 0, 1, identity("max"), 0.5), 100, 4000, seed=0)


def _chunked_levy_oracle(prob, sphere_samples, omega_samples, seed, chunk=200, cloud_blocks=8):
    """The earlier levy_mean_mc: one-shot outer draw, np.abs and ** on each chunk's full product.

    Returns (value, stderr_outer, stderr_cloud) of the shared-cloud path.
    """
    system, p = prob.system(), prob.p
    lam = system.multiplier_vector(prob.fam)
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


@pytest.mark.parametrize("fam, count", [(finite_smooth(3, 0, "max"), 1234), (identity("max"), 777)])
def test_levy_exact_path_equals_one_shot_draw(fam, count):
    # With the identity every squared norm is 1 up to rounding, so stderr
    # sees a change of rounding in any row.
    problem = LevyProblem(2, 0, 3, fam, 2)
    est = levy_mean_mc(problem, count, 0, seed=8)
    system = problem.system()
    x = _chunk_rng(8, 777).standard_normal((count, system.s))
    weighted = x / np.linalg.norm(x, axis=1, keepdims=True) * system.multiplier_vector(fam)
    sq = np.sum(weighted**2, axis=1)
    value = math.sqrt(float(np.mean(sq)))
    se_outer = float(np.std(sq, ddof=1)) / math.sqrt(count) / (2.0 * value)
    assert est.value == value
    assert est.stderr_outer == se_outer
    assert est.stderr_cloud == 0.0
    assert est.stderr == se_outer


def test_levy_mc_memory_stays_one_block_buffer():
    # 1000 x 50000 at p = 4 on a window with s = 63: the full product would
    # be 400 MB and one 200-row chunk of it 80 MB; one block buffer is 10 MB
    # and the cloud's coordinate matrix 25 MB.
    problem = LevyProblem(2, 0, 3, parse_family("fs:gamma=3,xi=0", 2, "max"), 4)
    assert problem.system().s == 63
    tracemalloc.start()
    try:
        levy_mean_mc(problem, 1000, 50000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_nikolskii_holds_one_cloud_array():
    # 500 x 4096 cloud magnitudes are 16 MB; the sup search and both L^p
    # norms read that one array, with no signed copy beside it.
    tracemalloc.start()
    try:
        nikolskii_check(2, 0, 2, 4, 500, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_nikolskii_peak_is_bounded_by_blocked_passes():
    # The 16 MB cloud magnitudes are the one array of (trials x cloud) size:
    # the cap passes hold one pass of coordinate values at a time, and the
    # cloud norms copy |t|^p one _OUTER_ROWS block of trials at a time.
    tracemalloc.start()
    try:
        nikolskii_check(2, 0, 2, 4, 500, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2**20

