"""Polynomial evaluators against independent closed-form oracles."""

import math

import numpy as np
import pytest

from cspherelab.errors import ArgumentError
from cspherelab.polynomials import (check_table_degree, disk_poly_eval, disk_poly_table, gegenbauer_eval,
                                    gegenbauer_terms,
                                    jacobi_eval)


def gen_binom(a, j):
    """Generalised binomial coefficient via Gamma, for real upper argument."""
    return math.gamma(a + 1) / (math.gamma(j + 1) * math.gamma(a - j + 1))


def jacobi_sum_formula(k, alpha, beta, x):
    """Independent oracle: the finite hypergeometric sum for P_k^(a,b)."""
    total = 0.0
    for s in range(k + 1):
        total += (gen_binom(k + alpha, k - s) * gen_binom(k + beta, s)
                  * ((x - 1) / 2.0) ** s * ((x + 1) / 2.0) ** (k - s))
    return total


def gegenbauer_sum_formula(k, lam, t):
    """Independent oracle: the alternating Gamma-quotient sum for C_k^lam."""
    total = 0.0
    for i in range(k // 2 + 1):
        total += ((-1) ** i * math.gamma(k - i + lam) / (math.gamma(lam)
                  * math.factorial(i) * math.factorial(k - 2 * i)) * (2 * t) ** (k - 2 * i))
    return total


def test_jacobi_degree_zero_is_one():
    assert jacobi_eval(0, 1.3, 2.7, 0.7) == 1.0


def test_jacobi_degree_one_closed_form():
    # P_1 = ((alpha+beta+2) x + (alpha-beta)) / 2 gives 0.5 at (0, 0, 0.5)
    assert jacobi_eval(1, 0, 0, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_jacobi_value_at_one_identity():
    for k in range(21):
        for alpha in range(4):
            for beta in range(4):
                assert jacobi_eval(k, alpha, beta, 1.0) == pytest.approx(
                    math.comb(k + alpha, k), rel=1e-12)


def test_jacobi_binomial_example():
    assert jacobi_eval(3, 2, 1, 1.0) == pytest.approx(math.comb(5, 3))


def test_jacobi_matches_sum_formula_low_degrees():
    xs = np.linspace(-1, 1, 17)
    for k in range(4):
        for alpha, beta in [(0, 0), (1, 2), (2, 5), (0.5, 1.5)]:
            for x in xs:
                assert jacobi_eval(k, alpha, beta, x) == pytest.approx(
                    jacobi_sum_formula(k, alpha, beta, x), abs=1e-13)


def test_jacobi_argument_errors():
    with pytest.raises(ArgumentError):
        jacobi_eval(-1, 0, 0, 0.5)
    with pytest.raises(ArgumentError):
        jacobi_eval(2, 0, 0, float("nan"))
    with pytest.raises(ArgumentError):
        jacobi_eval(2, 0, 0, 1.1)
    # round-off above 1 is clamped, not rejected
    assert jacobi_eval(2, 0, 0, 1.0 + 5e-13) == pytest.approx(1.0)


def test_gegenbauer_degree_zero_and_one():
    assert gegenbauer_eval(0, 1.0, -0.3) == 1.0
    assert gegenbauer_eval(1, 1.0, 0.5) == pytest.approx(1.0)  # C_1 = 2 lam t


def test_gegenbauer_value_at_one():
    for k in range(15):
        for lam in (0.5, 1.0, 2.0, 3.0):
            expect = math.gamma(k + 2 * lam) / (math.gamma(2 * lam) * math.factorial(k))
            assert gegenbauer_eval(k, lam, 1.0) == pytest.approx(expect, rel=1e-11)
    assert gegenbauer_eval(3, 1.0, 1.0) == pytest.approx(math.comb(4, 3))


def test_gegenbauer_matches_sum_formula():
    ts = np.linspace(-1, 1, 13)
    for k in range(7):
        for lam in (0.5, 1.0, 1.5, 3.0):
            for t in ts:
                assert gegenbauer_eval(k, lam, t) == pytest.approx(
                    gegenbauer_sum_formula(k, lam, t), abs=1e-11)


def _restarted_gegenbauer(k, lam, t):
    """The earlier gegenbauer_eval: the recurrence run from degree 0 up to k alone."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    c_prev = np.ones_like(t)
    if k == 0:
        return c_prev
    c_cur = 2.0 * lam * t
    two_t = 2.0 * t
    for n in range(2, k + 1):
        c_next = two_t * (n + lam - 1.0)
        c_next *= c_cur
        c_next -= (n + 2.0 * lam - 2.0) * c_prev
        c_next /= n
        c_prev, c_cur = c_cur, c_next
    return c_cur


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
def test_gegenbauer_sweep_equals_each_degree_bit_for_bit(lam):
    t = np.concatenate([[-1.0, 0.0, 1.0, 1.0 + 5e-13], np.random.default_rng(7).uniform(-1, 1, 500)])
    sweep = gegenbauer_terms(lam, t)
    for k in range(40):
        term = next(sweep)
        assert term.tobytes() == _restarted_gegenbauer(k, lam, t).tobytes()
        assert gegenbauer_eval(k, lam, t).tobytes() == term.tobytes()
        assert gegenbauer_eval(k, lam, float(t[5])) == float(term[5])


def test_gegenbauer_rejects_nonpositive_index():
    with pytest.raises(ArgumentError):
        gegenbauer_eval(2, 0.0, 0.5)
    with pytest.raises(ArgumentError):
        gegenbauer_eval(2, -1.0, 0.5)


def test_disk_poly_degree_zero():
    assert disk_poly_eval(0, 0, 0, 0.3 + 0.4j) == 1.0


def test_disk_poly_low_degree_closed_forms():
    # R_{1,0}(z) = z and R_{1,1}^0(z) = 2|z|^2 - 1
    assert disk_poly_eval(1, 0, 0, 0.5 + 0j) == pytest.approx(0.5 + 0j)
    assert disk_poly_eval(1, 1, 0, 0.6 + 0j) == pytest.approx(-0.28 + 0j)
    z = 0.3 - 0.2j
    assert disk_poly_eval(1, 0, 2, z) == pytest.approx(z)


def test_disk_poly_value_at_one():
    for m in range(5):
        for n in range(5):
            for alpha in (0, 1, 2):
                assert disk_poly_eval(m, n, alpha, 1.0 + 0j) == pytest.approx(1.0 + 0j, abs=1e-12)


def test_disk_poly_bounded_on_disk():
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
    z = z[np.abs(z) <= 1.0]
    for alpha in (0, 1, 2):
        for m in range(9):
            for n in range(9):
                vals = disk_poly_eval(m, n, alpha, z)
                assert np.max(np.abs(vals)) <= 1.0 + 1e-10


def test_disk_poly_conjugation_symmetry():
    rng = np.random.default_rng(11)
    z = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
    for alpha in (0, 1, 2):
        for m, n in [(0, 1), (2, 1), (3, 3), (4, 2)]:
            direct = disk_poly_eval(m, n, alpha, np.conj(z))
            assert np.allclose(direct, np.conj(disk_poly_eval(m, n, alpha, z)), atol=1e-12)
            assert np.allclose(direct, disk_poly_eval(n, m, alpha, z), atol=1e-12)


def test_disk_poly_argument_errors():
    with pytest.raises(ArgumentError):
        disk_poly_eval(1, 0, -1, 0.5)
    with pytest.raises(ArgumentError):
        disk_poly_eval(1, 0, 0, 1.2 + 0j)
    # round-off outside the disk is projected back
    assert disk_poly_eval(1, 0, 0, (1.0 + 5e-13) + 0j) == pytest.approx(1.0 + 0j)


# z = 0, real z of both signs, |z| = 1, |z| = 1 + 5e-13 (projected back), and
# random points of the disk
_TABLE_POINTS = {
    "zero": np.zeros(3, dtype=complex),
    "real": np.array([0.3, -0.7, 1.0, -1.0, 0.0], dtype=complex),
    "unit": np.exp(1j * np.array([0.0, 0.4, 1.0, 2.5, np.pi / 2, np.pi, -2.0])),
    "past-unit": (1.0 + 5e-13) * np.exp(1j * np.array([0.0, 0.9, 3.0, -1.3])),
    "disk": np.sqrt(np.random.default_rng(5).uniform(0, 1, 200))
            * np.exp(1j * np.random.default_rng(6).uniform(-np.pi, np.pi, 200)),
}


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("points", list(_TABLE_POINTS), ids=list(_TABLE_POINTS))
def test_disk_poly_table_equals_each_bidegree_bit_for_bit(alpha, points):
    z = _TABLE_POINTS[points]
    rows = list(disk_poly_table(alpha, 20, z))
    assert [len(row) for row in rows] == list(range(1, 22))
    for k, row in enumerate(rows):
        for m, got in enumerate(row):
            assert got.tobytes() == disk_poly_eval(m, k - m, alpha, z).tobytes(), (m, k - m)


def test_disk_poly_table_argument_errors():
    for alpha, k_max in [(-1, 2), (0.5, 2), (0, -1), (0, 1.5)]:
        with pytest.raises(ArgumentError):
            disk_poly_table(alpha, k_max, np.zeros(2))
    with pytest.raises(ArgumentError):
        disk_poly_table(0, 2, np.array([0.5, 1.2 + 0j]))


def test_table_degree_limit_lies_below_the_first_overflow():
    # the recurrences first overflow at total degree 1439 (alpha = 0 to 3)
    for alpha in (0, 1, 3):
        check_table_degree(alpha, 1434)
        with pytest.raises(ArgumentError, match="overflow double precision"):
            check_table_degree(alpha, 1435)
    # a large alpha (d - 2 at large d) lowers the limit
    with pytest.raises(ArgumentError):
        check_table_degree(998, 600)
    # a huge degree is refused at once, not after a scan of every lo
    with pytest.raises(ArgumentError, match="overflow double precision"):
        check_table_degree(0, 10**12)
    # one bidegree is refused exactly where its own recurrence could overflow
    z = np.array([0.3 + 0.2j, 1.0, -0.5j])
    for m, n in [(2000, 1000), (1000, 2000)]:
        with pytest.raises(ArgumentError, match=rf"bidegree \({m}, {n}\) .* overflow double precision"):
            disk_poly_eval(m, n, 0, z)
    for m, n in [(2000, 2000), (800, 700)]:
        assert np.isfinite(disk_poly_eval(m, n, 0, z)).all()
        assert disk_poly_eval(m, n, 0, 1.0) == pytest.approx(1.0)
