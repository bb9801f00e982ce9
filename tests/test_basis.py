"""Exact harmonic bases: monomial integrals, orthogonality, zonal identities."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cspherelab.basis import (
    MonomialPoly,
    build_basis,
    monomial_inner,
    project_mc,
    verify_addition,
    verify_gegenbauer,
    zonal_eval,
)
from cspherelab.dimensions import bidegree_monomials, dim_complex_harmonic
from cspherelab.errors import ArgumentError, DataError
from cspherelab.polynomials import disk_poly_eval, gegenbauer_eval
from cspherelab.sphere import omega, sample_points


def test_monomial_inner_total_mass():
    assert monomial_inner(2, (0, 0), (0, 0), (0, 0), (0, 0)) == 1


def test_monomial_inner_coordinate():
    assert monomial_inner(2, (1, 0), (0, 0), (1, 0), (0, 0)) == Fraction(1, 2)


def test_monomial_inner_orthogonality():
    assert monomial_inner(2, (1, 0), (0, 0), (0, 1), (0, 0)) == 0


def test_monomial_inner_monte_carlo_cross_check():
    # <z_1, z_1> = omega/2: estimate the integral directly
    pts = sample_points(2, 10**5, seed=0)
    vals = np.abs(pts[:, 0]) ** 2
    estimate = vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(estimate - 0.5) < 4 * stderr


def test_monomial_inner_length_mismatch():
    with pytest.raises(ArgumentError):
        monomial_inner(2, (1,), (0, 0), (1, 0), (0, 0))


def test_basis_constant():
    built = build_basis(2, 0, 0)
    assert built.dim == 1
    assert built.sq_norms == (Fraction(1),)


def test_basis_degree_one():
    built = build_basis(2, 1, 0)
    assert built.dim == 2
    assert built.sq_norms == (Fraction(1, 2), Fraction(1, 2))


def test_basis_one_one_structure():
    built = build_basis(2, 1, 1)
    assert built.dim == 3
    # every vector is exactly orthogonal to the constant polynomial
    one = MonomialPoly.monomial(2, (0, 0), (0, 0))
    for vec in built.vectors:
        assert vec.inner(one) == 0


@pytest.mark.parametrize("d,mmax", [(2, 3), (3, 2)])
def test_basis_exact_orthogonality_and_counts(d, mmax):
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            built = build_basis(d, m, n)
            assert built.dim == dim_complex_harmonic(d, m, n)
            for i in range(built.dim):
                assert built.vectors[i].inner(built.vectors[i]) == built.sq_norms[i]
                for j in range(i + 1, built.dim):
                    assert built.vectors[i].inner(built.vectors[j]) == 0
            if m > 0 and n > 0:
                for a, b in bidegree_monomials(d, m - 1, n - 1):
                    lower = MonomialPoly.monomial(d, a, b)
                    for vec in built.vectors:
                        assert vec.inner(lower) == 0


def test_basis_d4_exactness():
    built = build_basis(4, 1, 1)
    assert built.dim == dim_complex_harmonic(4, 1, 1) == 15
    assert verify_addition(4, 1, 1, 300, seed=9) < 1e-9


def test_basis_d4_bidegree_four_four():
    built = build_basis(4, 4, 4)
    assert built.dim == dim_complex_harmonic(4, 4, 4)
    assert verify_addition(4, 4, 4, 200, seed=13) < 1e-9


def _signature(key):
    a, b = key
    return tuple(x - y for x, y in zip(a, b))


def _gram_schmidt_oracle(d, m, n):
    """Polynomial-level exact Gram-Schmidt per signature block (reverse sorted),
    over the bidegree-(m-1, n-1) monomials and then the bidegree-(m, n) ones;
    returns the vectors and squared norms kept for the latter."""
    uppers = bidegree_monomials(d, m, n)
    lowers = bidegree_monomials(d, m - 1, n - 1) if m > 0 and n > 0 else []
    vectors, sq_norms = [], []
    for sig in sorted({_signature(key) for key in uppers + lowers}, reverse=True):
        block_lowers = [key for key in lowers if _signature(key) == sig]
        block = block_lowers + [key for key in uppers if _signature(key) == sig]
        done, done_norms = [], []
        for i, (a, b) in enumerate(block):
            v = MonomialPoly.monomial(d, a, b)
            for u, q in zip(done, done_norms):
                v = v - u.scale(v.inner(u) / q)
            q = v.inner(v)
            if q != 0:
                done.append(v)
                done_norms.append(q)
                if i >= len(block_lowers):
                    vectors.append(v)
                    sq_norms.append(q)
    return vectors, sq_norms


@pytest.mark.parametrize("d,mmax", [(2, 4), (3, 3), (4, 2)])
def test_basis_matches_polynomial_gram_schmidt(d, mmax):
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            built = build_basis(d, m, n)
            vectors, sq_norms = _gram_schmidt_oracle(d, m, n)
            assert [dict(vec.terms) for vec in built.vectors] == \
                [dict(vec.terms) for vec in vectors], (d, m, n)
            assert built.sq_norms == tuple(sq_norms), (d, m, n)


def test_basis_feasibility_guard():
    with pytest.raises(ArgumentError):
        build_basis(2, 9, 0)
    with pytest.raises(ArgumentError):
        build_basis(5, 1, 1)


def test_basis_cost_guard_refuses_up_front():
    # d=4 (8, 8) passes the bidegree guard but its signature-0 block holds 285
    # monomials: minutes of exact elimination, so it is refused before any
    start = time.perf_counter()
    with pytest.raises(ArgumentError, match=r"largest 285 monomials.*estimated \d+ s"):
        build_basis(4, 8, 8)
    with pytest.raises(ArgumentError, match="refused"):
        build_basis(4, 7, 7)
    assert time.perf_counter() - start < 5.0


def test_eval_orthonormal_values():
    z = np.array([1.0, 0.0], dtype=complex)
    const = build_basis(2, 0, 0)
    assert complex(const.eval_orthonormal(z, 0)) == pytest.approx(1 / math.sqrt(2 * math.pi**2))
    deg_one = build_basis(2, 1, 0)
    assert complex(deg_one.eval_orthonormal(z, 0)) == pytest.approx(math.sqrt(2 / omega(2)))
    assert complex(deg_one.eval_orthonormal(z, 1)) == 0


def test_eval_orthonormal_index_and_point_checks():
    built = build_basis(2, 1, 0)
    z = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ArgumentError):
        built.eval_orthonormal(z, 5)
    with pytest.raises(ArgumentError):
        built.eval_orthonormal(np.array([2.0, 0.0], dtype=complex), 0)


def test_zonal_diagonal_value():
    pts = sample_points(2, 20, seed=1)
    for m, n in [(0, 0), (1, 0), (2, 1)]:
        diag = np.array([zonal_eval(2, m, n, w, w) for w in pts])
        assert np.allclose(diag, dim_complex_harmonic(2, m, n) / omega(2), atol=1e-12)


def test_zonal_degree_one_closed_form():
    pts = sample_points(2, 30, seed=2)
    z, w = pts[:15], pts[15]
    expected = (2 / omega(2)) * (z @ np.conj(w))
    assert np.allclose(zonal_eval(2, 1, 0, w, z), expected, atol=1e-12)
    assert np.allclose(zonal_eval(2, 0, 0, w, z), 1 / omega(2), atol=1e-14)


def test_addition_formula_small_cases():
    assert verify_addition(2, 0, 0, 100, seed=0) < 1e-12
    assert verify_addition(2, 2, 1, 1000, seed=0) < 1e-9
    assert verify_addition(3, 1, 1, 1000, seed=0) < 1e-9


def test_gegenbauer_identity_small_cases():
    assert verify_gegenbauer(2, 0, 100, seed=0) < 1e-12
    assert verify_gegenbauer(2, 3, 1000, seed=0) < 1e-9
    assert verify_gegenbauer(3, 2, 1000, seed=0) < 1e-9


def test_gegenbauer_one_sample_covers_every_degree():
    # every degree 0..12 is checked on the pairs of one 2 x 2000 draw
    d, k_max = 3, 12
    pts = sample_points(d, 4000, 5)
    t = np.sum(pts[:2000] * np.conj(pts[2000:]), axis=1)
    w = omega(d)
    worst = 0.0
    for k in range(k_max + 1):
        lhs = (2 * d + 2 * k - 2) / (w * (2 * d - 2)) * gegenbauer_eval(k, d - 1, t.real)
        rhs = sum((dim_complex_harmonic(d, m, k - m) / w) * disk_poly_eval(m, k - m, d - 2, t)
                  for m in range(k + 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert verify_gegenbauer(d, k_max, 2000, seed=5) == worst
    assert worst < 1e-9


def test_projection_reproduces_basis_function():
    built = build_basis(2, 1, 1)
    w = sample_points(2, 1, seed=4)[0]
    f = lambda pts: built.eval_orthonormal(pts, 0)  # noqa: E731
    estimate, stderr = project_mc(f, 2, 1, 1, w, 20000, seed=5)
    expected = complex(built.eval_orthonormal(w, 0))
    assert abs(estimate - expected) < 4 * stderr


def test_projection_of_constant():
    ones = lambda pts: np.ones(pts.shape[0], dtype=complex)  # noqa: E731
    w = sample_points(2, 1, seed=6)[0]
    # constants have no degree-(1,0) component
    estimate, stderr = project_mc(ones, 2, 1, 0, w, 20000, seed=7)
    assert abs(estimate) < 4 * stderr
    # and project onto themselves at bidegree (0, 0); the integrand is
    # constant there, so the estimate is exact and the stderr vanishes
    estimate0, stderr0 = project_mc(ones, 2, 0, 0, w, 20000, seed=8)
    assert abs(estimate0 - 1.0) <= max(4 * stderr0, 1e-12)


def _full_array_project_oracle(f, d, m, n, w, samples, seed):
    """The earlier project_mc: f and the zonal kernel on all points at once."""
    pts = sample_points(d, samples, seed)
    integrand = np.asarray(f(pts), dtype=complex) * np.conj(zonal_eval(d, m, n, w, pts))
    wd = omega(d)
    var = integrand.real.var(ddof=1) + integrand.imag.var(ddof=1)
    return wd * complex(integrand.mean()), wd * math.sqrt(var / samples)


# 200000 points end in a short sampling chunk of 3392; 4097 in one of a single point.
@pytest.mark.parametrize("d, m, n, j, samples", [(2, 3, 3, 0, 200000), (3, 2, 1, 2, 12345),
                                                 (2, 1, 0, 1, 4097)])
def test_project_mc_equals_full_array_oracle(d, m, n, j, samples):
    built = build_basis(d, m, n)
    pole = sample_points(d, 1, seed=2)[0]
    f = lambda pts: built.eval_orthonormal(pts, j)  # noqa: E731
    assert project_mc(f, d, m, n, pole, samples, seed=3) == \
        _full_array_project_oracle(f, d, m, n, pole, samples, seed=3)


def test_project_mc_refuses_non_finite_values():
    def f(pts):
        values = np.ones(len(pts), dtype=complex)
        values[-1] = np.nan
        return values

    with pytest.raises(DataError):
        project_mc(f, 2, 1, 0, sample_points(2, 1, seed=6)[0], 5000, seed=7)


# Rational points on the unit sphere, as (re, im) Fraction pairs per coordinate.
_RATIONAL_POINTS = {
    2: [((Fraction(3, 5), 0), (0, Fraction(4, 5))),
        ((Fraction(1, 5), Fraction(2, 5)), (Fraction(2, 5), Fraction(4, 5))),
        ((Fraction(2, 3), Fraction(1, 3)), (0, Fraction(2, 3)))],
    3: [((Fraction(1, 3), 0), (0, Fraction(2, 3)), (Fraction(2, 3), 0)),
        ((Fraction(1, 5), Fraction(2, 5)), (Fraction(2, 5), 0), (0, Fraction(4, 5))),
        ((Fraction(2, 7), Fraction(3, 7)), (Fraction(2, 7), Fraction(4, 7)), (Fraction(4, 7), 0))],
    4: [((Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), 0), (0, Fraction(-1, 2))),
        ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(-1, 4)),
         (Fraction(-1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))],
}


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact_value(poly, point):
    """poly at a Gaussian-rational point, exactly: (re, im) Fractions, and the
    sum of |c| |z^a zbar^b|, which bounds the rounding of a float evaluation."""
    re = im = Fraction(0)
    size = 0.0
    for (a, b), coeff in poly.terms.items():
        term = (Fraction(1), Fraction(0))
        for (x, y), aj, bj in zip(point, a, b):
            for _ in range(aj):
                term = _gauss_mul(term, (x, y))
            for _ in range(bj):
                term = _gauss_mul(term, (x, -y))
        re += coeff * term[0]
        im += coeff * term[1]
        size += abs(float(coeff)) * math.hypot(term[0], term[1])
    return re, im, size


def _float_points(d):
    return np.array([[complex(x, y) for x, y in point] for point in _RATIONAL_POINTS[d]])


_ORACLE_BIDEGREES = [(d, m, n) for d in (2, 3) for m in range(5) for n in range(5)] \
    + [(4, 1, 0), (4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 3, 1)]


@pytest.mark.parametrize("d,m,n", _ORACLE_BIDEGREES)
def test_eval_orthonormal_matches_exact_rational_values(d, m, n):
    # the compiled evaluator against exact Gaussian-rational arithmetic
    built = build_basis(d, m, n)
    got = built.eval_orthonormal(_float_points(d))
    for i, point in enumerate(_RATIONAL_POINTS[d]):
        for j, (vec, q) in enumerate(zip(built.vectors, built.sq_norms)):
            re, im, size = _exact_value(vec, point)
            scale = 1.0 / math.sqrt(float(q) * omega(d))
            tol = 1e-14 * (1 + size) * scale
            assert abs(got[i, j].real - float(re) * scale) <= tol, (i, j)
            assert abs(got[i, j].imag - float(im) * scale) <= tol, (i, j)


@pytest.mark.parametrize("d,m1,m2", [(2, 0, 4), (3, 0, 4), (4, 0, 2)])
def test_eval_matrix_matches_exact_rational_values(d, m1, m2):
    from cspherelab.levy import build_real_system

    system = build_real_system(d, m1, m2)
    got = system.eval_matrix(_float_points(d))
    for k, member in enumerate(system.members):
        built = build_basis(d, *member.bidegree)
        scale = 1.0 / math.sqrt(float(built.sq_norms[member.index]) * omega(d))
        if member.part != "real":
            scale *= math.sqrt(2.0)
        for i, point in enumerate(_RATIONAL_POINTS[d]):
            re, im, size = _exact_value(built.vectors[member.index], point)
            want = float(im if member.part == "im" else re) * scale
            assert abs(got[i, k] - want) <= 1e-14 * (1 + size) * scale, (k, i)


def test_monomial_poly_eval_matches_exact_rational_values():
    poly = MonomialPoly(3, {((0, 0, 0), (0, 0, 0)): Fraction(-7, 3),
                            ((2, 0, 1), (0, 1, 0)): Fraction(5, 2),
                            ((0, 3, 0), (1, 0, 2)): Fraction(1, 9)})
    constant = MonomialPoly(3, {((0, 0, 0), (0, 0, 0)): Fraction(3, 4)})
    for p in (poly, constant, MonomialPoly(3)):
        got = p.eval(_float_points(3))
        for i, point in enumerate(_RATIONAL_POINTS[3]):
            re, im, size = _exact_value(p, point)
            assert abs(got[i] - complex(float(re), float(im))) <= 1e-14 * (1 + size)
            assert p.eval(_float_points(3)[i]) == got[i]


def test_eval_rows_do_not_depend_on_the_chunking(monkeypatch):
    # every chunk is padded to _EVAL_ROWS rows, so a row's value depends on
    # its point only: neither on N nor on where the chunk boundaries fall
    from cspherelab import basis
    from cspherelab.levy import build_real_system

    system = build_real_system(2, 0, 3)
    built = build_basis(3, 2, 1)
    pts2, pts3 = sample_points(2, 1000, seed=21), sample_points(3, 1000, seed=22)
    whole = system.eval_matrix(pts2), built.eval_orthonormal(pts3)
    assert len(pts2) < basis._EVAL_ROWS
    monkeypatch.setattr(basis, "_EVAL_ROWS", 300)
    assert len(pts2) % basis._EVAL_ROWS
    for bounds in ([0, 1000], [0, 1, 457, 1000], [0, 999, 1000]):
        spans = list(zip(bounds, bounds[1:]))
        assert np.array_equal(np.concatenate([system.eval_matrix(pts2[a:b]) for a, b in spans]),
                              whole[0])
        assert np.array_equal(np.concatenate([built.eval_orthonormal(pts3[a:b]) for a, b in spans]),
                              whole[1])


def test_gegenbauer_rejects_real_dimension_below_two():
    # the real-sphere zonal factor divides by 2d - 2
    for d in (0, 1):
        with pytest.raises(ArgumentError, match="d must be >= 2"):
            verify_gegenbauer(d, 2, 10, seed=0)
