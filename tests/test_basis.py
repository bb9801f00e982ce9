"""Exact harmonic bases: monomial integrals, orthogonality, zonal identities."""

import math
import time
import tracemalloc
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
from cspherelab.polynomials import disk_poly_eval, disk_poly_table, gegenbauer_eval
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
    t = np.sum(np.multiply(np.conj(pts[2000:]), pts[:2000]), axis=1)  # conj(w) z, as the check forms it
    w = omega(d)
    worst = 0.0
    for k in range(k_max + 1):
        lhs = (2 * d + 2 * k - 2) / (w * (2 * d - 2)) * gegenbauer_eval(k, d - 1, t.real)
        rhs = sum((dim_complex_harmonic(d, m, k - m) / w) * disk_poly_eval(m, k - m, d - 2, t)
                  for m in range(k + 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert verify_gegenbauer(d, k_max, 2000, seed=5) == worst
    assert worst < 1e-9


# one chunk short of, at, just past and past two sampling chunks of 4096 pairs
@pytest.mark.parametrize("d, k_max", [(2, 7), (3, 6), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 5),
                                      (5, 0), (5, 1), (5, 4)])
@pytest.mark.parametrize("samples", [4095, 4096, 4097, 8193])
def test_gegenbauer_chunks_equal_the_per_bidegree_oracle(d, k_max, samples):
    pts = sample_points(d, 2 * samples, 11)
    t = np.sum(np.multiply(np.conj(pts[samples:]), pts[:samples]), axis=1)
    w = omega(d)
    worst = 0.0
    for k in range(k_max + 1):
        lhs = (2 * d + 2 * k - 2) / (w * (2 * d - 2)) * gegenbauer_eval(k, d - 1, t.real)
        rhs = sum((dim_complex_harmonic(d, m, k - m) / w) * disk_poly_eval(m, k - m, d - 2, t)
                  for m in range(k + 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert verify_gegenbauer(d, k_max, samples, seed=11) == worst


def _whole_array_addition(d, m, n, samples, seed):
    """The earlier verify_addition: every pair drawn and checked at once."""
    built = build_basis(d, m, n)
    pts = sample_points(d, 2 * samples, seed)
    zs, ws = pts[:samples], pts[samples:]
    ez, ew = built.eval_orthonormal(zs), built.eval_orthonormal(ws)
    lhs = np.sum(np.conj(ew) * ez, axis=1)
    dmn = dim_complex_harmonic(d, m, n)
    t = np.sum(np.multiply(zs, np.conj(ws)), axis=1)
    rhs = (dmn / omega(d)) * disk_poly_eval(m, n, d - 2, t)
    diag = np.sum(np.abs(ez) ** 2, axis=1)
    return max(float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(diag - dmn / omega(d)))))


# one chunk short of, at, just past and past two sampling chunks of 4096 pairs
@pytest.mark.parametrize("d, m, n", [(2, 0, 0), (2, 1, 0), (2, 3, 3), (3, 3, 2), (3, 0, 2), (4, 1, 1)])
@pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 8193])
def test_addition_chunks_equal_the_whole_array_check(d, m, n, samples):
    assert verify_addition(d, m, n, samples, seed=samples + m) == \
        _whole_array_addition(d, m, n, samples, seed=samples + m)


def test_addition_holds_one_chunk_of_pairs():
    # addition-d3-3-2 at 50,000 pairs: drawing and checking them at once
    # peaked at 101.5 MiB (the (50000, 42) basis values at z and w and their
    # products); one 4096-pair chunk of those peaks at about 8.4 MiB, and
    # 200,000 pairs hold no more than 50,000.
    verify_addition(3, 3, 2, 10, seed=3)  # builds the basis
    peak = _traced_peak(lambda: verify_addition(3, 3, 2, 50000, seed=3))
    assert peak <= 15
    assert _traced_peak(lambda: verify_addition(3, 3, 2, 200000, seed=3)) < peak + 0.1


def test_gegenbauer_refuses_degrees_past_double_range_before_drawing(monkeypatch):
    from cspherelab import basis

    def drawn(*args, **kwargs):
        raise AssertionError("points were drawn")

    monkeypatch.setattr(basis.sphere, "sample_points", drawn)
    with pytest.raises(ArgumentError, match="total degree 1435 at alpha = 1 overflow"):
        verify_gegenbauer(3, 1435, 1, seed=0)



# At d = 3, 1000 pairs are 48 KB of points per side, below the 256 KiB from
# which numpy reuses a temporary of `a * b` as its output and may swap the
# operands; 6000 pairs are 288 KB, above it. check gegenbauer and check
# addition form them in chunks of at most 4096 pairs (6000 is two).
@pytest.mark.parametrize("samples", [1000, 6000])
def test_pair_products_keep_their_operand_order_at_every_count(monkeypatch, samples):
    from cspherelab import polynomials

    seen, tables = [], []

    def recorded(m, n, alpha, t):
        seen.append(t.copy())
        return disk_poly_eval(m, n, alpha, t)

    def recorded_table(alpha, k_max, t):
        tables.append(t.copy())
        return disk_poly_table(alpha, k_max, t)

    monkeypatch.setattr(polynomials, "disk_poly_eval", recorded)
    monkeypatch.setattr(polynomials, "disk_poly_table", recorded_table)
    pts = sample_points(3, 2 * samples, 4242)
    zs, ws = pts[:samples], pts[samples:]
    verify_gegenbauer(3, 0, samples, 4242)
    assert len(tables) == -(-samples // 4096) and not seen
    assert np.concatenate(tables).tobytes() == np.sum(np.multiply(np.conj(ws), zs), axis=1).tobytes()
    verify_addition(3, 1, 1, samples, 4242)
    assert len(seen) == len(tables)
    assert np.concatenate(seen).tobytes() == np.sum(np.multiply(zs, np.conj(ws)), axis=1).tobytes()

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


def _traced_peak(call):
    """The tracemalloc peak of call(), in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_project_mc_draws_each_chunk_where_it_integrates_it():
    # project-d2-3-3: 200,000 samples. The integrand (3.05 MiB) and its
    # variance's deviations (1.53 MiB) grow with the samples; each 4096-point
    # chunk is drawn as it is integrated, so the peak is about 4.8 MiB. A
    # (200000, 2) points array (6.1 MiB) would break the bound on its own.
    built = build_basis(2, 3, 3)
    pole = sample_points(2, 1, seed=2)[0]
    f = lambda pts: built.eval_orthonormal(pts, 0)  # noqa: E731
    assert _traced_peak(lambda: project_mc(f, 2, 3, 3, pole, 200000, seed=3)) < 5.5


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


def _full_width_call(self, points):
    """The earlier MonomialMap.__call__: full-width factor gathers, each chunk's product copied."""
    from cspherelab import basis

    points = np.asarray(points, dtype=complex)
    out = np.empty((points.shape[0], self.weights.shape[1]))
    for start in range(0, points.shape[0], basis._EVAL_ROWS):
        chunk = points[start:start + basis._EVAL_ROWS]
        rows = chunk.shape[0]
        if rows < basis._EVAL_ROWS:
            chunk = np.concatenate([chunk, np.zeros((basis._EVAL_ROWS - rows, self.d), dtype=complex)])
        mono = None
        for j, ks, ls, which in self.factors:
            z = chunk[:, j]
            powers = np.empty((len(chunk), max(ks.max(), ls.max()) + 1), dtype=complex)
            powers[:, 0] = 1.0
            for k in range(1, powers.shape[1]):
                np.multiply(powers[:, k - 1], z, out=powers[:, k])
            factor = np.take(powers, ks, axis=1) * np.conj(np.take(powers, ls, axis=1))
            if mono is None:
                mono = np.take(factor, which, axis=1)
            else:
                mono *= np.take(factor, which, axis=1)
        if mono is None:
            mono = np.ones((len(chunk), self.weights.shape[0] // 2), dtype=complex)
        out[start:start + rows] = (mono.view(float) @ self.weights)[:rows]
    return out


# K = 40 and 46 monomials (one gather block, on two and three coordinates),
# K = 85 and 295 (more than one block, the last one short)
@pytest.mark.parametrize("d, m1, m2, K", [(2, 0, 3, 40), (3, 0, 2, 46), (2, 1, 4, 85), (2, 0, 6, 295)])
def test_monomial_map_equals_full_width_oracle(d, m1, m2, K):
    from cspherelab.levy import build_real_system

    mono_map = build_real_system(d, m1, m2)._map
    assert mono_map.weights.shape[0] // 2 == K
    # two full chunks and a padded short one, and a single padded chunk
    for count in (2 * 2048 + 777, 5):
        pts = sample_points(d, count, seed=K)
        assert np.array_equal(mono_map(pts), _full_width_call(mono_map, pts))


def test_eval_orthonormal_equals_full_width_oracle(monkeypatch):
    from cspherelab import basis

    pts = sample_points(3, 2048 + 1000, seed=8)
    for bidegree in ((3, 3), (2, 1)):  # K = 100 and K below 64
        built = build_basis(3, *bidegree)
        got = built.eval_orthonormal(pts)
        with monkeypatch.context() as patch:
            patch.setattr(basis.MonomialMap, "__call__", _full_width_call)
            assert np.array_equal(got, built.eval_orthonormal(pts)), bidegree


def test_gegenbauer_holds_no_points_through_the_recurrences():
    # gegenbauer-d3: 50,000 pairs at d = 3. The pairs are drawn and checked
    # 4096 at a time, so the peak, about 4.2 MiB, is one chunk's disk
    # polynomial table (z^j, conj(z)^j and two recurrence arrays for each of
    # 13 differences j: 2.4 MiB) and row, and it does not grow with the
    # pairs. Drawing all pairs at once peaked at 5.3 MiB, set by the sum of
    # their inner products, and holding their points through the
    # recurrences at 9.7 MiB.
    verify_gegenbauer(3, 12, 10, seed=3)  # the first call's one-off set-up
    peak = _traced_peak(lambda: verify_gegenbauer(3, 12, 50000, seed=3))
    assert peak < 5
    assert _traced_peak(lambda: verify_gegenbauer(3, 12, 200000, seed=3)) < peak + 0.1


def test_gegenbauer_rejects_real_dimension_below_two():
    # the real-sphere zonal factor divides by 2d - 2
    for d in (0, 1):
        with pytest.raises(ArgumentError, match="d must be >= 2"):
            verify_gegenbauer(d, 2, 10, seed=0)
