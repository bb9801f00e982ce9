"""Exact orthogonal bases of the bidegree harmonic spaces on the complex sphere.

The harmonic space of bidegree (m, n) is realised as the orthogonal
complement of the restricted bidegree-(m-1, n-1) polynomials inside the
restricted bidegree-(m, n) polynomials. All linear algebra is exact, over
the closed-form monomial inner product, so emitted vectors are *exactly*
orthogonal; square roots appear only when a vector is evaluated in floating
point.

Three structural facts keep the construction cheap:

* Monomials z^a zbar^b only couple when their signatures a - b agree, so the
  Gram matrix is block diagonal and each signature block is handled alone.
* Inside one block every pair of monomials couples, and after scaling by
  S = (d - 1 + m + n)! every Gram entry is an integer. Gram-Schmidt over the
  ordered block [lowers, uppers] is then one fraction-free (Bareiss)
  elimination of [G | I]: pivot k is the leading principal minor D_k of the
  kept rows, the eliminated identity part of row k is D_(k-1) times the
  Gram-Schmidt coefficients of vector k, and every division is exact
  (Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
  elimination", Math. Comp. 22, 1968).
* Restriction to the sphere is injective on each bidegree-homogeneous
  polynomial space, so the only zero pivots are the expected rank drops from
  quotienting out the lower bidegree. G is positive semidefinite, so a zero
  pivot comes with a zero row and that row is skipped.

Floating-point evaluation has one path, MonomialMap: a set of polynomials
is compiled into its distinct monomials and one dense real coefficient
matrix (orthonormalising factors folded in), and evaluated chunk by chunk
as one monomial table and one BLAS product. MonomialPoly.eval,
HarmonicBasis.eval_orthonormal and the real coordinates of levy all use it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

# Modules, not their functions: a name imported from a module runs it, and
# the basis command uses neither.
from . import polynomials, sphere
from ._lazy import numpy as np
from .dimensions import bidegree_monomials, dim_complex_harmonic
from .errors import ArgumentError, ConsistencyError, DataError

# Combinatorial growth guard for exact basis construction.
MAX_BIDEGREE = 8
MAX_DIMENSION = 4

# Cost guard: the elimination of a signature block of s monomials costs about
# s^4 (s^3 big-integer operations on entries whose size grows with s). One
# unit took 1e-8 to 1.6e-8 s on a 2-vCPU x86-64 VM with Python 3.11 (d=4
# bidegree (6, 6): 1.7e9 units, 18 s), so the ceiling refuses inputs that
# would take more than about a minute, e.g. d=4 bidegree (8, 8) at 5.2e10.
MAX_BLOCK_COST = 4 * 10**9
SECONDS_PER_BLOCK_COST = 1.2e-8

POINT_TOL = 1e-12

_EVAL_ROWS = 2048  # points per pass of a MonomialMap


def _moment(d, total):
    """Closed-form sphere moment of |z^t|^2 for t = total, in units of omega(d).

    Returned as the integers ((d-1)! * prod(t_j!), (d - 1 + |t|)!), whose
    quotient is the moment.
    """
    num = math.factorial(d - 1)
    for t in total:
        num *= math.factorial(t)
    return num, math.factorial(d - 1 + sum(total))


def monomial_inner(d, a, b, c, e):
    """Exact inner product <z^a zbar^b, z^c zbar^e> on the sphere, in units of omega(d).

    Zero unless a + e == b + c componentwise; otherwise
    (d-1)! * prod((a_j + e_j)!) / (d - 1 + |a+e|)! as a Fraction.
    """
    if not (len(a) == len(b) == len(c) == len(e) == d):
        raise ArgumentError("multi-index length mismatch")
    total = tuple(ai + ei for ai, ei in zip(a, e))
    if total != tuple(bi + ci for bi, ci in zip(b, c)):
        return Fraction(0)
    return Fraction(*_moment(d, total))


class MonomialPoly:
    """Sparse polynomial sum_{(a,b)} c_{a,b} z^a zbar^b with Fraction coefficients."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[key] = coeff

    @classmethod
    def monomial(cls, d, a, b, coeff=1):
        return cls(d, {(tuple(a), tuple(b)): Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, Fraction(0)) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        return MonomialPoly(self.d, out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return MonomialPoly(self.d)
        return MonomialPoly(self.d, {k: c * factor for k, c in self.terms.items()})

    def conj(self):
        """Complex conjugate: swaps each (a, b) to (b, a) (coefficients are real)."""
        return MonomialPoly(self.d, {(b, a): c for (a, b), c in self.terms.items()})

    def inner(self, other):
        """Exact inner product in units of omega(d)."""
        total = Fraction(0)
        for (a, b), cf in self.terms.items():
            for (c, e), cg in other.terms.items():
                v = monomial_inner(self.d, a, b, c, e)
                if v != 0:
                    total += cf * cg * v
        return total

    def eval(self, points):
        """Evaluate at an (N, d) complex array (or a single point) -> complex values."""
        points = np.asarray(points, dtype=complex)
        values = MonomialMap(self.d, [(self, 1.0, 0.0), (self, 0.0, 1.0)])(np.atleast_2d(points))
        values = values.view(complex)[:, 0]
        return values[0] if points.ndim == 1 else values

    def __repr__(self):
        return f"MonomialPoly(d={self.d}, {len(self.terms)} terms)"


class MonomialMap:
    """Real linear combinations of Re and Im of polynomials, compiled for evaluation.

    columns lists (poly, re_weight, im_weight), one per output column, whose
    value is re_weight Re(poly) + im_weight Im(poly). Compiling gathers the
    K distinct monomials z^a zbar^b of the polynomials and one dense (2K, c)
    real matrix `weights`, whose rows 2k and 2k + 1 weigh Re and Im of
    monomial k. Called on (N, d) points, it returns the (N, c) real values
    mono.view(float) @ weights, where mono is the (N, K) complex monomial
    table: per chunk and coordinate the powers z_j^k up to the largest
    exponent are tabulated, each distinct factor z_j^k zbar_j^l is formed
    once, and each monomial is the product of its gathered factors. Points go
    _EVAL_ROWS at a time, so the tables never exceed that many rows. The
    last chunk is padded with zero points: every product then has one
    shape, so BLAS runs one kernel and a row's value depends on its point
    only, not on N or on where the chunk boundaries fall.
    """

    def __init__(self, d, columns):
        index = {}
        for poly, _, _ in columns:
            for key in poly.terms:
                index.setdefault(key, len(index))
        self.d = d
        self.weights = np.zeros((2 * len(index), len(columns)))
        for col, (poly, re_weight, im_weight) in enumerate(columns):
            for key, coeff in poly.terms.items():
                row = 2 * index[key]
                self.weights[row, col] = float(coeff) * re_weight
                self.weights[row + 1, col] = float(coeff) * im_weight
        # per coordinate j: the exponents (k, l) of its distinct factors
        # z_j^k zbar_j^l and, per monomial, which factor it takes
        self.factors = []
        for j in range(d):
            pairs = [(a[j], b[j]) for a, b in index]
            distinct = sorted(set(pairs))
            if distinct in ([], [(0, 0)]):
                continue  # every monomial is constant in z_j
            slot = {pair: i for i, pair in enumerate(distinct)}
            ks, ls = (np.array(e) for e in zip(*distinct))
            self.factors.append((j, ks, ls, np.array([slot[pair] for pair in pairs])))

    def _monomials(self, pts):
        mono = None
        for j, ks, ls, which in self.factors:
            z = pts[:, j]
            powers = np.empty((len(pts), max(ks.max(), ls.max()) + 1), dtype=complex)
            powers[:, 0] = 1.0
            for k in range(1, powers.shape[1]):
                np.multiply(powers[:, k - 1], z, out=powers[:, k])
            factor = np.take(powers, ks, axis=1) * np.conj(np.take(powers, ls, axis=1))
            if mono is None:
                mono = np.take(factor, which, axis=1)
            else:
                mono *= np.take(factor, which, axis=1)
        if mono is None:
            mono = np.ones((len(pts), self.weights.shape[0] // 2), dtype=complex)
        return mono

    def __call__(self, points):
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ArgumentError(f"expected (N, {self.d}) points, got shape {points.shape}")
        out = np.empty((points.shape[0], self.weights.shape[1]))
        for start in range(0, points.shape[0], _EVAL_ROWS):
            chunk = points[start:start + _EVAL_ROWS]
            rows = chunk.shape[0]
            if rows < _EVAL_ROWS:
                chunk = np.concatenate([chunk, np.zeros((_EVAL_ROWS - rows, self.d), dtype=complex)])
            out[start:start + rows] = (self._monomials(chunk).view(float) @ self.weights)[:rows]
        return out


class HarmonicBasis(namedtuple("HarmonicBasis", "d m n vectors sq_norms")):
    """Exact orthogonal basis of one bidegree harmonic space.

    vectors are pairwise orthogonal (exactly, in rational arithmetic) and
    orthogonal to every lower-bidegree polynomial; sq_norms[j] is the exact
    squared norm of vectors[j] in units of omega(d). The L^2-orthonormal
    function is vectors[j] / sqrt(sq_norms[j] * omega(d)).
    """

    __slots__ = ()

    @property
    def dim(self):
        return len(self.vectors)

    def eval_orthonormal(self, points, j=None):
        """Orthonormalised values: a single function (j given) or an (N, dim) matrix.

        One MonomialMap with the columns Re Y_k, Im Y_k of each requested
        vector, so its real values view as the complex ones.
        """
        points = np.asarray(points, dtype=complex)
        _check_on_sphere(points)
        if j is not None and not 0 <= j < self.dim:
            raise ArgumentError(f"basis index {j} out of range [0, {self.dim})")
        columns = []
        for k in range(self.dim) if j is None else [j]:
            scale = self.orthonormal_scale(k)
            columns += [(self.vectors[k], scale, 0.0), (self.vectors[k], 0.0, scale)]
        values = MonomialMap(self.d, columns)(np.atleast_2d(points)).view(complex)
        if j is not None:
            values = values[:, 0]
        return values[0] if points.ndim == 1 else values

    def orthonormal_scale(self, j):
        """1 / sqrt(sq_norms[j] * omega(d)): the factor that makes vectors[j] L^2-orthonormal."""
        return 1.0 / math.sqrt(float(self.sq_norms[j]) * sphere.omega(self.d))


def _check_on_sphere(points):
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    r2 = np.sum(np.abs(pts) ** 2, axis=1)
    if np.any(np.abs(r2 - 1.0) > POINT_TOL):
        worst = float(np.max(np.abs(r2 - 1.0)))
        raise ArgumentError(f"points must lie on the unit sphere (|<z,z>-1| = {worst})")


def _block_basis(d, keys, n_lower, scale):
    """Gram-Schmidt over one signature block by fraction-free elimination.

    keys lists the block's monomials (a, b): its n_lower lower-bidegree ones
    first, then its upper ones. scale is S = (d - 1 + m + n)!, which makes
    every Gram entry an integer. Returns the (vector, sq_norm) pairs that
    exact Gram-Schmidt over keys, in this order, keeps for the upper
    monomials; a vector lists its terms in the order of keys.
    """
    size = len(keys)
    rows = [[0] * size + [int(i == j) for j in range(size)] for i in range(size)]
    for i, (a, _) in enumerate(keys):
        for j in range(i, size):
            # one signature, so a_i + b_j == b_i + a_j: every pair couples
            num, den = _moment(d, tuple(x + y for x, y in zip(a, keys[j][1])))
            rows[i][j] = rows[j][i] = num * (scale // den)
    out = []
    prev = 1
    for k, row_k in enumerate(rows):
        pivot = row_k[k]
        if pivot == 0:
            continue  # a rank drop: G is semidefinite, so this whole row is zero
        tail_k = row_k[k + 1:]
        for row_i in rows[k + 1:]:
            f = row_i[k]
            row_i[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
        if k >= n_lower:
            terms = {key: Fraction(c, prev) for key, c in zip(keys, row_k[size:]) if c}
            out.append((MonomialPoly(d, terms), Fraction(pivot, prev * scale)))
        prev = pivot
    return out


@lru_cache(maxsize=None)
def build_basis(d, m, n):
    """Exact orthogonal basis of the bidegree-(m, n) harmonic space on Omega_d.

    Per signature block, exact Gram-Schmidt over the restricted
    bidegree-(m-1, n-1) monomials followed by the bidegree-(m, n) ones,
    keeping the vectors of the latter: one Bareiss elimination of the
    block's integer Gram matrix (see `_block_basis`). Blocks are emitted in
    reverse sorted signature order. Aborts if the emitted count disagrees
    with the dimension formula.
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    if m < 0 or n < 0:
        raise ArgumentError(f"bidegree must be nonnegative, got ({m}, {n})")
    if m > MAX_BIDEGREE or n > MAX_BIDEGREE or d > MAX_DIMENSION:
        raise ArgumentError(
            f"basis construction limited to m, n <= {MAX_BIDEGREE} and d <= {MAX_DIMENSION}"
            f" (requested d={d}, bidegree ({m}, {n}))")

    uppers = bidegree_monomials(d, m, n)
    lowers = bidegree_monomials(d, m - 1, n - 1) if m > 0 and n > 0 else []

    blocks = {}
    for a, b in uppers:
        sig = tuple(ai - bi for ai, bi in zip(a, b))
        blocks.setdefault(sig, ([], []))[0].append((a, b))
    for a, b in lowers:
        sig = tuple(ai - bi for ai, bi in zip(a, b))
        blocks.setdefault(sig, ([], []))[1].append((a, b))

    sizes = [len(u) + len(l) for u, l in blocks.values()]
    cost = sum(size**4 for size in sizes)
    if cost > MAX_BLOCK_COST:
        raise ArgumentError(
            f"exact basis for d={d}, bidegree ({m}, {n}) refused: its signature blocks (largest"
            f" {max(sizes)} monomials) cost {cost:.2e} > {MAX_BLOCK_COST:.0e}, an estimated"
            f" {cost * SECONDS_PER_BLOCK_COST:.0f} s of exact elimination")

    scale = math.factorial(d - 1 + m + n)
    vectors = []
    sq_norms = []
    for sig in sorted(blocks, reverse=True):
        upper_keys, lower_keys = blocks[sig]
        for vec, q in _block_basis(d, lower_keys + upper_keys, len(lower_keys), scale):
            vectors.append(vec)
            sq_norms.append(q)

    expected = dim_complex_harmonic(d, m, n)
    if len(vectors) != expected:
        raise ConsistencyError(
            f"basis construction for d={d}, bidegree ({m}, {n}) emitted "
            f"{len(vectors)} vectors but the dimension formula gives {expected}")
    return HarmonicBasis(d=d, m=m, n=n, vectors=tuple(vectors), sq_norms=tuple(sq_norms))


def zonal_eval(d, m, n, w, z):
    """Zonal kernel of the (m, n) harmonic space with pole w, evaluated at z.

    (dim / omega(d)) * R_{m,n}^(d-2)(<z, w>), where <z, w> = sum z_j conj(w_j).
    z may be a single point or an (N, d) array.
    """
    w = np.asarray(w, dtype=complex)
    _check_on_sphere(w)
    z = np.asarray(z, dtype=complex)
    _check_on_sphere(z)
    t = z @ np.conj(w) if z.ndim > 1 else np.dot(z, np.conj(w))
    return ((dim_complex_harmonic(d, m, n) / sphere.omega(d))
            * polynomials.disk_poly_eval(m, n, d - 2, t))


def verify_addition(d, m, n, samples, seed):
    """Max deviation of the reproducing identity over random point pairs.

    Checks both sum_j conj(Y_j(w)) Y_j(z) = zonal(w, z) and the diagonal
    normalisation sum_j |Y_j(z)|^2 = dim / omega(d).
    """
    if samples < 1:
        raise ArgumentError("need at least one sample pair")
    basis_ = build_basis(d, m, n)
    pts = sphere.sample_points(d, 2 * samples, seed)
    zs, ws = pts[:samples], pts[samples:]
    ez = basis_.eval_orthonormal(zs)
    ew = basis_.eval_orthonormal(ws)
    lhs = np.sum(np.conj(ew) * ez, axis=1)
    dmn = dim_complex_harmonic(d, m, n)
    t = np.sum(zs * np.conj(ws), axis=1)
    rhs = (dmn / sphere.omega(d)) * polynomials.disk_poly_eval(m, n, d - 2, t)
    dev_pairs = float(np.max(np.abs(lhs - rhs)))
    diag = np.sum(np.abs(ez) ** 2, axis=1)
    dev_diag = float(np.max(np.abs(diag - dmn / sphere.omega(d))))
    return max(dev_pairs, dev_diag)


def verify_gegenbauer(d, k_max, samples, seed):
    """Max deviation, over total degrees k = 0..k_max and random point pairs,
    between the real-sphere zonal of degree k (through the identification of
    C^d with R^(2d)) and the sum of complex zonals with m + n = k.

    Every degree is checked on the same pairs. The left side uses the
    Gegenbauer polynomial with index d - 1 (the real sphere is S^(2d-1))
    evaluated at Re <z, w>; this check pins down the Gegenbauer
    normalisation used in this package.
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    if k_max < 0:
        raise ArgumentError(f"degree must be nonnegative, got {k_max}")
    if samples < 1:
        raise ArgumentError("need at least one sample pair")
    pts = sphere.sample_points(d, 2 * samples, seed)
    zs, ws = pts[:samples], pts[samples:]
    t = np.sum(zs * np.conj(ws), axis=1)
    w = sphere.omega(d)
    worst = 0.0
    for k in range(k_max + 1):
        lhs = ((2 * d + 2 * k - 2) / (w * (2 * d - 2))
               * polynomials.gegenbauer_eval(k, d - 1, t.real))
        rhs = np.zeros_like(lhs, dtype=complex)
        for m in range(k + 1):
            rhs += ((dim_complex_harmonic(d, m, k - m) / w)
                    * polynomials.disk_poly_eval(m, k - m, d - 2, t))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def project_mc(f, d, m, n, w, samples, seed):
    """Monte Carlo estimate of the projection of f onto the (m, n) harmonic
    space, evaluated at the pole w.

    Integrates f(z) * conj(zonal_w(z)) over the sphere: returns
    (omega(d) * mean, stderr) where the stderr combines the real and
    imaginary sample variances of the integrand. f and the zonal kernel are
    evaluated one sampling chunk of points at a time, into one integrand
    array.
    """
    if samples < 2:
        raise ArgumentError("need at least two samples for a standard error")
    pts = sphere.sample_points(d, samples, seed)
    integrand = np.empty(samples, dtype=complex)
    for start in range(0, samples, sphere._CHUNK):
        chunk = pts[start:start + sphere._CHUNK]
        fvals = np.asarray(f(chunk), dtype=complex)
        if not np.all(np.isfinite(fvals)):
            raise DataError("f produced non-finite values at sample points")
        zonal = zonal_eval(d, m, n, w, chunk)
        np.multiply(fvals, np.conj(zonal), out=integrand[start:start + len(chunk)])
    wd = sphere.omega(d)
    estimate = wd * complex(integrand.mean())
    var = integrand.real.var(ddof=1) + integrand.imag.var(ddof=1)
    stderr = wd * math.sqrt(var / samples)
    return estimate, stderr
