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

The zonal kernel (dim / omega) R_(m,n)^(d-2)(t) is written once, as a
function of t = <z, w> (_zonal): zonal_eval, verify_addition and
project_mc read it. The sampled checks draw their points through
sphere.draw_chunks and its pair form sphere.draw_pairs, one sampling chunk
at a time, so none holds an array that grows with its samples; the two
pair checks share one refusal rule (_refuse_pairs).

refuse_cost lives here, with its ceilings MAX_CLOUD_FLOPS and
MAX_CLOUD_BYTES: it is the one up-front refusal by estimated cost, of
build_basis's exact elimination and of every sampling command, and this
module is one that all of them run.
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
from .dimensions import bidegree_monomials, check_dimension, dim_complex_harmonic
from .errors import ArgumentError, ConsistencyError, DataError

# Bidegree and dimension caps of build_basis. They bound the accuracy of the
# float monomial evaluation (MonomialMap), not the cost, which refuse_cost
# prices: the relative addition-formula deviation of eval_orthonormal was
# 1.7e-11 at d=2 (8, 8), 1.1e-9 at (12, 12) and 3.1e-5 at (20, 20).
MAX_BIDEGREE = 8
MAX_DIMENSION = 4

# Ceilings of the up-front refusal (refuse_cost) of build_basis and of every
# sampling command. A whole Levy cloud-path call took 2.6e-11 to 3.0e-11 s
# per product flop on a 2-vCPU x86-64 VM with OpenBLAS (s = 63 to 342, 1000
# to 4000 outer rows, 5e4 to 1e5 points), so the flop ceiling refuses inputs
# that would take more than about a minute. Windows with s below about 20
# take longer per flop: their |.|^p reductions cost more than their products.
# The byte ceiling is a quarter of an 8 GB machine: a small sample count can
# keep the flops low while one array alone takes tens of gigabytes.
MAX_CLOUD_FLOPS = 2 * 10**12
SECONDS_PER_CLOUD_FLOP = 3e-11
MAX_CLOUD_BYTES = 2 * 10**9

# Time model of build_basis, in flops of MAX_CLOUD_FLOPS: the elimination of
# a signature block of s monomials costs about s^4 units (s^3 big-integer
# operations on entries whose size grows with s). One unit took 1e-8 to
# 1.6e-8 s on a 2-vCPU x86-64 VM with Python 3.11 (d=4 bidegree (6, 6): 1.7e9
# units, 18 s), about 500 times SECONDS_PER_CLOUD_FLOP, so the ceiling
# refuses more than 4e9 units, e.g. d=4 bidegree (8, 8) at 5.2e10.
_BLOCK_FLOPS = 500

POINT_TOL = 1e-12

# Points per pass of a MonomialMap. It stays 2048 although fewer rows would
# hold less: the row count is part of the evaluator's bits (MonomialMap).
_EVAL_ROWS = 2048

# Time model of the pair checks (_refuse_pairs), in flops of MAX_CLOUD_FLOPS:
# a pair costs a count of terms, each _TERM_FLOPS. verify_gegenbauer counts
# one term per disk polynomial with m + n <= k_max (its share of the table,
# of the Gegenbauer sweep and of the rows' sum) and about 5 (d + 1) for its
# draw and inner product: one term over one pair took 1.9e-8 to 2.1e-8 s at
# 1000 pairs (d = 2, 3 and 5, k_max = 100 and 200), and a pair at k_max = 0
# 3.4e-7 s at d = 2 to 6.5e-7 s at d = 5, on a 2-vCPU x86-64 VM: a term is
# about 700 times SECONDS_PER_CLOUD_FLOP. verify_addition counts 2 d K terms
# for the monomial tables of its K bidegree monomials at z and w, K dim / 50
# for their two products with the dim orthonormal functions, and 40 for the
# draw, the disk polynomial and the sums: the estimate was 0.5 to 1.9 times
# the time taken at 1000 pairs (0.5 at d = 2, (8, 8), whose evaluator pads
# 1000 points to 2048) and 2.1 to 3.3 times at 50,000 (d = 2 to 4, bidegrees
# (0, 0) to (8, 8); d = 4, (4, 4): 1.3 at 1000 pairs, 2.4 at 8192). Fewer
# than 1000 pairs cost about as much as 1000 (numpy's per-call overhead),
# so they count as 1000; 4096 pairs and more cost about half as much per pair.
_TERM_FLOPS = 700
_TERM_MIN_PAIRS = 1000


def refuse_cost(what, factors, arrays, work="cloud products", held="arrays"):
    """Refuse `what` up front if it would pass MAX_CLOUD_FLOPS or MAX_CLOUD_BYTES.

    factors are the factors of its product flops (none: no flop term).
    arrays lists (name, shape, bytes per entry) for every array that grows
    with the sample counts; a 16-byte entry is complex. The message is built
    from the same factors and list, so it states what was estimated.
    """
    flops = math.prod(factors)
    if flops > MAX_CLOUD_FLOPS:
        raise ArgumentError(
            f"{what} refused: its {work} cost {' x '.join(map(str, factors))} = {flops:.2e} flops"
            f" > {MAX_CLOUD_FLOPS:.0e}, an estimated {flops * SECONDS_PER_CLOUD_FLOP:.0f} s")
    nbytes = sum(math.prod(shape) * size for _, shape, size in arrays)
    if nbytes > MAX_CLOUD_BYTES:
        listed = ", ".join(f"{name} {' x '.join(map(str, shape))}{' complex' * (size == 16)}"
                           for name, shape, size in arrays)
        raise ArgumentError(f"{what} refused: its {held} take an estimated {nbytes / 1e9:.1f} GB"
                            f" ({listed}) > {MAX_CLOUD_BYTES / 1e9:.0f} GB")


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
    exponent and their conjugates are tabulated, and each monomial's column
    is the product of its factors z_j^k zbar_j^l, formed in place. Points go
    _EVAL_ROWS at a time, so the tables never exceed that many rows. The
    last chunk is padded with zero points: every product then has one
    shape, so BLAS runs one kernel and a row's value depends on its point
    only, not on N or on where the chunk boundaries fall. That row count is
    part of the values' bits, so it is fixed: with 512-row chunks, 2,124 of
    the 106,496 values of the d = 2 (0, 2] window on 4,096 points came out
    different, by up to 3e-13 relative.

    Memory: a call holds its (N, c) result, allocated with room for the
    padded last chunk, and one chunk's (_EVAL_ROWS, K) monomial table, its
    power tables and one factor column. Every chunk's product is written
    straight into its rows of the result, whose padding rows are then
    dropped in place.
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
        """The (N, K) monomial table at pts, formed column by column in place.

        Each column takes its factor z_j^k zbar_j^l of coordinate j straight
        from the power table of z_j and its conjugate: the first coordinate
        writes it, each later one multiplies it in.
        """
        mono = np.empty((len(pts), self.weights.shape[0] // 2), dtype=complex)
        factor = np.empty(len(pts), dtype=complex)
        first = True
        for j, ks, ls, which in self.factors:
            powers = np.empty((len(pts), max(ks.max(), ls.max()) + 1), dtype=complex)
            powers[:, 0] = 1.0
            for k in range(1, powers.shape[1]):
                np.multiply(powers[:, k - 1], pts[:, j], out=powers[:, k])
            conj = np.conj(powers)
            for c, (k, l) in enumerate(zip(ks[which].tolist(), ls[which].tolist())):
                column = mono[:, c]
                if first:
                    np.multiply(powers[:, k], conj[:, l], out=column)
                else:
                    np.multiply(column, np.multiply(powers[:, k], conj[:, l], out=factor), out=column)
            first = False
        if first:
            mono.fill(1.0)  # every monomial is constant
        return mono

    def __call__(self, points):
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ArgumentError(f"expected (N, {self.d}) points, got shape {points.shape}")
        n = points.shape[0]
        out = np.empty((-(-n // _EVAL_ROWS) * _EVAL_ROWS, self.weights.shape[1]))
        for start in range(0, n, _EVAL_ROWS):
            chunk = points[start:start + _EVAL_ROWS]
            if len(chunk) < _EVAL_ROWS:
                chunk = np.concatenate([chunk, np.zeros((_EVAL_ROWS - len(chunk), self.d), dtype=complex)])
            np.matmul(self._monomials(chunk).view(float), self.weights, out=out[start:start + _EVAL_ROWS])
        # no view of out is left, so it can drop the padding rows in place
        out.resize((n, out.shape[1]), refcheck=False)
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
    check_dimension(d)
    if m < 0 or n < 0:
        raise ArgumentError(f"bidegree must be nonnegative, got ({m}, {n})")
    if m > MAX_BIDEGREE or n > MAX_BIDEGREE or d > MAX_DIMENSION:
        raise ArgumentError(
            f"basis construction limited to m, n <= {MAX_BIDEGREE} and d <= {MAX_DIMENSION}"
            f" (requested d={d}, bidegree ({m}, {n}))")

    uppers = bidegree_monomials(d, m, n)
    lowers = bidegree_monomials(d, m - 1, n - 1) if m > 0 and n > 0 else []

    blocks = {}  # signature a - b -> (its upper monomials, its lower ones)
    for side, keys in enumerate((uppers, lowers)):
        for a, b in keys:
            blocks.setdefault(tuple(ai - bi for ai, bi in zip(a, b)), ([], []))[side].append((a, b))

    sizes = [len(u) + len(l) for u, l in blocks.values()]
    refuse_cost(f"exact basis for d={d}, bidegree ({m}, {n})",
                (sum(size**4 for size in sizes), _BLOCK_FLOPS), (),
                work=f"signature blocks (largest {max(sizes)} monomials)")

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


def _zonal(d, m, n, t):
    """The zonal kernel of the (m, n) harmonic space as a function of t = <z, w>:
    (dim / omega(d)) * R_{m,n}^(d-2)(t)."""
    return (dim_complex_harmonic(d, m, n) / sphere.omega(d)) * polynomials.disk_poly_eval(m, n, d - 2, t)


def zonal_eval(d, m, n, w, z):
    """Zonal kernel of the (m, n) harmonic space with pole w, evaluated at z.

    (dim / omega(d)) * R_{m,n}^(d-2)(<z, w>), where <z, w> = sum z_j conj(w_j).
    z may be a single point or an (N, d) array.
    """
    _check_on_sphere(w)
    _check_on_sphere(z)
    return _zonal(d, m, n, np.asarray(z, dtype=complex) @ np.conj(w))


def _refuse_pairs(what, d, pairs, terms, per_pair, work):
    """Refuse a check over point pairs up front: no pairs, or by refuse_cost, `terms`
    per pair at _TERM_FLOPS each, over at least _TERM_MIN_PAIRS pairs, and one chunk's
    arrays, its points and per_pair's (name, values per pair, bytes per value)."""
    if pairs < 1:
        raise ArgumentError("need at least one sample pair")
    chunk = sphere.chunk_rows(pairs)
    refuse_cost(what, (max(pairs, _TERM_MIN_PAIRS), terms, _TERM_FLOPS),
                [("points", (2 * chunk, d), 16)]
                + [(name, (chunk, width), size) for name, width, size in per_pair], work=work)


def verify_addition(d, m, n, samples, seed):
    """Max deviation of the reproducing identity over random point pairs.

    Checks both sum_j conj(Y_j(w)) Y_j(z) = zonal(w, z) and the diagonal
    normalisation sum_j |Y_j(z)|^2 = dim / omega(d). Inputs estimated at
    more than MAX_CLOUD_FLOPS (_TERM_FLOPS per term and pair) or
    MAX_CLOUD_BYTES are refused before the basis is built.

    The pairs are drawn and checked one sampling chunk at a time
    (sphere.draw_pairs), and the deviation is the largest over the chunks,
    the same bits as a check of all pairs at once. Memory: one chunk's
    points, basis values at both sides and pair values, and the evaluator's
    tables; no array grows with samples.
    """
    dmn = dim_complex_harmonic(d, m, n)
    monomials = math.comb(m + d - 1, m) * math.comb(n + d - 1, n)  # K, those of bidegree (m, n)
    _refuse_pairs(f"addition check for d={d}, bidegree ({m}, {n})", d, samples,
                  40 + 2 * d * monomials + monomials * dmn // 50, [
                      ("basis values", 3 * dmn, 16),  # at z, at w, their products
                      ("pair values", 5, 16),  # the sums, the zonal and their deviations
                  ], work="basis and kernel terms")
    basis_ = build_basis(d, m, n)
    worst = 0.0
    for zs, ws in sphere.draw_pairs(d, samples, seed):
        ez = basis_.eval_orthonormal(zs)
        lhs = np.sum(np.conj(basis_.eval_orthonormal(ws)) * ez, axis=1)
        t = np.sum(np.multiply(zs, np.conj(ws, out=ws), out=ws), axis=1)  # a fixed order, z conj(w)
        worst = max(worst, float(np.max(np.abs(lhs - _zonal(d, m, n, t)))),
                    float(np.max(np.abs(np.sum(np.abs(ez) ** 2, axis=1) - dmn / sphere.omega(d)))))
    return worst


def verify_gegenbauer(d, k_max, samples, seed):
    """Max deviation, over total degrees k = 0..k_max and random point pairs,
    between the real-sphere zonal of degree k (through the identification of
    C^d with R^(2d)) and the sum of complex zonals with m + n = k.

    Every degree is checked on the same pairs. The left side uses the
    Gegenbauer polynomial with index d - 1 (the real sphere is S^(2d-1))
    evaluated at Re <z, w>; this check pins down the Gegenbauer
    normalisation used in this package. Degrees whose disk polynomial
    recurrences would overflow (polynomials.check_table_degree), and inputs
    estimated at more than MAX_CLOUD_FLOPS (_TERM_FLOPS per term and
    pair) or MAX_CLOUD_BYTES, are refused before any point is drawn.

    The pairs are drawn and checked one sampling chunk at a time
    (sphere.draw_pairs). Per chunk, the disk polynomials come from
    polynomials.disk_poly_table, whose rows are summed in m order as they
    arrive, beside one sweep of polynomials.gegenbauer_terms; the deviation
    is the largest over the chunks, so it does not depend on the chunk
    size. Memory: one chunk's points and pair values, and the table's
    powers, recurrences and row over that chunk; no array grows with
    samples.
    """
    check_dimension(d)
    if k_max < 0:
        raise ArgumentError(f"degree must be nonnegative, got {k_max}")
    polynomials.check_table_degree(d - 2, k_max)
    _refuse_pairs(f"Gegenbauer check for d={d}, degrees 0..{k_max}", d, samples,
                  (k_max + 1) * (k_max + 2) // 2 + 5 * (d + 1), [
                      ("pair values", 7, 16),  # t and the Gegenbauer sweep's arrays
                      ("powers", 2 * (k_max + 1), 16),  # z^j and conj(z)^j
                      ("Jacobi recurrences", 2 * (k_max + 1), 8),
                      ("row", k_max + 1, 16),
                  ], work="disk polynomial terms")
    w = sphere.omega(d)
    # each degree's Gegenbauer factor and its zonals' weights dim H(m, k - m) / omega
    scales = [(2 * d + 2 * k - 2) / (w * (2 * d - 2)) for k in range(k_max + 1)]
    weights = [[dim_complex_harmonic(d, m, k - m) / w for m in range(k + 1)] for k in range(k_max + 1)]
    worst = 0.0
    for zs, ws in sphere.draw_pairs(d, samples, seed):
        # np.multiply fixes the order conj(w) z: for `*` numpy may reuse a large
        # temporary as the output and swap the operands, and the orders round differently
        t = np.sum(np.multiply(np.conj(ws, out=ws), zs, out=ws), axis=1)
        del zs, ws
        gegenbauer = polynomials.gegenbauer_terms(d - 1, t.real)  # its term k beside row k
        for k, row in enumerate(polynomials.disk_poly_table(d - 2, k_max, t)):
            # the sum of zonals in m order, built in the first one (starting
            # from zeros could only change the sign of a zero of rhs)
            rhs = row[0]
            for m, (weight, disk) in enumerate(zip(weights[k], row)):
                np.multiply(weight, disk, out=disk)
                if m:
                    rhs += disk
            worst = max(worst, float(np.max(np.abs(scales[k] * next(gegenbauer) - rhs))))
    return worst


def project_mc(f, d, m, n, w, samples, seed):
    """Monte Carlo estimate of the projection of f onto the (m, n) harmonic
    space, evaluated at the pole w.

    Integrates f(z) * conj(zonal_w(z)) over the sphere: returns
    (omega(d) * mean, stderr) where the stderr combines the real and
    imaginary sample variances of the integrand. A call whose arrays would
    pass MAX_CLOUD_BYTES is refused before f is first called. The pole is
    checked on the sphere once; the drawn points lie on it.

    Memory: each sampling chunk of points is drawn as it is integrated
    (sphere.draw_chunks), and f and the zonal kernel (_zonal at <z, w>) are
    evaluated on it into one (samples,) complex integrand array; no array of
    all the points is held. The integrand and the float deviations of its
    variance are the arrays that grow with samples.
    """
    if samples < 2:
        raise ArgumentError("need at least two samples for a standard error")
    refuse_cost(f"projection for d={d}, bidegree ({m}, {n})", (), [
        ("integrand", (samples,), 16), ("deviations", (samples,), 8)])
    _check_on_sphere(w)  # once: the chunks are drawn on the sphere
    integrand = np.empty(samples, dtype=complex)
    for start, pts in sphere.draw_chunks(d, samples, seed):
        fvals = np.asarray(f(pts), dtype=complex)
        if not np.all(np.isfinite(fvals)):
            raise DataError("f produced non-finite values at sample points")
        np.multiply(fvals, np.conj(_zonal(d, m, n, pts @ np.conj(w))), out=integrand[start:start + len(pts)])
    wd = sphere.omega(d)
    estimate = wd * complex(integrand.mean())
    var = integrand.real.var(ddof=1) + integrand.imag.var(ddof=1)
    stderr = wd * math.sqrt(var / samples)
    return estimate, stderr
