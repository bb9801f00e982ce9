"""Dimension combinatorics for harmonic subspaces of the complex sphere.

Everything here is exact integer arithmetic (Python ints, so no overflow).
Levels are graded either by ``star`` (|(m,n)| = m + n) or ``max``
(|(m,n)| = max(m, n)); the two gradings induce different layer
decompositions and hence different cumulative dimension counts.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import ArgumentError, ConsistencyError

GRADINGS = ("star", "max")


def _check_grading(grading):
    if grading not in GRADINGS:
        raise ArgumentError(f"grading must be one of {GRADINGS}, got {grading!r}")
    return grading


def dim_complex_harmonic(d, m, n):
    """Dimension of the bidegree-(m, n) harmonic space on the unit sphere of C^d.

    binom(m+d-1, m) * binom(n+d-1, n) - binom(m+d-2, m-1) * binom(n+d-2, n-1),
    with binom(., -1) = 0.
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    if m < 0 or n < 0:
        raise ArgumentError(f"bidegree components must be nonnegative, got ({m}, {n})")
    lead = comb(m + d - 1, m) * comb(n + d - 1, n)
    if m == 0 or n == 0:
        return lead
    return lead - comb(m + d - 2, m - 1) * comb(n + d - 2, n - 1)


def dim_real_harmonic(D, k):
    """Dimension of the degree-k spherical harmonics on S^(D-1) in R^D.

    binom(D+k-1, k) - binom(D+k-3, k-2), with binom(., j) = 0 for j < 0
    (so k = 0 gives 1 and k = 1 gives D).
    """
    if D < 3:
        raise ArgumentError(f"real dimension D must be >= 3, got {D}")
    if k < 0:
        raise ArgumentError(f"degree k must be nonnegative, got {k}")
    if k < 2:
        return 1 if k == 0 else D
    return comb(D + k - 1, k) - comb(D + k - 3, k - 2)


def layer_members(l, grading):
    """Bidegrees at level exactly l, in lexicographic (m, n) order."""
    _check_grading(grading)
    if l < 0:
        raise ArgumentError(f"level must be nonnegative, got {l}")
    if grading == "star":
        return [(m, l - m) for m in range(l + 1)]
    members = [(m, l) for m in range(l)] + [(l, n) for n in range(l + 1)]
    return sorted(members)


class LayerSummary(namedtuple("LayerSummary", "l members a_l d_l cum_dim")):
    """One grading layer: its members, their count and dimension totals."""

    __slots__ = ()


def dim_layer_by_members(d, l, grading):
    """Layer dimension as the explicit sum over its bidegrees (slow path)."""
    return sum(dim_complex_harmonic(d, m, n) for m, n in layer_members(l, grading))


@lru_cache(maxsize=None)
def cum_dim(d, l, grading):
    """Dimension of the span of all layers up to level l (inclusive).

    Exact closed forms (the bidegree dimension telescopes as
    b_m b_n - b_{m-1} b_{n-1} with b_m = binom(m+d-1, m)):
    max grading gives binom(l+d, d)^2 - binom(l+d-1, d)^2 and star grading
    gives the degree-<=l polynomial dimension on the real sphere S^(2d-1).
    dim_layer_by_members cross-checks these term by term.
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    _check_grading(grading)
    if l < 0:
        return 0
    if grading == "max":
        return comb(l + d, d) ** 2 - comb(l + d - 1, d) ** 2
    extra = comb(2 * d + l - 2, l - 1) if l >= 1 else 0
    return comb(2 * d + l - 1, l) + extra


@lru_cache(maxsize=None)
def dim_layer(d, l, grading):
    """Total harmonic dimension of the level-l layer."""
    if l < 0:
        raise ArgumentError(f"level must be nonnegative, got {l}")
    return cum_dim(d, l, grading) - cum_dim(d, l - 1, grading)


def layer(d, l, grading):
    """Full summary of the level-l layer, including the cumulative dimension."""
    members = tuple(layer_members(l, grading))
    d_l = dim_layer(d, l, grading)
    return LayerSummary(l=l, members=members, a_l=len(members), d_l=d_l,
                        cum_dim=cum_dim(d, l, grading))


def theta(d, a, b, grading):
    """Sum of layer dimensions over levels a+1 .. b (a exclusive, b inclusive)."""
    if a < 0:
        raise ArgumentError(f"lower level must be nonnegative, got {a}")
    if a >= b:
        raise ArgumentError(f"need a < b, got a={a}, b={b}")
    return cum_dim(d, b, grading) - cum_dim(d, a, grading)


def check_dim_bounds(d, l_min, l_max):
    """Measure the slack in the two-sided layer-dimension bounds (max grading).

    For each level l the layer dimension behaves like
    lead * l^(2d-2) with lead = 2(2d-1)/(d! (d-1)!); this reports the ratio
    d_l / l^(2d-2) at l_min and l_max and the smallest constants C1, C2 with
    lead*l^(2d-2) - C1*l^(2d-3) <= d_l <= lead*l^(2d-2) + C2*l^(2d-3)
    over the range. It also reports the smallest admissible constant in the
    per-bidegree bound
    (m+n)(mn)^(d-2)/((d-1)!(d-2)!) <= d_{m,n} <= same + C (m+n) m^(d-2) n^(d-3),
    which involves (d-2)! and (mn)^(d-2) and is therefore skipped for d = 2
    and for bidegrees with mn = 0 (recorded in the report).
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    if l_min < 1 or l_min > l_max:
        raise ArgumentError(f"need 1 <= l_min <= l_max, got [{l_min}, {l_max}]")

    lead = Fraction(2 * (2 * d - 1), factorial(d) * factorial(d - 1))
    c1 = Fraction(0)
    c2 = Fraction(0)
    for l in range(l_min, l_max + 1):
        d_l = dim_layer(d, l, "max")
        gap = d_l - lead * l ** (2 * d - 2)
        if gap >= 0:
            c2 = max(c2, Fraction(gap, l ** (2 * d - 3)))
        else:
            c1 = max(c1, Fraction(-gap, l ** (2 * d - 3)))

    report = {
        "d": d,
        "l_range": [l_min, l_max],
        "leading_coefficient": float(lead),
        "ratio_first": float(Fraction(dim_layer(d, l_min, "max"), l_min ** (2 * d - 2))),
        "ratio_last": float(Fraction(dim_layer(d, l_max, "max"), l_max ** (2 * d - 2))),
        "C1": float(c1),
        "C2": float(c2),
    }

    if d == 2:
        report["bidegree_bound"] = {"skipped": "d=2 (the bound divides by (d-2)! with exponent d-2 = 0)"}
    else:
        # In units of 1/dfac: lower = scaled_lower / dfac, and the candidate
        # C = (dmn - lower) / denom = (dmn*dfac - scaled_lower) / (dfac*denom),
        # compared by integer cross-multiplication. dmn = b_m b_n - b_(m-1) b_(n-1)
        # with b_k = binom(k+d-1, k), tabulated once (see dim_complex_harmonic).
        dfac = factorial(d - 1) * factorial(d - 2)
        b = [comb(k + d - 1, k) for k in range(l_max + 1)]
        worst_num, worst_den = 0, 1
        lower_ok = True
        skipped = 0
        for l in range(l_min, l_max + 1):
            for m, n in layer_members(l, "max"):
                if m == 0 or n == 0:
                    skipped += 1
                    continue
                scaled_lower = (m + n) * (m * n) ** (d - 2)
                scaled_excess = (b[m] * b[n] - b[m - 1] * b[n - 1]) * dfac - scaled_lower
                if scaled_excess < 0:
                    lower_ok = False
                elif scaled_excess > 0:
                    den = dfac * (m + n) * m ** (d - 2) * n ** (d - 3)
                    if scaled_excess * worst_den > worst_num * den:
                        worst_num, worst_den = scaled_excess, den
        report["bidegree_bound"] = {
            "lower_bound_holds": lower_ok,
            "smallest_admissible_C": float(Fraction(worst_num, worst_den)),
            "skipped_mn_zero": skipped,
        }
    return report


# ---------------------------------------------------------------------------
# Independent oracle: kernel rank of the complex Laplacian.
# ---------------------------------------------------------------------------

def _monomial_multi_indices(total, d):
    """All length-d multi-indices with the given total degree, lex-descending."""
    if d == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        out.extend((head,) + rest for rest in _monomial_multi_indices(total - head, d - 1))
    return out


def bidegree_monomials(d, m, n):
    """Monomial exponent pairs (alpha, beta) of bidegree (m, n) in C^d."""
    return [(a, b) for a in _monomial_multi_indices(m, d) for b in _monomial_multi_indices(n, d)]


def _exact_rank(rows):
    """Rank of an integer matrix (list of lists) by exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def laplacian_kernel_rank(d, m, n):
    """dim of the harmonic subspace of bidegree-(m, n) polynomials, computed
    symbolically.

    Applies 4 * sum_j d^2/dz_j dzbar_j to each monomial z^a zbar^b (integer
    coefficients) and returns #monomials - rank of the resulting map onto
    bidegree (m-1, n-1). Small cases only (intended for m, n <= 4, d <= 3);
    this is the independent ground truth for dim_complex_harmonic.
    """
    if d < 2:
        raise ArgumentError(f"complex dimension d must be >= 2, got {d}")
    cols = bidegree_monomials(d, m, n)
    if m == 0 or n == 0:
        return len(cols)
    rows_idx = {ab: i for i, ab in enumerate(bidegree_monomials(d, m - 1, n - 1))}
    matrix = [[0] * len(cols) for _ in rows_idx]
    for j, (a, b) in enumerate(cols):
        for i in range(d):
            if a[i] > 0 and b[i] > 0:
                a2 = a[:i] + (a[i] - 1,) + a[i + 1:]
                b2 = b[:i] + (b[i] - 1,) + b[i + 1:]
                matrix[rows_idx[(a2, b2)]][j] += 4 * a[i] * b[i]
    kernel = len(cols) - _exact_rank(matrix)
    if kernel <= 0:
        raise ConsistencyError(f"Laplacian kernel came out empty for d={d}, (m,n)=({m},{n})")
    return kernel
