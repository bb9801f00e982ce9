"""Jacobi, Gegenbauer and disk polynomials.

All evaluators use the forward three-term recurrence, which is stable for
the degrees (a few hundred at most) and parameter ranges this package needs;
disk_poly_eval and disk_poly_table refuse a bidegree whose own recurrence
could overflow, by one rule (_overflows; check_table_degree for a table).
The Jacobi recurrence is written once (_jacobi_terms): jacobi_eval and
disk_poly_eval run it to one degree, and disk_poly_table runs one per
difference |m - n| to give every disk polynomial of total degree up to
k_max in one sweep. The Gegenbauer recurrence is written once too
(gegenbauer_terms): gegenbauer_eval takes its term k, and a check of
every degree up to k_max runs it once. Arguments are
restricted to the geometric domain they arise from: |x| <= 1 for the real
polynomials and |z| <= 1 for disk polynomials, with a 1e-12 round-off
allowance (inputs come from inner products of unit vectors).
"""

from __future__ import annotations

import itertools
import math
import sys

from ._lazy import numpy as np
from .errors import ArgumentError

# Round-off allowance above the closed unit disk / interval.
UNIT_TOL = 1e-12

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _clamp_interval(x, name="x"):
    """Clamp x into [-1, 1], rejecting violations beyond UNIT_TOL."""
    x = np.asarray(x, dtype=float)
    worst = float(np.max(np.abs(x), initial=0.0))  # NaN propagates
    if not math.isfinite(worst):
        raise ArgumentError(f"{name} must be finite")
    if worst > 1.0 + UNIT_TOL:
        raise ArgumentError(f"|{name}| = {worst} exceeds 1 beyond round-off tolerance")
    return np.clip(x, -1.0, 1.0)


def _clamp_disk(z):
    """Clamp complex z into the closed unit disk, rejecting |z| > 1 + UNIT_TOL."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    worst = float(np.max(r, initial=0.0))  # NaN propagates
    if not math.isfinite(worst):
        raise ArgumentError("z must be finite")
    if worst > 1.0 + UNIT_TOL:
        raise ArgumentError(f"|z| = {worst} exceeds 1 beyond round-off tolerance")
    scale = np.where(r > 1.0, 1.0 / np.maximum(r, 1.0), 1.0)
    return z * scale


def _jacobi_terms(alpha, beta, x):
    """Yield P_0, P_1, P_2, ... of P_n^(alpha,beta) at the clamped x, by the
    forward three-term recurrence; each term is a new array."""
    p_prev = np.ones_like(x)
    yield p_prev
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    yield p_cur
    for n in itertools.count(2):
        a = 2.0 * n * (n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
        b1 = 2.0 * n + alpha + beta - 1.0
        b2 = (2.0 * n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
        b3 = alpha * alpha - beta * beta
        c = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + alpha + beta)
        # (b1 * (b2 * x + b3) * p_cur - c * p_prev) / a, operation by operation
        # in one new array
        p_next = b2 * x
        p_next += b3
        p_next *= b1
        p_next *= p_cur
        p_next -= c * p_prev
        p_next /= a
        p_prev, p_cur = p_cur, p_next
        yield p_cur


def jacobi_eval(k, alpha, beta, x):
    """Jacobi polynomial P_k^(alpha,beta)(x) for x in [-1, 1].

    Normalised so that P_k^(alpha,beta)(1) = binom(k+alpha, k).
    Accepts a scalar or ndarray x; returns the matching shape.
    """
    if k < 0 or k != int(k):
        raise ArgumentError(f"degree k must be a nonnegative integer, got {k}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ArgumentError("alpha and beta must be finite")
    if alpha <= -1 or beta <= -1:
        raise ArgumentError(f"alpha, beta must exceed -1, got ({alpha}, {beta})")
    x = _clamp_interval(x)
    p_k = next(itertools.islice(_jacobi_terms(alpha, beta, x), int(k), None))
    return float(p_k) if x.ndim == 0 else p_k


def gegenbauer_terms(lam, t):
    """Yield C_0^lam, C_1^lam, C_2^lam, ... at the clamped t in [-1, 1], lam > 0, by the
    forward three-term recurrence; each term is a new array. lam and t are checked when
    the first term is taken.

    Normalised so that C_k^lam(1) = binom(k + 2*lam - 1, k).
    """
    if not math.isfinite(lam) or lam <= 0:
        raise ArgumentError(f"Gegenbauer index lam must be positive, got {lam}")
    t = _clamp_interval(t, name="t")
    c_prev = np.ones_like(t)
    yield c_prev
    c_cur = 2.0 * lam * t
    yield c_cur
    two_t = 2.0 * t
    for n in itertools.count(2):
        # (2 t (n + lam - 1) c_cur - (n + 2 lam - 2) c_prev) / n in one new array
        c_next = two_t * (n + lam - 1.0)
        c_next *= c_cur
        c_next -= (n + 2.0 * lam - 2.0) * c_prev
        c_next /= n
        c_prev, c_cur = c_cur, c_next
        yield c_cur


def gegenbauer_eval(k, lam, t):
    """Gegenbauer polynomial C_k^lam(t), lam > 0, t in [-1, 1]: term k of gegenbauer_terms."""
    if k < 0 or k != int(k):
        raise ArgumentError(f"degree k must be a nonnegative integer, got {k}")
    c_k = next(itertools.islice(gegenbauer_terms(lam, t), int(k), None))
    return float(c_k) if np.ndim(t) == 0 else c_k


def _check_disk_index(alpha):
    if alpha < 0 or alpha != int(alpha):
        raise ArgumentError(f"disk polynomial index alpha must be a nonnegative integer, got {alpha}")
    return int(alpha)


def _radial_arg(z):
    """2|z|^2 - 1 of the clamped z, the argument of the disk polynomials' Jacobi factor."""
    return 2.0 * (z.real**2 + z.imag**2) - 1.0


def disk_poly_eval(m, n, alpha, z):
    """Disk polynomial R_{m,n}^alpha(z) on the closed unit disk.

    For m >= n this is z^(m-n) * P_n^(alpha, m-n)(2|z|^2 - 1) divided by
    P_n^(alpha, m-n)(1); the case m < n is the conjugate-mirror formula.
    Satisfies R_{m,n}^alpha(1) = 1. Accepts scalar or ndarray z. One
    bidegree runs one recurrence to min(m, n); disk_poly_table gives every
    bidegree up to a total degree, with the same bits.
    """
    if m < 0 or n < 0 or m != int(m) or n != int(n):
        raise ArgumentError(f"degrees must be nonnegative integers, got ({m}, {n})")
    alpha = _check_disk_index(alpha)
    m, n = int(m), int(n)
    lo, hi = min(m, n), max(m, n)
    if _overflows(alpha, lo, hi - lo):
        raise ArgumentError(f"the disk polynomial of bidegree ({m}, {n}) at alpha = {alpha} would"
                            " overflow double precision in its Jacobi recurrence")
    z = _clamp_disk(z)
    scalar = z.ndim == 0
    radial = jacobi_eval(lo, alpha, hi - lo, _radial_arg(z)) / math.comb(lo + alpha, lo)
    angular = z ** (m - n) if m >= n else np.conj(z) ** (n - m)
    out = angular * radial
    return complex(out) if scalar else out


def _log_comb(n, r):
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def _overflows(alpha, lo, j):
    """Whether the Jacobi recurrence of P_lo^(alpha, j), the radial factor of the disk
    polynomials R_(lo+j, lo) and R_(lo, lo+j), could overflow.

    On [-1, 1], |P_lo^(alpha, j)| peaks at binom(lo + max(alpha, j), lo) (Szego,
    Orthogonal Polynomials, 7.32.2), which grows with the total degree 2 lo + j, and a
    recurrence step multiplies such values by at most 4 (2 lo + j + alpha + 2)^3 before it
    divides. The one overflow rule of disk_poly_eval and check_table_degree.
    """
    step = math.log(4 * (2 * lo + j + alpha + 2) ** 3)
    return _log_comb(lo + max(alpha, j), lo) + step >= _LOG_DOUBLE_MAX


def check_table_degree(alpha, k_max):
    """Refuse a disk_poly_table(alpha, k_max) whose Jacobi recurrences could overflow.

    Every bidegree of total degree k_max is checked (_overflows). At alpha = 0 to 50
    this refuses k_max above 1434; the recurrence first overflows at 1439. The scan over
    lo stops at the first peak past the limit, so a huge k_max is refused after a few
    terms.
    """
    if any(_overflows(alpha, lo, k_max - 2 * lo) for lo in range(k_max // 2 + 1)):
        raise ArgumentError(f"disk polynomials of total degree {k_max} at alpha = {alpha} overflow"
                            " double precision in their Jacobi recurrence")


def disk_poly_table(alpha, k_max, z):
    """Rows of disk polynomials: yields, for k = 0..k_max, the list
    [R_{m,k-m}^alpha(z) for m = 0..k], each equal bit for bit to
    disk_poly_eval(m, k - m, alpha, z).

    z is clamped and 2|z|^2 - 1 formed once. Bidegrees with the same
    difference j = |m - n| share one Jacobi recurrence P_lo^(alpha, j), which
    moves one step every two total degrees (k = 2 lo + j), and the powers
    z^j and conj(z)^j, formed once when j first appears.

    Memory: per difference j <= k, the recurrence's two float arrays and
    the two complex powers of z's shape (one at j = 0), beside conj(z) and
    the row. Each row value is a new array, which the caller may overwrite.
    """
    alpha = _check_disk_index(alpha)
    if k_max < 0 or k_max != int(k_max):
        raise ArgumentError(f"degree must be a nonnegative integer, got {k_max}")
    check_table_degree(alpha, int(k_max))
    z = _clamp_disk(z)
    x = _clamp_interval(_radial_arg(z))
    return _disk_rows(alpha, int(k_max), z, x)


def _disk_rows(alpha, k_max, z, x):
    zbar = np.conj(z)
    terms, powers = [], []  # per difference j: its recurrence, and (z^j, conj(z)^j)
    for k in range(k_max + 1):
        terms.append(_jacobi_terms(alpha, k, x))
        powers.append((z**0,) if k == 0 else (z**k, zbar**k))
        row = [None] * (k + 1)
        for j in range(k % 2, k + 1, 2):
            lo = (k - j) // 2
            radial = next(terms[j]) / math.comb(lo + alpha, lo)
            row[lo + j] = powers[j][0] * radial  # R_(lo+j, lo)
            if j:
                row[lo] = powers[j][1] * radial  # R_(lo, lo+j)
        yield row
