"""Jacobi, Gegenbauer and disk polynomials.

All evaluators use the forward three-term recurrence, which is stable for
the degrees (a few hundred at most) and parameter ranges this package needs.
Arguments are restricted to the geometric domain they arise from: |x| <= 1
for the real polynomials and |z| <= 1 for disk polynomials, with a 1e-12
round-off allowance (inputs come from inner products of unit vectors).
"""

from __future__ import annotations

import math

from ._lazy import numpy as np
from .errors import ArgumentError

# Round-off allowance above the closed unit disk / interval.
UNIT_TOL = 1e-12


def _clamp_interval(x, name="x"):
    """Clamp x into [-1, 1], rejecting violations beyond UNIT_TOL."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArgumentError(f"{name} must be finite")
    if np.any(np.abs(x) > 1.0 + UNIT_TOL):
        worst = float(np.max(np.abs(x)))
        raise ArgumentError(f"|{name}| = {worst} exceeds 1 beyond round-off tolerance")
    return np.clip(x, -1.0, 1.0)


def _clamp_disk(z):
    """Clamp complex z into the closed unit disk, rejecting |z| > 1 + UNIT_TOL."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ArgumentError("z must be finite")
    r = np.abs(z)
    if np.any(r > 1.0 + UNIT_TOL):
        raise ArgumentError(f"|z| = {float(np.max(r))} exceeds 1 beyond round-off tolerance")
    scale = np.where(r > 1.0, 1.0 / np.maximum(r, 1.0), 1.0)
    return z * scale


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
    k = int(k)
    x = _clamp_interval(x)
    scalar = x.ndim == 0

    p_prev = np.ones_like(x)
    if k == 0:
        return float(p_prev) if scalar else p_prev
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for n in range(2, k + 1):
        a = 2.0 * n * (n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
        b1 = 2.0 * n + alpha + beta - 1.0
        b2 = (2.0 * n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
        b3 = alpha * alpha - beta * beta
        c = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + alpha + beta)
        p_prev, p_cur = p_cur, (b1 * (b2 * x + b3) * p_cur - c * p_prev) / a
    return float(p_cur) if scalar else p_cur


def gegenbauer_eval(k, lam, t):
    """Gegenbauer polynomial C_k^lam(t), lam > 0, t in [-1, 1].

    Normalised so that C_k^lam(1) = binom(k + 2*lam - 1, k).
    """
    if k < 0 or k != int(k):
        raise ArgumentError(f"degree k must be a nonnegative integer, got {k}")
    if not math.isfinite(lam) or lam <= 0:
        raise ArgumentError(f"Gegenbauer index lam must be positive, got {lam}")
    k = int(k)
    t = _clamp_interval(t, name="t")
    scalar = t.ndim == 0

    c_prev = np.ones_like(t)
    if k == 0:
        return float(c_prev) if scalar else c_prev
    c_cur = 2.0 * lam * t
    for n in range(2, k + 1):
        c_prev, c_cur = c_cur, (2.0 * t * (n + lam - 1.0) * c_cur - (n + 2.0 * lam - 2.0) * c_prev) / n
    return float(c_cur) if scalar else c_cur


def disk_poly_eval(m, n, alpha, z):
    """Disk polynomial R_{m,n}^alpha(z) on the closed unit disk.

    For m >= n this is z^(m-n) * P_n^(alpha, m-n)(2|z|^2 - 1) divided by
    P_n^(alpha, m-n)(1); the case m < n is the conjugate-mirror formula.
    Satisfies R_{m,n}^alpha(1) = 1. Accepts scalar or ndarray z.
    """
    if m < 0 or n < 0 or m != int(m) or n != int(n):
        raise ArgumentError(f"degrees must be nonnegative integers, got ({m}, {n})")
    if alpha < 0 or alpha != int(alpha):
        raise ArgumentError(f"disk polynomial index alpha must be a nonnegative integer, got {alpha}")
    m, n, alpha = int(m), int(n), int(alpha)
    z = _clamp_disk(z)
    scalar = z.ndim == 0

    lo, hi = min(m, n), max(m, n)
    x = 2.0 * (z.real**2 + z.imag**2) - 1.0
    radial = jacobi_eval(lo, alpha, hi - lo, x) / math.comb(lo + alpha, lo)
    angular = z ** (m - n) if m >= n else np.conj(z) ** (n - m)
    out = angular * radial
    return complex(out) if scalar else out
