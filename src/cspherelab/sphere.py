"""Geometry of the complex unit sphere: measure, sampling, Monte Carlo norms.

The surface measure is NOT normalised: the sphere in C^d carries total mass
omega(d) = 2 pi^d / (d-1)!, the surface area of S^(2d-1) in R^(2d). Every
norm estimator therefore multiplies sample means by omega(d) explicitly.

Sampling is reproducible and worker-independent: points are generated in
fixed-size chunks, each chunk seeded by (seed, chunk index) through a
SeedSequence spawn key, so serial and parallel runs produce bit-identical
streams for the same (seed, count, chunk).

Each Monte Carlo norm has one estimator, batched so that one call covers
many functions sampled on a shared cloud: lp_norm_mc reduces along the last
axis of sampled |f| values and returns the estimates with their delta-method
standard errors; sup_norm_refined runs the shrinking-cap sup search for a
batch of functions at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

DEFAULT_CHUNK = 4096


def omega(d):
    """Surface area of the unit sphere of C^d, i.e. of S^(2d-1) in R^(2d)."""
    if d < 1:
        raise ArgumentError(f"dimension d must be >= 1, got {d}")
    return 2.0 * math.pi**d / math.factorial(d - 1)


def upsilon(z):
    """Identify points of C^d with R^(2d): (x1, y1, ..., xd, yd)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def _chunk_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_points(d, count, seed, chunk=DEFAULT_CHUNK):
    """Uniform i.i.d. points on the unit sphere of C^d, shape (count, d) complex.

    Normalised standard Gaussian vectors in R^(2d). Deterministic for fixed
    (seed, count, chunk) regardless of how the chunks are scheduled.
    """
    if count < 1:
        raise ArgumentError(f"sample count must be >= 1, got {count}")
    if chunk < 1:
        raise ArgumentError(f"chunk size must be >= 1, got {chunk}")
    blocks = []
    for index in range(0, -(-count // chunk)):
        n = min(chunk, count - index * chunk)
        g = _chunk_rng(seed, index).standard_normal((n, 2 * d))
        z = g[:, 0::2] + 1j * g[:, 1::2]
        norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=1, keepdims=True))
        blocks.append(z / norms)
    return np.concatenate(blocks, axis=0)


def lp_norm_mc(values, p, d):
    """L^p(Omega_d) norm estimates from |f| sampled at uniform points.

    The samples run along the last axis of `values`; returns (value, stderr),
    each with the shape of `values` less that axis.
    For finite p the value is (omega(d) * mean(|f|^p))^(1/p) with its
    delta-method standard error. For p = inf the value is max(values), a
    lower-biased estimate of the essential sup, with stderr 0.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ArgumentError("cannot estimate a norm from zero samples")
    if not np.all(np.isfinite(values)):
        raise ArgumentError("sampled |f| values must be finite")
    if p != math.inf and p < 1:
        raise ArgumentError(f"need p >= 1 or p = inf, got {p}")
    n = values.shape[-1]
    if p == math.inf:
        value = values.max(axis=-1)
        return value, np.zeros_like(value)[()]
    w = omega(d)
    powers = values**p
    mean = powers.mean(axis=-1)
    value = (w * mean) ** (1.0 / p)
    stderr = np.zeros_like(value)
    if n > 1:
        se_mean = powers.std(axis=-1, ddof=1) / math.sqrt(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (1.0 / p) * (w * mean) ** (1.0 / p - 1.0) * w * se_mean
        stderr = np.where(mean > 0, delta, 0.0)
    return value, stderr[()]


def sup_norm_refined(f, points, values, samples, seed, rounds=3, shrink=0.3):
    """Lower bounds for sup |f_b| on the sphere, for a batch of functions f_b.

    values (B, N) holds every f_b at the shared points (N, d). Each search
    starts at its function's largest |value| there, then `rounds` times
    draws `samples` points from a Gaussian cap around its running maximiser
    (cap width shrink^(r+1) in round r, drawn from the stream (seed, 9000 + r))
    and keeps the best. f maps cap points (B, samples, d) to values
    (B, samples); magnitudes are taken here.
    """
    mags = np.abs(values)
    best = mags.max(axis=1)
    centers = points[mags.argmax(axis=1)]
    batch, d = centers.shape
    sigma = shrink
    for r in range(rounds):
        rng = _chunk_rng(seed, 9000 + r)
        offsets = rng.standard_normal((batch, samples, d)) \
            + 1j * rng.standard_normal((batch, samples, d))
        cap = centers[:, None, :] + sigma * offsets
        cap /= np.sqrt(np.sum(np.abs(cap) ** 2, axis=2, keepdims=True))
        cap_vals = np.abs(f(cap))
        round_best = cap_vals.max(axis=1)
        improved = round_best > best
        centers = np.where(improved[:, None], cap[np.arange(batch), cap_vals.argmax(axis=1)], centers)
        best = np.maximum(best, round_best)
        sigma *= shrink
    return best
