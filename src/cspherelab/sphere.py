"""Geometry of the complex unit sphere: measure, sampling, Monte Carlo norms.

The surface measure is NOT normalised: the sphere in C^d carries total mass
omega(d) = 2 pi^d / (d-1)!, the surface area of S^(2d-1) in R^(2d). Every
norm estimator therefore multiplies sample means by omega(d) explicitly.

Sampling has one fixed layout, which defines the sampled bytes: points are
drawn _CHUNK at a time, each chunk from the stream (seed, chunk index) of a
SeedSequence spawn key, so outputs are reproducible from (seed, count) and
the first points do not depend on how many are drawn; any row range can be
drawn alone (sample_points' start). A command that integrates or checks
its points as they are drawn takes them from draw_chunks, consecutive
ranges of at most _CHUNK rows, or from its pair form draw_pairs, so no
array of all its points is held.

Each Monte Carlo norm has one estimator, batched so that one call covers
many functions sampled on a shared cloud: lp_norm_mc reduces along the last
axis of sampled |f| values and returns the estimates with their delta-method
standard errors; sup_norm_refined starts from the largest sampled |f| of
each function and its point, and runs the shrinking-cap sup search for a
batch of functions at once.

Every sampling command refuses an input over its cost ceilings before it
builds a basis or draws a point, through basis.refuse_cost: it lives in
basis, which the exact basis command runs without this module.
"""

from __future__ import annotations

import math

from ._lazy import numpy as np
from .errors import ArgumentError

_CHUNK = 4096  # points per sampling stream

# The cap search of sup_norm_refined: rounds, points per cap, width factor.
_CAP_ROUNDS = 2
_CAP_SAMPLES = 256
_CAP_SHRINK = 0.3


def omega(d):
    """Surface area of the unit sphere of C^d, i.e. of S^(2d-1) in R^(2d)."""
    if d < 1:
        raise ArgumentError(f"dimension d must be >= 1, got {d}")
    return 2.0 * math.pi**d / math.factorial(d - 1)


def check_exponent(p):
    """Refuse an L^p exponent outside 1 <= p <= inf; NaN fails the comparison."""
    if not p >= 1:
        raise ArgumentError(f"need p >= 1 or p = inf, got {p}")


def _chunk_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_points(d, count, seed, start=0):
    """Rows [start, start + count) of the uniform points on the sphere of C^d, (count, d) complex.

    Normalised standard Gaussian vectors in R^(2d); row i is row i % _CHUNK
    of the stream (seed, i // _CHUNK), so a range equals that slice of one
    whole draw.

    Memory: the (count, d) result, and per stream the rows drawn up to the
    range's end in it, at most _CHUNK.
    """
    if count < 1:
        raise ArgumentError(f"sample count must be >= 1, got {count}")
    if start < 0:
        raise ArgumentError(f"first sample row must be >= 0, got {start}")
    out = np.empty((count, d), dtype=complex)
    stop = start + count
    for first in range(start - start % _CHUNK, stop, _CHUNK):
        lo, hi = max(start, first), min(stop, first + _CHUNK)
        # (x1, y1, ..., xd, yd) rows read as d complex numbers x + iy; a
        # stream's first rows do not depend on how many are drawn
        z = _chunk_rng(seed, first // _CHUNK).standard_normal((hi - first, 2 * d)).view(complex)
        z = z[lo - first:]
        norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=1, keepdims=True))
        np.divide(z, norms, out=out[lo - start:hi - start])
    return out


def chunk_rows(count):
    """Rows of the largest range that draw_chunks and draw_pairs yield for count rows."""
    return min(count, _CHUNK)


def draw_chunks(d, count, seed):
    """Yield (start, points) for consecutive ranges of at most _CHUNK rows that cover
    rows [0, count) of the uniform points, each drawn by sample_points when it is reached."""
    for start in range(0, count, _CHUNK):
        yield start, sample_points(d, chunk_rows(count - start), seed, start=start)


def draw_pairs(d, count, seed):
    """Yield (zs, ws) for consecutive ranges of at most _CHUNK of count point pairs: pair i
    is rows i and count + i of one draw of 2 count points."""
    for start, zs in draw_chunks(d, count, seed):
        yield zs, sample_points(d, len(zs), seed, start=count + start)


def power_needs_base(p):
    """Whether abs_power_inplace at p multiplies by |v| (its base), so needs a copy of it.

    True for integer p with a set binary digit after the leading one (3, 5,
    6, 7, ...); False for powers of two, other p and p = inf.
    """
    return float(p).is_integer() and "1" in bin(int(p))[3:]


def abs_power_inplace(v, p, base=None):
    """Overwrite the float array v with |v|^p, for finite p >= 1; returns v.

    Integer p is raised by left-to-right binary powering: one squaring per
    binary digit after the leading one, and for each set digit one
    multiplication by a saved copy of the input, so p = 2^k costs k
    squarings and no copy. A caller that holds |v| in another array can
    pass it as base, which is then read in place of that copy. |v| is taken
    first only for p = 1 and, without a base, for the other odd p (to make
    the copy): an even power ends in a squaring, and v is squared before
    a base is read. Other p use np.abs and np.power. This is the one |.|^p
    rule of the Monte Carlo norms (_power_means).
    """
    if not float(p).is_integer():
        np.abs(v, out=v)
        return np.power(v, p, out=v)
    k = int(p)
    if k == 1 or (k % 2 and base is None):
        np.abs(v, out=v)
    if base is None and power_needs_base(k):
        base = v.copy()
    for digit in bin(k)[3:]:
        np.square(v, out=v)
        if digit == "1":
            np.multiply(v, base, out=v)
    return v


def _abs_products(coeffs, values, rows, signed=False):
    """Yield (part, |coeffs[part] @ values.T|) for consecutive slices of at most `rows` rows
    of coeffs; each array is a view of one buffer, which the next pass overwrites.

    signed=True yields the products without |.|, for a caller that only raises them to an
    even power (np.square(v) and np.square(|v|) have the same bits).
    """
    buf = np.empty((min(rows, len(coeffs)), len(values)))
    for start in range(0, len(coeffs), rows):
        part = slice(start, min(start + rows, len(coeffs)))
        products = np.matmul(coeffs[part], values.T, out=buf[:part.stop - start])
        yield part, products if signed else np.abs(products, out=products)


def _power_error(p):
    return ArgumentError(f"|f|^p at p = {p:g} underflows or overflows double precision, so its"
                         " Monte Carlo mean is lost; use --p inf for the sup norm")


def _power_means(values, p, work=None, reform=None):
    """Means of |values|^p along the last axis (sampled f or |f|), maxima at p = inf (where
    values is |f|); the powers are formed in work with values (|f|) as their base, or
    without work in values, which may then hold signed f at even p.

    p is refused when a mean is not finite, or is 0 on a row whose largest |f| is positive:
    the powers overflowed or underflowed. Powering in place loses |f| (except at p = 1), so
    without work reform(mask of the rows whose mean is 0) must return those rows' |f|.
    """
    if p == math.inf:
        return values.max(axis=-1)
    with np.errstate(over="ignore"):
        if work is None:
            means = abs_power_inplace(values, p).mean(axis=-1)
        else:
            np.copyto(work, values)
            means = abs_power_inplace(work, p, base=values).mean(axis=-1)
    if not np.isfinite(means).all():
        raise _power_error(p)
    lost = means == 0
    if lost.any() and np.any((reform(lost) if work is None and p != 1 else values[lost]) > 0):
        raise _power_error(p)
    return means


def lp_norm_mc(values, p, d, out=None):
    """L^p(Omega_d) norm estimates from |f| sampled at uniform points.

    The samples run along the last axis of `values`; returns (value, stderr),
    each with the shape of `values` less that axis.
    For finite p the value is (omega(d) * mean(|f|^p))^(1/p) with its
    delta-method standard error. For p = inf the value is max(values), a
    lower-biased estimate of the essential sup, with stderr 0. A p whose
    powers, their mean or the error overflow or underflow is refused
    (_power_means).

    `values` must be finite and nonnegative: they are the multiplier of the
    powering (abs_power_inplace's base), so no copy of them is made.

    Memory: |f|^p (_power_means' work) and then its deviations (numpy's
    std(ddof=1), formed in place) take one array of the size of `values`:
    `out` if given, a float array of that shape which the caller reuses.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ArgumentError("cannot estimate a norm from zero samples")
    if not (values.min() >= 0 and np.isfinite(values.max())):  # NaN propagates; no mask
        raise ArgumentError("sampled |f| values must be finite and nonnegative")
    check_exponent(p)
    n = values.shape[-1]
    if p == math.inf:
        value = values.max(axis=-1)
        return value, np.zeros_like(value)[()]
    w = omega(d)
    powers = np.empty_like(values) if out is None else out
    mean = _power_means(values, p, powers)
    stderr = np.zeros_like(mean)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = (w * mean) ** (1.0 / p)
        if n > 1:
            np.subtract(powers, mean[..., None], out=powers)
            np.square(powers, out=powers)
            se_mean = np.sqrt(powers.sum(axis=-1) / (n - 1)) / math.sqrt(n)
            delta = (1.0 / p) * (w * mean) ** (1.0 / p - 1.0) * w * se_mean
            stderr = np.where(mean > 0, delta, 0.0)
    if not (np.isfinite(value).all() and np.isfinite(stderr).all()):
        raise _power_error(p)
    return value, stderr[()]


def sup_norm_refined(f, best, centers, seed):
    """Lower bounds for sup |f_b| on the sphere, for a batch of functions f_b.

    Each search starts from its function's best sampled magnitude best[b]
    (real; a complex best is refused, since numpy would order it
    lexicographically) at the point centers[b] of the sphere of C^d. It then
    _CAP_ROUNDS times draws K = _CAP_SAMPLES points from a Gaussian cap
    around its running maximiser (cap width _CAP_SHRINK^(r+1) in round r,
    drawn from the stream (seed, 9000 + r)) and keeps the best. f maps cap
    points (B, K, d) to a new array of values (B, K), whose magnitudes are
    taken here, in place when the values are real.

    Memory: one (B, K, d) complex cap array serves every round. Each round
    draws the real parts of its offsets into it, then the imaginary parts,
    and scales, shifts and normalises them in place. Besides it a round
    holds one (B, K, d) float array at a time (a draw, or the squared
    moduli of the normalisation, which numpy squares in place) and at most
    two of (B, K): the moduli's row sums or the round's magnitudes, with
    the last round's magnitudes.
    """
    if np.iscomplexobj(best):
        raise ArgumentError("sup_norm_refined takes the magnitudes |f|, got complex values")
    batch, d = centers.shape
    cap = np.empty((batch, _CAP_SAMPLES, d), dtype=complex)
    sigma = _CAP_SHRINK
    for r in range(_CAP_ROUNDS):
        rng = _chunk_rng(seed, 9000 + r)
        cap.real = rng.standard_normal(cap.shape)
        cap.imag = rng.standard_normal(cap.shape)
        cap *= sigma
        cap += centers[:, None, :]
        cap /= np.sqrt(np.sum(np.abs(cap) ** 2, axis=2, keepdims=True))
        cap_vals = f(cap)
        cap_vals = np.abs(cap_vals, out=None if np.iscomplexobj(cap_vals) else cap_vals)
        round_best = cap_vals.max(axis=1)
        improved = round_best > best
        centers = np.where(improved[:, None], cap[np.arange(batch), cap_vals.argmax(axis=1)], centers)
        best = np.maximum(best, round_best)
        sigma *= _CAP_SHRINK
    return best
