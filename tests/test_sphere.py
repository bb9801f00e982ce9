"""Sphere geometry, sampling reproducibility, Monte Carlo norm estimators."""

import math

import numpy as np
import pytest

from cspherelab import sphere
from cspherelab.errors import ArgumentError
from cspherelab.sphere import (
    _chunk_rng,
    abs_power_inplace,
    lp_norm_mc,
    omega,
    sample_points,
    sup_norm_refined,
)


def test_omega_values():
    assert omega(1) == pytest.approx(2 * math.pi)
    assert omega(2) == pytest.approx(2 * math.pi**2)
    assert omega(3) == pytest.approx(math.pi**3)
    with pytest.raises(ArgumentError):
        omega(0)


def test_samples_lie_on_sphere():
    pts = sample_points(3, 2000, seed=0)
    norms = np.sum(np.abs(pts) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_sample_moments():
    n = 10**5
    pts = sample_points(2, n, seed=1)
    assert abs(pts[:, 0].mean()) < 4 / math.sqrt(n)
    # |z_1|^2 averages to 1/d over the sphere
    sq = np.abs(pts[:, 0]) ** 2
    assert abs(sq.mean() - 0.5) < 4 * sq.std() / math.sqrt(n)


def test_sampling_reproducible():
    a = sample_points(2, 5000, seed=3)
    b = sample_points(2, 5000, seed=3)
    assert np.array_equal(a, b)
    c = sample_points(2, 5000, seed=4)
    assert not np.array_equal(a, c)


def test_sampling_chunked_consistently():
    # the first chunk is independent of how many later chunks are drawn
    small = sample_points(2, 4096, seed=5)
    large = sample_points(2, 8192, seed=5)
    assert np.array_equal(small, large[:4096])


def _interleaved_points(d, count, seed, chunk):
    """The earlier sample_points: real and imaginary columns joined by + 1j *, then concatenated."""
    blocks = []
    for index in range(0, -(-count // chunk)):
        n = min(chunk, count - index * chunk)
        g = _chunk_rng(seed, index).standard_normal((n, 2 * d))
        z = g[:, 0::2] + 1j * g[:, 1::2]
        norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=1, keepdims=True))
        blocks.append(z / norms)
    return np.concatenate(blocks, axis=0)


@pytest.mark.parametrize("d, count, chunk", [(1, 7, 2), (2, 5000, 333), (3, 10**5, 4096)])
def test_sampling_matches_interleaved_construction(monkeypatch, d, count, chunk):
    monkeypatch.setattr(sphere, "_CHUNK", chunk)
    pts = sample_points(d, count, seed=9)
    assert pts.shape == (count, d)
    assert pts.tobytes() == _interleaved_points(d, count, 9, chunk).tobytes()


@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 5, 6, 7, 8])
def test_abs_power_inplace(p):
    v = np.random.default_rng(3).standard_normal((40, 50))
    want = np.abs(v) ** p
    out = abs_power_inplace(v, p)
    assert out is v
    # one rounding per multiplication: at most a few ulp from pow
    assert np.max(np.abs(out - want) / want) < 2e-15
    if p in (1, 2) or not float(p).is_integer():
        assert np.array_equal(out, want)


@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_abs_power_inplace_with_base_equals_its_copy(p):
    mags = np.abs(np.random.default_rng(4).standard_normal((30, 70)))
    want = abs_power_inplace(mags.copy(), p)
    out = mags.copy()
    assert abs_power_inplace(out, p, base=mags) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 3, 5, 6, 7])
def test_abs_power_inplace_reads_a_signed_input_through_its_base(p):
    # the Levy mean passes a signed pass with |pass| as base
    v = np.random.default_rng(5).standard_normal((30, 70))
    want = abs_power_inplace(v.copy(), p)
    out = v.copy()
    assert abs_power_inplace(out, p, base=np.abs(v)) is out
    assert out.tobytes() == want.tobytes()


def _numpy_lp_norm(values, p, d):
    """The estimate with numpy's own std: |f|^p on a copy, then std(ddof=1) beside it."""
    values = np.asarray(values, dtype=float)
    if p == math.inf:
        value = values.max(axis=-1)
        return value, np.zeros_like(value)[()]
    n, w = values.shape[-1], omega(d)
    powers = abs_power_inplace(values.copy(), p)
    mean = powers.mean(axis=-1)
    value = (w * mean) ** (1.0 / p)
    stderr = np.zeros_like(value)
    if n > 1:
        se_mean = powers.std(axis=-1, ddof=1) / math.sqrt(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (1.0 / p) * (w * mean) ** (1.0 / p - 1.0) * w * se_mean
        stderr = np.where(mean > 0, delta, 0.0)
    return value, stderr[()]


@pytest.mark.parametrize("shape", [(1,), (2,), (4097,), (3, 1), (7, 2048), (200, 4103)])
@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 7, math.inf])
def test_lp_norm_in_place_deviations_equal_numpy_std(shape, p):
    # The deviations are formed in place of the powers; the bytes must be
    # those of numpy's std, with and without a reused work buffer.
    mags = np.abs(np.random.default_rng(5).standard_normal(shape)) * 3.0
    want = _numpy_lp_norm(mags, p, 2)
    work = np.full(shape, np.nan)
    for got in (lp_norm_mc(mags, p, 2), lp_norm_mc(mags, p, 2, out=work)):
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]


def test_lp_norm_constant_function():
    values = np.ones(500)
    value, stderr = lp_norm_mc(values, 3, d=2)
    assert value == pytest.approx(omega(2) ** (1 / 3))
    assert stderr == 0.0


def test_lp_norm_coordinate_function():
    pts = sample_points(2, 10**5, seed=2)
    value, stderr = lp_norm_mc(np.abs(pts[:, 0]), 2, d=2)
    assert abs(value - math.sqrt(omega(2) / 2)) < 3 * stderr
    assert stderr > 0


def test_lp_norm_vectorised_matches_rows():
    pts = sample_points(2, 3000, seed=7)
    rows = np.abs(np.stack([pts[:, 0], pts[:, 1] ** 2, pts[:, 0] * np.conj(pts[:, 1]),
                            np.zeros(3000)]))
    for p in (1, 2, 3.5, math.inf):
        values, stderrs = lp_norm_mc(rows, p, d=2)
        assert values.shape == stderrs.shape == (4,)
        for k, row in enumerate(rows):
            value, stderr = lp_norm_mc(row, p, d=2)
            assert values[k] == value and stderrs[k] == stderr


def test_sup_norm_estimates_from_below():
    # |z_1| has sup 1 and |z_1 z_2| has sup 1/2 on the sphere. The 64-point
    # cloud alone stays below 0.99 for |z_1|, so only the cap rounds reach it.
    funcs = [lambda z: z[..., 0], lambda z: z[..., 0] * z[..., 1]]
    pts = sample_points(2, 64, seed=0)
    values = np.stack([f(pts) for f in funcs])
    assert np.abs(values[0]).max() < 0.99
    mags = np.abs(values)
    best = sup_norm_refined(lambda cap: np.stack([f(c) for f, c in zip(funcs, cap)]),
                            mags.max(axis=1), pts[mags.argmax(axis=1)], seed=0)
    assert 0.99 < best[0] <= 1.0 + 1e-12
    assert 0.495 < best[1] <= 0.5 + 1e-12
    assert np.all(best >= mags.max(axis=1))


def test_sup_norm_rejects_complex_magnitudes():
    # numpy orders complex numbers lexicographically, so a complex max is no |f| max
    pts = sample_points(2, 8, seed=0)
    with pytest.raises(ArgumentError):
        sup_norm_refined(lambda cap: cap[..., 0], pts[:1, 0], pts[:1], seed=0)


def test_normalized_norm_monotonicity():
    # (omega^(-1/p) ||f||_p) must be nondecreasing in p, up to 3 stderr
    pts = sample_points(2, 4 * 10**4, seed=6)
    f = np.abs(pts[:, 0] ** 2 + 0.5 * np.conj(pts[:, 1]))
    w = omega(2)
    previous = None
    for p in (1, 2, 4, math.inf):
        value, stderr = lp_norm_mc(f, p, d=2)
        scaled = value * (w ** (-1 / p) if p != math.inf else 1.0)
        scale = w ** (-1 / p) if p != math.inf else 1.0
        if previous is not None:
            assert scaled >= previous - 3 * stderr * scale
        previous = scaled


def test_lp_norm_argument_errors():
    with pytest.raises(ArgumentError):
        lp_norm_mc([], 2, d=2)
    with pytest.raises(ArgumentError):
        lp_norm_mc([1.0], 0.5, d=2)
    for bad in (float("inf"), float("-inf"), float("nan"), -1.0):
        with pytest.raises(ArgumentError):
            lp_norm_mc([1.0, bad, 2.0], 2, d=2)
        with pytest.raises(ArgumentError):
            lp_norm_mc([[1.0, 2.0], [bad, 0.0]], 3, d=2, out=np.empty((2, 2)))
