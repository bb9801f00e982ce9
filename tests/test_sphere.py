"""Sphere geometry, sampling reproducibility, Monte Carlo norm estimators."""

import math

import numpy as np
import pytest

from cspherelab import sphere
from cspherelab.errors import ArgumentError
from cspherelab.sphere import (
    _abs_products,
    _chunk_rng,
    _power_means,
    abs_power_inplace,
    draw_chunks,
    draw_pairs,
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


# Ranges that start or end at 4095, 4096 or 4097 (the stream boundary is at
# 4096), cross it or lie in one stream, and single rows.
RANGES = [(0, 4095), (0, 4096), (0, 4097), (4095, 1), (4095, 2), (4095, 4097), (4096, 1), (4096, 4096),
          (4097, 1), (4097, 4095), (4097, 8190), (1, 4094), (1, 4096), (5000, 3192), (12287, 1), (0, 1)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("start, count", RANGES)
def test_sample_range_equals_slice_of_one_draw(d, start, count):
    whole = sample_points(d, 12288, seed=14)
    part = sample_points(d, count, seed=14, start=start)
    assert part.shape == (count, d)
    assert part.tobytes() == whole[start:start + count].tobytes()


def test_sample_range_refuses_a_negative_start():
    with pytest.raises(ArgumentError, match="must be >= 0"):
        sample_points(2, 10, seed=0, start=-1)


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


# one range short of, at, just past and past two sampling chunks of 4096 rows
@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193])
def test_chunks_and_pairs_are_ranges_of_one_draw(count):
    whole = sample_points(2, 2 * count, seed=5)
    chunks = list(draw_chunks(2, count, 5))
    assert [start for start, _ in chunks] == list(range(0, count, 4096))
    assert max(len(pts) for _, pts in chunks) == sphere.chunk_rows(count) == min(count, 4096)
    assert np.concatenate([pts for _, pts in chunks]).tobytes() == whole[:count].tobytes()
    pairs = list(draw_pairs(2, count, 5))
    assert np.concatenate([zs for zs, _ in pairs]).tobytes() == whole[:count].tobytes()
    assert np.concatenate([ws for _, ws in pairs]).tobytes() == whole[count:].tobytes()


def test_chunks_are_drawn_by_sample_points(monkeypatch):
    # each range is one sample_points call (the tracer's span), made as it is reached
    calls = []
    draw = sphere.sample_points
    monkeypatch.setattr(sphere, "sample_points", lambda *args, **kw: calls.append((args, kw)) or draw(*args, **kw))
    pairs = draw_pairs(3, 5000, 9)
    assert not calls
    next(pairs)
    assert calls == [((3, 4096, 9), {"start": 0}), ((3, 4096, 9), {"start": 5000})]


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
    # a signed input read through |input| as its base
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


@pytest.mark.parametrize("rows, sizes", [(64, [64, 64, 22]), (150, [150]), (1000, [150])])
def test_abs_products_pass_by_pass_in_one_buffer(rows, sizes):
    rng = np.random.default_rng(6)
    coeffs, values = rng.standard_normal((150, 7)), rng.standard_normal((40, 7))
    parts, views, copies = [], [], []
    for part, mags in _abs_products(coeffs, values, rows):
        parts.append(part)
        views.append(mags)
        copies.append(mags.copy())
    starts = range(0, 150, rows)
    assert parts == [slice(start, start + size) for start, size in zip(starts, sizes)]
    assert all(m.base is views[0].base and np.shares_memory(m, views[0]) for m in views)
    for part, got in zip(parts, copies):
        assert got.tobytes() == np.abs(coeffs[part] @ values.T).tobytes()


# Row 0 is |f| = 0, whose powers are rightly 0; row 1's powers underflow to 0
# and row 2's overflow. p = 1024 is raised in place without work, 1100 through
# a copy of its base, 1100.5 by np.power. Powered in place, a row whose mean is
# 0 is formed again (reform) for its |f|.
@pytest.mark.parametrize("p", [1024, 1100, 1100.5])
@pytest.mark.parametrize("with_work", [False, True])
def test_power_means_refuse_powers_lost_to_underflow_or_overflow(p, with_work):
    mags = np.array([[0.0, 0.0, 0.0], [0.25, 0.125, 0.0], [2.0, 1.0, 0.5]])

    def means(rows):
        part = mags[rows].copy()
        return _power_means(part, p, np.empty_like(part) if with_work else None,
                            reform=lambda lost: mags[rows][lost])

    assert means([0]).tolist() == [0.0]
    for rows in ([0, 1], [2], [1, 2]):
        with pytest.raises(ArgumentError, match=f"p = {p:g}.*--p inf"):
            means(rows)
    mags[2] = [1.0, 1.0, 0.0]
    assert means([0, 2]).tolist() == [0.0, 2.0 / 3.0]


def test_lp_norm_refuses_an_error_that_overflows():
    # the mean of |f|^3 is 5e299, but its squared deviations overflow
    with pytest.raises(ArgumentError, match="p = 3"):
        lp_norm_mc([1e100, 0.0], 3, d=2)
    with pytest.raises(ArgumentError, match="p = 4"):
        lp_norm_mc([[1.0, 2.0], [1e100, 0.0]], 4, d=2)  # the mean itself overflows
