"""Sphere geometry, sampling reproducibility, Monte Carlo norm estimators."""

import math

import numpy as np
import pytest

from cspherelab.errors import ArgumentError
from cspherelab.sphere import (
    lp_norm_mc,
    omega,
    sample_points,
    sup_norm_refined,
    upsilon,
)


def test_omega_values():
    assert omega(1) == pytest.approx(2 * math.pi)
    assert omega(2) == pytest.approx(2 * math.pi**2)
    assert omega(3) == pytest.approx(math.pi**3)
    with pytest.raises(ArgumentError):
        omega(0)


def test_upsilon_interleaves_coordinates():
    z = np.array([1 + 2j, 3 - 4j])
    assert np.array_equal(upsilon(z), [1.0, 2.0, 3.0, -4.0])


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
    small = sample_points(2, 4096, seed=5, chunk=4096)
    large = sample_points(2, 8192, seed=5, chunk=4096)
    assert np.array_equal(small, large[:4096])


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
    # |z_1| has sup 1 and |z_1 z_2| has sup 1/2 on the sphere
    funcs = [lambda z: z[..., 0], lambda z: z[..., 0] * z[..., 1]]
    pts = sample_points(2, 4096, seed=0)
    values = np.stack([f(pts) for f in funcs])
    best = sup_norm_refined(lambda cap: np.stack([f(c) for f, c in zip(funcs, cap)]),
                            pts, values, 4096, seed=0)
    assert 0.99 < best[0] <= 1.0 + 1e-12
    assert 0.495 < best[1] <= 0.5 + 1e-12
    assert np.all(best >= np.abs(values).max(axis=1))


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
    with pytest.raises(ArgumentError):
        lp_norm_mc([float("inf")], 2, d=2)
