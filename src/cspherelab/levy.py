"""Levy means of multiplier norms on harmonic coefficient spheres.

The window T_(M1,M2) (max grading) is coordinatised by real-valued
L^2-orthonormal functions. Conjugation swaps the bidegrees (m, n) and
(n, m), so real functions are built over conjugation-closed sets:

* for an unordered pair {(m, n), (n, m)} with m != n, the functions
  sqrt(2) Re Y_j and sqrt(2) Im Y_j over an orthonormal basis {Y_j} of the
  (m, n) space give 2 dim(m, n) orthonormal real functions;
* for m == n, the same pair for each Y_j whose signature sigma = a - b
  satisfies sigma > -sigma (lexicographically), Y_j itself for sigma = 0
  (that block is spanned by the real monomials |z^a|^2, so its vectors are
  real), and nothing for sigma < -sigma: conjugation maps signature block
  sigma onto block -sigma, so the real and imaginary parts of that last
  group already lie in the span of the first.

Member order decides which outer-sample coefficient meets which function,
so fixed-seed Monte Carlo outputs depend on it. Pairs interleave Re and Im
per basis vector; a diagonal bidegree lists its Re and real members in
basis order, then its Im members. build_basis emits the signature blocks in
reverse sorted order, so on the diagonal the sigma > -sigma vectors come
first, then the sigma = 0 ones, then the skipped sigma < -sigma ones.

Both gradings assign equal multipliers within such a set, so the weighted
norm of a coefficient vector is well defined. The Levy mean
(mean of the squared norm over the Euclidean coefficient sphere)^(1/2) is
estimated by outer Monte Carlo over coefficients; the inner function-space
norm uses the exact coefficient identity at p = 2 and shared-point-cloud
Monte Carlo otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import build_basis
from .dimensions import layer_members, theta
from .errors import ArgumentError, ConsistencyError
from .multipliers import MultiplierFamily, lambda_value, multiplier_at
from .sphere import DEFAULT_CHUNK, _chunk_rng, lp_norm_mc, omega, sample_points, sup_norm_refined


@dataclass(frozen=True)
class RealBasisMember:
    """One real orthonormal coordinate function of the window.

    With Y the orthonormal function `index` of the `bidegree` basis, the
    member is sqrt(2) Re Y (part "re"), sqrt(2) Im Y ("im"), or Y itself
    ("real", for a real Y).
    """

    level: int
    bidegree: tuple
    index: int
    part: str


class RealCoordinateSystem:
    """Real orthonormal coordinates of one level window (max grading)."""

    def __init__(self, d, m1, m2, members):
        self.d = d
        self.m1 = m1
        self.m2 = m2
        self.members = tuple(members)
        self.s = len(self.members)

    def eval_matrix(self, points):
        """Real values of all coordinate functions at (N, d) points -> (N, s)."""
        points = np.asarray(points, dtype=complex)
        out = np.empty((points.shape[0], self.s), dtype=float)
        root2 = math.sqrt(2.0)
        for k, member in enumerate(self.members):
            if k == 0 or member.bidegree != self.members[k - 1].bidegree:
                ortho = build_basis(self.d, *member.bidegree).eval_orthonormal(points)
            y = ortho[:, member.index]
            if member.part == "re":
                out[:, k] = root2 * y.real
            elif member.part == "im":
                out[:, k] = root2 * y.imag
            else:
                out[:, k] = y.real
        return out

    def multiplier_vector(self, fam: MultiplierFamily):
        return np.array([multiplier_at(fam, *member.bidegree) for member in self.members])

    def exact_member(self, k):
        """Exact form (poly, sq_norm, phase) of member k.

        The member equals phase * poly / sqrt(sq_norm * omega(d)), where poly
        has rational coefficients and sq_norm = <poly, poly> in units of
        omega(d).
        """
        member = self.members[k]
        base = build_basis(self.d, *member.bidegree)
        v, q = base.vectors[member.index], base.sq_norms[member.index]
        if member.part == "real":
            return v, q, 1.0
        if member.part == "re":
            return v + v.conj(), 2 * q, 1.0
        return v - v.conj(), 2 * q, -1.0j

    def exact_gram(self):
        """Exact pairwise inner products (should be the identity), as floats.

        Polynomial inner products are already in units of omega(d), matching
        the sq_norm units, so no measure constant appears here.
        """
        forms = [self.exact_member(k) for k in range(self.s)]
        g = np.zeros((self.s, self.s))
        for i, (poly_i, q_i, phase_i) in enumerate(forms):
            for j in range(i, self.s):
                poly_j, q_j, phase_j = forms[j]
                val = poly_i.inner(poly_j)
                phase = (phase_i * np.conj(phase_j)).real
                g[i, j] = g[j, i] = float(val) * phase / math.sqrt(float(q_i) * float(q_j))
        return g


def _real_members(d, m, n, level):
    """Real members of the conjugation-closed set {(m, n), (n, m)}, m <= n."""
    base = build_basis(d, m, n)
    if m < n:
        return [RealBasisMember(level, (m, n), j, part)
                for j in range(base.dim) for part in ("re", "im")]
    re, im = [], []
    for j, vec in enumerate(base.vectors):
        a, b = next(iter(vec.terms))  # every term of a vector shares its signature
        sig = tuple(ai - bi for ai, bi in zip(a, b))
        neg = tuple(-x for x in sig)
        if sig > neg:
            re.append(RealBasisMember(level, (m, m), j, "re"))
            im.append(RealBasisMember(level, (m, m), j, "im"))
        elif sig == neg:
            re.append(RealBasisMember(level, (m, m), j, "real"))
    return re + im


@lru_cache(maxsize=None)
def build_real_system(d, m1, m2):
    """Real orthonormal coordinates of the levels m1+1 .. m2 (max grading)."""
    if not 0 <= m1 < m2:
        raise ArgumentError(f"need 0 <= M1 < M2, got ({m1}, {m2})")
    members = []
    for level in range(m1 + 1, m2 + 1):
        seen = set()
        for m, n in layer_members(level, "max"):
            key = (min(m, n), max(m, n))
            if key in seen:
                continue
            seen.add(key)
            members.extend(_real_members(d, *key, level))
    system = RealCoordinateSystem(d, m1, m2, members)
    expected = theta(d, m1, m2, "max")
    if system.s != expected:
        raise ConsistencyError(
            f"window ({m1}, {m2}] produced {system.s} real coordinates, expected {expected}")
    return system


@dataclass(frozen=True)
class LevyProblem:
    d: int
    m1: int
    m2: int
    fam: MultiplierFamily
    p: float

    def system(self):
        return build_real_system(self.d, self.m1, self.m2)


@dataclass(frozen=True)
class LevyEstimate:
    value: float
    stderr: float
    sphere_samples: int
    omega_samples: int
    seed: int


def _coefficient_sphere(s, count, seed):
    rng = _chunk_rng(seed, 777)
    x = rng.standard_normal((count, s))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def levy_mean_parseval(prob: LevyProblem):
    """Exact p = 2 Levy mean: (mean of squared multipliers)^(1/2)."""
    lam = prob.system().multiplier_vector(prob.fam)
    return math.sqrt(float(np.mean(lam**2)))


def levy_mean_mc(prob: LevyProblem, sphere_samples, omega_samples, seed,
                 chunk=200, cloud_blocks=8, point_chunk=DEFAULT_CHUNK):
    """Monte Carlo Levy mean of the weighted p-norm on the coefficient sphere.

    Outer samples are uniform on the Euclidean coefficient sphere; the inner
    L^p norm reuses one shared uniform point cloud on the sphere of C^d
    across all outer samples. The reported stderr combines the outer
    sampling error with a block-resampled estimate of the shared-cloud
    error (the cloud error does not shrink with more outer samples, so it
    must be budgeted separately). p = 2 with omega_samples = 0 takes the
    exact coefficient-space path for the inner norm.
    """
    if sphere_samples < 2:
        raise ArgumentError("need at least two coefficient-sphere samples")
    p = prob.p
    if p != math.inf and p < 1:
        raise ArgumentError(f"need p >= 1 or p = inf, got {p}")
    system = prob.system()
    lam = system.multiplier_vector(prob.fam)
    x = _coefficient_sphere(system.s, sphere_samples, seed)
    weighted = x * lam

    if p == 2 and omega_samples == 0:
        sq = np.sum(weighted**2, axis=1)
        se_cloud = 0.0
    else:
        if omega_samples < 10**3:
            raise ArgumentError("inner estimation needs omega_samples >= 1000 (or 0 at p = 2)")
        omega_samples -= omega_samples % cloud_blocks
        pts = sample_points(prob.d, omega_samples, seed + 1, point_chunk)
        bmat = system.eval_matrix(pts)
        w = omega(prob.d)
        per_block = omega_samples // cloud_blocks
        block_stat = np.empty((sphere_samples, cloud_blocks))
        for start in range(0, sphere_samples, chunk):
            vals = np.abs(weighted[start:start + chunk] @ bmat.T)
            shaped = vals.reshape(vals.shape[0], cloud_blocks, per_block)
            if p == math.inf:
                block_stat[start:start + chunk] = shaped.max(axis=2)
            else:
                block_stat[start:start + chunk] = (shaped**p).mean(axis=2)
        if p == math.inf:
            sq = block_stat.max(axis=1) ** 2
            block_means = np.sqrt(np.mean(block_stat**2, axis=0))
        else:
            norms = (w * block_stat.mean(axis=1)) ** (1.0 / p)
            sq = norms**2
            block_means = np.sqrt(np.mean((w * block_stat) ** (2.0 / p), axis=0))
        se_cloud = float(np.std(block_means, ddof=1)) / math.sqrt(cloud_blocks)
    mean_sq = float(np.mean(sq))
    value = math.sqrt(mean_sq)
    se_outer = float(np.std(sq, ddof=1)) / math.sqrt(sphere_samples)
    se_outer = se_outer / (2.0 * value) if value > 0 else 0.0
    return LevyEstimate(value=value, stderr=math.hypot(se_outer, se_cloud),
                        sphere_samples=sphere_samples, omega_samples=omega_samples,
                        seed=seed)


@dataclass(frozen=True)
class LevyBounds:
    case: str
    lower: float
    upper: float
    upper_known: bool
    inconsistent: bool
    monotone: str


def levy_bounds(prob: LevyProblem):
    """Two-sided Levy-mean bounds from the layer dimensions.

    Case a (2 <= p < inf) and case b (p = inf) have an unknown absolute
    constant on the upper side: the reported upper value is the structural
    factor only, flagged with upper_known = False. Cases c (1 <= p <= 2) and
    d (p = 2) are fully numeric. A non-monotone multiplier over the window
    swaps the shifted/unshifted sums per the non-decreasing variant.
    """
    d, fam, p = prob.d, prob.fam, prob.p
    levels = list(range(prob.m1 + 1, prob.m2 + 1))
    lam = [abs(lambda_value(fam, l)) for l in levels]
    lam_shift = [abs(lambda_value(fam, l - 1)) for l in levels]
    dims = [theta(d, l - 1, l, "max") for l in levels]
    s = sum(dims)

    non_increasing = all(a >= b for a, b in zip(lam_shift, lam))
    non_decreasing = all(a <= b for a, b in zip(lam_shift, lam))
    if not non_increasing and non_decreasing:
        lam, lam_shift = lam_shift, lam
        monotone = "non-decreasing"
    elif non_increasing:
        monotone = "non-increasing"
    else:
        monotone = "non-monotone"

    small = math.sqrt(sum(v**2 * n for v, n in zip(lam, dims)) / s)
    large = math.sqrt(sum(v**2 * n for v, n in zip(lam_shift, dims)) / s)
    w = omega(d)

    if p == 2:
        case, lower, upper, known = "d", small, large, True
    elif p == math.inf:
        case, lower, known = "b", small, False
        upper = w ** (-0.5) * math.sqrt(math.log(s)) * large if s > 1 else large
    elif p > 2:
        case, lower, known = "a", small, False
        upper = w ** (1.0 / p - 0.5) * math.sqrt(p) * large
    else:
        case = "c"
        lower = 0.5 * math.sqrt(w) * small
        upper, known = large, True
    return LevyBounds(case=case, lower=lower, upper=upper, upper_known=known,
                      inconsistent=known and lower > upper, monotone=monotone)


def nikolskii_check(d, m1, m2, p, trials, seed, omega_samples=4096,
                    refine_rounds=2, refine_samples=256, point_chunk=DEFAULT_CHUNK):
    """Check the window's norm comparison inequalities on random polynomials.

    For each random coefficient vector t the two ratios
    sup|t| / ((s/omega)^(1/p) ||t||_p) and ||t||_p / ((s/omega)^(1/2-1/p) ||t||_2)
    are compared against 1; a violation is a ratio exceeding
    1 + 3 * (its Monte Carlo standard error). The sup norm uses the shared
    cloud plus per-trial cap refinement (a lower bound); ||t||_p and ||t||_2
    come from the same cloud, so the p = 2 instance of the second ratio is
    the exact equality case.
    """
    if p != math.inf and p < 1:
        raise ArgumentError(f"need p >= 1 or p = inf, got {p}")
    if trials < 1:
        raise ArgumentError("need at least one trial")
    system = build_real_system(d, m1, m2)
    s = system.s
    w = omega(d)
    rng = _chunk_rng(seed, 555)
    coeffs = rng.standard_normal((trials, s))

    pts = sample_points(d, omega_samples, seed + 2, point_chunk)
    values = coeffs @ system.eval_matrix(pts).T  # (trials, omega_samples)

    def cap_values(cap):
        bmat = system.eval_matrix(cap.reshape(-1, d)).reshape(cap.shape[:-1] + (s,))
        return np.einsum("ts,tns->tn", coeffs, bmat)

    # Lower-bound sup norms: shared-cloud max, then shrinking caps per trial.
    sup = sup_norm_refined(cap_values, pts, values, refine_samples, seed, rounds=refine_rounds)

    # Both norms of each ratio come from the same shared cloud, so the p = 2
    # instance of the p-versus-2 comparison is the exact equality case.
    magnitudes = np.abs(values)
    norm2, se_2 = lp_norm_mc(magnitudes, 2, d)
    if p == math.inf:
        norm_p, se_p = sup, np.zeros(trials)
    else:
        norm_p, se_p = lp_norm_mc(magnitudes, p, d)

    bound_sup = (s / w) ** (1.0 / p) * norm_p
    ratio_sup = sup / bound_sup
    se_ratio_sup = ratio_sup * se_p / norm_p if p != math.inf else np.zeros(trials)
    viol_sup = int(np.sum(ratio_sup > 1.0 + 3.0 * se_ratio_sup))

    report = {
        "d": d, "window": [m1, m2], "p": p, "trials": trials, "s": s,
        "violations_sup": viol_sup,
        "worst_ratio_sup": float(ratio_sup.max()),
    }
    if p >= 2:
        # The p-versus-2 comparison only holds for 2 <= p <= inf.
        factor = (s / w) ** 0.5 if p == math.inf else (s / w) ** (0.5 - 1.0 / p)
        ratio_p2 = norm_p / (factor * norm2)
        rel_se = np.sqrt((se_p / np.maximum(norm_p, 1e-300)) ** 2
                         + (se_2 / np.maximum(norm2, 1e-300)) ** 2)
        report["violations_p_vs_2"] = int(np.sum(ratio_p2 > 1.0 + 3.0 * ratio_p2 * rel_se))
        report["worst_ratio_p_vs_2"] = float(ratio_p2.max())
    else:
        report["violations_p_vs_2"] = None
        report["worst_ratio_p_vs_2"] = None
    return report
