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

A window's members are evaluated together: the window is compiled once
into one basis.MonomialMap, whose (2K, s) real matrix holds each member's
exact coefficients in the Re or Im rows of the window's K monomials.

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
from functools import cached_property, lru_cache

from ._lazy import numpy as np
from .basis import _EVAL_ROWS, MonomialMap, _check_on_sphere, build_basis
from .dimensions import layer_members, theta
from .errors import ArgumentError, ConsistencyError
from .multipliers import MultiplierFamily, lambda_value, multiplier_at
from .sphere import _chunk_rng, abs_power_inplace, lp_norm_mc, omega, sample_points, sup_norm_refined

# The fixed Monte Carlo layout: rows per pass, and cloud blocks for the cloud error.
_OUTER_ROWS = 200
_CLOUD_BLOCKS = 8

# Cost guard of the Monte Carlo Levy mean: its cloud products cost
# 2 * sphere_samples * s * omega_samples flops. A whole cloud-path call took
# 2.6e-11 to 3.0e-11 s per such flop on a 2-vCPU x86-64 VM with OpenBLAS
# (s = 63 to 342, 1000 to 4000 outer rows, 5e4 to 1e5 points), so the
# ceiling refuses inputs that would take more than about a minute, e.g.
# d=3 (0, 6] (s = 3919) at 1000 x 10^6. Windows with s below about 20 take
# longer per flop: their |.|^p reductions cost more than their products.
MAX_CLOUD_FLOPS = 2 * 10**12
SECONDS_PER_CLOUD_FLOP = 3e-11

# Memory guard of the same path: the arrays that grow with the sample counts
# are the (sphere_samples, s) outer rows, one (omega_samples / _CLOUD_BLOCKS,
# s) cloud block, the (_OUTER_ROWS, omega_samples / _CLOUD_BLOCKS) pass
# buffer (fewer rows if sphere_samples is smaller), the (omega_samples, d)
# complex points, and per outer sample the (sphere_samples, _CLOUD_BLOCKS)
# block statistics, the two temporaries of that size which the closing
# reduction makes while the outer rows are held, and the norms and their
# squares.
# Inputs whose sum of those exceeds the ceiling, a quarter of an 8 GB
# machine, are refused; a small sphere_samples can keep the flops low while
# the cloud block alone takes tens of gigabytes, and a small window can do
# the same while the block statistics outgrow the outer rows.
MAX_CLOUD_BYTES = 2 * 10**9


@dataclass(frozen=True)
class RealBasisMember:
    """One real orthonormal coordinate function of the window.

    With Y the orthonormal function `index` of the `bidegree` basis, the
    member is sqrt(2) Re Y (part "re"), sqrt(2) Im Y ("im"), or Y itself
    ("real", for a real Y).
    """

    bidegree: tuple
    index: int
    part: str


class RealCoordinateSystem:
    """Real orthonormal coordinates of one level window (max grading)."""

    def __init__(self, d, members):
        self.d = d
        self.members = tuple(members)
        self.s = len(self.members)

    def eval_matrix(self, points):
        """Real values of all coordinate functions at (N, d) points -> (N, s).

        The window's MonomialMap is compiled on first use: column k holds
        member k's exact coefficients in the Re rows ("re", "real") or the
        Im rows ("im") of its monomials, times the member's orthonormalising
        factor (and sqrt(2) for "re" and "im").
        """
        points = np.asarray(points, dtype=complex)
        _check_on_sphere(points)
        return self._map(points)

    @cached_property
    def _map(self):
        root2 = math.sqrt(2.0)
        columns = []
        for member in self.members:
            base = build_basis(self.d, *member.bidegree)
            vec, scale = base.vectors[member.index], base.orthonormal_scale(member.index)
            if member.part == "re":
                columns.append((vec, root2 * scale, 0.0))
            elif member.part == "im":
                columns.append((vec, 0.0, root2 * scale))
            else:
                columns.append((vec, scale, 0.0))
        return MonomialMap(self.d, columns)

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


def _real_members(d, m, n):
    """Real members of the conjugation-closed set {(m, n), (n, m)}, m <= n."""
    base = build_basis(d, m, n)
    if m < n:
        return [RealBasisMember((m, n), j, part)
                for j in range(base.dim) for part in ("re", "im")]
    re, im = [], []
    for j, vec in enumerate(base.vectors):
        a, b = next(iter(vec.terms))  # every term of a vector shares its signature
        sig = tuple(ai - bi for ai, bi in zip(a, b))
        neg = tuple(-x for x in sig)
        if sig > neg:
            re.append(RealBasisMember((m, m), j, "re"))
            im.append(RealBasisMember((m, m), j, "im"))
        elif sig == neg:
            re.append(RealBasisMember((m, m), j, "real"))
    return re + im


def _check_window(m1, m2):
    if not 0 <= m1 < m2:
        raise ArgumentError(f"need 0 <= M1 < M2, got ({m1}, {m2})")


@lru_cache(maxsize=None)
def build_real_system(d, m1, m2):
    """Real orthonormal coordinates of the levels m1+1 .. m2 (max grading)."""
    _check_window(m1, m2)
    members = []
    for level in range(m1 + 1, m2 + 1):
        seen = set()
        for m, n in layer_members(level, "max"):
            key = (min(m, n), max(m, n))
            if key in seen:
                continue
            seen.add(key)
            members.extend(_real_members(d, *key))
    system = RealCoordinateSystem(d, members)
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
    """A Levy-mean estimate; stderr = hypot(stderr_outer, stderr_cloud)."""

    value: float
    stderr: float
    stderr_outer: float
    stderr_cloud: float
    sphere_samples: int
    omega_samples: int


def levy_mean_parseval(prob: LevyProblem):
    """Exact p = 2 Levy mean: (mean of squared multipliers)^(1/2)."""
    lam = prob.system().multiplier_vector(prob.fam)
    return math.sqrt(float(np.mean(lam**2)))


def _weighted_rows(rng, lam, out):
    """Fill out (rows, s) with uniform points of the coefficient sphere, times lam."""
    rng.standard_normal(out=out)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out *= lam
    return out


def _cloud_blocks(system, points, per_block):
    """The cloud's consecutive (per_block, s) coordinate blocks, in one reused buffer.

    The points are evaluated _EVAL_ROWS at a time from the first, as one
    eval_matrix call on the whole cloud would chunk them, so each block
    holds the same rows as that call's matrix. The caller must be done
    with a block before asking for the next.
    """
    block = np.empty((per_block, system.s))
    filled = 0
    for start in range(0, len(points), _EVAL_ROWS):
        values = system.eval_matrix(points[start:start + _EVAL_ROWS])
        while len(values):
            take = min(per_block - filled, len(values))
            block[filled:filled + take] = values[:take]
            values = values[take:]
            filled += take
            if filled == per_block:
                yield block
                filled = 0


def check_cloud_cost(prob: LevyProblem, sphere_samples, omega_samples):
    """Refuse a Monte Carlo Levy mean over MAX_CLOUD_FLOPS or MAX_CLOUD_BYTES.

    The cost is 2 * sphere_samples * s * omega_samples flops and the bytes
    of the arrays named at MAX_CLOUD_BYTES, with s the window size from the
    dimension formula, so nothing is built to find them. The evaluation's
    per-chunk arrays (_EVAL_ROWS points) are not counted: they do not grow
    with the sample counts.
    """
    _check_window(prob.m1, prob.m2)
    refused = f"Levy mean for d={prob.d}, window ({prob.m1}, {prob.m2}] refused"
    s = theta(prob.d, prob.m1, prob.m2, "max")
    cost = 2 * sphere_samples * s * omega_samples
    if cost > MAX_CLOUD_FLOPS:
        raise ArgumentError(
            f"{refused}: its cloud products cost 2 x {sphere_samples} x {s} x {omega_samples}"
            f" = {cost:.2e} flops > {MAX_CLOUD_FLOPS:.0e}, an estimated"
            f" {cost * SECONDS_PER_CLOUD_FLOP:.0f} s")
    per_block = omega_samples // _CLOUD_BLOCKS
    rows = min(_OUTER_ROWS, sphere_samples)
    per_sample = 3 * _CLOUD_BLOCKS + 2  # block statistics, their 2 closing temporaries, norms, sq
    nbytes = (8 * (sphere_samples * (s + per_sample) + per_block * s + rows * per_block)
              + 16 * omega_samples * prob.d)
    if nbytes > MAX_CLOUD_BYTES:
        raise ArgumentError(
            f"{refused}: its cloud arrays take an estimated {nbytes / 1e9:.1f} GB (outer rows"
            f" {sphere_samples} x {s}, cloud block {per_block} x {s}, pass buffer {rows} x"
            f" {per_block}, points {omega_samples} x {prob.d} complex, block statistics"
            f" {sphere_samples} x {_CLOUD_BLOCKS} x 3, norms {sphere_samples} x 2)"
            f" > {MAX_CLOUD_BYTES / 1e9:.0f} GB")


def levy_mean_mc(prob: LevyProblem, sphere_samples, omega_samples, seed):
    """Monte Carlo Levy mean of the weighted p-norm on the coefficient sphere.

    Outer samples are uniform on the Euclidean coefficient sphere; the inner
    L^p norm reuses one shared uniform point cloud on the sphere of C^d
    across all outer samples. The reported stderr combines the outer
    sampling error (stderr_outer) with a block-resampled estimate of the
    shared-cloud error (stderr_cloud; the cloud error does not shrink with
    more outer samples, so it must be budgeted separately). p = 2 with
    omega_samples = 0 takes the exact coefficient-space path for the inner
    norm, with stderr_cloud = 0.

    Outer samples are drawn, normalised and weighted _OUTER_ROWS rows per
    pass from one stream, so the rows do not depend on the pass size; the
    cloud's _CLOUD_BLOCKS equal blocks give stderr_cloud. Inputs whose cloud
    products cost more than MAX_CLOUD_FLOPS, or whose cloud arrays take more
    than MAX_CLOUD_BYTES, are refused before any basis is built
    (check_cloud_cost).

    Memory: the cloud path holds the (sphere_samples, s) outer rows, their
    (sphere_samples, _CLOUD_BLOCKS) block statistics and the cloud's points,
    never the cloud's coordinate matrix. It evaluates one
    (omega_samples / _CLOUD_BLOCKS, s) cloud block at a time into one
    buffer, multiplies every pass of outer rows into one (_OUTER_ROWS,
    omega_samples / _CLOUD_BLOCKS) buffer and reduces that in place (|.|^p,
    or max |.| at p = inf) to the block's row means. The points and those
    two buffers are the arrays that grow with omega_samples: exact row means
    need a whole block row at once. The exact path holds one pass of outer
    rows.
    """
    if sphere_samples < 2:
        raise ArgumentError("need at least two coefficient-sphere samples")
    p = prob.p
    if p != math.inf and p < 1:
        raise ArgumentError(f"need p >= 1 or p = inf, got {p}")
    exact = p == 2 and omega_samples == 0
    if not exact:
        if omega_samples < 10**3:
            raise ArgumentError("inner estimation needs omega_samples >= 1000 (or 0 at p = 2)")
        omega_samples -= omega_samples % _CLOUD_BLOCKS
        check_cloud_cost(prob, sphere_samples, omega_samples)
    system = prob.system()
    lam = system.multiplier_vector(prob.fam)
    rng = _chunk_rng(seed, 777)
    passes = [(start, min(_OUTER_ROWS, sphere_samples - start))
              for start in range(0, sphere_samples, _OUTER_ROWS)]

    if exact:
        sq = np.empty(sphere_samples)
        x = np.empty((passes[0][1], system.s))
        for start, rows in passes:
            sq[start:start + rows] = np.sum(_weighted_rows(rng, lam, x[:rows]) ** 2, axis=1)
        se_cloud = 0.0
    else:
        x = np.empty((sphere_samples, system.s))
        for start, rows in passes:
            _weighted_rows(rng, lam, x[start:start + rows])
        pts = sample_points(prob.d, omega_samples, seed + 1)
        per_block = omega_samples // _CLOUD_BLOCKS
        buf = np.empty((passes[0][1], per_block))
        block_stat = np.empty((sphere_samples, _CLOUD_BLOCKS))
        for b, block in enumerate(_cloud_blocks(system, pts, per_block)):
            for start, rows in passes:
                v = np.matmul(x[start:start + rows], block.T, out=buf[:rows])
                if p == math.inf:
                    block_stat[start:start + rows, b] = np.maximum(v.max(axis=1), -v.min(axis=1))
                else:
                    block_stat[start:start + rows, b] = abs_power_inplace(v, p).mean(axis=1)
        w = omega(prob.d)
        if p == math.inf:
            sq = block_stat.max(axis=1) ** 2
            block_means = np.sqrt(np.mean(block_stat**2, axis=0))
        else:
            norms = (w * block_stat.mean(axis=1)) ** (1.0 / p)
            sq = norms**2
            block_means = np.sqrt(np.mean((w * block_stat) ** (2.0 / p), axis=0))
        se_cloud = float(np.std(block_means, ddof=1)) / math.sqrt(_CLOUD_BLOCKS)
    mean_sq = float(np.mean(sq))
    value = math.sqrt(mean_sq)
    se_outer = float(np.std(sq, ddof=1)) / math.sqrt(sphere_samples)
    se_outer = se_outer / (2.0 * value) if value > 0 else 0.0
    return LevyEstimate(value=value, stderr=math.hypot(se_outer, se_cloud),
                        stderr_outer=se_outer, stderr_cloud=se_cloud,
                        sphere_samples=sphere_samples, omega_samples=omega_samples)


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


def nikolskii_check(d, m1, m2, p, trials, seed, omega_samples=4096):
    """Check the window's norm comparison inequalities on random polynomials.

    For each random coefficient vector t the two ratios
    sup|t| / ((s/omega)^(1/p) ||t||_p) and ||t||_p / ((s/omega)^(1/2-1/p) ||t||_2)
    are compared against 1; a violation is a ratio exceeding
    1 + 3 * (its Monte Carlo standard error). The sup norm uses the shared
    cloud plus per-trial cap refinement (a lower bound). ||t||_p and ||t||_2
    come from the same cloud, so the p = 2 instance of the second ratio is
    the exact equality case.

    Memory: the (s, omega_samples) coordinate values of the cloud are the
    only array of cloud size that lives through the check. |t| on the cloud
    is formed _OUTER_ROWS trials per pass into one reused buffer; each pass
    gives its trials' cloud maxima, the points where they lie and both
    cloud norms, whose |t|^q and deviations share a second pass buffer. The
    caps are evaluated _OUTER_ROWS trials per pass too.
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

    pts = sample_points(d, omega_samples, seed + 2)
    cloud = system.eval_matrix(pts).T  # (s, omega_samples)
    best, centers = np.empty(trials), np.empty((trials, d), dtype=complex)
    norm2, se_2 = np.empty(trials), np.empty(trials)
    norm_p, se_p = np.empty(trials), np.zeros(trials)
    mag_buf, work_buf = (np.empty((min(_OUTER_ROWS, trials), omega_samples)) for _ in range(2))
    for start in range(0, trials, _OUTER_ROWS):
        rows = slice(start, start + _OUTER_ROWS)
        n = min(_OUTER_ROWS, trials - start)
        mags = np.matmul(coeffs[rows], cloud, out=mag_buf[:n])
        np.abs(mags, out=mags)
        best[rows] = mags.max(axis=1)
        centers[rows] = pts[mags.argmax(axis=1)]
        # Both norms of each ratio come from the same shared cloud, so the
        # p = 2 instance of the p-versus-2 comparison is the exact equality case.
        norm2[rows], se_2[rows] = lp_norm_mc(mags, 2, d, out=work_buf[:n])
        if p != math.inf:
            norm_p[rows], se_p[rows] = lp_norm_mc(mags, p, d, out=work_buf[:n])
    del mags, mag_buf, work_buf  # not held through the cap search

    def cap_values(cap):
        out = np.empty(cap.shape[:-1])
        for start in range(0, trials, _OUTER_ROWS):
            rows = slice(start, start + _OUTER_ROWS)
            # one pass's coordinate values at a time, freed before the next pass
            out[rows] = np.einsum("ts,tns->tn", coeffs[rows], system.eval_matrix(
                cap[rows].reshape(-1, d)).reshape(-1, cap.shape[1], s))
        return out

    # Lower-bound sup norms: shared-cloud max, then shrinking caps per trial.
    sup = sup_norm_refined(cap_values, best, centers, seed)
    if p == math.inf:
        norm_p = sup

    # 1 / inf == 0, so the exponents and the zero se_p cover p = inf.
    bound_sup = (s / w) ** (1.0 / p) * norm_p
    ratio_sup = sup / bound_sup
    se_ratio_sup = ratio_sup * se_p / norm_p
    viol_sup = int(np.sum(ratio_sup > 1.0 + 3.0 * se_ratio_sup))

    report = {
        "d": d, "window": [m1, m2], "p": p, "trials": trials, "s": s,
        "violations_sup": viol_sup,
        "worst_ratio_sup": float(ratio_sup.max()),
    }
    if p >= 2:
        # The p-versus-2 comparison only holds for 2 <= p <= inf.
        factor = (s / w) ** (0.5 - 1.0 / p)
        ratio_p2 = norm_p / (factor * norm2)
        rel_se = np.sqrt((se_p / np.maximum(norm_p, 1e-300)) ** 2
                         + (se_2 / np.maximum(norm2, 1e-300)) ** 2)
        report["violations_p_vs_2"] = int(np.sum(ratio_p2 > 1.0 + 3.0 * ratio_p2 * rel_se))
        report["worst_ratio_p_vs_2"] = float(ratio_p2.max())
    else:
        report["violations_p_vs_2"] = None
        report["worst_ratio_p_vs_2"] = None
    return report
