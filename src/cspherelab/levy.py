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

Multipliers are per level: every member of level l = max(m, n) carries
lambda(l), level l has dim_layer(d, l) members (LevyProblem.layers), and
members are listed level by level. The Levy mean (mean of the squared norm
over the Euclidean coefficient sphere)^(1/2) is exact at p = 2 by Parseval
from that table alone (levy_mean_parseval); the Monte Carlo estimate samples
coefficients on the sphere and takes the inner function-space norm on a
shared point cloud.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache

from ._lazy import numpy as np
from .basis import MonomialMap, _check_on_sphere, build_basis, refuse_cost
from .dimensions import dim_layer, layer_members, theta
from .errors import ArgumentError, ConsistencyError, DivergenceError
from .multipliers import lambda_value
from .sphere import (_CAP_SAMPLES, _abs_products, _chunk_rng, _power_means, check_exponent, lp_norm_mc,
                     omega, power_needs_base, sample_points, sup_norm_refined)

# The fixed Monte Carlo layout: rows per pass over the cloud, and cloud
# blocks for the cloud error.
_OUTER_ROWS = 64
_CLOUD_BLOCKS = 8
# Trials per pass of check nikolskii's cap search: 16 x _CAP_SAMPLES = 4096
# cap points, two evaluation chunks
_CAP_ROWS = 16


class RealBasisMember(namedtuple("RealBasisMember", "bidegree index part")):
    """One real orthonormal coordinate function of the window.

    With Y the orthonormal function `index` of the `bidegree` basis, the
    member is sqrt(2) Re Y (part "re"), sqrt(2) Im Y ("im"), or Y itself
    ("real", for a real Y).
    """

    __slots__ = ()


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
            weights = {"re": (root2 * scale, 0.0), "im": (0.0, root2 * scale), "real": (scale, 0.0)}
            columns.append((vec, *weights[member.part]))  # (re_weight, im_weight) of MonomialMap
        return MonomialMap(self.d, columns)


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


class LevyProblem(namedtuple("LevyProblem", "d m1 m2 fam p")):
    """The Levy mean of fam's weighted p-norm on the window (m1, m2] of C^d.

    The window is max-graded, so the family must be: a star-graded family
    would weight it by lambda(m+n). Every construction checks this; _make,
    and so _replace, goes through __new__ too.
    """

    __slots__ = ()

    def __new__(cls, d, m1, m2, fam, p):
        if fam.grading != "max":
            raise ArgumentError(
                f"Levy windows are max-graded, so the family must be too; got grading {fam.grading!r}")
        return super().__new__(cls, d, m1, m2, fam, p)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def system(self):
        return build_real_system(self.d, self.m1, self.m2)

    def multiplier(self, l):
        """lambda(l), refused (DivergenceError) where its square, which every Levy mean and
        bound sums, is beyond the float range."""
        value = lambda_value(self.fam, l)
        if not math.isfinite(value * value):
            raise DivergenceError(f"lambda({l})^2 is beyond the float range ({self.fam.describe()})")
        return value

    def layers(self):
        """(lambda(l), dim_layer(d, l)) for each level l of the window; builds no basis.

        A window whose sum of lambda(l)^2 dim_l, which every Levy mean and bound
        takes, or one of its terms is beyond the float range is refused
        (DivergenceError), before anything is sampled.
        """
        _check_window(self.m1, self.m2)
        layers = [(self.multiplier(l), dim_layer(self.d, l, "max")) for l in range(self.m1 + 1, self.m2 + 1)]
        if not math.isfinite(sum(v * v * n for v, n in layers)):
            raise DivergenceError(f"the window's sum of lambda(l)^2 x dim_l is beyond the float range"
                                  f" ({self.fam.describe()})")
        return layers


class LevyEstimate(namedtuple(
        "LevyEstimate", "value stderr stderr_outer stderr_cloud sphere_samples omega_samples")):
    """A Levy-mean estimate; stderr = hypot(stderr_outer, stderr_cloud)."""

    __slots__ = ()


def levy_mean_parseval(prob: LevyProblem):
    """Exact p = 2 Levy mean (sum_l lambda(l)^2 dim_l / s)^(1/2), from layers()
    alone: no basis is built, so every window has it. fsum rounds the sum once."""
    layers = prob.layers()
    return math.sqrt(math.fsum(v * v * n for v, n in layers) / sum(n for _, n in layers))


def _weighted_rows(rng, lam, out):
    """Fill out (rows, s) with uniform points of the coefficient sphere, times lam."""
    rng.standard_normal(out=out)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out *= lam
    return out


def check_cloud_cost(prob: LevyProblem, sphere_samples, omega_samples):
    """Refuse a cloud Levy mean over MAX_CLOUD_FLOPS or MAX_CLOUD_BYTES (basis.refuse_cost).

    s is the window size from the dimension formula, so nothing is built to
    find it. The estimate counts the cloud products, passes of _OUTER_ROWS
    (64) outer rows and one cloud block's points. The evaluator's per-chunk
    arrays (MonomialMap's fixed chunk of points: one (2048, K) monomial
    table, its power tables, and the result's room for a padded last chunk)
    are not counted: they do not grow with the sample counts.
    """
    _check_window(prob.m1, prob.m2)
    what = f"Levy mean for d={prob.d}, window ({prob.m1}, {prob.m2}]"
    s = theta(prob.d, prob.m1, prob.m2, "max")
    rows = min(_OUTER_ROWS, sphere_samples)
    per_block = omega_samples // _CLOUD_BLOCKS
    refuse_cost(what, (2, sphere_samples, s, omega_samples), [
        ("outer rows", (sphere_samples, s), 8),
        ("cloud block", (per_block, s), 8),
        # and the powering's |v| of the pass, at the p where it multiplies by it
        ("pass buffer", (rows, per_block, 2) if power_needs_base(prob.p) else (rows, per_block), 8),
        ("points", (per_block, prob.d), 16),
        # per outer sample: the statistics and the closing reduction's two temporaries of their size
        ("block statistics", (sphere_samples, _CLOUD_BLOCKS, 3), 8),
        ("norms", (sphere_samples, 2), 8),  # and their squares
    ], held="cloud arrays")


def levy_mean_mc(prob: LevyProblem, sphere_samples, omega_samples, seed):
    """Monte Carlo Levy mean of the weighted p-norm on the coefficient sphere.

    p = 2 with omega_samples = 0 returns the exact Parseval value
    (levy_mean_parseval) with all three stderrs 0 and draws nothing.

    Otherwise outer samples are uniform on the Euclidean coefficient sphere;
    the inner L^p norm reuses one shared uniform point cloud on the sphere
    of C^d across all outer samples. The reported stderr combines the outer
    sampling error (stderr_outer) with a block-resampled estimate of the
    shared-cloud error (stderr_cloud; the cloud error does not shrink with
    more outer samples, so it must be budgeted separately).

    Outer samples are drawn, normalised and weighted _OUTER_ROWS rows per
    pass from one stream, so the rows do not depend on the pass size; the
    cloud's _CLOUD_BLOCKS equal blocks give stderr_cloud. Inputs whose cloud
    products cost more than MAX_CLOUD_FLOPS, or whose arrays take more than
    MAX_CLOUD_BYTES, are refused before any basis is built
    (check_cloud_cost); a p whose powers |.|^p underflow or overflow is
    refused by the pass reduction (sphere._power_means).

    Memory: the estimate holds the (sphere_samples, s) outer rows and
    their (sphere_samples, _CLOUD_BLOCKS) block statistics, never the
    cloud's coordinate matrix or all of its points. Each (omega_samples /
    _CLOUD_BLOCKS, s) cloud block is one eval_matrix call on its own rows of
    the cloud, drawn for it (sample_points' start); the points go with that
    call and the block before the next block is evaluated. A row's values
    depend on its point only, not on where the block starts. After the
    block is evaluated, sphere._abs_products forms each pass of outer rows
    in one (_OUTER_ROWS, omega_samples / _CLOUD_BLOCKS) buffer (64 rows:
    3.2 MB at 50,000 points), with |.| except at p = 2, 4, 8, ..., whose
    squarings make it redundant, and sphere._power_means reduces it in place
    to the block's row means of |.|^p (maxima at p = inf); only a row whose
    mean is 0 is formed again, for its largest |f|. At p = 3, 5, 6, 7,
    ... the powers go to one second buffer of that size. Both buffers go
    with the block, so they never sit beside the evaluator's tables. The
    block, its points and those buffers are the arrays that grow with
    omega_samples: exact row means need a whole block row at once.
    """
    if sphere_samples < 2:
        raise ArgumentError("need at least two coefficient-sphere samples")
    p = prob.p
    check_exponent(p)
    if p == 2 and omega_samples == 0:
        return LevyEstimate(value=levy_mean_parseval(prob), stderr=0.0, stderr_outer=0.0,
                            stderr_cloud=0.0, sphere_samples=sphere_samples, omega_samples=0)
    if omega_samples < 10**3:
        raise ArgumentError("inner estimation needs omega_samples >= 1000 (or 0 at p = 2)")
    omega_samples -= omega_samples % _CLOUD_BLOCKS
    check_cloud_cost(prob, sphere_samples, omega_samples)
    system = prob.system()
    lam = np.repeat(*zip(*prob.layers()))  # members are listed level by level
    rng = _chunk_rng(seed, 777)
    x = np.empty((sphere_samples, system.s))
    for start in range(0, sphere_samples, _OUTER_ROWS):
        _weighted_rows(rng, lam, x[start:start + _OUTER_ROWS])
    per_block = omega_samples // _CLOUD_BLOCKS
    block_stat = np.empty((sphere_samples, _CLOUD_BLOCKS))
    # p = 2^k is raised by squarings alone, so its passes need no |.|
    signed = p > 1 and float(p).is_integer() and not power_needs_base(p)
    for b in range(_CLOUD_BLOCKS):
        # the block's points are drawn for its evaluation and freed with it
        block = system.eval_matrix(sample_points(prob.d, per_block, seed + 1, start=b * per_block))
        work = np.empty((min(_OUTER_ROWS, sphere_samples), per_block)) if power_needs_base(p) else None
        for part, values in _abs_products(x, block, _OUTER_ROWS, signed=signed):
            # a row whose mean is 0 is re-formed to tell |f| = 0 from an underflow
            block_stat[part, b] = _power_means(
                values, p, None if work is None else work[:len(values)],
                reform=lambda lost, rows=x[part]: np.abs(rows[lost] @ block.T))
        del block, values, work  # freed before the next block is evaluated
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


class LevyBounds(namedtuple("LevyBounds", "case lower upper upper_known inconsistent monotone")):
    __slots__ = ()


def levy_bounds(prob: LevyProblem):
    """Two-sided Levy-mean bounds from the layer dimensions.

    Case a (2 <= p < inf) and case b (p = inf) have an unknown absolute
    constant on the upper side: the reported upper value is the structural
    factor only, flagged with upper_known = False. Cases c (1 <= p <= 2) and
    d (p = 2) are fully numeric. A non-monotone multiplier over the window
    swaps the shifted/unshifted sums per the non-decreasing variant.
    """
    d, p = prob.d, prob.p
    layers = prob.layers()
    lam = [abs(v) for v, _ in layers]
    lam_shift = [abs(prob.multiplier(l)) for l in range(prob.m1, prob.m2)]
    dims = [n for _, n in layers]
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

    Memory: the (s, omega_samples) coordinate values of the cloud and its
    points are the only arrays of cloud size, and they are released before
    the cap search, which never reads them. |t| on the cloud is formed
    _OUTER_ROWS (64) trials per pass (sphere._abs_products) into one reused
    buffer; each pass gives its trials' cloud maxima, the points where they
    lie and both cloud norms, whose |t|^q and deviations share a second pass
    buffer; lp_norm_mc refuses a p whose powers or errors are lost. The caps
    are evaluated _CAP_ROWS (16) trials per pass, one pass's (_CAP_ROWS *
    _CAP_SAMPLES, s) coordinate values at a time, and their |t| is taken in
    place. Inputs whose cloud products cost more than MAX_CLOUD_FLOPS, or
    whose arrays take more than MAX_CLOUD_BYTES, are refused before any
    basis is built (refuse_cost); the estimate adds the arrays of both
    phases.
    """
    check_exponent(p)
    if trials < 1:
        raise ArgumentError("need at least one trial")
    _check_window(m1, m2)
    s = theta(d, m1, m2, "max")
    rows = min(_OUTER_ROWS, trials)
    refuse_cost(f"Nikolskii check for d={d}, window ({m1}, {m2}]", (2, trials, s, omega_samples), [
        ("cloud values", (s, omega_samples), 8),
        ("pass buffers", (rows, omega_samples, 2), 8),
        ("coefficients", (trials, s), 8),
        # best values, centers (d complex) and the four norms and errors, each
        # with one temporary of its size
        ("trial statistics", (trials, 5 + 2 * d, 2), 8),
        ("points", (omega_samples, d), 16),
        ("cap array", (trials, _CAP_SAMPLES, d), 16),
        # the cap search's draws or squared moduli, then two of their row
        # sums and its values (sphere.sup_norm_refined)
        ("cap moduli", (trials, _CAP_SAMPLES, d), 8),
        ("cap values", (trials, _CAP_SAMPLES, 2), 8),
        ("cap pass", (min(_CAP_ROWS, trials) * _CAP_SAMPLES, s), 8),
    ])
    system = build_real_system(d, m1, m2)
    w = omega(d)
    rng = _chunk_rng(seed, 555)
    coeffs = rng.standard_normal((trials, s))

    pts = sample_points(d, omega_samples, seed + 2)
    cloud = system.eval_matrix(pts)  # (omega_samples, s)
    best, centers = np.empty(trials), np.empty((trials, d), dtype=complex)
    norm2, se_2 = np.empty(trials), np.empty(trials)
    norm_p, se_p = np.empty(trials), np.zeros(trials)
    work = np.empty((min(_OUTER_ROWS, trials), omega_samples))
    for rows, mags in _abs_products(coeffs, cloud, _OUTER_ROWS):
        best[rows] = mags.max(axis=1)
        centers[rows] = pts[mags.argmax(axis=1)]
        # Both norms of each ratio come from the same shared cloud, so the
        # p = 2 instance of the p-versus-2 comparison is the exact equality case.
        norm2[rows], se_2[rows] = lp_norm_mc(mags, 2, d, out=work[:len(mags)])
        if p != math.inf:
            norm_p[rows], se_p[rows] = lp_norm_mc(mags, p, d, out=work[:len(mags)])
    del mags, work, cloud, pts  # the caps never read them

    def cap_values(cap):
        out = np.empty(cap.shape[:-1])
        for start in range(0, trials, _CAP_ROWS):
            rows = slice(start, start + _CAP_ROWS)
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
