"""Exact Hilbert-space width tables, rate fitting, and bound evaluators.

For a diagonal operator on L^2 the Kolmogorov width d_n equals the (n+1)-st
largest singular value counted with multiplicity, so the L^2 -> L^2 width
table of a multiplier operator is computed exactly by sorting |multiplier|
values with their layer dimensions. Tables are stored run-length encoded
(the spectra are step functions) and fits sample one point per plateau, at
the plateau's first rank, to remove the staircase bias.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dimensions import dim_layer
from .errors import ArgumentError, HypothesisError
from .multipliers import MultiplierFamily, lambda_value

# Levels scanned when accumulating spectrum multiplicities.
LEVEL_CAP = 1000


@dataclass(frozen=True)
class WidthTable:
    """Non-increasing width sequence d_0 >= d_1 >= ... stored as runs.

    runs is a tuple of (value, count) with strictly decreasing values; the
    table covers ranks 0 .. n_max, except that it truncates early when the
    operator's rank is exhausted (widths beyond the rank are zero).
    """

    d: int
    n_max: int
    runs: tuple
    family: str = ""
    grading: str = ""
    warning: str = ""

    @property
    def size(self):
        return sum(c for _, c in self.runs)

    def values(self):
        """Expand to a dense array d_0 .. d_(size-1)."""
        return np.repeat([v for v, _ in self.runs], [c for _, c in self.runs])

    def plateau_points(self, lo, hi):
        """(rank, value) sampled once per plateau, at its first rank, within [lo, hi].

        The first rank of a plateau is where the spectrum matches its
        asymptotic envelope (the cumulative dimension of the preceding
        levels), so sampling there removes the staircase bias; midpoint or
        right-edge sampling leaves a slowly varying offset that measurably
        contaminates the collinear log-log regressors.
        """
        out_n, out_v = [], []
        start = 0
        for value, count in self.runs:
            if lo <= start <= hi:
                out_n.append(start)
                out_v.append(value)
            start += count
        return np.asarray(out_n, dtype=float), np.asarray(out_v, dtype=float)

    def min_positive_rank_cover(self, hi):
        """True if the table has positive entries covering every rank <= hi."""
        covered = 0
        for value, count in self.runs:
            if value <= 0:
                break
            covered += count
        return covered > hi


def expand_spectrum(pairs, n_max):
    """Sorted-multiplier oracle: runs of the n_max+1 largest values.

    pairs is an iterable of (value, multiplicity); values are sorted in
    decreasing order, multiplicities merge across equal values, and the
    output stops once n_max + 1 entries are covered (or the entries run out,
    in which case the table truncates at the operator's rank).
    """
    if n_max < 0:
        raise ArgumentError(f"n_max must be nonnegative, got {n_max}")
    merged = {}
    for value, count in pairs:
        if count < 0:
            raise ArgumentError("multiplicities must be nonnegative")
        if count:
            merged[float(value)] = merged.get(float(value), 0) + int(count)
    runs = []
    covered = 0
    for value in sorted(merged, reverse=True):
        if covered > n_max or value <= 0.0:
            break
        take = min(merged[value], n_max + 1 - covered)
        runs.append((value, take))
        covered += take
    return tuple(runs)


def l2_width_table(fam: MultiplierFamily, d, n_max):
    """Exact L^2 -> L^2 Kolmogorov width table of a multiplier operator.

    Enumerates levels until the cumulative dimension of levels carrying a
    nonzero multiplier exceeds n_max (level cap LEVEL_CAP); zero multipliers
    sort to the tail and truncate the table at the operator's rank.
    """
    if n_max < 1:
        raise ArgumentError(f"n_max must be >= 1, got {n_max}")
    pairs = []
    nonzero_cum = 0
    if fam.kind == "table":
        # explicit tables may be non-monotone, so enumerate them in full
        levels = [l for l, _ in fam.table]
    else:
        levels = range(LEVEL_CAP + 1)
    exhausted = True
    for l in levels:
        value = abs(lambda_value(fam, l))
        mult = dim_layer(d, l, fam.grading)
        pairs.append((value, mult))
        if value > 0:
            nonzero_cum += mult
        # early stop is sound for the parametric families: their values are
        # non-increasing past the already-enumerated levels
        if fam.kind != "table" and nonzero_cum > n_max:
            exhausted = False
            break
    if exhausted and fam.kind != "table" and nonzero_cum <= n_max:
        raise ArgumentError(
            f"spectrum enumeration hit the level cap {LEVEL_CAP} before covering"
            f" rank {n_max}; lower n_max")
    warning = "non-compact: constant table" if fam.kind == "identity" else ""
    return WidthTable(d=d, n_max=n_max, runs=expand_spectrum(pairs, n_max),
                      family=fam.describe(), grading=fam.grading, warning=warning)


def table_from_values(values, d=0, n_max=None):
    """Run-length encode an explicit non-increasing width sequence (e.g. from CSV)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ArgumentError("empty width table")
    if np.any(np.diff(values) > 1e-12):
        raise ArgumentError("width values must be non-increasing")
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    lengths = np.diff(np.append(starts, values.size))
    return WidthTable(d=d, n_max=n_max if n_max is not None else values.size - 1,
                      runs=tuple(zip(values[starts].tolist(), lengths.tolist())))


@dataclass(frozen=True)
class FitResult:
    model: str
    slope: float
    intercept: float
    n_lo: float
    n_hi: float
    points: int
    residual_rms: float
    loglog_coeff: float | None = None
    stretch_exponent: float | None = None


def _fit_points(table, lo, hi):
    if lo < 0 or hi <= lo:
        raise ArgumentError(f"bad fit range [{lo}, {hi}]")
    if not table.min_positive_rank_cover(hi):
        raise ArgumentError(f"fit range [{lo}, {hi}] contains zero widths")
    if hi - lo + 1 < 20:
        raise ArgumentError("fit range must contain at least 20 ranks")
    n, v = table.plateau_points(lo, hi)
    if n.size < 2:
        raise ArgumentError("fit range covers fewer than two plateaus")
    return n, v


def _least_squares(columns, y):
    a = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def fit_power(table, lo, hi, with_log_factor=False):
    """Fit ln d_n ~ intercept + slope * ln n (+ loglog_coeff * ln ln n).

    The slope estimates the power-decay exponent; with the log factor the
    second coefficient estimates the logarithmic correction exponent.
    """
    n, v = _fit_points(table, max(lo, 2), hi)
    y = np.log(v)
    ln_n = np.log(n)
    if with_log_factor:
        coef, rms = _least_squares([np.ones_like(n), ln_n, np.log(ln_n)], y)
        return FitResult(model="power_log", slope=float(coef[1]), intercept=float(coef[0]),
                         n_lo=lo, n_hi=hi, points=n.size, residual_rms=rms,
                         loglog_coeff=float(coef[2]))
    coef, rms = _least_squares([np.ones_like(n), ln_n], y)
    return FitResult(model="power", slope=float(coef[1]), intercept=float(coef[0]),
                     n_lo=lo, n_hi=hi, points=n.size, residual_rms=rms)


def fit_stretched(table, d, r, lo, hi):
    """Fit ln d_n ~ intercept + slope * n^(r/(2d-1)).

    For the analytic families the slope estimates the negated
    stretched-exponential decay constant.
    """
    if r <= 0:
        raise ArgumentError(f"stretch parameter r must be positive, got {r}")
    n, v = _fit_points(table, lo, hi)
    expo = r / (2.0 * d - 1.0)
    coef, rms = _least_squares([np.ones_like(n), n**expo], np.log(v))
    return FitResult(model="stretched", slope=float(coef[1]), intercept=float(coef[0]),
                     n_lo=lo, n_hi=hi, points=n.size, residual_rms=rms,
                     stretch_exponent=expo)


# ---------------------------------------------------------------------------
# Structural bound factors (modulo the theorems' unknowable absolute constants)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSpec:
    """Which bound formula to evaluate, with its parameters.

    theorem ids: T3.4a .. T3.4i (smoothness-class width rates; the bracketed
    cases b, d, g, i need side='lower'|'upper'), T6.2-upper, T6.2-lower,
    T6.3-lower, T6.4, T6.5-upper, Tstar-R*.
    """

    theorem: str
    d: int
    gamma: float = 0.0
    xi: float = 0.0
    r: float = 0.0
    p: float = 2.0
    q: float = 2.0
    side: str = ""


def _require(cond, inequality):
    if not cond:
        raise HypothesisError(f"hypothesis violated: {inequality}")


def _theta_selector(p, q, m, name):
    """The (ln m)^(-1/2) vs 1 selector shared by the lower-bound theorems."""
    if 1 <= p <= 2 and 1 < q <= 2:
        return 1.0
    if 2 <= p < math.inf and 2 <= q <= math.inf:
        return 1.0
    if 1 <= p <= 2 <= q <= math.inf:
        return 1.0
    if 1 <= p <= 2 and q == 1:
        return math.log(m) ** (-0.5)
    if p == math.inf and 2 <= q <= math.inf:
        return math.log(m) ** (-0.5)
    raise HypothesisError(
        f"hypothesis violated: (p, q) = ({p}, {q}) matches no {name} case")


def decay_constant_max(d, gamma, r):
    """Stretched-exponential decay constant under the max grading."""
    return gamma * (math.factorial(d) * math.factorial(d - 1) / 2.0) ** (r / (2.0 * d - 1.0))


def decay_constant_star(d, gamma, r):
    """Stretched-exponential decay constant under the star grading."""
    return gamma * (math.factorial(2 * d - 1) / 2.0) ** (r / (2.0 * d - 1.0))


def _plus(x):
    return x if x > 0 else 0.0


_SMOOTHNESS_CASES = {
    # id: (hypothesis, rate exponent offset, lower log power, upper log power)
    # rate is m^(-gamma/(2d-1) + offset) * (ln m)^(log power / 2)
    "a": ("1<=p=q<inf with 2<=q  and gamma>0",
          lambda p, q, g, d: p == q and 2 <= q < math.inf and g > 0, lambda p, q: 0.0, 0, 0),
    "b": ("2<=q<=p<=inf with p=q and gamma>0",
          lambda p, q, g, d: p == q and 2 <= q <= math.inf and g > 0, lambda p, q: 0.0, -1, 0),
    "c": ("2<=q<=p<inf and gamma/(2d-1)>1/2",
          lambda p, q, g, d: 2 <= q <= p < math.inf and g / (2 * d - 1) > 0.5, lambda p, q: 0.0, 0, 0),
    "d": ("2<=q<=p<=inf and gamma/(2d-1)>1/2",
          lambda p, q, g, d: 2 <= q <= p <= math.inf and g / (2 * d - 1) > 0.5, lambda p, q: 0.0, 0, 1),
    "e": ("1<=p<=q<=2 and gamma/(2d-1)>1/p-1/q",
          lambda p, q, g, d: 1 <= p <= q <= 2 and g / (2 * d - 1) > 1 / p - 1 / q,
          lambda p, q: 1 / p - 1 / q, 0, 0),
    "f": ("1<=p<=q<=2 and gamma>0",
          lambda p, q, g, d: 1 <= p <= q <= 2 and g > 0, lambda p, q: 0.0, 0, 0),
    "g": ("1<=p<=q<=2 and gamma>0",
          lambda p, q, g, d: 1 <= p <= q <= 2 and g > 0, lambda p, q: 0.0, -1, 0),
    "h": ("1<=p<=2<=q<inf and gamma/(2d-1)>1/p",
          lambda p, q, g, d: 1 <= p <= 2 <= q < math.inf and g / (2 * d - 1) > 1 / p,
          lambda p, q: 1 / p - 0.5, 0, 0),
    "i": ("1<=p<=2<=q<=inf and gamma/(2d-1)>1/p",
          lambda p, q, g, d: 1 <= p <= 2 <= q <= math.inf and g / (2 * d - 1) > 1 / p,
          lambda p, q: 1 / p - 0.5, 0, 1),
}


def bound_eval(spec: BoundSpec, m):
    """Evaluate a theorem's structural bound factor at width index m.

    Returns the bound value modulo the unknown absolute constant; constants
    themselves (T6.4, Tstar-R*) are returned directly. Raises HypothesisError
    naming the violated inequality when the parameters fall outside the
    theorem's hypotheses.
    """
    d, gamma, xi, r, p, q = spec.d, spec.gamma, spec.xi, spec.r, spec.p, spec.q
    tid = spec.theorem

    if tid == "T6.4":
        _require(gamma > 0 and r > 0, "gamma > 0 and r > 0")
        return decay_constant_max(d, gamma, r)
    if tid == "Tstar-R*":
        _require(gamma > 0 and r > 0, "gamma > 0 and r > 0")
        return decay_constant_star(d, gamma, r)

    if m < 2:
        raise ArgumentError(f"width index must be >= 2 for the rate formulas, got {m}")

    if tid == "T6.2-upper":
        _require(1 <= p <= math.inf and 2 <= q <= math.inf, "1 <= p <= inf and 2 <= q <= inf")
        if p <= 2:
            _require(gamma > (2 * d - 1) / p, "gamma > (2d-1)/p")
        else:
            _require(gamma > (2 * d - 1) / 2, "gamma > (2d-1)/2")
        tail = math.sqrt(q) if q < math.inf else math.sqrt(math.log(m))
        return m ** (-gamma / (2 * d - 1) + _plus(1 / p - 0.5)) * math.log(m) ** (-xi) * tail

    if tid == "T6.2-lower":
        _require(gamma / (2 * d - 1) > 1 / p - 1 / q, "gamma/(2d-1) > 1/p - 1/q")
        sel = _theta_selector(p, q, m, "lower-bound selector")
        return m ** (-gamma / (2 * d - 1)) * math.log(m) ** (-xi) * sel

    if tid == "T6.3-lower":
        _require(gamma > (2 * d - 1) / 2, "gamma > (2d-1)/2")
        sel = _theta_selector(p, q, m, "lower-bound selector")
        return m ** (-gamma / (2 * d - 1)) * math.log(m) ** (-xi) * sel

    if tid == "T6.5-upper":
        _require(r > 0, "r > 0")
        _require(1 <= p <= math.inf and 2 <= q <= math.inf, "1 <= p <= inf and 2 <= q <= inf")
        if r > 1:
            # Evaluation only: the r > 1 upper bound is indexed by the level
            # k (it applies at width index cum_dim(d, k)); no exact oracle
            # exists away from p = q = 2 to compare it against.
            if 1 <= p <= 2:
                return math.exp(-gamma * m**r) * m ** ((2 * d - 2) * _plus(1 / p - 1 / q))
            return math.exp(-gamma * m**r) * m ** ((2 * d - 2) * _plus(0.5 - 1 / q))
        const = decay_constant_max(d, gamma, r)
        expo = r / (2 * d - 1)
        tail = 1.0 if q < math.inf else math.sqrt(math.log(m))
        return math.exp(-const * m**expo) * m ** ((1 - expo) * _plus(1 / p - 0.5)) * tail

    if tid.startswith("T3.4") and len(tid) == 5 and tid[-1] in _SMOOTHNESS_CASES:
        label, hyp, offset, low_pow, up_pow = _SMOOTHNESS_CASES[tid[-1]]
        _require(hyp(p, q, gamma, d), label)
        rate = m ** (-gamma / (2 * d - 1) + offset(p, q))
        two_sided = low_pow == 0 and up_pow == 0
        if two_sided:
            return rate
        if spec.side not in ("lower", "upper"):
            raise ArgumentError(
                f"{tid} bounds differ by a log factor; pass side='lower' or side='upper'")
        power = low_pow if spec.side == "lower" else up_pow
        return rate * math.log(m) ** (power / 2.0)

    raise ArgumentError(f"unknown bound theorem id {tid!r}")


# ---------------------------------------------------------------------------
# Grading comparison
# ---------------------------------------------------------------------------

def grading_compare(fam: MultiplierFamily, d, n_max, lo=None, hi=None):
    """Compare width decay of the same multiplier function under both gradings.

    Finitely smooth families decay at the same power rate under either
    grading; analytic families decay at different stretched-exponential
    constants whose ratio is ((2d-1)!/(d!(d-1)!))^(r/(2d-1)).
    """
    lo = 10**3 if lo is None else lo
    hi = min(n_max, 10**6) if hi is None else hi
    report = {"family": fam.describe(), "d": d, "n_max": n_max}
    if fam.kind == "identity":
        report["verdict"] = "non-compact, no rates"
        return report
    star = l2_width_table(dataclasses.replace(fam, grading="star"), d, n_max)
    mx = l2_width_table(dataclasses.replace(fam, grading="max"), d, n_max)
    if fam.kind == "exp_analytic":
        f_star = fit_stretched(star, d, fam.r, lo, hi)
        f_max = fit_stretched(mx, d, fam.r, lo, hi)
        ratio = f_star.slope / f_max.slope
        expected = (math.factorial(2 * d - 1)
                    / (math.factorial(d) * math.factorial(d - 1))) ** (fam.r / (2 * d - 1))
        report.update({
            "model": "stretched",
            "slope_star": f_star.slope,
            "slope_max": f_max.slope,
            "slope_ratio": ratio,
            "expected_ratio": expected,
            "verdict": "gradings differ",
        })
        return report
    f_star = fit_power(star, lo, hi)
    f_max = fit_power(mx, lo, hi)
    report.update({
        "model": "power",
        "slope_star": f_star.slope,
        "slope_max": f_max.slope,
        "slope_gap": abs(f_star.slope - f_max.slope),
        "agree": abs(f_star.slope - f_max.slope) <= 0.05,
        "verdict": "gradings agree" if abs(f_star.slope - f_max.slope) <= 0.05 else "gradings disagree",
    })
    return report
