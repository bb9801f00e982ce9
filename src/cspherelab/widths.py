"""Exact Hilbert-space width tables, rate fitting, and bound evaluators.

For a diagonal operator on L^2 the Kolmogorov width d_n equals the (n+1)-st
largest singular value counted with multiplicity, so the L^2 -> L^2 width
table of a multiplier operator is computed exactly by sorting |multiplier|
values with their layer dimensions. Tables are stored run-length encoded
(the spectra are step functions) and fits sample one point per plateau, at
the plateau's first rank, to remove the staircase bias.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from ._lazy import numpy as np
from .dimensions import check_dimension, dim_layer
from .errors import ArgumentError, HypothesisError
from .multipliers import MultiplierFamily, first_positive_level, lambda_value

# Levels scanned when accumulating spectrum multiplicities.
LEVEL_CAP = 1000


class WidthTable(namedtuple("WidthTable", "runs warning", defaults=("",))):
    """Non-increasing width sequence d_0 >= d_1 >= ... stored as runs.

    runs is a tuple of (value, count) with strictly decreasing values; the
    table covers ranks 0 .. size - 1.
    """

    __slots__ = ()

    @property
    def size(self):
        return sum(c for _, c in self.runs)

    def values(self):
        """Expand to a dense array d_0 .. d_(size-1)."""
        return np.repeat([v for v, _ in self.runs], [c for _, c in self.runs])

    def plateau_points(self, lo, hi):
        """Lists of ranks and values, once per plateau at its first rank, within [lo, hi].

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
        return out_n, out_v

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

    Enumerates the levels from the family's first positive level
    (multipliers.first_positive_level; the levels below it have lambda = 0,
    which adds no width) to LEVEL_CAP and stops once they cover rank n_max.
    Every family is non-increasing past that level, so the stop is sound,
    and a zero there or later is a float underflow that every later level
    shares: ArgumentError names that level and the largest n_max left.
    Reaching the cap raises ArgumentError too.
    """
    if n_max < 1:
        raise ArgumentError(f"n_max must be >= 1, got {n_max}")
    pairs = []
    covered = 0
    for l in range(first_positive_level(fam), LEVEL_CAP + 1):
        value = abs(lambda_value(fam, l))
        if value == 0:
            raise ArgumentError(
                f"lambda underflows to 0.0 at level {l} ({fam.describe()}, {fam.grading} grading); "
                + (f"the largest n_max it can tabulate is {covered - 1}" if covered else
                   "no rank has a positive width"))
        mult = dim_layer(d, l, fam.grading)
        pairs.append((value, mult))
        covered += mult
        if covered > n_max:
            break
    else:
        raise ArgumentError(
            f"spectrum enumeration hit the level cap {LEVEL_CAP} before covering"
            f" rank {n_max}; lower n_max")
    warning = "non-compact: constant table" if fam.kind == "identity" else ""
    return WidthTable(runs=expand_spectrum(pairs, n_max), warning=warning)


def table_from_runs(runs):
    """Validate (value, count) runs read from outside (e.g. a CSV) into a WidthTable.

    The values must be finite and nonnegative (no NaN, no inf) and
    non-increasing, an uptick of at most 1e-12 excepted (it starts a run of
    its own). Errors name the row, i.e. the rank, where the fault begins.
    """
    if not runs:
        raise ArgumentError("empty width table")
    rank, previous = 0, math.inf
    for value, count in runs:
        if not 0 <= value < math.inf:  # NaN too
            shown = "NaN" if math.isnan(value) else repr(value)
            raise ArgumentError(f"width value at row {rank} is {shown}; a width is finite and nonnegative")
        if value - previous > 1e-12:
            raise ArgumentError(
                f"width values must be non-increasing, but row {rank} rises above row {rank - 1}")
        rank, previous = rank + count, value
    return WidthTable(runs=tuple(runs))


def run_lengths(values):
    """(value, count) runs of a float sequence; equal neighbours share a run."""
    return tuple((value, sum(1 for _ in same)) for value, same in itertools.groupby(map(float, values)))


def table_from_values(values):
    """Run-length encode an explicit width sequence d_0, d_1, ... and validate it."""
    return table_from_runs(run_lengths(values))


# ---------------------------------------------------------------------------
# The width CSV: the header line _HEADER, then one "rank,value" row per rank
# ---------------------------------------------------------------------------

_HEADER = b"n,d_n\n"

# Rows per piece: csv_runs writes, and parse_csv_runs compares, at most this
# many rows at a time, so a spectrum's whole text is never held.
_PIECE_ROWS = 4096

# "000" .. "999": the last three digits of every rank from 1000 on.
_THREE = tuple("%03d" % i for i in range(1000))


def _rank_rows(start, stop, sep):
    """The text of the ranks start .. stop-1 in %d, each followed by sep.

    The one row formatter of csv_runs and parse_csv_runs. From rank 1000 on,
    the ranks of one thousand-block share their leading digits `lead`, so
    the block is one join over _THREE, with no rank formatted on its own.
    """
    pieces = []
    low = min(stop, 1000)
    if start < low:
        pieces.append(sep.join(map(str, range(start, low))) + sep)
        start = low
    while start < stop:
        lead = str(start // 1000)
        lo = start % 1000
        hi = min(1000, lo + stop - start)
        pieces.append(lead + (sep + lead).join(_THREE[lo:hi]) + sep)
        start += hi - lo
    return "".join(pieces)


def csv_runs(runs):
    """The width CSV of (value, count) runs, as consecutive pieces of text.

    Counts are positive; ranks count from 0 and each gets one
    "rank,value" row, the value in %.17g. The pieces are the header line,
    then at most _PIECE_ROWS rows each. Each run's value is formatted once,
    and a piece's rows are built by _rank_rows.
    """
    yield _HEADER.decode()
    rank = 0
    for value, count in runs:
        sep = ",%.17g\n" % value
        for start in range(rank, rank + count, _PIECE_ROWS):
            yield _rank_rows(start, min(start + _PIECE_ROWS, rank + count), sep)
        rank += count


def _digits_below(k):
    """Total count of decimal digits in the ranks 0 .. k-1."""
    total, power = k, 10
    while power < k:
        total += k - power  # each rank >= power has one more digit
        power *= 10
    return total


def parse_csv_runs(data):
    """The runs whose joined csv_runs(runs) text is exactly data (bytes), else None.

    None means only that data is not in the writer's canonical form (ranks
    as %d from 0, values as %.17g, "\\n" line ends); the caller parses it
    some other way. Each run's first row gives its value and so the byte
    length L of every ",value\\n" suffix in the run; the line of rank k then
    starts at a computed offset (the digits of the ranks before it plus
    k * L), so the run's end is found by galloping and bisecting on single
    lines. Every row of the run is then compared with the writer's own text
    (_rank_rows), _PIECE_ROWS rows at a time, in place: only a run's first
    value is copied out of data, and the whole text is never built.
    """
    if not data.startswith(_HEADER):
        return None
    runs = []
    pos, rank = len(_HEADER), 0
    while pos < len(data):
        start = pos + len(b"%d," % rank)  # the run's first value
        try:
            value = float(data[start:data.find(b"\n", start)])
        except ValueError:
            return None
        if runs and value == runs[-1][0]:
            return None  # 0.0 after -0.0: equal values in two runs
        sep = ",%.17g\n" % value
        sep_bytes = sep.encode()
        line = b"%d" + sep_bytes  # %.17g text holds no "%"
        base = pos - _digits_below(rank) - rank * len(sep_bytes)

        def offset(k):
            return base + _digits_below(k) + k * len(sep_bytes)

        def row_matches(k):
            return data.startswith(line % k, offset(k))

        if not row_matches(rank):
            return None  # not "rank,value" with the value written as %.17g
        good, bad = 1, 2  # rows of the run known to match; a count not yet ruled out
        while row_matches(rank + bad - 1):
            good, bad = bad, 2 * bad
        while bad - good > 1:
            mid = (good + bad) // 2
            if row_matches(rank + mid - 1):
                good = mid
            else:
                bad = mid
        end = rank + good
        for k in range(rank, end, _PIECE_ROWS):
            rows = _rank_rows(k, min(k + _PIECE_ROWS, end), sep).encode()
            if not data.startswith(rows, offset(k)):
                return None
        runs.append((value, good))
        rank, pos = end, offset(end)
    return tuple(runs)


def _field(kind, text, row):
    """kind(text), the int rank or the float value of a width CSV's data row row."""
    try:
        return kind(text)
    except ValueError:
        raise ArgumentError(f"malformed width CSV: could not convert string {text.strip()!r}"
                            f" to {kind.__name__} at row {row}") from None


def _text_runs(data):
    """Runs of a width CSV (bytes) in any layout of the grammar that table_from_csv states."""
    try:
        header, *lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"malformed width CSV: {exc}") from exc
    expected = _HEADER.decode().strip()
    if header.replace(" ", "") != expected:
        raise ArgumentError(f"expected header {expected!r}, got {header!r}")
    values = []
    for row, line in enumerate(filter(None, lines)):
        fields = line.split(",")
        if len(fields) != 2:
            raise ArgumentError(
                f"malformed width CSV: row {row} requires 2 columns but {len(fields)} were found")
        rank = _field(int, fields[0], row)
        if rank != row:
            raise ArgumentError(f"width CSV ranks must be contiguous from 0, got {rank} at row {row}")
        values.append(_field(float, fields[1], row))
    return run_lengths(values)


def table_from_csv(data):
    """The validated WidthTable of a width CSV (bytes).

    The grammar: UTF-8 text; the header "n,d_n", spaces ignored; then row
    i, the i-th nonempty line after it, reads "i,value", i as int() reads
    it and the value as float() reads it. Spaces around a field, empty
    lines, CRLF or CR line ends and a missing final newline are allowed;
    anything else (comments too) raises ArgumentError naming its row. The
    writer's own bytes are decoded run by run by parse_csv_runs; any other
    file, row by row by _text_runs. table_from_runs validates the runs.
    """
    runs = parse_csv_runs(data)
    if runs is None:
        runs = _text_runs(data)
    if not runs:
        raise ArgumentError("width CSV has no data rows")
    return table_from_runs(runs)


class FitResult(namedtuple(
        "FitResult", "model slope intercept n_lo n_hi points residual_rms loglog_coeff stretch_exponent",
        defaults=(None, None))):
    __slots__ = ()


def _fit_points(table, lo, hi, unknowns):
    if lo < 0 or hi <= lo:
        raise ArgumentError(f"bad fit range [{lo}, {hi}]")
    if not table.min_positive_rank_cover(hi):
        raise ArgumentError(f"fit range [{lo}, {hi}] contains zero widths")
    if hi - lo + 1 < 20:
        raise ArgumentError("fit range must contain at least 20 ranks")
    n, v = table.plateau_points(lo, hi)
    if len(n) < unknowns:
        raise ArgumentError(f"fit range [{lo}, {hi}] covers {len(n)} plateau(s), fewer than"
                            f" the model's {unknowns} coefficients")
    return n, v


def _dot(x, y):
    return math.fsum(map(operator.mul, x, y))


def _least_squares(columns, y):
    """Least-squares coefficients of y ~ columns, and the residual RMS.

    Householder QR on lists: the columns 1, ln n, ln ln n are nearly
    collinear, so normal equations would square their condition number.
    The caller ensures at least as many points as columns.
    """
    cols = [list(c) for c in columns]
    rhs = list(y)
    p = len(cols)
    for j in range(p):
        pivot = cols[j]
        norm = math.sqrt(_dot(pivot[j:], pivot[j:]))
        alpha = -norm if pivot[j] > 0 else norm  # v[0] = pivot[j] - alpha: no cancellation
        v = pivot[j:]
        v[0] -= alpha
        vv = _dot(v, v)
        for target in cols[j:] + [rhs]:
            scale = 2.0 * _dot(v, target[j:]) / vv
            target[j:] = [t - scale * vi for t, vi in zip(target[j:], v)]
    coef = [0.0] * p
    for i in reversed(range(p)):  # R[i][k] = cols[k][i]
        coef[i] = (rhs[i] - math.fsum(cols[k][i] * coef[k] for k in range(i + 1, p))) / cols[i][i]
    resid = [yi - _dot(row, coef) for yi, row in zip(y, zip(*columns))]
    return coef, math.sqrt(_dot(resid, resid) / len(resid))


def fit_power(table, lo, hi, with_log_factor=False):
    """Fit ln d_n ~ intercept + slope * ln n (+ loglog_coeff * ln ln n).

    The slope estimates the power-decay exponent; with the log factor the
    second coefficient estimates the logarithmic correction exponent.
    """
    n, v = _fit_points(table, max(lo, 2), hi, 3 if with_log_factor else 2)
    y = [math.log(x) for x in v]
    ln_n = [math.log(x) for x in n]
    ones = [1.0] * len(n)
    if with_log_factor:
        coef, rms = _least_squares([ones, ln_n, [math.log(x) for x in ln_n]], y)
        return FitResult(model="power_log", slope=coef[1], intercept=coef[0],
                         n_lo=lo, n_hi=hi, points=len(n), residual_rms=rms,
                         loglog_coeff=coef[2])
    coef, rms = _least_squares([ones, ln_n], y)
    return FitResult(model="power", slope=coef[1], intercept=coef[0],
                     n_lo=lo, n_hi=hi, points=len(n), residual_rms=rms)


def fit_stretched(table, d, r, lo, hi):
    """Fit ln d_n ~ intercept + slope * n^(r/(2d-1)).

    For the analytic families the slope estimates the negated
    stretched-exponential decay constant.
    """
    check_dimension(d)
    if not 0 < r < math.inf:
        raise ArgumentError(f"stretch parameter r must be positive and finite, got {r}")
    n, v = _fit_points(table, lo, hi, 2)
    expo = r / (2.0 * d - 1.0)
    coef, rms = _least_squares([[1.0] * len(n), [x ** expo for x in n]],
                               [math.log(x) for x in v])
    return FitResult(model="stretched", slope=coef[1], intercept=coef[0],
                     n_lo=lo, n_hi=hi, points=len(n), residual_rms=rms,
                     stretch_exponent=expo)


# ---------------------------------------------------------------------------
# Structural bound factors (modulo the theorems' unknowable absolute constants)
# ---------------------------------------------------------------------------

class BoundSpec(namedtuple("BoundSpec", "theorem d gamma xi r p q side",
                           defaults=(0.0, 0.0, 0.0, 2.0, 2.0, ""))):
    """Which bound formula to evaluate, with its parameters.

    theorem ids: T3.4a .. T3.4i (smoothness-class width rates; the bracketed
    cases b, d, g, i need side='lower'|'upper'), T6.2-upper, T6.2-lower,
    T6.3-lower, T6.4, T6.5-upper, Tstar-R*.
    """

    __slots__ = ()


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
    check_dimension(d)

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

def grading_compare(fam: MultiplierFamily, d, n_max):
    """Compare width decay of the same multiplier function under both gradings.

    Finitely smooth families decay at the same power rate under either
    grading; analytic families decay at different stretched-exponential
    constants whose ratio is ((2d-1)!/(d!(d-1)!))^(r/(2d-1)). Both fits
    run over n in 10^3 .. min(n_max, 10^6).
    """
    lo, hi = 10**3, min(n_max, 10**6)
    report = {"family": fam.describe(), "d": d, "n_max": n_max}
    if fam.kind == "identity":
        report["verdict"] = "non-compact, no rates"
        return report
    star = l2_width_table(fam._replace(grading="star"), d, n_max)
    mx = l2_width_table(fam._replace(grading="max"), d, n_max)
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
