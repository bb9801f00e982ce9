"""Multiplier families and level-sequence plans.

A multiplier family is a scalar function lambda on levels together with a
grading that maps a bidegree (m, n) to its level: ``star`` uses m + n and
``max`` uses max(m, n). Families:

* ``sobolev(gamma)``     lambda(t) = (t (t + 2d - 2))^(-gamma/2), lambda(0) = 0
                         (needs the ambient dimension d);
* ``finite_smooth``      lambda(t) = t^(-gamma) (ln t)^(-xi) for t > 1, else 0;
* ``exp_analytic``       lambda(t) = exp(-gamma t^r);
* ``identity``           lambda == 1.

Every family is non-increasing past its first positive level.

The level-sequence machinery locates the thresholds where lambda drops by a
factor e, and budgets approximation ranks geometrically between them.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dimensions import _check_grading, cum_dim, theta
from .errors import ArgumentError, DivergenceError

FAMILY_KINDS = ("sobolev", "finite_smooth", "exp_analytic", "identity")


class MultiplierFamily(namedtuple("MultiplierFamily", "kind grading gamma xi r d")):
    """A multiplier kind and grading with the kind's parameters.

    Every construction checks the kind and the grading: _make, and so
    _replace, goes through __new__ too.
    """

    __slots__ = ()

    def __new__(cls, kind, grading, gamma=0.0, xi=0.0, r=0.0, d=0):
        _check_grading(grading)
        if kind not in FAMILY_KINDS:
            raise ArgumentError(f"unknown multiplier family kind {kind!r}")
        return super().__new__(cls, kind, grading, gamma, xi, r, d)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def describe(self):
        if self.kind == "sobolev":
            return f"sobolev(gamma={self.gamma}, d={self.d})"
        if self.kind == "finite_smooth":
            return f"finite_smooth(gamma={self.gamma}, xi={self.xi})"
        if self.kind == "exp_analytic":
            return f"exp_analytic(gamma={self.gamma}, r={self.r})"
        return "identity"


def sobolev(gamma, d, grading="star"):
    if gamma <= 0:
        raise ArgumentError(f"sobolev smoothness gamma must be positive, got {gamma}")
    if d < 2:
        raise ArgumentError(f"sobolev family needs the ambient dimension d >= 2, got {d}")
    return MultiplierFamily(kind="sobolev", grading=grading, gamma=float(gamma), d=int(d))


def finite_smooth(gamma, xi=0.0, grading="max"):
    if gamma <= 0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if xi < 0:
        raise ArgumentError(f"xi must be nonnegative, got {xi}")
    return MultiplierFamily(kind="finite_smooth", grading=grading, gamma=float(gamma), xi=float(xi))


def exp_analytic(gamma, r, grading="max"):
    if gamma <= 0 or r <= 0:
        raise ArgumentError(f"gamma and r must be positive, got ({gamma}, {r})")
    return MultiplierFamily(kind="exp_analytic", grading=grading, gamma=float(gamma), r=float(r))


def identity(grading="max"):
    return MultiplierFamily(kind="identity", grading=grading)


def parse_family(spec, d, grading):
    """Parse a family spec string: sobolev:gamma=G | fs:gamma=G,xi=X | exp:gamma=G,r=R | id.

    A key the family does not take, a repeated key and a non-finite value
    are refused, so every argument given is an argument used.
    """
    spec = spec.strip()
    name, _, argstr = spec.partition(":")
    args = {}
    if argstr:
        for piece in argstr.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            if not val:
                raise ArgumentError(f"malformed family argument {piece!r} in {spec!r}")
            if key in args:
                raise ArgumentError(f"repeated family argument {key!r} in {spec!r}")
            try:
                args[key] = float(val)
            except ValueError as exc:
                raise ArgumentError(f"non-numeric family argument {piece!r}") from exc
            if not math.isfinite(args[key]):
                raise ArgumentError(f"non-finite family argument {piece!r} in {spec!r}")
    name = name.strip().lower()
    takes = {"sobolev": ("gamma",), "fs": ("gamma", "xi"), "exp": ("gamma", "r"), "id": ()}
    if name not in takes:
        raise ArgumentError(f"unknown family spec {spec!r} (expected sobolev:/fs:/exp:/id)")
    unused = [key for key in args if key not in takes[name]]
    if unused:
        raise ArgumentError(f"family {name!r} takes no argument {unused[0]!r}"
                            f" (it takes: {', '.join(takes[name]) or 'none'})")
    try:
        if name == "sobolev":
            return sobolev(args["gamma"], d, grading)
        if name == "fs":
            return finite_smooth(args["gamma"], args.get("xi", 0.0), grading)
        if name == "exp":
            return exp_analytic(args["gamma"], args["r"], grading)
        return identity(grading)
    except KeyError as exc:
        raise ArgumentError(f"family {name!r} is missing required argument {exc}") from exc


def lambda_value(fam, t):
    """The multiplier function at level t >= 0."""
    if t < 0:
        raise ArgumentError(f"level must be nonnegative, got {t}")
    if fam.kind == "identity":
        return 1.0
    if fam.kind == "sobolev":
        if t == 0:
            return 0.0
        return (t * (t + 2 * fam.d - 2)) ** (-fam.gamma / 2.0)
    if fam.kind == "finite_smooth":
        if t <= 1:
            return 0.0
        return t ** (-fam.gamma) * math.log(t) ** (-fam.xi)
    return math.exp(-fam.gamma * t**fam.r)


def level_of(grading, m, n):
    _check_grading(grading)
    return m + n if grading == "star" else max(m, n)


def multiplier_at(fam, m, n):
    """Multiplier attached to bidegree (m, n) under the family's grading."""
    if m < 0 or n < 0:
        raise ArgumentError(f"bidegree must be nonnegative, got ({m}, {n})")
    return lambda_value(fam, level_of(fam.grading, m, n))


def _magnitude(fam, level):
    """|lambda(level)|; DivergenceError if the level is beyond float range."""
    try:
        return abs(lambda_value(fam, level))
    except OverflowError:
        raise DivergenceError(
            f"a level of {len(str(level))} digits is beyond the float range, so the multiplier"
            f" cannot be evaluated there ({fam.describe()})") from None


def _drops_below(fam, level, target):
    # A level beyond float range counts as a drop: it is past every level
    # that can be evaluated, and _magnitude rejects it if the search ends there.
    try:
        return abs(lambda_value(fam, level)) <= target
    except OverflowError:
        return True


def _next_level_gallop(fam, base, target):
    # Unbounded search (Bentley & Yao, Inf. Proc. Letters 5, 1976): double
    # the step until a level drops, then bisect; lo never drops, hi does.
    lo, step = base, 1
    while not _drops_below(fam, base + step, target):
        lo, step = base + step, 2 * step
    hi = base + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _drops_below(fam, mid, target):
            hi = mid
        else:
            lo = mid
    return hi


def build_level_sequence(fam, start, count):
    """Levels N_1 = start, N_(k+1) = least l with e * lambda(l) <= lambda(N_k).

    Requires lambda(start) > 0. Every family is non-increasing past the
    start, so each step gallops and bisects in O(log N_(k+1)) evaluations
    on Python ints; a level too large for lambda to be evaluated in floats
    raises DivergenceError. The identity family never drops and raises
    DivergenceError at once.
    """
    if count < 1:
        raise ArgumentError(f"need at least one sequence term, got {count}")
    if start < 1:
        raise ArgumentError(f"start level must be >= 1, got {start}")
    current = _magnitude(fam, start)
    if current == 0:
        raise ArgumentError(f"lambda({start}) = 0; the level sequence needs a positive start value")
    if count > 1 and fam.kind == "identity":
        raise DivergenceError(f"no level drops the multiplier by a factor e ({fam.describe()})")
    levels = [start]
    while len(levels) < count:
        levels.append(_next_level_gallop(fam, levels[-1], current / math.e))
        current = _magnitude(fam, levels[-1])
    return levels


class BetaPlan(namedtuple("BetaPlan", "d N eps Nk M mk beta theta12 kclass_ratio plateau")):
    """Rank budget across the level sequence.

    Nk holds N_1 .. N_(M+1); mk holds m_0 .. m_M with m_0 the dimension of
    the full span up to level N and m_k = floor(e^(-eps k) theta12) + 1;
    beta is their sum. kclass_ratio reports, per exponent p, the layered
    geometric sum sum_k e^(-k(1 - eps/2)) (theta_k / theta12)^(1/p), the
    empirical stand-in for the sequence-class constant.
    """

    __slots__ = ()


KCLASS_EXPONENTS = (1.0, 1.5, 2.0)


def plan_beta(fam, d, start, eps):
    """Build the full rank-budget plan for a multiplier family.

    Raises DivergenceError when a level, or a ratio theta_k / theta12 of
    the sequence-class sum, is beyond the float range.
    """
    if not eps > 0:  # NaN too
        raise ArgumentError(f"eps must be positive, got {eps}")
    first_two = build_level_sequence(fam, start, 2)
    theta12 = theta(d, first_two[0], first_two[1], fam.grading)
    M = int(math.floor(math.log(theta12) / eps))
    levels = build_level_sequence(fam, start, max(M + 1, 2))
    thetas = [theta(d, levels[k], levels[k + 1], fam.grading) for k in range(len(levels) - 1)]

    mk = [cum_dim(d, start, fam.grading)]
    mk += [int(math.floor(math.exp(-eps * k) * theta12)) + 1 for k in range(1, M + 1)]
    beta = sum(mk)

    ratios = {}
    try:
        for p in KCLASS_EXPONENTS:
            total = 0.0
            for k in range(1, M + 1):
                total += math.exp(-k * (1.0 - eps / 2.0)) * (thetas[k - 1] / theta12) ** (1.0 / p)
            ratios[p] = total
    except OverflowError:
        raise DivergenceError(
            f"the layer-dimension ratios theta_k / theta12 exceed the float range (the levels"
            f" reach {len(str(levels[-1]))} digits; {fam.describe()})") from None

    plateau = any(
        abs(lambda_value(fam, levels[k + 1])) == abs(lambda_value(fam, levels[k]))
        for k in range(len(levels) - 1))
    return BetaPlan(d=d, N=start, eps=eps, Nk=tuple(levels), M=M, mk=tuple(mk),
                    beta=beta, theta12=theta12, kclass_ratio=ratios, plateau=plateau)
