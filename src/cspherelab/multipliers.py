"""Multiplier families and level-sequence plans.

A multiplier family is a scalar function lambda on levels together with a
grading that maps a bidegree (m, n) to its level: ``star`` uses m + n and
``max`` uses max(m, n). Families:

* ``sobolev(gamma)``     lambda(t) = (t (t + 2d - 2))^(-gamma/2), lambda(0) = 0
                         (needs the ambient dimension d);
* ``finite_smooth``      lambda(t) = t^(-gamma) (ln t)^(-xi) for t > 1, else 0;
* ``exp_analytic``       lambda(t) = exp(-gamma t^r);
* ``identity``           lambda == 1;
* ``table``              explicit level -> value map.

The level-sequence machinery locates the thresholds where lambda drops by a
factor e, and budgets approximation ranks geometrically between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dimensions import _check_grading, cum_dim, theta
from .errors import ArgumentError, DivergenceError

FAMILY_KINDS = ("sobolev", "finite_smooth", "exp_analytic", "identity", "table")

# Forward-scan cap for the level sequence.
SCAN_LIMIT = 10**6


@dataclass(frozen=True)
class MultiplierFamily:
    kind: str
    grading: str
    gamma: float = 0.0
    xi: float = 0.0
    r: float = 0.0
    d: int = 0
    table: tuple = ()

    def __post_init__(self):
        _check_grading(self.grading)
        if self.kind not in FAMILY_KINDS:
            raise ArgumentError(f"unknown multiplier family kind {self.kind!r}")

    def describe(self):
        if self.kind == "sobolev":
            return f"sobolev(gamma={self.gamma}, d={self.d})"
        if self.kind == "finite_smooth":
            return f"finite_smooth(gamma={self.gamma}, xi={self.xi})"
        if self.kind == "exp_analytic":
            return f"exp_analytic(gamma={self.gamma}, r={self.r})"
        if self.kind == "table":
            return f"table({len(self.table)} levels)"
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


def table_family(values, grading="max"):
    """Explicit multiplier table; values maps level -> finite value."""
    items = tuple(sorted((int(k), float(v)) for k, v in dict(values).items()))
    for _, v in items:
        if not math.isfinite(v):
            raise ArgumentError("table values must be finite")
    return MultiplierFamily(kind="table", grading=grading, table=items)


def parse_family(spec, d, grading):
    """Parse a family spec string: sobolev:gamma=G | fs:gamma=G,xi=X | exp:gamma=G,r=R | id."""
    spec = spec.strip()
    name, _, argstr = spec.partition(":")
    args = {}
    if argstr:
        for piece in argstr.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise ArgumentError(f"malformed family argument {piece!r} in {spec!r}")
            try:
                args[key.strip()] = float(val)
            except ValueError as exc:
                raise ArgumentError(f"non-numeric family argument {piece!r}") from exc
    name = name.strip().lower()
    try:
        if name == "sobolev":
            return sobolev(args.pop("gamma"), d, grading)
        if name == "fs":
            return finite_smooth(args.pop("gamma"), args.pop("xi", 0.0), grading)
        if name == "exp":
            return exp_analytic(args.pop("gamma"), args.pop("r"), grading)
        if name == "id":
            return identity(grading)
    except KeyError as exc:
        raise ArgumentError(f"family {name!r} is missing required argument {exc}") from exc
    raise ArgumentError(f"unknown family spec {spec!r} (expected sobolev:/fs:/exp:/id)")


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
    if fam.kind == "exp_analytic":
        return math.exp(-fam.gamma * t**fam.r)
    lookup = dict(fam.table)
    if int(t) != t or int(t) not in lookup:
        raise ArgumentError(f"table family has no value at level {t}")
    return lookup[int(t)]


def level_of(grading, m, n):
    _check_grading(grading)
    return m + n if grading == "star" else max(m, n)


def multiplier_at(fam, m, n):
    """Multiplier attached to bidegree (m, n) under the family's grading."""
    if m < 0 or n < 0:
        raise ArgumentError(f"bidegree must be nonnegative, got ({m}, {n})")
    return lambda_value(fam, level_of(fam.grading, m, n))


def build_level_sequence(fam, start, count):
    """Levels N_1 = start, N_(k+1) = least l with e * lambda(l) <= lambda(N_k).

    Requires lambda(start) > 0. Each step scans forward at most SCAN_LIMIT
    levels; exhaustion raises DivergenceError (e.g. the identity family).
    """
    if count < 1:
        raise ArgumentError(f"need at least one sequence term, got {count}")
    if start < 1:
        raise ArgumentError(f"start level must be >= 1, got {start}")
    lam_start = abs(lambda_value(fam, start))
    if lam_start == 0:
        raise ArgumentError(f"lambda({start}) = 0; the level sequence needs a positive start value")
    levels = [start]
    while len(levels) < count:
        current = abs(lambda_value(fam, levels[-1]))
        target = current / math.e
        found = None
        for l in range(levels[-1] + 1, levels[-1] + SCAN_LIMIT + 1):
            if abs(lambda_value(fam, l)) <= target:
                found = l
                break
        if found is None:
            raise DivergenceError(
                f"no level within {SCAN_LIMIT} steps of {levels[-1]} drops the multiplier"
                f" by a factor e ({fam.describe()})")
        levels.append(found)
    return levels


@dataclass(frozen=True)
class BetaPlan:
    """Rank budget across the level sequence.

    Nk holds N_1 .. N_(M+1); mk holds m_0 .. m_M with m_0 the dimension of
    the full span up to level N and m_k = floor(e^(-eps k) theta12) + 1;
    beta is their sum. kclass_ratio reports, per exponent p, the layered
    geometric sum sum_k e^(-k(1 - eps/2)) (theta_k / theta12)^(1/p), the
    empirical stand-in for the sequence-class constant.
    """

    d: int
    N: int
    eps: float
    Nk: tuple
    M: int
    mk: tuple
    beta: int
    theta12: int
    kclass_ratio: dict
    plateau: bool


KCLASS_EXPONENTS = (1.0, 1.5, 2.0)


def plan_beta(fam, d, start, eps, kclass_ps=KCLASS_EXPONENTS):
    """Build the full rank-budget plan for a multiplier family."""
    if eps <= 0:
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
    for p in kclass_ps:
        total = 0.0
        for k in range(1, M + 1):
            total += math.exp(-k * (1.0 - eps / 2.0)) * (thetas[k - 1] / theta12) ** (1.0 / p)
        ratios[p] = total

    plateau = any(
        abs(lambda_value(fam, levels[k + 1])) == abs(lambda_value(fam, levels[k]))
        for k in range(len(levels) - 1))
    return BetaPlan(d=d, N=start, eps=eps, Nk=tuple(levels), M=M, mk=tuple(mk),
                    beta=beta, theta12=theta12, kclass_ratio=ratios, plateau=plateau)
