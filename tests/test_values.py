"""The package's value classes: immutable records with keyword construction, defaults and repr."""

import pickle

import pytest

from cspherelab.basis import HarmonicBasis
from cspherelab.dimensions import LayerSummary
from cspherelab.errors import ArgumentError
from cspherelab.levy import LevyBounds, LevyEstimate, LevyProblem, RealBasisMember
from cspherelab.multipliers import BetaPlan, MultiplierFamily, finite_smooth
from cspherelab.widths import BoundSpec, FitResult, WidthTable, grading_compare

FAMILY = MultiplierFamily(kind="finite_smooth", grading="max", gamma=3.0)

# (class, every field given by keyword, the defaults of the fields that have one)
VALUE_CLASSES = [
    (LayerSummary, dict(l=2, members=((0, 2), (1, 1)), a_l=2, d_l=19, cum_dim=27), {}),
    (HarmonicBasis, dict(d=2, m=1, n=0, vectors=("v",), sq_norms=(1,)), {}),
    (MultiplierFamily, dict(kind="sobolev", grading="star", gamma=2.0, xi=0.5, r=1.0, d=3),
     dict(gamma=0.0, xi=0.0, r=0.0, d=0)),
    (BetaPlan, dict(d=2, N=3, eps=0.5, Nk=(3, 5), M=1, mk=(16, 5), beta=21, theta12=9,
                    kclass_ratio={1.0: 0.5}, plateau=False), {}),
    (WidthTable, dict(runs=((1.0, 3),), warning="w"), dict(warning="")),
    (FitResult, dict(model="power", slope=-1.5, intercept=0.25, n_lo=10, n_hi=99, points=7,
                     residual_rms=1e-3, loglog_coeff=0.5, stretch_exponent=0.2),
     dict(loglog_coeff=None, stretch_exponent=None)),
    (BoundSpec, dict(theorem="T6.4", d=2, gamma=1.0, xi=0.5, r=1.0, p=4.0, q=3.0, side="lower"),
     dict(gamma=0.0, xi=0.0, r=0.0, p=2.0, q=2.0, side="")),
    (RealBasisMember, dict(bidegree=(1, 2), index=3, part="im"), {}),
    (LevyProblem, dict(d=2, m1=0, m2=3, fam=FAMILY, p=4.0), {}),
    (LevyEstimate, dict(value=0.5, stderr=0.01, stderr_outer=0.006, stderr_cloud=0.008,
                        sphere_samples=1000, omega_samples=50000), {}),
    (LevyBounds, dict(case="a", lower=0.1, upper=0.9, upper_known=False, inconsistent=False,
                      monotone="non-increasing"), {}),
]
IDS = [cls.__name__ for cls, _, _ in VALUE_CLASSES]


@pytest.mark.parametrize("cls, fields, defaults", VALUE_CLASSES, ids=IDS)
def test_keyword_construction_and_repr(cls, fields, defaults):
    value = cls(**fields)
    for name, given in fields.items():
        assert getattr(value, name) == given
    assert cls(*fields.values()) == value
    listed = ", ".join(f"{name}={given!r}" for name, given in fields.items())
    assert repr(value) == f"{cls.__name__}({listed})"


@pytest.mark.parametrize("cls, fields, defaults", VALUE_CLASSES, ids=IDS)
def test_defaults(cls, fields, defaults):
    required = {name: given for name, given in fields.items() if name not in defaults}
    value = cls(**required)
    for name, default in defaults.items():
        assert getattr(value, name) == default
    with pytest.raises(TypeError):
        cls(**{name: given for name, given in list(required.items())[1:]})


@pytest.mark.parametrize("cls, fields, defaults", VALUE_CLASSES, ids=IDS)
def test_immutable(cls, fields, defaults):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, defaults", VALUE_CLASSES, ids=IDS)
def test_equality_and_hash(cls, fields, defaults):
    value, twin = cls(**fields), cls(**fields)
    assert value == twin
    if cls is not BetaPlan:  # kclass_ratio is a dict, so a BetaPlan has no hash
        assert hash(value) == hash(twin)
    last, given = list(fields.items())[-1]
    assert value != cls(**{**fields, last: (given, "other")})


@pytest.mark.parametrize("construct", [
    lambda: MultiplierFamily("table", "max"),
    lambda: MultiplierFamily(kind="sobolev", grading="sum"),
    lambda: MultiplierFamily._make(("table", "max", 0.0, 0.0, 0.0, 0)),
    lambda: FAMILY._replace(grading="sum"),
    lambda: FAMILY._replace(kind="table"),
    lambda: pickle.loads(pickle.dumps(FAMILY).replace(b"finite_smooth", b"finite_smoots")),
], ids=["positional", "keyword", "_make", "_replace-grading", "_replace-kind", "unpickle"])
def test_family_checks_kind_and_grading_on_every_construction(construct):
    with pytest.raises(ArgumentError, match="unknown multiplier family kind|grading must be one of"):
        construct()


def test_family_replace_keeps_its_parameters():
    fam = finite_smooth(3, 0.5, "max")
    star = fam._replace(grading="star")
    assert type(star) is MultiplierFamily
    assert star == MultiplierFamily("finite_smooth", "star", 3.0, 0.5, 0.0, 0)


def test_grading_compare_checks_the_families_it_builds():
    # A family built around __new__ (a bad kind) is refused when
    # grading_compare builds its star and max copies of it.
    bad = tuple.__new__(MultiplierFamily, ("bogus", "max", 3.0, 0.0, 0.0, 0))
    with pytest.raises(ArgumentError, match="unknown multiplier family kind 'bogus'"):
        grading_compare(bad, 2, 2000)
