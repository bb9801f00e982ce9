"""Property tests: dimension telescoping and width-table structure.

Runs are derandomized and keep no example database, so every run draws the
same examples. Hypothesis also caches the constants it reads from local
source, at test collection; that cache goes to a temporary directory that
is removed at exit, not to .hypothesis/ in the working directory.
"""

import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from cspherelab.dimensions import GRADINGS, cum_dim, dim_layer, dim_layer_by_members  # noqa: E402
from cspherelab.multipliers import exp_analytic, finite_smooth, identity, sobolev  # noqa: E402
from cspherelab.widths import l2_width_table, table_from_values  # noqa: E402

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

dims = st.integers(min_value=2, max_value=5)
levels = st.integers(min_value=0, max_value=40)
gradings = st.sampled_from(GRADINGS)
exponents = st.floats(min_value=0.1, max_value=5.0)


@st.composite
def families(draw):
    # exp:gamma<=2,r<=1.5 stays above the float underflow for every level the
    # tables below reach (n_max <= 2000, d >= 2), so every table is defined.
    grading = draw(gradings)
    d = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(("sobolev", "finite_smooth", "exp_analytic", "identity")))
    if kind == "sobolev":
        fam = sobolev(draw(exponents), d, grading)
    elif kind == "finite_smooth":
        fam = finite_smooth(draw(exponents), draw(st.floats(min_value=0.0, max_value=2.0)), grading)
    elif kind == "exp_analytic":
        fam = exp_analytic(draw(st.floats(min_value=0.1, max_value=2.0)),
                           draw(st.floats(min_value=0.25, max_value=1.5)), grading)
    else:
        fam = identity(grading)
    return fam, d


@PROPERTY
@given(dims, levels, gradings)
def test_layer_dimensions_telescope_to_cum_dim(d, l, grading):
    assert sum(dim_layer(d, k, grading) for k in range(l + 1)) == cum_dim(d, l, grading)


@PROPERTY
@given(dims, levels, gradings)
def test_cum_dim_differences_count_layer_members(d, l, grading):
    assert cum_dim(d, l, grading) - cum_dim(d, l - 1, grading) == dim_layer_by_members(d, l, grading)


@PROPERTY
@given(families(), st.integers(min_value=1, max_value=2000))
def test_width_table_runs_decrease_and_cover_n_max(family, n_max):
    fam, d = family
    table = l2_width_table(fam, d, n_max)
    values = [v for v, _ in table.runs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(count > 0 for _, count in table.runs)
    assert table.size == n_max + 1


@PROPERTY
@given(families(), st.integers(min_value=1, max_value=2000))
def test_width_table_survives_dense_round_trip(family, n_max):
    fam, d = family
    table = l2_width_table(fam, d, n_max)
    assert table_from_values(table.values()).runs == table.runs
