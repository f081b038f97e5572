"""No certified bound is violated anywhere in the accepted domain.

Each example is one row of one theorem for one catalog function, drawn from
the continuous domain rather than the sweep's grid: [a, b] inside [0, 1]
(every catalog function's domain), alpha in [1e-6, MAX_ALPHA], x in [a, b],
s in (0, 1] and a conjugate (p, q). The draws also step a little past the
edges of alpha, x and s, where the input must be refused as a
``ConfigError``. The ``@example`` rows are the known tight points: rows
whose margin is within roundoff of 0, and E7's and t6_147's largest
lhs/rhs.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracineq.bounds import THEOREM_IDS
from fracineq.errors import ConfigError
from fracineq.fracint import MAX_ALPHA, FracParams
from fracineq.funcatalog import catalog_names, get_entry

from at_point import rows_at


@st.composite
def _points(draw):
    """(a, b, x, alpha, s, p): mostly inside the domain, sometimes just past
    an edge of x, alpha or s."""
    a = draw(st.floats(min_value=0.0, max_value=0.9))
    b = draw(st.floats(min_value=a + 0.05, max_value=1.0))
    x = a + draw(st.floats(min_value=-0.05, max_value=1.05)) * (b - a)
    alpha = draw(
        st.floats(min_value=1e-6, max_value=1.0)
        | st.floats(min_value=1.0, max_value=1.05 * MAX_ALPHA)
    )
    s = draw(st.floats(min_value=0.0, max_value=1.05, exclude_min=True))
    p = draw(st.floats(min_value=1.01, max_value=50.0))
    return a, b, x, alpha, s, p


def _inside(a, b, x, alpha, s) -> bool:
    return a <= x <= b and 0.0 < alpha <= MAX_ALPHA and 0.0 < s <= 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    tid=st.sampled_from(THEOREM_IDS),
    name=st.sampled_from(catalog_names()),
    point=_points(),
)
# rhs is exactly 0 for a constant f, and lhs 0 or roundoff
@example(tid="E6", name="constant", point=(0.0, 1.0, 0.3, 0.5, 0.5, 2.0))
# affine f at s = 1 and x in {a, b}: margins within ~1e-13 of 0
@example(tid="E6", name="affine", point=(0.0, 1.0, 0.0, 0.5, 1.0, 2.0))
@example(tid="E6", name="affine_shift", point=(0.0, 1.0, 1.0, 1.5, 1.0, 2.0))
@example(tid="E8proof", name="affine", point=(0.0, 1.0, 1.0, 2.0, 1.0, 2.0))
@example(tid="E8proof", name="affine_shift", point=(0.0, 1.0, 0.0, 0.25, 1.0, 2.0))
# both sides exactly 3/4 and 1/2
@example(tid="E9", name="pow150", point=(0.0, 1.0, 1.0, 0.5, 1.0, 2.0))
@example(tid="E9", name="threehalf", point=(0.0, 1.0, 1.0, 0.5, 1.0, 2.0))
# E7 is sharp as alpha -> 0 and p -> 1: lhs/rhs = 1 - 5e-11 here
@example(tid="E7", name="affine", point=(0.0, 1.0, 1.0, 1e-4, 1.0, 1.01))
# the classical twins and the Hermite-Hadamard pair at affine f, s = 1
@example(tid="e13", name="affine", point=(0.0, 1.0, 0.5, 1.0, 1.0, 2.0))
@example(tid="e14", name="affine", point=(0.0, 1.0, 0.0, 1.0, 1.0, 2.0))
@example(tid="t5_146", name="affine", point=(0.0, 1.0, 1.0, 1.0, 1.0, 2.0))
# t6_147's largest lhs/rhs found, 0.9958
@example(tid="t6_147", name="pow125", point=(0.0, 1.0, 1.0, 0.5, 1.0, 1.35))
def test_asserted_rows_hold_anywhere_in_the_domain(tid, name, point):
    a, b, x, alpha, s, p = point

    def rows():
        prm = FracParams(a, b, x, alpha, s=s, p=p, q=p / (p - 1.0))
        return rows_at(tid, get_entry(name), prm)

    if not _inside(a, b, x, alpha, s):
        with pytest.raises(ConfigError):
            rows()
        return
    got = rows()
    assert got
    for row in got:
        if row.asserted:
            assert row.holds, row
        else:
            assert "not certified" in row.note, row
