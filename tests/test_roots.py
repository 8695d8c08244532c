import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcool.errors import InfeasibleError
from jetcool.roots import REL_TOL, bisect_bracket, bisect_monotone


def test_bisect_monotone_solves_all_rows_at_once():
    coef = np.array([1.0, 4.0, 9.0, 1e-300])
    x = bisect_monotone(lambda v: coef * v * v, 9.0, guess=1.0)
    np.testing.assert_allclose(x[:3], [3.0, 1.5, 1.0], rtol=REL_TOL)
    assert x[2] == 1.0                  # the guess already meets the target
    assert np.isnan(x[3])               # root 3e150 lies beyond 2**120


def test_bisect_monotone_needs_a_positive_guess():
    with pytest.raises(InfeasibleError):
        bisect_monotone(lambda v: v, 1.0, guess=0.0)


finite = st.floats(-1e3, 1e3, allow_nan=False)
widths = st.floats(1e-6, 1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(finite, st.floats(1e-6, 1e3), widths, widths),
                     min_size=1, max_size=8),
       tol=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
def test_bisect_bracket_on_an_array_equals_each_row(rows, tol):
    """An array of brackets gives, row for row, the float that the same
    bracket given as floats gives."""
    root, slope, below, above = (np.array(c) for c in zip(*rows))

    def func(x, r=root, k=slope):
        d = x - r
        return d * (k + d * d)

    lo, hi = root - below, root + above
    got = bisect_bracket(func, lo, hi, func(lo), tol)
    for i in range(len(rows)):
        def row(x, i=i):
            return func(x, root[i], slope[i])
        want = bisect_bracket(row, float(lo[i]), float(hi[i]),
                              float(row(lo[i])), tol)
        assert type(want) is float
        assert got[i] == want
