import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcool.errors import InfeasibleError, SolverError
from jetcool.roots import (LAG_STEPS, MAX_ITER, REL_TOL, bisect_bracket,
                           bisect_monotone, bracket_root)


def test_bisect_monotone_solves_all_rows_at_once():
    coef = np.array([1.0, 4.0, 9.0, 1e-300])
    x = bisect_monotone(lambda v: coef * v * v, 9.0, guess=1.0)
    np.testing.assert_allclose(x[:3], [3.0, 1.5, 1.0], rtol=REL_TOL)
    assert x[2] == 1.0                  # the guess already meets the target
    assert np.isnan(x[3])               # root 3e150 lies beyond 2**120


def test_bisect_monotone_rejects_a_root_off_its_target():
    # the second row jumps over the target at x = 2, where its bracket
    # collapses with the residual still 1
    def func(v):
        return v + np.array([0.0, 2.0]) * (v > 2.0)

    with pytest.raises(SolverError, match="left 1 of 2 bracketed rows off "
                                          "the target 3"):
        bisect_monotone(func, 3.0, guess=1.0)


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


# -- bracket_root -----------------------------------------------------------

def _cubic(root, slope):
    """Smooth and increasing; flat at the root when the slope is 0."""
    return lambda x: (x - root) * (slope + (x - root) ** 2)


def _tanh(root, steepness):
    """Smooth and increasing, and close to a step when steep."""
    return lambda x: math.tanh(steepness * (x - root))


def _clamped(root, kinks):
    """Piecewise linear and nondecreasing, like a total of cell flows that
    clamp at their bounds; zero at the root."""
    def total(x):
        return sum(min(max(slope * (x - at), -cap), cap)
                   for at, slope, cap in kinks)
    return lambda x: total(x) - total(root)


kinks = st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(1e-3, 1e3),
                           st.floats(1e-4, 1e2)), min_size=1, max_size=12)
shapes = st.one_of(
    st.builds(lambda slope: ("cubic", slope),
              st.sampled_from([0.0, 1e-3]) | st.floats(1e-3, 1e3)),
    st.builds(lambda steep: ("tanh", steep), st.floats(1e-2, 1e4)),
    st.builds(lambda ks: ("clamped", ks), kinks))


def _bracketed(shape, root, below, above, sign):
    kind, arg = shape
    make = {"cubic": _cubic, "tanh": _tanh, "clamped": _clamped}[kind]
    inner = make(root, arg)
    calls = []

    def func(x):
        calls.append(x)
        return sign * inner(x)
    return func, root - below, root + above, calls


@settings(max_examples=300, deadline=None)
@given(shape=shapes, root=st.floats(-50.0, 50.0), below=widths,
       above=widths, sign=st.sampled_from([1.0, -1.0]),
       rel_tol=st.sampled_from([0.0, 1e-14, 1e-9, 1e-4]))
# a triple root: regula falsi alone crawls to it from one side
@example(shape=("cubic", 0.0), root=0.3, below=1.0, above=10.0, sign=1.0,
         rel_tol=0.0)
def test_bracket_root_stops_on_a_root_within_the_bisection_steps(
        shape, root, below, above, sign, rel_tol):
    """A float in [lo, hi] with |f| <= tol, or a bracket collapsed to
    round-off around it, or MAX_ITER steps; and at most LAG_STEPS + 2 more
    evaluations than bisection needs to collapse the same bracket. Brackets
    may lie on either side of 0, as ln-space brackets do."""
    func, lo, hi, calls = _bracketed(shape, root, below, above, sign)
    f_lo, f_hi = func(lo), func(hi)
    tol = rel_tol * max(abs(f_lo), abs(f_hi))
    calls.clear()
    x = bracket_root(func, lo, hi, f_lo, f_hi, tol)
    evals = len(calls)
    assert type(x) is float and lo <= x <= hi
    f_x = func(x)
    near = max(1e-15 * abs(x), np.spacing(abs(x)))
    collapsed = any(f * f_x <= 0 for f in (func(x - near), func(x + near)))
    assert abs(f_x) <= tol or collapsed or evals == MAX_ITER
    calls.clear()
    bisect_bracket(func, lo, hi, f_lo, -1.0)      # no residual stops it
    assert evals <= len(calls) + LAG_STEPS + 2


def test_bracket_root_uses_the_residuals_it_is_given():
    calls = []

    def func(x):
        calls.append(x)
        return x ** 3 - 2.0

    x = bracket_root(func, 0.0, 2.0, -2.0, 6.0, 1e-12)
    assert abs(x ** 3 - 2.0) <= 1e-12 and 0.0 not in calls and 2.0 not in calls
    assert len(calls) <= 12
    assert bracket_root(func, 0.0, 2.0, -2.0, 0.0, 0.0) == 2.0
