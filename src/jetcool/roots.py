"""Bracketed roots for the monotone constraint inversions.

The flow of a sweep design at a pressure or pump-power target, and the
plenum pressure of a hotspot plan at its total flow, have residuals
monotone in the unknown, so a bracket that changes sign holds the root.
``bisect_bracket`` is the one bisection loop, over a float bracket or an
array of brackets. ``bisect_monotone`` brackets every design of a sweep by
expansion and bisects all brackets at once, so a sweep costs about 40 array
evaluations instead of 40 scalar ones per design. ``bracket_root`` solves
one scalar bracket by safeguarded regula falsi, for a func that is costly to
evaluate: each evaluation of a hotspot plan's total flow solves every cell.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InfeasibleError, SolverError

MAX_ITER = 200
REL_TOL = 1e-9
MAX_EXPANSIONS = 120
#: halvings by which the bracket of ``bracket_root`` may lag a bisection's
LAG_STEPS = 8


def bisect_bracket(func: Callable, lo, hi, f_lo, tol: float):
    """Root of func in [lo, hi], on which func changes sign; f_lo = func(lo).

    Floats, or arrays of brackets for a vectorized func. Each element halves
    its bracket until |func(mid)| <= tol or it collapses to round-off, and
    gives its midpoint after MAX_ITER. A float bracket gives a float root.
    """
    lo, hi, f_lo = (np.array(x, dtype=float) for x in (lo, hi, f_lo))
    root = np.full(lo.shape, np.nan)
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        left = f_lo * f_mid <= 0
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
        done = active & ((np.abs(f_mid) <= tol)
                         | (hi - lo <= 1e-15 * np.abs(mid)))
        root = np.where(done, mid, root)
        active = active & ~done
        if not active.any():
            break
    root = np.where(active, 0.5 * (lo + hi), root)
    return float(root) if root.ndim == 0 else root


def bracket_root(func: Callable[[float], float], lo: float, hi: float,
                 f_lo: float, f_hi: float, tol: float) -> float:
    """Root of a scalar func in [lo, hi], on which it changes sign, given
    f_lo = func(lo) and f_hi = func(hi).

    Regula falsi with the Anderson-Bjorck scaling of the end it keeps
    (Anderson & Bjorck 1973, BIT 13), so that end cannot stall the bracket.
    A step takes the midpoint instead when the secant point leaves the open
    bracket, after two steps in a row that halved neither the bracket nor
    |func|, or when the bracket is wider than 2**LAG_STEPS times what as
    many halvings would leave. So it takes at most LAG_STEPS + 2 steps more
    than a bisection needs to shrink the bracket to round-off. It stops as
    ``bisect_bracket`` does: at a point with |func| <= tol, when the bracket
    collapses to round-off, or after MAX_ITER steps, at its latest point.
    """
    if abs(f_lo) <= tol:
        return float(lo)
    if abs(f_hi) <= tol:
        return float(hi)
    # x is the latest point; y the far end of the bracket, whose residual
    # fy is scaled down each time y is kept
    x, fx, y, fy = float(hi), float(f_hi), float(lo), float(f_lo)
    width, slow = abs(x - y), 0
    limit = width * 2.0 ** LAG_STEPS
    for _ in range(MAX_ITER):
        a, b = min(x, y), max(x, y)
        t = x - fx * (x - y) / (fx - fy)
        secant = slow < 2 and b - a <= limit and a < t < b
        if not secant:
            t = 0.5 * (a + b)
            if not a < t < b:        # a and b are adjacent floats
                break
        ft = float(func(t))
        f_prev = fx
        if (ft < 0) != (fx < 0):
            y, fy = x, fx
        elif secant:
            m = 1.0 - ft / fx
            fy *= m if m > 0 else 0.5
        x, fx = t, ft
        if abs(fx) <= tol or abs(x - y) <= 1e-15 * abs(x):
            break
        halved = abs(x - y) <= 0.5 * width or abs(fx) <= 0.5 * abs(f_prev)
        slow = 0 if halved else slow + 1
        width, limit = abs(x - y), 0.5 * limit
    return x


def bisect_monotone(func: Callable[[np.ndarray], np.ndarray], target: float,
                    guess) -> np.ndarray:
    """Solve func(x) = target for x > 0, func strictly increasing, for all
    rows of a vectorized func at once.

    Each row brackets its root by doubling or halving from ``guess``; then
    ``bisect_bracket`` takes all brackets at once, to a residual below
    ``REL_TOL`` of the target magnitude; a bracketed row left above it
    raises ``SolverError``. Rows with no bracket within MAX_EXPANSIONS steps
    give nan.
    """
    x = np.array(guess, dtype=float)
    if not (x > 0).all():
        raise InfeasibleError("bisect_monotone needs a positive guess")
    tol = REL_TOL * (abs(target) if target != 0 else 1.0)
    lo, hi = x.copy(), x.copy()
    f_lo = func(x) - target
    f_hi = f_lo.copy()
    active = ~(np.abs(f_lo) <= tol)

    # grow the side of the bracket that still misses the target; a product
    # of residuals that overflows keeps its sign
    with np.errstate(over="ignore"):
        for _ in range(MAX_EXPANSIONS):
            grow = active & ~((f_lo * f_hi <= 0) & (lo < hi))
            if not grow.any():
                break
            up = grow & (f_hi < 0)
            down = grow & ~up
            hi = np.where(up, 2.0 * hi, hi)
            lo = np.where(down, 0.5 * lo, lo)
            f_hi = np.where(up, func(hi) - target, f_hi)
            f_lo = np.where(down, func(lo) - target, f_lo)
        bracketed = active & (f_lo * f_hi <= 0) & (lo < hi)
    result = np.where(active, np.nan, x)
    if bracketed.any():
        # a row without a bracket collapses onto x, which stops it at once
        lo, hi = np.where(bracketed, lo, x), np.where(bracketed, hi, x)
        root = bisect_bracket(lambda v: func(v) - target, lo, hi, f_lo, tol)
        # a bracket can collapse, or run out of steps, off the target
        missed = bracketed & ~(np.abs(func(root) - target) <= tol)
        if missed.any():
            raise SolverError(f"bisection left {int(missed.sum())} of "
                              f"{int(bracketed.sum())} bracketed rows off "
                              f"the target {target:g} by more than {tol:g}")
        result = np.where(bracketed, root, result)
    return result
