"""Bisection for the monotone constraint inversions.

The flow of a sweep design at a pressure or pump-power target, and the
plenum pressure of a hotspot plan at its total flow, have residuals
monotone in the unknown, so bisection is robust. ``bisect_bracket`` is the
one bisection loop, over a float bracket or an array of brackets.
``bisect_monotone`` brackets every design of a sweep by expansion and
bisects all brackets at once, so a sweep costs about 40 array evaluations
instead of 40 scalar ones per design.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InfeasibleError

MAX_ITER = 200
REL_TOL = 1e-9
MAX_EXPANSIONS = 120


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


def bisect_monotone(func: Callable[[np.ndarray], np.ndarray], target: float,
                    guess) -> np.ndarray:
    """Solve func(x) = target for x > 0, func strictly increasing, for all
    rows of a vectorized func at once.

    Each row brackets its root by doubling or halving from ``guess``; then
    ``bisect_bracket`` takes all brackets at once, to a residual below
    ``REL_TOL`` of the target magnitude. Rows with no bracket within
    MAX_EXPANSIONS steps give nan.
    """
    x = np.array(guess, dtype=float)
    if not (x > 0).all():
        raise InfeasibleError("bisect_monotone needs a positive guess")
    tol = REL_TOL * (abs(target) if target != 0 else 1.0)
    lo, hi = x.copy(), x.copy()
    f_lo = func(x) - target
    f_hi = f_lo.copy()
    active = ~(np.abs(f_lo) <= tol)

    # grow the side of the bracket that still misses the target
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
        result = np.where(bracketed, root, result)
    return result
