"""Bisection for the monotone constraint inversions.

All constraint inversions in the toolkit (flow from pressure, flow from pump
power, nozzle diameter from htc, plenum pressure from total flow) have
residuals monotone in the unknown, so bisection is robust. The hotspot
inversions bisect one scalar at a time through ``bisect_bracket``.
``bisect_monotone`` solves for every design of a sweep at once: each array
step evaluates the residual of all designs still open, so a sweep costs
about 40 array evaluations instead of 40 scalar ones per design.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InfeasibleError

MAX_ITER = 200
REL_TOL = 1e-9
MAX_EXPANSIONS = 120


def bisect_bracket(func: Callable[[float], float], lo: float, hi: float,
                   f_lo: float, tol: float) -> float:
    """Root of func in [lo, hi], on which func changes sign; f_lo = func(lo).

    Halves the bracket at its midpoint until |func(mid)| <= tol or the
    bracket collapses to round-off; returns the midpoint after MAX_ITER.
    """
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15 * abs(mid):
            return mid
    return 0.5 * (lo + hi)


def bisect_monotone(func: Callable[[np.ndarray], np.ndarray], target: float,
                    guess) -> np.ndarray:
    """Solve func(x) = target for x > 0, func strictly increasing, for all
    rows of a vectorized func at once.

    Each row brackets its root by doubling or halving from ``guess``, then
    takes the steps of ``bisect_bracket`` until its residual normalized by
    the target magnitude drops below ``REL_TOL`` or its interval collapses.
    Rows with no bracket within MAX_EXPANSIONS steps give nan.
    """
    x = np.array(guess, dtype=float)
    if not (x > 0).all():
        raise InfeasibleError("bisect_monotone needs a positive guess")
    tol = REL_TOL * (abs(target) if target != 0 else 1.0)
    lo, hi = x.copy(), x.copy()
    f_lo = func(x) - target
    f_hi = f_lo.copy()
    result = np.where(np.abs(f_lo) <= tol, x, np.nan)
    active = np.isnan(result)

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
    active = active & (f_lo * f_hi <= 0) & (lo < hi)

    for _ in range(MAX_ITER):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        f_mid = func(mid) - target
        left = f_lo * f_mid <= 0
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
        done = active & ((np.abs(f_mid) <= tol)
                         | (hi - lo <= 1e-15 * np.abs(mid)))
        result = np.where(done, mid, result)
        active = active & ~done
    return np.where(active, 0.5 * (lo + hi), result)
