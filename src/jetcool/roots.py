"""Bisection for the monotone scalar solves.

All constraint inversions in the toolkit (flow from pressure, flow from pump
power, nozzle diameter from htc, plenum pressure from total flow) have
residuals monotone in the unknown, so plain bisection is robust; speed is
irrelevant at these sizes. Each of them bisects through ``bisect_bracket``;
``bisect_monotone`` first finds the bracket by expansion from a guess.
"""

from __future__ import annotations

from typing import Callable

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


def bisect_monotone(func: Callable[[float], float], target: float,
                    guess: float, what: str = "target") -> float:
    """Solve func(x) = target for x > 0 with func strictly monotone.

    Brackets by repeated doubling/halving from ``guess``, then bisects until
    the residual normalized by the target magnitude drops below ``REL_TOL``
    (absolute tolerance on the normalized residual) or the interval
    collapses. Raises InfeasibleError when no bracket exists within the
    expansion budget.
    """
    if guess <= 0:
        raise InfeasibleError(f"{what}: need a positive initial guess")
    scale = abs(target) if target != 0 else 1.0

    f_guess = func(guess)
    if abs(f_guess - target) <= REL_TOL * scale:
        return guess
    probe = func(guess * 1.25)
    increasing = probe >= f_guess

    # grow the side of the bracket that still misses the target
    lo, hi = guess, guess
    f_lo = f_hi = f_guess
    for _ in range(MAX_EXPANSIONS):
        if (f_lo - target) * (f_hi - target) <= 0 and lo < hi:
            break
        need_higher_x = (f_hi < target) == increasing
        if need_higher_x:
            hi *= 2.0
            f_hi = func(hi)
        else:
            lo *= 0.5
            f_lo = func(lo)
    else:
        raise InfeasibleError(f"{what}: could not bracket the target")

    return bisect_bracket(lambda x: func(x) - target, lo, hi, f_lo - target,
                          REL_TOL * scale)
