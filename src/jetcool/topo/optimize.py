"""Projected-gradient descent with move limits and a volume constraint."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..errors import SolverError, check
from .grid import DensityField
from .objective import gradient, objective
from .problem import TopoProblem
from .solver import FlowSolution, StokesOperator

MOVE_LIMIT = 0.2
MAX_ITERS_DEFAULT = 100
BACKTRACK_TRIES = 10
FLAT_REL_TOL = 1e-6
FLAT_RUN = 5


class HistoryRow(NamedTuple):
    iteration: int
    J: float
    J1: float
    J2: float
    volume: float


@dataclass
class OptimizeResult:
    eps: DensityField
    history: list[HistoryRow]
    status: str                      # converged | max_iters | stationary
    solution: FlowSolution           # flow of the last accepted iterate
    warnings: tuple[str, ...] = ()


def _project(candidate: np.ndarray, previous: np.ndarray,
             volume_fraction: float, move_limit: float) -> np.ndarray:
    """Project onto {move limit} ∩ {box} ∩ {volume}: the volume constraint is
    met by an additive shift t before the combined clip, so all three hold
    simultaneously at the returned point.

    The volume V(t) of the clipped field is piecewise linear and
    nondecreasing, with slope the share of cells strictly inside their
    bounds. Newton steps on that slope, bisecting a bracket in [-1, 0]
    whenever a step leaves it, reach its root once a step leaves every cell
    on the same side of its bounds (Held, Wolfe & Crowder 1974); t is then
    stepped down until the clipped mean is at most the volume. When the
    shift -1 still leaves the mean above the volume, the bracket opens at
    the shift that puts every cell on its lower bound; if even that breaks
    the volume, no point is feasible and ``SolverError`` is raised."""
    lo_bound = np.maximum(previous - move_limit, 0.0)
    hi_bound = np.minimum(previous + move_limit, 1.0)
    clipped = np.clip(candidate, lo_bound, hi_bound)
    if clipped.mean() <= volume_fraction + 1e-15:
        return clipped
    n = candidate.size
    lo, hi = -1.0, 0.0       # V(lo) <= volume < V(hi)
    if np.clip(candidate + lo, lo_bound, hi_bound).mean() > volume_fraction:
        lo = min(lo, float((lo_bound - candidate).min()))
    t, sides, newton = 0.0, None, False
    for _ in range(100):
        shifted = candidate + t
        vol = np.clip(shifted, lo_bound, hi_bound).mean()
        lo, hi = (lo, t) if vol > volume_fraction else (t, hi)
        below, above = shifted <= lo_bound, shifted >= hi_bound
        last, sides = sides, np.r_[below, above]
        if vol == volume_fraction or newton and np.array_equal(sides, last):
            break
        free = n - np.count_nonzero(below | above)
        t_newton = t + (volume_fraction - vol) * n / free if free else hi
        newton = lo < t_newton < hi
        t = t_newton if newton else 0.5 * (lo + hi)
        if not lo < t < hi:
            t = lo           # lo and hi are adjacent floats
            break
    out = np.clip(candidate + t, lo_bound, hi_bound)
    down = np.spacing(max(abs(t), 2.0 ** -10))
    while out.mean() > volume_fraction and t > lo:
        t, down = max(t - down, lo), 2.0 * down
        out = np.clip(candidate + t, lo_bound, hi_bound)
    if out.mean() > volume_fraction:
        raise SolverError(
            f"no design within the move limit {move_limit:g} meets the volume "
            f"fraction {volume_fraction:g}: the least mean is "
            f"{lo_bound.mean():g}")
    return out


def optimize(problem: TopoProblem, eps0: DensityField | None = None,
             max_iters: int = MAX_ITERS_DEFAULT,
             q_schedule: tuple[float, ...] = ()) -> OptimizeResult:
    """Minimize the weighted objective over the density field.

    Steps are accepted only when J decreases (halving backtracking); the box
    and volume constraints hold at every accepted iterate; terminates on
    max_iters, on |dJ|/J < 1e-6 over 5 consecutive iterations, or with a
    warning when no descent step exists at the smallest trial step.

    A non-empty q_schedule runs a penalization continuation (e.g. (0.01,
    0.1)): each stage starts from the previous stage's design, sharpening
    intermediate densities toward 0/1.
    """
    check(max_iters >= 0, "max_iters must be >= 0, got {}", max_iters)
    grid = problem.grid
    if eps0 is None:
        eps0 = DensityField.uniform(grid, problem.volume_fraction)
    check(eps0.eps.shape == (grid.nx, grid.ny), "eps0 shape {} != grid {}",
          eps0.eps.shape, (grid.nx, grid.ny))

    op = StokesOperator(grid, problem.mu)
    eps = eps0.eps
    history: list[HistoryRow] = []
    for q in q_schedule or (problem.q,):
        stage = replace(problem, q=q)
        eps, sol, status, warnings = _descend(stage, op, eps, max_iters,
                                              history)
    return OptimizeResult(eps=DensityField(eps), history=history,
                          status=status, solution=sol,
                          warnings=tuple(warnings))


def _descend(problem: TopoProblem, op: StokesOperator, eps0: np.ndarray,
             max_iters: int, history: list[HistoryRow]):
    """One continuation stage from eps0, appending its rows to history;
    returns (eps, solution, status, warnings) of the last accepted iterate."""
    offset = len(history)
    eps = _project(eps0, eps0, problem.volume_fraction, 1.0)

    def evaluate(e: np.ndarray):
        field = DensityField(e)
        sol = op.solve(problem.alpha(e).ravel())
        return field, sol, objective(problem, sol)

    field, sol, val = evaluate(eps)
    history.append(HistoryRow(offset, val.J, val.J1, val.J2,
                              float(eps.mean())))
    warnings: list[str] = []
    status = "max_iters"
    flat = 0

    for it in range(1, max_iters + 1):
        grad = gradient(problem, field, sol)
        g_max = float(np.abs(grad).max())
        if g_max == 0.0:
            status = "converged"
            break
        step = MOVE_LIMIT / g_max
        check(step < math.inf, "step {}/max|dJ/d(eps)| must be finite, got {} "
              "at q = {}", MOVE_LIMIT, step, problem.q)
        accepted = False
        for _ in range(BACKTRACK_TRIES):
            cand = _project(eps - step * grad, eps,
                            problem.volume_fraction, MOVE_LIMIT)
            if np.array_equal(cand, eps):
                step *= 0.5
                continue
            c_field, c_sol, c_val = evaluate(cand)
            if c_val.J < val.J:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # converged-with-warning: no descent step at the smallest trial
            status = "stationary"
            warnings.append("no_descent_step_available")
            break
        rel_drop = abs(val.J - c_val.J) / max(abs(val.J), 1e-300)
        eps, field, sol, val = cand, c_field, c_sol, c_val
        history.append(HistoryRow(offset + it, val.J, val.J1, val.J2,
                                  float(eps.mean())))
        flat = flat + 1 if rel_drop < FLAT_REL_TOL else 0
        if flat >= FLAT_RUN:
            status = "converged"
            break

    return eps, sol, status, warnings
