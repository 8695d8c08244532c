"""Weighted objective (dissipation + outlet-flow uniformity) and its
discrete-adjoint gradient with respect to the density field."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import SolverError, check
from .grid import DensityField
from .problem import TopoProblem
from .solver import _RESIDUAL_TOL, FlowSolution


class ObjectiveValue(NamedTuple):
    J: float
    J1: float               # Brinkman + viscous dissipation
    J2: float               # half sum of squared outlet-flux deviations
    outlet_flows: np.ndarray


def objective(problem: TopoProblem, solution: FlowSolution) -> ObjectiveValue:
    """J = (1-beta) * lambda1 * J2 + beta * lambda2 * J1 of a solved flow.

    J1 = 1/2 int alpha |u|^2 + mu/2 int grad(u):grad(u), a quadrature over
    the face alpha and velocity-gradient samples the solution carries, so
    it is the dissipation of the flow as it was solved;
    J2 = 1/2 sum_i (q_i - mean(q))^2 over the outlet fluxes q_i.
    """
    op, x_all = solution.op, solution.x_all
    j1 = (0.5 * float(np.sum(solution.alpha_face * x_all ** 2 * op.face_area))
          + 0.5 * op.mu * float(np.sum(op.grad_w * solution.grad ** 2)))
    q = solution.outlet_flows()
    j2 = 0.5 * float(np.sum((q - q.mean()) ** 2))
    lam1, lam2 = problem.weights()
    j = (1.0 - problem.beta) * lam1 * j2 + problem.beta * lam2 * j1
    return ObjectiveValue(J=j, J1=j1, J2=j2, outlet_flows=q)


def gradient(problem: TopoProblem, eps: DensityField,
             solution: FlowSolution) -> np.ndarray:
    """dJ/d(eps) per design cell via the discrete adjoint, at the design eps
    that the solution's flow was solved for.

    dJ/du reads the face alpha and velocity-gradient samples the solution
    carries; alpha'(eps) comes from eps. Solves the transposed system with
    dJ/du as right-hand side on the solution's factorization, for the
    adjoint velocity only (J has no pressure term, so the adjoint pressure
    feeds nothing), then combines the explicit alpha-dependence of J1 and
    of the drag diagonal:
    dJ/deps_c = beta*lambda2 * (1/2) alpha'(eps_c) sum_f w_fc A_f x_f^2
                - alpha'(eps_c) sum_rows w_rc lambda_row x_row.
    For the pure-dissipation all-Dirichlet case the two terms combine to the
    self-adjoint form -(1/2) alpha'(eps) |u|^2 (adjoint = -state).
    """
    op = solution.op
    if solution.residual > _RESIDUAL_TOL:
        raise SolverError(
            f"refusing gradient on non-converged solution "
            f"(residual {solution.residual:g})")
    lam1, lam2 = problem.weights()
    beta = problem.beta
    x_all = solution.x_all

    # dJ/dx_all
    d_j1 = (solution.alpha_face * x_all * op.face_area
            + op.mu * (op.grad_op_t @ (op.grad_w * solution.grad)))
    q = solution.outlet_flows()
    d_j2 = op.outlet_op_t @ (q - q.mean())
    d_obj = op.scatter_t @ (beta * lam2 * d_j1 + (1.0 - beta) * lam1 * d_j2)

    nu = op.p_offset
    adjoint = solution.lu.adjoint(d_obj[:nu])

    # dJ/dalpha per cell, as an explicit and an implicit part
    explicit = 0.5 * beta * lam2 * (
        op.alpha_face_t @ (x_all ** 2 * op.face_area))
    implicit = op.alpha_avg_t @ (adjoint * solution.x[:nu])
    d_alpha = problem.alpha_deriv(eps.eps).ravel()
    grad = explicit * d_alpha - implicit * d_alpha
    # alpha' never vanishes: a zero dJ/deps where dJ/dalpha is not zero
    # has underflowed, and must not read as a stationary design
    check(grad.any() or np.array_equal(explicit, implicit),
          "dJ/d(eps) underflows to 0 at q = {}: max |d(alpha)/d(eps)| is {}",
          problem.q, float(np.abs(d_alpha).max()))
    return grad.reshape(eps.eps.shape)
