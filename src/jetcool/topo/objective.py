"""Weighted objective (dissipation + outlet-flow uniformity) and its
discrete-adjoint gradient with respect to the density field."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import SolverError
from .grid import DensityField
from .problem import TopoProblem
from .solver import FlowSolution


class ObjectiveValue(NamedTuple):
    J: float
    J1: float               # Brinkman + viscous dissipation
    J2: float               # half sum of squared outlet-flux deviations
    outlet_flows: np.ndarray


def _dissipation_parts(problem: TopoProblem, eps: DensityField,
                       solution: FlowSolution):
    """J1 split into its quadratures, for the value and the gradient.

    Computed once per solution and kept on it for the same problem and
    design objects, since the optimizer asks for both."""
    memo = solution.dissipation_memo
    if memo is not None and memo[0] is problem and memo[1] is eps:
        return memo[2]
    op = solution.op
    alpha_face = op.alpha_face @ problem.alpha(eps.eps).ravel()
    x_all = solution.x_all
    drag = 0.5 * float(np.sum(alpha_face * x_all ** 2 * op.face_area))
    gx = op.grad_op @ x_all
    viscous = 0.5 * problem.mu * float(np.sum(op.grad_w * gx ** 2))
    parts = drag + viscous, alpha_face, gx
    solution.dissipation_memo = (problem, eps, parts)
    return parts


def objective(problem: TopoProblem, eps: DensityField,
              solution: FlowSolution) -> ObjectiveValue:
    """J = (1-beta) * lambda1 * J2 + beta * lambda2 * J1.

    J1 = 1/2 int alpha |u|^2 + mu/2 int grad(u):grad(u);
    J2 = 1/2 sum_i (q_i - mean(q))^2 over the outlet fluxes q_i.
    """
    j1, *_ = _dissipation_parts(problem, eps, solution)
    q = solution.outlet_flows()
    j2 = 0.5 * float(np.sum((q - q.mean()) ** 2))
    lam1, lam2 = problem.weights()
    j = (1.0 - problem.beta) * lam1 * j2 + problem.beta * lam2 * j1
    return ObjectiveValue(J=j, J1=j1, J2=j2, outlet_flows=q)


def gradient(problem: TopoProblem, eps: DensityField,
             solution: FlowSolution) -> np.ndarray:
    """dJ/d(eps) per design cell via the discrete adjoint.

    Solves the transposed system with dJ/du as right-hand side on the
    stored factorization, for the adjoint velocity only (J has no pressure
    term, so the adjoint pressure feeds nothing), then combines the
    explicit alpha-dependence of J1 and of the drag diagonal:
    dJ/deps_c = beta*lambda2 * (1/2) alpha'(eps_c) sum_f w_fc A_f x_f^2
                - alpha'(eps_c) sum_rows w_rc lambda_row x_row.
    For the pure-dissipation all-Dirichlet case the two terms combine to the
    self-adjoint form -(1/2) alpha'(eps) |u|^2 (adjoint = -state).
    """
    op = solution.op
    if solution.residual > 1e-8:
        raise SolverError(
            f"refusing gradient on non-converged solution "
            f"(residual {solution.residual:g})")
    lam1, lam2 = problem.weights()
    beta = problem.beta
    _, alpha_face, gx = _dissipation_parts(problem, eps, solution)
    x_all = solution.x_all

    # dJ/dx_all
    d_j1 = (alpha_face * x_all * op.face_area
            + problem.mu * (op.grad_op_t @ (op.grad_w * gx)))
    q = solution.outlet_flows()
    d_j2 = op.outlet_op_t @ (q - q.mean())
    d_obj = op.scatter_t @ (beta * lam2 * d_j1 + (1.0 - beta) * lam1 * d_j2)

    nu = op.p_offset
    adjoint = solution.lu.adjoint(d_obj[:nu])

    d_alpha = problem.alpha_deriv(eps.eps).ravel()
    explicit = 0.5 * beta * lam2 * (
        op.alpha_face_t @ (x_all ** 2 * op.face_area)) * d_alpha
    implicit = (op.alpha_avg_t @ (adjoint * solution.x[:nu])) * d_alpha
    return (explicit - implicit).reshape(eps.eps.shape)
