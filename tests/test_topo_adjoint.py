"""Discrete-adjoint gradients validated against central finite differences."""

import numpy as np
import pytest

from jetcool.errors import SolverError
from jetcool.props import water
from jetcool.topo import (DensityField, Grid2D, Segment, TopoProblem,
                          gradient, objective)
from jetcool.topo.solver import StokesOperator

FD_STEP = 1e-6


def two_outlet_grid(nx, ny):
    q = nx // 8
    return Grid2D(nx, ny, 2e-3 / nx, 1e-3 / ny, [
        Segment("left", 0, ny, "inlet", "parabolic", 0.01),
        Segment("bottom", q, 3 * q, "outlet_pressure"),
        Segment("bottom", 5 * q, 7 * q, "outlet_pressure")])


def fd_gradient(problem, op, eps0, h=FD_STEP):
    def J_of(e):
        sol = op.solve(problem.alpha(e).ravel())
        return objective(problem, sol).J

    g = np.zeros_like(eps0)
    for i in range(eps0.shape[0]):
        for j in range(eps0.shape[1]):
            up, dn = eps0.copy(), eps0.copy()
            up[i, j] += h
            dn[i, j] -= h
            g[i, j] = (J_of(up) - J_of(dn)) / (2 * h)
    return g


def check(beta, nx, ny, tol, seed=0):
    grid = two_outlet_grid(nx, ny)
    problem = TopoProblem(grid=grid, fluid=water(), beta=beta,
                          volume_fraction=1.0)
    rng = np.random.RandomState(seed)
    eps0 = rng.uniform(0.2, 0.8, (nx, ny))
    op = StokesOperator(grid, problem.mu)
    sol = op.solve(problem.alpha(eps0).ravel())
    g = gradient(problem, DensityField(eps0), sol)
    g_fd = fd_gradient(problem, op, eps0)
    err = np.abs(g - g_fd).max() / np.abs(g_fd).max()
    assert err < tol, f"beta={beta}: {err:g} >= {tol:g}"


def test_dissipation_gradient_8x4():
    check(beta=1.0, nx=8, ny=4, tol=1e-4)


def test_uniformity_gradient_8x4():
    check(beta=0.0, nx=8, ny=4, tol=1e-3)


def test_mixed_gradient_8x4():
    check(beta=0.5, nx=8, ny=4, tol=1e-3)


def test_dissipation_gradient_16x8():
    check(beta=1.0, nx=16, ny=8, tol=1e-4)


def test_uniformity_gradient_16x8():
    check(beta=0.0, nx=16, ny=8, tol=1e-3)


def test_gradient_mirror_symmetry():
    """Symmetric geometry and constant density give a mirror-symmetric field.

    The dissipation gradient is symmetric to solver precision; once the
    flux-uniformity term joins in, its value at the symmetric point is pure
    roundoff amplified by the 1/q_in^2 normalization, so that combination is
    only held to a loose 1e-6.
    """
    nx, ny = 8, 4
    grid = Grid2D(nx, ny, 2e-3 / nx, 1e-3 / ny, [
        Segment("top", 3, 5, "inlet", "constant", 0.01),
        Segment("bottom", 0, 2, "outlet_pressure"),
        Segment("bottom", 6, 8, "outlet_pressure")])
    eps = np.full((nx, ny), 0.6)
    for beta, tol in ((1.0, 1e-10), (0.5, 1e-6)):
        problem = TopoProblem(grid=grid, fluid=water(), beta=beta,
                              volume_fraction=1.0)
        op = StokesOperator(grid, problem.mu)
        sol = op.solve(problem.alpha(eps).ravel())
        g = gradient(problem, DensityField(eps), sol)
        asym = np.abs(g - g[::-1, :]).max() / np.abs(g).max()
        assert asym < tol, f"beta={beta}: {asym:g}"


def test_gradient_refuses_bad_solution():
    grid = two_outlet_grid(8, 4)
    problem = TopoProblem(grid=grid, fluid=water(), beta=0.5,
                          volume_fraction=1.0)
    op = StokesOperator(grid, problem.mu)
    eps = np.full((8, 4), 0.5)
    sol = op.solve(problem.alpha(eps).ravel())
    sol.residual = 1.0    # simulate a non-converged state
    with pytest.raises(SolverError):
        gradient(problem, DensityField(eps), sol)


class Unusable:
    """Stands in for an operator that must no longer be applied."""

    def __matmul__(self, other):
        raise AssertionError("operator applied after the solve")

    def __getattr__(self, name):
        raise AssertionError(f"operator attribute {name} used after the solve")


def test_objective_and_gradient_read_the_solution(monkeypatch):
    # each flow solution carries its face alpha and velocity-gradient
    # samples, so neither the value nor the gradient applies the operators
    # that formed them again
    grid = two_outlet_grid(8, 4)
    problem = TopoProblem(grid=grid, fluid=water(), beta=0.5,
                          volume_fraction=1.0)
    op = StokesOperator(grid, problem.mu)
    eps = DensityField(np.random.RandomState(1).uniform(0.2, 0.8, (8, 4)))
    alpha = problem.alpha(eps.eps).ravel()
    ref = op.solve(alpha)
    want, want_grad = objective(problem, ref), gradient(problem, eps, ref)
    sol = op.solve(alpha)
    monkeypatch.setattr(op, "grad_op", Unusable())
    monkeypatch.setattr(op, "alpha_face", Unusable())
    got = objective(problem, sol)
    assert (got.J, got.J1, got.J2) == (want.J, want.J1, want.J2)
    np.testing.assert_array_equal(got.outlet_flows, want.outlet_flows)
    np.testing.assert_array_equal(gradient(problem, eps, sol), want_grad)


def test_literal_alpha_assignment():
    """The reproduction flag swaps the interpolation endpoints."""
    grid = two_outlet_grid(8, 4)
    flipped = TopoProblem(grid=grid, fluid=water(), alpha_assignment="literal")
    normal = TopoProblem(grid=grid, fluid=water())
    assert flipped.alpha_bounds() == normal.alpha_bounds()[::-1]
    # consistent reading: eps = 1 gets the negligible fluid drag
    assert normal.alpha(1.0) < normal.alpha(0.0)
    assert flipped.alpha(1.0) > flipped.alpha(0.0)
