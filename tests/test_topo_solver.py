from unittest import mock

import numpy as np
import pytest

from jetcool.errors import InvalidInputError, SolverError
from jetcool.props import water
from jetcool.topo import (DensityField, Grid2D, Segment, StokesOperator,
                          default_alpha_bounds, inverse_permeability, solver,
                          solve_flow)
from test_topo_operators import GRIDS as LAYOUTS


def channel(ny, aspect=4, u_mean=0.01, ly=1e-3):
    nx = aspect * ny
    return Grid2D(nx, ny, aspect * ly / nx, ly / ny, [
        Segment("left", 0, ny, "inlet", "parabolic", u_mean),
        Segment("right", 0, ny, "outlet_pressure")])


class TestInversePermeability:
    def test_endpoints(self):
        a_max, a_min = default_alpha_bounds(1e-3, 0.01)
        assert inverse_permeability(1.0, 0.01, a_max, a_min) == pytest.approx(
            a_min, rel=1e-12)
        assert inverse_permeability(0.0, 0.01, a_max, a_min) == pytest.approx(
            a_max, rel=1e-12)

    def test_midpoint_fluid_bias(self):
        # eps = 0.5 at q = 0.01 sits 99% of the way toward the fluid value
        a_max, a_min = 10.0, 1.0
        value = inverse_permeability(0.5, 0.01, a_max, a_min)
        factor = 0.5 * 1.01 / 0.51
        assert value == pytest.approx(a_max + factor * (a_min - a_max),
                                      rel=1e-12)
        assert factor == pytest.approx(0.9901960784313726, rel=1e-12)

    def test_bounds_scale_with_domain(self):
        mu = 1.3e-3
        a_max, a_min = default_alpha_bounds(mu, 1.0)
        assert a_max == pytest.approx(2.5 * mu / 0.01 ** 2, rel=1e-12)
        assert a_min == pytest.approx(2.5 * mu / 100.0 ** 2, rel=1e-12)
        a_max_mm, _ = default_alpha_bounds(mu, 1e-2)
        assert a_max_mm == pytest.approx(a_max * 1e4, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            inverse_permeability(1.5, 0.01, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            inverse_permeability(0.5, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            inverse_permeability(np.nan, 0.01, 1.0, 0.0)

    @pytest.mark.parametrize("mu, length, message", [
        (np.nan, 0.01, "viscosity"), (np.inf, 0.01, "viscosity"),
        (0.0, 0.01, "viscosity"), (1e-3, np.nan, "length_scale"),
        (1e-3, 0.0, "length_scale")])
    def test_bounds_reject_bad_arguments(self, mu, length, message):
        with pytest.raises(InvalidInputError, match=message):
            default_alpha_bounds(mu, length)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, 0.0])
    def test_operator_rejects_bad_viscosity(self, mu):
        with pytest.raises(InvalidInputError, match="viscosity"):
            StokesOperator(channel(4), mu)


class TestPoiseuille:
    def test_profile_matches_analytic(self):
        ny = 16
        grid = channel(ny)
        sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
        y = (np.arange(ny) + 0.5) * grid.dy
        u_exact = 6 * 0.01 * y * (1e-3 - y) / (1e-3) ** 2
        err = np.abs(sol.u - u_exact[None, :]).max() / u_exact.max()
        assert err < 5e-3
        # peak matches the analytic profile sampled at the staggered nodes
        # (just under 1.5x the mean: nodes straddle the centerline)
        assert sol.u[grid.nx // 2, :].max() == pytest.approx(u_exact.max(),
                                                             rel=5e-3)
        assert u_exact.max() < 1.5 * 0.01

    def test_convergence_order(self):
        errs = []
        for ny in (8, 16, 32):
            grid = channel(ny)
            sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
            y = (np.arange(ny) + 0.5) * grid.dy
            u_exact = 6 * 0.01 * y * (1e-3 - y) / (1e-3) ** 2
            errs.append(np.sqrt(((sol.u - u_exact[None, :]) ** 2).mean())
                        / u_exact.max())
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert all(abs(o - 2.0) <= 0.3 for o in orders)

    def test_linear_pressure_gradient(self):
        ny = 16
        grid = channel(ny)
        sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
        p_mid = sol.p[:, ny // 2]
        dpdx = np.diff(p_mid) / grid.dx
        interior = dpdx[2:-2]
        assert np.ptp(interior) / abs(interior.mean()) < 1e-2
        # analytic gradient -12 mu u_mean / h^2
        expected = -12 * water().viscosity * 0.01 / (1e-3) ** 2
        assert interior.mean() == pytest.approx(expected, rel=1e-2)


class TestMassAndBlockage:
    def test_mass_conservation_every_solve(self):
        rng = np.random.RandomState(5)
        grid = channel(8)
        for _ in range(5):
            eps = DensityField(rng.uniform(0.1, 1.0, (grid.nx, grid.ny)))
            sol = solve_flow(grid, eps, water())
            assert sol.mass_imbalance() < 1e-8
            flows = sol.outlet_flows()
            assert flows.sum() == pytest.approx(sol.op.inlet_flux, rel=1e-8)

    def test_solid_domain_blocks_far_field(self):
        ny, nx = 16, 64
        grid = Grid2D(nx, ny, 4e-3 / nx, 1e-3 / ny, [
            Segment("left", 0, ny // 2, "inlet", "constant", 0.01),
            Segment("left", ny // 2, ny, "outlet_pressure")])
        sol = solve_flow(grid, DensityField.uniform(grid, 0.0), water())
        far_u = np.abs(sol.u[3 * nx // 4:, :]).max()
        far_v = np.abs(sol.v[3 * nx // 4:, :]).max()
        assert max(far_u, far_v) <= 1e-3 * 0.01

    def test_zero_inlet_zero_field(self):
        ny = 8
        grid = Grid2D(16, ny, 1e-4, 1e-4, [
            Segment("left", 0, ny, "inlet", "constant", 0.0),
            Segment("right", 0, ny, "outlet_pressure")])
        sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.v).max() == 0.0


class TestBoundaryValidation:
    def test_needs_inlet_and_outlet(self):
        with pytest.raises(InvalidInputError):
            Grid2D(8, 8, 1e-4, 1e-4, [
                Segment("left", 0, 8, "inlet", "constant", 0.01)])
        with pytest.raises(InvalidInputError):
            Grid2D(8, 8, 1e-4, 1e-4, [
                Segment("right", 0, 8, "outlet_pressure")])
        segments = [Segment("left", 0, 8, "inlet", "constant", 0.01),
                    Segment("right", 0, 8, "outlet_pressure")]
        for dx, dy in ((np.nan, 1e-4), (1e-4, np.nan)):
            with pytest.raises(InvalidInputError):
                Grid2D(8, 8, dx, dy, segments)

    def test_incompatible_velocity_fluxes(self):
        with pytest.raises(InvalidInputError):
            Grid2D(8, 8, 1e-4, 1e-4, [
                Segment("left", 0, 8, "inlet", "constant", 0.01),
                Segment("right", 0, 8, "outlet_velocity", "constant", 0.005)])
        with pytest.raises(InvalidInputError):
            Segment("left", 0, 8, "inlet", "constant", np.nan)

    def test_balanced_all_velocity_boundaries(self):
        ny = 8
        grid = Grid2D(16, ny, 1e-4, 1e-4, [
            Segment("left", 0, ny, "inlet", "constant", 0.01),
            Segment("right", 0, ny, "outlet_velocity", "constant", 0.01)])
        sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
        assert sol.mass_imbalance() < 1e-8
        # pressure is anchored at the pinned cell
        assert sol.p[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            Grid2D(8, 8, 1e-4, 1e-4, [
                Segment("left", 0, 5, "inlet", "constant", 0.01),
                Segment("left", 3, 8, "outlet_pressure")])

    def test_eps_shape_checked(self):
        grid = channel(8)
        with pytest.raises(InvalidInputError):
            solve_flow(grid, DensityField(np.ones((3, 3))), water())
        with pytest.raises(InvalidInputError):
            DensityField(np.full((grid.nx, grid.ny), np.nan))


@pytest.mark.parametrize("bad, message", [
    (np.nan, "finite"), (np.inf, "finite"), (-1.0, ">= 0")])
def test_drag_values_validated(bad, message):
    grid = channel(8)
    op = StokesOperator(grid, water().viscosity)
    alpha = np.ones(grid.n_cells)
    alpha[5] = bad
    with pytest.raises(InvalidInputError, match=message):
        op.solve(alpha)


def test_drag_length_validated():
    grid = channel(8)
    op = StokesOperator(grid, water().viscosity)
    for size in (grid.n_cells - 1, grid.n_cells + grid.ny):
        with pytest.raises(InvalidInputError, match="cells"):
            op.solve(np.ones(size))


@pytest.mark.parametrize("score_max, path", [(np.inf, "band"),
                                             (0.0, "splu")])
def test_singular_system_is_a_solver_error(score_max, path):
    grid = channel(8)
    with mock.patch.object(solver, "BAND_SCORE_MAX", score_max):
        op = StokesOperator(grid, water().viscosity)
    assert (op.null_space.band is not None) == (path == "band")
    # without its viscous part and without drag the reduced system is zero
    op.null_space.base[:] = 0.0
    with pytest.raises(SolverError, match="singular Stokes-Brinkman system"):
        op.solve(np.zeros(grid.n_cells))


def test_poisson_solves_per_state_and_adjoint():
    # u_p is formed once per grid, and the adjoint needs no pressure: a state
    # solve recovers only its own pressure
    grid = channel(8)
    op = StokesOperator(grid, water().viscosity)
    poisson = op.null_space.poisson = mock.Mock(wraps=op.null_space.poisson)
    sol = op.solve(np.ones(grid.n_cells))
    assert poisson.solve.call_count == 1
    sol.lu.adjoint(np.ones(op.p_offset))
    assert poisson.solve.call_count == 1


@pytest.mark.parametrize("score_max, path", [(np.inf, "band"),
                                             (0.0, "splu")])
def test_interior_solves_per_factor_state_and_adjoint(score_max, path):
    # factor solves R_ii against all border columns at once and keeps the
    # result, so that state() and adjoint() each make one interior solve
    grid = manifold_grid()
    with mock.patch.object(solver, "BAND_SCORE_MAX", score_max):
        op = StokesOperator(grid, water().viscosity)
    ns = op.null_space
    assert (ns.band is not None) == (path == "band") and ns.n_border == 3
    factor_interior = ns.factor_interior
    made = []

    def spy(values):
        made.append(mock.Mock(wraps=factor_interior(values)))
        return made[-1]

    with mock.patch.object(ns, "factor_interior", spy):
        sol = op.solve(np.ones(grid.n_cells))
    interior, = made
    factor_call, state_call = interior.solve.call_args_list
    assert factor_call.args[0].shape == (ns.n_interior, ns.n_border)
    assert state_call.args[0].shape == (ns.n_interior,)
    assert state_call.kwargs.get("trans", "N") == "N"
    sol.lu.adjoint(np.ones(op.p_offset))
    assert interior.solve.call_count == 3
    adjoint_call = interior.solve.call_args
    assert adjoint_call.args[0].shape == (ns.n_interior,)
    assert adjoint_call.kwargs["trans"] == "T"


def manifold_grid():
    nx, ny = 100, 30
    return Grid2D(nx, ny, 10e-3 / nx, 2e-3 / ny, [
        Segment("left", 0, ny, "inlet", "constant", 0.02)] + [
        Segment("bottom", c - 3, c + 3, "outlet_pressure")
        for c in (20, 40, 60, 80)])


def two_outlet_grid():
    return Grid2D(16, 8, 2e-3 / 16, 1e-3 / 8, [
        Segment("left", 0, 8, "inlet", "parabolic", 0.01),
        Segment("bottom", 2, 6, "outlet_pressure"),
        Segment("bottom", 10, 14, "outlet_pressure")])


# runs of Dirichlet boundary faces between pressure outlets, counted by hand
WALL_RUNS = {"pinned": 1, "adjacent_pressure": 1, "three_pressure": 1,
             "velocity_outlet": 2, "two_outlet": 2, "manifold": 4}


@pytest.mark.parametrize("name", sorted(WALL_RUNS))
def test_null_space_basis(name):
    grid = {**LAYOUTS, "two_outlet": two_outlet_grid,
            "manifold": manifold_grid}[name]()
    op = StokesOperator(grid, water().viscosity)
    ns = op.null_space
    faces = op.p_offset
    nullity = faces - grid.n_cells + (0 if grid.has_pressure_boundary else 1)
    assert ns.basis.shape == (faces, nullity)
    assert ns.n_interior + ns.n_border == nullity
    assert ns.n_border == WALL_RUNS[name] - 1
    # the continuity rows (but the pinned one of an all-velocity boundary)
    div = op.k_base[faces:, :faces]
    assert (div @ ns.basis).count_nonzero() == 0
    if nullity < 100:
        assert np.linalg.matrix_rank(ns.basis.toarray()) == nullity


@pytest.mark.parametrize("nx, ny", [(4, 1), (1, 1), (1, 4)])
def test_one_cell_wide_channel(nx, ny):
    # one wall run can hold every node: the reduced system may be empty
    grid = Grid2D(nx, ny, 1e-4, 1e-4, [
        Segment("left", 0, ny, "inlet", "constant", 0.01),
        Segment("right", 0, ny, "outlet_pressure")])
    sol = solve_flow(grid, DensityField.uniform(grid, 1.0), water())
    assert sol.outlet_flows().sum() == pytest.approx(sol.op.inlet_flux,
                                                     rel=1e-12)


def test_parabolic_profile_shape():
    seg = Segment("left", 0, 10, "inlet", "parabolic", 2.0)
    vals = seg.node_values()
    assert vals.max() == pytest.approx(3.0, rel=0.02)   # 1.5x mean at center
    assert vals[0] == pytest.approx(vals[-1], rel=1e-12)
    assert vals[0] < vals[len(vals) // 2]
