"""Property-based checks of the array-valued design evaluation and of the
Stokes-Brinkman solver.

- ``evaluate_design`` on an array-valued ``CoolerArray`` equals the
  one-design call row by row, warnings included;
- dp(V) and V*dp(V) of the correlation chain are strictly increasing;
- tiling a design k x k times at k^2 times the flow keeps R* and dp and
  divides R_th by k^2;
- every flow solved by ``sweep`` meets its pressure or pump-power target
  to ``roots.REL_TOL``;
- on random densities, ``StokesOperator.solve`` equals a SuperLU solve of
  the same matrix on either factor path, and the velocity-only adjoint of a
  random right-hand side equals the velocity part of SuperLU's transposed
  solve with a zero continuity part, on the two-outlet grids and on the four
  boundary layouts of ``test_topo_operators.py``;
  every cell conserves mass, and the adjoint gradient matches central
  finite differences;
- the optimizer's ``_project`` returns a point in the box [0, 1], within
  the move limit of the previous design and at most at the volume
  fraction; on it when the volume binds; and equal to a bisection of the
  shift.

Examples are few and derandomized so the suite stays fast and repeatable.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jetcool.explorer import (ConstraintKind, ConstraintMode, DesignSpace,
                              sweep)
from jetcool.errors import SolverError
from jetcool.geometry import array_from_ratios
from jetcool.performance import OperatingPoint, evaluate_design
from jetcool.props import silicon, water
from jetcool.roots import REL_TOL
from jetcool.topo import (DensityField, Grid2D, Segment, TopoProblem,
                          gradient, objective, solver)
from jetcool.topo.optimize import _project
from test_topo_operators import GRIDS as LAYOUTS

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
CHIP, TC = 8e-3, 0.2e-3
FIELDS = ("re", "pr", "nu_f", "bi", "nu_j", "htc", "r_th", "r_star",
          "dT_avg", "dp", "w_p", "cop", "v_nozzle", "flow_per_nozzle")

designs = st.tuples(
    st.integers(1, 64),                                  # n
    st.floats(0.02, 0.9),                                # d_i/L
    st.floats(0.02, 0.9),                                # d_o/L
    st.floats(0.005, 2.0),                               # H/L
    st.floats(0.02, 3.0),                                # t/L
    st.floats(-8.0, -3.0).map(lambda e: 10.0 ** e))      # flow [m3/s]


@SETTINGS
@given(st.lists(designs, min_size=1, max_size=8),
       st.floats(0.0, 200.0))
def test_array_evaluation_equals_one_row_calls(rows, power):
    n, a, do, h, t, flow = (np.array(c) for c in zip(*rows))
    batch = evaluate_design(array_from_ratios(CHIP, n, a, do, h, t, TC),
                            water(), silicon(),
                            OperatingPoint(flow_total=flow, chip_power=power))
    for i, one in enumerate(rows):
        single = evaluate_design(array_from_ratios(CHIP, *one[:5], TC),
                                 water(), silicon(),
                                 OperatingPoint(flow_total=one[5],
                                                chip_power=power))
        assert batch.warnings[i] == single.warnings
        for field in FIELDS:
            got = np.broadcast_to(getattr(batch, field), n.shape)[i]
            assert got == pytest.approx(getattr(single, field), rel=1e-12,
                                        abs=0.0), field


@SETTINGS
@given(designs, st.floats(1.001, 10.0))
def test_dp_and_pump_power_increase_with_flow(design, factor):
    array = array_from_ratios(CHIP, *design[:5], TC)
    lo, hi = (evaluate_design(array, water(), silicon(),
                              OperatingPoint(flow_total=v))
              for v in (design[5], design[5] * factor))
    assert hi.dp > lo.dp
    assert hi.w_p > lo.w_p


@SETTINGS
@given(designs, st.integers(2, 8))
def test_tiling_keeps_r_star_and_dp(design, k):
    n, a, do, h, t, flow = design
    base, tiled = (
        evaluate_design(array_from_ratios(m * CHIP, m * n, a, do, h, t, TC),
                        water(), silicon(),
                        OperatingPoint(flow_total=m * m * flow))
        for m in (1, k))
    assert tiled.r_star == pytest.approx(base.r_star, rel=1e-12, abs=0.0)
    assert tiled.dp == pytest.approx(base.dp, rel=1e-12, abs=0.0)
    assert tiled.r_th * k * k == pytest.approx(base.r_th, rel=1e-12, abs=0.0)


@SETTINGS
@given(st.lists(designs, min_size=1, max_size=6),
       st.sampled_from([ConstraintKind.CONST_PRESSURE,
                        ConstraintKind.CONST_PUMP]),
       st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))
def test_solved_flows_meet_their_target(rows, kind, target):
    n, a, do, h, t, _ = zip(*rows)
    space = DesignSpace(n_values=n[:2], di_over_L=a[:3], do_over_L=do[:2],
                        H_over_L=h[:2], t_over_L=t, chip_side=CHIP, t_c=TC,
                        fluid=water(), solid=silicon())
    res = sweep(space, ConstraintMode(kind, target))
    assert res.ok.any()
    solved = (res.report.dp if kind is ConstraintKind.CONST_PRESSURE
              else res.report.w_p)
    for got in solved:
        assert abs(got - target) <= REL_TOL * target


# -- Stokes-Brinkman solver ----------------------------------------------

TOPO_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)
# forcing one path: limits that every grid meets, or that none does
PATH_LIMITS = {"band": np.inf, "splu": 0.0}
FD_STEP = 1e-6


def two_outlet_grid(shape):
    nx, ny = shape
    q = nx // 8
    return Grid2D(nx, ny, 2e-3 / nx, 1e-3 / ny, [
        Segment("left", 0, ny, "inlet", "parabolic", 0.01),
        Segment("bottom", q, 3 * q, "outlet_pressure"),
        Segment("bottom", 5 * q, 7 * q, "outlet_pressure")])


def densities(shapes, lo=0.0, hi=1.0):
    """(shape, density field) on one of the given grid shapes."""
    return st.sampled_from(shapes).flatmap(lambda shape: st.tuples(
        st.just(shape), arrays(np.float64, shape,
                               elements=st.floats(lo, hi))))


def operator(grid, mu, path):
    with mock.patch.object(solver, "BAND_FILL_MAX", PATH_LIMITS[path]):
        op = solver.StokesOperator(grid, mu)
    assert (op.null_space.band is not None) == (path == "band")
    return op


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def assert_solves_like_superlu(grid, path, eps, seed):
    problem = TopoProblem(grid=grid, fluid=water())
    op = operator(grid, problem.mu, path)
    alpha = problem.alpha(eps)
    sol = op.solve(alpha)
    ref = spla.splu((op.k_base + sp.diags(op.drag(alpha))).tocsc())
    assert relative_error(sol.x, ref.solve(op.rhs_base)) <= 1e-10
    # the adjoint's right-hand side has no continuity part
    nu = op.p_offset
    rhs = np.random.default_rng(seed).standard_normal(nu)
    full = ref.solve(np.r_[rhs, np.zeros(op.n_unknowns - nu)], trans="T")
    assert relative_error(sol.lu.adjoint(rhs), full[:nu]) <= 1e-10


@pytest.mark.parametrize("path", sorted(PATH_LIMITS))
@TOPO_SETTINGS
@given(densities([(8, 4), (16, 8), (12, 12)]), st.integers(0, 2 ** 32 - 1))
def test_solves_equal_a_superlu_solve(path, field, seed):
    shape, eps = field
    assert_solves_like_superlu(two_outlet_grid(shape), path, eps, seed)


@pytest.mark.parametrize("path", sorted(PATH_LIMITS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@TOPO_SETTINGS
@given(st.data(), st.integers(0, 2 ** 32 - 1))
def test_boundary_layouts_solve_like_superlu(layout, path, data, seed):
    grid = LAYOUTS[layout]()
    eps = data.draw(arrays(np.float64, (grid.nx, grid.ny),
                           elements=st.floats(0.0, 1.0)))
    assert_solves_like_superlu(grid, path, eps, seed)


@TOPO_SETTINGS
@given(densities([(8, 4), (16, 8), (12, 12)]))
def test_every_cell_conserves_mass(field):
    shape, eps = field
    problem = TopoProblem(grid=two_outlet_grid(shape), fluid=water())
    sol = solver.StokesOperator(problem.grid, problem.mu).solve(
        problem.alpha(eps))
    assert sol.mass_imbalance() <= 1e-10


@settings(max_examples=4, deadline=None, derandomize=True)
@given(densities([(8, 4), (12, 12)], lo=0.1, hi=0.9), st.floats(0.0, 1.0))
def test_adjoint_gradient_matches_finite_differences(field, beta):
    shape, eps = field
    problem = TopoProblem(grid=two_outlet_grid(shape), fluid=water(),
                          beta=beta)
    op = solver.StokesOperator(problem.grid, problem.mu)

    def j_of(e):
        return objective(problem, op.solve(problem.alpha(e))).J

    g = gradient(problem, DensityField(eps), op.solve(problem.alpha(eps)))
    g_fd = np.zeros_like(eps)
    for cell in np.ndindex(shape):
        up, dn = eps.copy(), eps.copy()
        up[cell] += FD_STEP
        dn[cell] -= FD_STEP
        g_fd[cell] = (j_of(up) - j_of(dn)) / (2 * FD_STEP)
    assert np.abs(g - g_fd).max() <= 1e-5 * np.abs(g_fd).max()


# -- design projection ---------------------------------------------------

ROUND_OFF = 1e-12


def _fields(*ranges):
    """Same-shape arrays with elements in each (low, high) range."""
    return st.integers(1, 6).flatmap(lambda n: st.tuples(*(arrays(
        np.float64, (n, 4), elements=st.floats(lo, hi)) for lo, hi in ranges)))


def _bisected(candidate, previous, volume, move_limit):
    """Reference projection: bisect the shift down to adjacent floats, from
    [-1, 0] or from the shift that puts every cell on its lower bound, and
    keep the side whose clipped mean is at most the volume."""
    lo_bound = np.maximum(previous - move_limit, 0.0)
    hi_bound = np.minimum(previous + move_limit, 1.0)
    clipped = np.clip(candidate, lo_bound, hi_bound)
    if clipped.mean() <= volume + 1e-15:
        return clipped, False
    lo, hi = min(-1.0, (lo_bound - candidate).min()), 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if np.clip(candidate + mid, lo_bound, hi_bound).mean() > volume:
            hi = mid
        else:
            lo = mid
    return np.clip(candidate + lo, lo_bound, hi_bound), True


def assert_projection(out, candidate, previous, volume, move_limit):
    """Feasible, on the volume when it binds, and equal to the bisection."""
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.abs(out - previous).max() <= move_limit + ROUND_OFF
    assert out.mean() <= volume + ROUND_OFF
    ref, binds = _bisected(candidate, previous, volume, move_limit)
    assert np.abs(out - ref).max() <= ROUND_OFF
    if binds:
        assert abs(out.mean() - volume) <= ROUND_OFF


@SETTINGS
@given(_fields((0.0, 1.0), (-1.0, 1.0)), st.floats(0.01, 0.5),
       st.floats(0.0, 1.0))
# volume and move limit both bind: the shift pushes one cell to its limit
@example((np.full((1, 4), 0.75), np.array([[-1.0, 1.0, 1.0, 1.0]])), 0.5, 0.0)
def test_projected_step_is_feasible(fields, move_limit, slack):
    # as in optimize: the previous design is feasible and the trial step
    # stays within the move limit
    previous, direction = fields
    volume = previous.mean() + slack * (1.0 - previous.mean())
    candidate = previous + move_limit * direction
    out = _project(candidate, previous, volume, move_limit)
    assert_projection(out, candidate, previous, volume, move_limit)


@SETTINGS
@given(_fields((0.0, 1.0), (-5.0, 5.0)), st.floats(0.01, 1.0))
# the shift -1 leaves the mean at 0.5: the projection returned that point
@example((np.full((1, 10), 0.3), np.r_[np.full(5, 3.0), np.zeros(5)][None]),
         0.3)
def test_projected_unrestricted_step_is_feasible(fields, volume):
    # a step without a move limit projects with a move limit of 1, and its
    # candidate can lie far outside [0, 1]
    previous, candidate = fields
    out = _project(candidate, previous, volume, 1.0)
    assert_projection(out, candidate, previous, volume, 1.0)


def test_projection_without_a_feasible_point_raises():
    # every cell may fall by at most 0.2 from 1: the mean stays >= 0.8
    with pytest.raises(SolverError, match="the least mean is 0.8"):
        _project(np.ones((2, 4)), np.ones((2, 4)), 0.3, 0.2)


@SETTINGS
@given(_fields((0.0, 1.0)), st.floats(0.01, 1.0))
def test_projected_start_is_feasible(fields, volume):
    # optimize projects its start design with a move limit of 1
    eps0, = fields
    out = _project(eps0, eps0, volume, 1.0)
    assert_projection(out, eps0, eps0, volume, 1.0)
