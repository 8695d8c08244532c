import dataclasses
import sys

import numpy as np
import pytest

from jetcool.cli import run
from jetcool.errors import InvalidInputError
from jetcool.props import water
from jetcool.topo import (DensityField, Grid2D, Segment, TopoProblem,
                          export_density, objective, optimize,
                          parse_problem_file, write_history)
from jetcool.topo.optimize import FLAT_RUN, _project
from jetcool.topo.solver import StokesOperator


def small_manifold(nx=40, ny=12):
    segs = [Segment("left", 0, ny, "inlet", "constant", 0.02)]
    for c_mm in (2.0, 4.0, 6.0, 8.0):
        c = int(c_mm / 10.0 * nx)
        w = max(nx // 40, 1)
        segs.append(Segment("bottom", c - w, c + w, "outlet_pressure"))
    return Grid2D(nx, ny, 10e-3 / nx, 2e-3 / ny, segs)


PROBLEM_FILE = """
[grid]
nx = 20
ny = 6
lx_mm = 10
ly_mm = 2

[fluid]
name = water

[problem]
beta = 0.25
volume_fraction = 0.4
q = 0.01
max_iters = 7

[segments]
list =
    left 0 6 inlet constant 0.02
    bottom 4 6 outlet_pressure
    bottom 14 16 outlet_pressure
"""


class TestProjection:
    def test_box_and_volume_hold(self):
        rng = np.random.RandomState(3)
        prev = rng.uniform(0, 1, (10, 6))
        raw = prev + rng.uniform(-1, 1, prev.shape)
        out = _project(raw, prev, volume_fraction=0.35, move_limit=0.2)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.mean() <= 0.35 + 1e-9
        assert np.abs(out - prev).max() <= 0.2 + 1e-9

    def test_inactive_volume_constraint(self):
        prev = np.full((4, 4), 0.1)
        out = _project(prev - 0.05, prev, volume_fraction=0.9, move_limit=0.2)
        np.testing.assert_allclose(out, 0.05)


class TestOptimize:
    def test_objective_components(self):
        grid = small_manifold()
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.5,
                              volume_fraction=0.4)
        op = StokesOperator(grid, problem.mu)
        eps = DensityField.uniform(grid, 1.0)
        sol = op.solve(problem.alpha(eps.eps).ravel())
        val = objective(problem, sol)
        assert val.J1 > 0
        assert val.J2 >= 0
        assert len(val.outlet_flows) == 4
        # share example: deviations of 32/28/24/16 percent around the mean
        shares = np.array([0.32, 0.28, 0.24, 0.16])
        j2_norm = 0.5 * np.sum((shares - shares.mean()) ** 2)
        assert j2_norm == pytest.approx(0.0070, abs=1e-12)

    def test_single_outlet_uniformity_vanishes(self):
        ny = 8
        grid = Grid2D(16, ny, 2e-3 / 16, 1e-3 / ny, [
            Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            Segment("right", 0, ny, "outlet_pressure")])
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.5,
                              volume_fraction=1.0)
        op = StokesOperator(grid, problem.mu)
        eps = DensityField.uniform(grid, 1.0)
        sol = op.solve(problem.alpha(eps.eps).ravel())
        assert objective(problem, sol).J2 == pytest.approx(0.0, abs=1e-30)

    def test_all_fluid_stationary_under_dissipation(self):
        ny = 8
        grid = Grid2D(16, ny, 2e-3 / 16, 1e-3 / ny, [
            Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            Segment("right", 0, ny, "outlet_pressure")])
        problem = TopoProblem(grid=grid, fluid=water(), beta=1.0,
                              volume_fraction=1.0)
        res = optimize(problem, DensityField.uniform(grid, 1.0), max_iters=5)
        assert res.status == "stationary"
        assert len(res.history) == 1
        assert "no_descent_step_available" in res.warnings

    def test_zero_gradient_converges_at_once(self):
        # one outlet takes all the flow, so with beta = 0 the objective is
        # the vanishing uniformity term and its gradient is exactly 0
        ny = 8
        grid = Grid2D(16, ny, 2e-3 / 16, 1e-3 / ny, [
            Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            Segment("right", 0, ny, "outlet_pressure")])
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.0,
                              volume_fraction=1.0)
        res = optimize(problem, DensityField.uniform(grid, 0.5), max_iters=5)
        assert res.status == "converged"
        assert len(res.history) == 1 and not res.warnings

    def test_flat_run_converges(self, monkeypatch):
        # with a tolerance of 1 every accepted step counts as flat
        monkeypatch.setattr(sys.modules["jetcool.topo.optimize"],
                            "FLAT_REL_TOL", 1.0)
        problem = TopoProblem(grid=small_manifold(20, 6), fluid=water(),
                              beta=0.1, volume_fraction=0.4)
        res = optimize(problem, max_iters=50)
        assert res.status == "converged"
        assert len(res.history) == FLAT_RUN + 1

    def test_all_fluid_minimizes_dissipation(self):
        ny = 8
        grid = Grid2D(16, ny, 2e-3 / 16, 1e-3 / ny, [
            Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            Segment("right", 0, ny, "outlet_pressure")])
        problem = TopoProblem(grid=grid, fluid=water(), beta=1.0,
                              volume_fraction=1.0)
        op = StokesOperator(grid, problem.mu)

        def j1_of(e):
            sol = op.solve(problem.alpha(e).ravel())
            return objective(problem, sol).J1

        baseline = j1_of(np.ones((grid.nx, grid.ny)))
        rng = np.random.RandomState(42)
        for _ in range(20):
            assert j1_of(rng.rand(grid.nx, grid.ny)) >= baseline

    def test_descent_and_constraints(self):
        grid = small_manifold()
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.1,
                              volume_fraction=0.4)
        res = optimize(problem, max_iters=20)
        js = [row.J for row in res.history]
        assert all(b <= a for a, b in zip(js, js[1:]))
        assert js[-1] < js[0]
        assert res.eps.eps.min() >= 0.0 and res.eps.eps.max() <= 1.0
        assert res.eps.volume_fraction <= 0.4 + 1e-9
        for row in res.history:
            assert row.volume <= 0.4 + 1e-9

    def test_uniformity_improves(self):
        # the coarse grid resolves each outlet with only 2 cells, so the
        # redistribution needs more iterations than the production problems
        grid = small_manifold()
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.1,
                              volume_fraction=0.4)
        op = StokesOperator(grid, problem.mu)
        eps0 = DensityField.uniform(grid, 0.4)
        q0 = op.solve(problem.alpha(eps0.eps).ravel()).outlet_flows()
        res = optimize(problem, eps0, max_iters=150)
        q1 = op.solve(problem.alpha(res.eps.eps).ravel()).outlet_flows()
        assert (q1.max() - q1.min()) <= 0.5 * (q0.max() - q0.min())


class TestExports:
    def test_density_csv_and_pgm(self, tmp_path):
        eps = DensityField(np.array([[0.0, 1.0], [1.0, 0.0]]))
        csv_path = tmp_path / "density.csv"
        pgm_path = tmp_path / "density.pgm"
        export_density(eps, csv_path, pgm_path)
        rows = csv_path.read_text().strip().splitlines()
        # top row first: eps[:, 1] = (1, 0)
        assert rows[0] == "1,0"
        assert rows[1] == "0,1"
        pgm = pgm_path.read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "2 2"
        assert pgm[2] == "255"
        assert pgm[3].split() == ["255", "0"]

    def test_full_and_empty_fields(self, tmp_path):
        for value, pixel in ((1.0, "255"), (0.0, "0")):
            eps = DensityField(np.full((3, 2), value))
            pgm = tmp_path / f"{pixel}.pgm"
            export_density(eps, tmp_path / f"{pixel}.csv", pgm)
            body = pgm.read_text().splitlines()[3:]
            assert all(tok == pixel for line in body for tok in line.split())

    def test_history_csv(self, tmp_path):
        grid = small_manifold(20, 6)
        problem = TopoProblem(grid=grid, fluid=water(), beta=0.1,
                              volume_fraction=0.5)
        res = optimize(problem, max_iters=3)
        path = tmp_path / "history.csv"
        write_history(res.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,J,J1,J2,volume"
        assert len(lines) == len(res.history) + 1


def test_q_continuation_sharpens(tmp_path):
    grid = small_manifold(20, 6)
    problem = TopoProblem(grid=grid, fluid=water(), beta=0.1,
                          volume_fraction=0.4)
    res = optimize(problem, max_iters=15, q_schedule=(0.01, 0.1))
    iters = [row.iteration for row in res.history]
    assert iters == sorted(iters)
    assert res.eps.eps.min() >= 0.0 and res.eps.eps.max() <= 1.0
    assert res.eps.volume_fraction <= 0.4 + 1e-9


@pytest.mark.parametrize("field, value", [
    ("lambda1", np.nan), ("lambda2", 0.0), ("u_ref", np.inf),
    ("u_ref", -0.01)])
def test_problem_weights_validated(tmp_path, capsys, field, value):
    # the weights are fixed, so a file that still sets one is refused
    path = tmp_path / "problem.ini"
    path.write_text(PROBLEM_FILE.replace("max_iters = 7\n",
                                         f"max_iters = 7\n{field} = {value}\n"))
    assert run(["topo", "--config", str(path),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"[problem] {field} is not a setting" in err
    assert "adjust beta instead" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale1, scale2", [(3.0, 0.5), (0.1, 1.0)])
def test_rescaled_weights_are_a_beta_change(monkeypatch, scale1, scale2):
    """Weights lambda1' = s1 lambda1, lambda2' = s2 lambda2 at beta give the
    designs of the default weights at beta* = 1 / (1 + rho lambda2/lambda1),
    rho = (1 - beta) lambda1' / (beta lambda2'), with J scaled."""
    grid = small_manifold(24, 8)
    beta = 0.1
    base = TopoProblem(grid=grid, fluid=water(), volume_fraction=0.4)
    lam1, lam2 = base.weights()
    rho = (1 - beta) * scale1 * lam1 / (beta * scale2 * lam2)
    beta_star = 1.0 / (1.0 + rho * lam2 / lam1)
    ref = optimize(dataclasses.replace(base, beta=beta_star), max_iters=30)
    monkeypatch.setattr(TopoProblem, "weights",
                        lambda self: (scale1 * lam1, scale2 * lam2))
    got = optimize(dataclasses.replace(base, beta=beta), max_iters=30)
    assert len(got.history) == len(ref.history)
    np.testing.assert_allclose(got.eps.eps, ref.eps.eps, rtol=0, atol=1e-12)
    ratio = [a.J / b.J for a, b in zip(got.history, ref.history)]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_negative_max_iters_rejected():
    problem = TopoProblem(grid=small_manifold(), fluid=water())
    with pytest.raises(InvalidInputError, match="max_iters"):
        optimize(problem, max_iters=-3)


def test_problem_file_roundtrip(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(PROBLEM_FILE)
    problem, max_iters, q_schedule = parse_problem_file(path)
    assert max_iters == 7
    assert q_schedule == ()
    assert problem.beta == 0.25
    assert problem.volume_fraction == 0.4
    assert problem.grid.nx == 20
    assert problem.fluid.name == "water"
    assert len(problem.grid.outlet_segments()) == 2
