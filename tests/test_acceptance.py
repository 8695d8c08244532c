"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line with the measured numbers
(run with -s or -rA to see them) and fails loudly otherwise.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from jetcool import correlations as corr
from jetcool import explorer, metrology, topo
from jetcool.cli import run
from jetcool.explorer import (ConstraintKind, ConstraintMode, DesignSpace,
                              M3S_PER_MLPM, hotspot_scale, pareto_front, sweep)
from jetcool.geometry import normalize
from jetcool.performance import OperatingPoint, evaluate_design
from jetcool.props import biot, silicon, water
from jetcool.topo.solver import StokesOperator

MLPM = M3S_PER_MLPM


def report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_01_formula_fidelity():
    """Fitted Nu and friction formulas within 1e-6 of hand evaluation."""
    a, h, re = 0.3, 0.33, 1024.0
    nu_hand = ((5.64 * a ** 2 + 0.031 * a - 0.000632)
               * h ** -0.29 * re ** (0.48 * a ** -0.16))
    f_hand = (((21.2 * a + 14.5) * re ** -0.73 * a ** -0.26
               * (2.26 * 0.1 + 0.89) * (0.37 * h ** 0.15 + 0.55)) + 0.8) \
        / (0.1 / a)
    inputs = corr.PredictiveInputs(a, a, h, 0.1, re)
    nu = corr.nu_f_predict(inputs).value
    friction = corr.friction_predict(inputs)
    assert nu == pytest.approx(nu_hand, rel=1e-6)
    assert nu == pytest.approx(40.2175330637, rel=1e-6)
    assert friction.f == pytest.approx(f_hand, rel=1e-6)
    assert friction.f == pytest.approx(2.9232360816, rel=1e-6)
    assert friction.k == pytest.approx(f_hand * (0.1 / a), rel=1e-6)
    assert friction.k == pytest.approx(0.9744120272, rel=1e-6)
    report(1, "formula fidelity",
           f"nu_f={nu:.6f} f={friction.f:.6f} k={friction.k:.6f}")


def test_02_biot_chain():
    bi = biot(40.0, 0.2e-3, 0.6e-3, 0.6, 149.0)
    assert bi == pytest.approx(0.05369127516778524, rel=1e-6)
    nu_j = corr.biot_correct(40.0, bi)
    assert nu_j == pytest.approx(37.656577306997534, rel=1e-6)
    assert corr.biot_correct(40.0, 0.0) == 40.0   # exact zero-thickness limit
    report(2, "Biot chain", f"Bi={bi:.6f} Nu_j={nu_j:.4f}")


def test_03_hotspot_table_reproduction():
    """Flow-concentration table from exact nozzle-count ratios.

    The published table used m rounded to one decimal (2.7, 4.3); with the
    exact ratios three of its four entries land within 0.5% and the first
    htc entry within 1% (2.7^0.67 vs (64/24)^0.67 differs by 0.8%).
    """
    tc1 = hotspot_scale(5.7e4, 9.4 * MLPM, 64, 24)
    tc2 = hotspot_scale(5.7e4, 9.4 * MLPM, 64, 15)
    # exact-ratio oracle values, frozen from direct evaluation
    assert tc1.htc_star == pytest.approx(109969.91928530073, rel=1e-6)
    assert tc2.htc_star == pytest.approx(150672.60422295338, rel=1e-6)
    assert tc1.flow_star / MLPM == pytest.approx(25.066666666666666, rel=1e-6)
    assert tc2.flow_star / MLPM == pytest.approx(40.10666666666667, rel=1e-6)
    # comparison against the published rounded entries
    devs = {
        "tc1_flow": abs(tc1.flow_star / MLPM - 25.0) / 25.0,
        "tc2_flow": abs(tc2.flow_star / MLPM - 40.0) / 40.0,
        "tc2_htc": abs(tc2.htc_star - 15.1e4) / 15.1e4,
        "tc1_htc": abs(tc1.htc_star - 11.1e4) / 11.1e4,
    }
    assert devs["tc1_flow"] <= 0.005
    assert devs["tc2_flow"] <= 0.005
    assert devs["tc2_htc"] <= 0.005
    assert devs["tc1_htc"] <= 0.01   # limited by the table's internal rounding
    report(3, "hotspot scaling table", " ".join(
        f"{k}={v * 100:.2f}%" for k, v in devs.items()))


def test_04_uncertainty():
    r_th = metrology.propagate({"power": 0.001, "dT": 0.015})
    h = metrology.propagate({"power": 0.001, "loss": 0.0213, "dT": 0.015})
    assert abs(r_th - 0.0151) <= 0.0002   # within 0.02 percentage points
    assert abs(h - 0.0261) <= 0.0002
    report(4, "uncertainty propagation",
           f"r_th={r_th * 100:.3f}% htc={h * 100:.3f}%")


def test_05_gci():
    c = 2.0 ** -40
    synthetic = metrology.gci(1 + c, 1 + 4 * c, 1 + 16 * c, r=2.0)
    assert synthetic.p == pytest.approx(2.0, abs=1e-10)
    assert synthetic.asymptotic_ratio == pytest.approx(1.0, abs=1e-10)
    worked = metrology.gci(0.85, 0.9, 1.0, r=2.0, fs=1.25)
    assert worked.p == pytest.approx(1.0, rel=1e-6)
    assert worked.gci23 == pytest.approx(0.2777777777777778, rel=1e-6)
    report(5, "grid convergence index",
           f"p_synthetic={synthetic.p:.12f} gci23={worked.gci23:.6f}")


def test_06_normalization_and_scale_invariance():
    r_star, _, _ = normalize(0.25, 0.0, 0.0, 0.64e-4)
    assert r_star == pytest.approx(0.16, rel=1e-12)
    # four-decade chip-side sweep at fixed ratios and per-nozzle flow
    from jetcool.geometry import array_from_ratios
    base = None
    for k in range(5):
        side = 8e-3 * 10 ** k
        n = 4 * 10 ** k
        arr = array_from_ratios(side, n, 0.3, 0.3, 0.3, 0.1, 0.2e-3)
        flow = 37.5 * MLPM * n * n
        rep = evaluate_design(arr, water(), silicon(),
                              OperatingPoint(flow_total=flow))
        if base is None:
            base = rep
        else:
            assert rep.r_star == pytest.approx(base.r_star, rel=1e-12)
            assert rep.dp == pytest.approx(base.dp, rel=1e-12)
    report(6, "normalization", f"r_star={r_star} invariant over 4 decades")


def test_07_benchmark_fixture(tmp_path):
    out = tmp_path / "bench"
    assert run(["benchmark", "--out", str(out),
                "--user-r-star", "0.16", "--user-pump-w", "0.4",
                "--user-area-cm2", "0.64"]) == 0
    import csv
    rows = {r["label"]: r for r in
            csv.DictReader((out / "benchmark.csv").open())}
    bruns = rows["T.Brunschwiler 2006"]
    assert float(bruns["r_star_Kcm2_W"]) == 0.17
    assert float(bruns["w_star_W_cm2"]) == 1.46 / 4
    mine = rows["this-work"]
    assert float(mine["r_star_Kcm2_W"]) == 0.16
    assert float(mine["w_star_W_cm2"]) == 0.4 / 0.64
    report(7, "benchmark fixture",
           "Brunschwiler (0.17, 0.365), this-work (0.16, 0.625)")


def test_08_pareto_oracle():
    rng = np.random.RandomState(2024)
    t0 = time.time()
    for _ in range(100):
        pts = [tuple(p) for p in rng.rand(200, 2)]
        brute = sorted(
            (p for p in pts
             if not any(q[0] <= p[0] and q[1] <= p[1]
                        and (q[0] < p[0] or q[1] < p[1]) for q in pts)),
            key=lambda p: p[1])
        assert pareto_front(pts) == brute
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(8, "pareto oracle", f"100 clouds in {elapsed:.2f}s")


def test_09_saturation_with_nozzle_count():
    space = DesignSpace(n_values=(1, 2, 4, 8, 16, 32, 64), di_over_L=(0.3,),
                        H_over_L=(0.3,), t_over_L=(0.1,), chip_side=8e-3,
                        t_c=0.2e-3, fluid=water(), solid=silicon())
    res = sweep(space, ConstraintMode(ConstraintKind.CONST_PUMP, 0.2))
    feasible = [d[0] for d, ok in zip(res.designs, res.ok) if ok]
    r_th = dict(zip(feasible, res.report.r_th.tolist()))
    assert r_th[16] < r_th[2]
    assert abs(r_th[64] - r_th[32]) < abs(r_th[4] - r_th[2])
    report(9, "saturation", " ".join(
        f"N={n}:{r_th[n]:.4f}" for n in (2, 4, 16, 32, 64)))


class TestCriterion10Topo:
    def test_10a_poiseuille_order(self):
        errs = []
        for ny in (8, 16, 32):
            nx = 4 * ny
            ly = 1e-3
            grid = topo.Grid2D(nx, ny, 4 * ly / nx, ly / ny, [
                topo.Segment("left", 0, ny, "inlet", "parabolic", 0.01),
                topo.Segment("right", 0, ny, "outlet_pressure")])
            sol = topo.solve_flow(grid, topo.DensityField.uniform(grid, 1.0),
                                  water())
            y = (np.arange(ny) + 0.5) * grid.dy
            u_exact = 6 * 0.01 * y * (ly - y) / ly ** 2
            errs.append(np.sqrt(((sol.u - u_exact[None, :]) ** 2).mean())
                        / u_exact.max())
        orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
        assert all(abs(o - 2.0) <= 0.3 for o in orders)
        report(10, "topo (a) discretization order",
               "orders " + ", ".join(f"{o:.2f}" for o in orders))

    def test_10b_adjoint_gradient(self):
        nx, ny = 16, 8
        grid = topo.Grid2D(nx, ny, 2e-3 / nx, 1e-3 / ny, [
            topo.Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            topo.Segment("bottom", 2, 6, "outlet_pressure"),
            topo.Segment("bottom", 10, 14, "outlet_pressure")])
        rng = np.random.RandomState(1)
        eps0 = rng.uniform(0.2, 0.8, (nx, ny))
        for beta, tol in ((1.0, 1e-4), (0.0, 1e-3)):
            problem = topo.TopoProblem(grid=grid, fluid=water(), beta=beta,
                                       volume_fraction=1.0)
            op = StokesOperator(grid, problem.mu)

            def J_of(e):
                sol = op.solve(problem.alpha(e).ravel())
                return topo.objective(problem, sol).J

            sol = op.solve(problem.alpha(eps0).ravel())
            g = topo.gradient(problem, topo.DensityField(eps0), sol)
            g_fd = np.zeros_like(eps0)
            h = 1e-6
            for i in range(nx):
                for j in range(ny):
                    up, dn = eps0.copy(), eps0.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    g_fd[i, j] = (J_of(up) - J_of(dn)) / (2 * h)
            err = np.abs(g - g_fd).max() / np.abs(g_fd).max()
            assert err < tol, f"beta={beta}: {err:g}"
        report(10, "topo (b) adjoint gradient", "16x8 FD check passed")

    def test_10c_mass_conservation(self):
        rng = np.random.RandomState(9)
        ny = 10
        grid = topo.Grid2D(30, ny, 3e-3 / 30, 1e-3 / ny, [
            topo.Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            topo.Segment("bottom", 10, 14, "outlet_pressure"),
            topo.Segment("right", 0, ny, "outlet_pressure")])
        worst = 0.0
        for _ in range(10):
            eps = topo.DensityField(rng.uniform(0.05, 1.0, (30, ny)))
            sol = topo.solve_flow(grid, eps, water())
            worst = max(worst, sol.mass_imbalance())
        assert worst <= 1e-8
        report(10, "topo (c) mass conservation", f"worst {worst:.2e}")

    def test_10d_lateral_feed_uniformity(self):
        """4-outlet lateral-feed manifold: outlet spread at least halved."""
        nx, ny = 100, 30
        segs = [topo.Segment("left", 0, ny, "inlet", "constant", 0.02)]
        for c_mm in (2.0, 4.0, 6.0, 8.0):
            c = int(c_mm / 10.0 * nx)
            segs.append(topo.Segment("bottom", c - 3, c + 3,
                                     "outlet_pressure"))
        grid = topo.Grid2D(nx, ny, 10e-3 / nx, 2e-3 / ny, segs)
        problem = topo.TopoProblem(grid=grid, fluid=water(), beta=0.1,
                                   volume_fraction=0.4)
        op = StokesOperator(grid, problem.mu)
        eps0 = topo.DensityField.uniform(grid, problem.volume_fraction)
        q0 = op.solve(problem.alpha(eps0.eps).ravel()).outlet_flows()
        t0 = time.time()
        result = topo.optimize(problem, eps0, max_iters=100)
        elapsed = time.time() - t0
        q1 = op.solve(problem.alpha(result.eps.eps).ravel()).outlet_flows()
        spread0 = q0.max() - q0.min()
        spread1 = q1.max() - q1.min()
        assert spread1 <= 0.5 * spread0
        assert elapsed < 300.0
        # (e) objective non-increasing over accepted iterations
        js = [row.J for row in result.history]
        assert all(b <= a for a, b in zip(js, js[1:]))
        report(10, "topo (d,e) uniformity optimization",
               f"spread {spread0:.3e}->{spread1:.3e} "
               f"({spread1 / spread0 * 100:.0f}%) in {elapsed:.0f}s, "
               f"J monotone over {len(js) - 1} iterations")


def test_11_hotspot_synthesis():
    model = corr.HotspotHtcModel()
    htc = model.evaluate(0.3, 15.63)
    assert htc == pytest.approx(69640.4613249857, rel=1e-6)
    density = np.array([[100.0, 0.0, 150.0], [0.0, 250.0, 0.0],
                        [80.0, 0.0, 120.0]])
    plan = explorer.hotspot_synthesize(explorer.PowerMap(density),
                                       50 * MLPM, 25.0)
    dp_model = corr.NozzlePressureModel()
    active = plan.d_mm > 0
    dps = np.array([dp_model.evaluate(d, m) for d, m in
                    zip(plan.d_mm[active], plan.m_nz_mlpm[active])])
    assert np.ptp(dps) / plan.dp <= 1e-6
    assert plan.flow_total_mlpm == pytest.approx(50.0, rel=1e-6)
    report(11, "hotspot synthesis",
           f"htc(0.3mm,15.63)={htc:.0f}, plenum spread "
           f"{np.ptp(dps) / plan.dp:.1e}, closure exact")


def test_11b_hotspot_synthesis_meets_every_cell():
    """Beside test 11, whose scan-path map flags two over-cooled cells: the
    band-path mild map pinned in test_hotspot_plans.py gets a plan with no
    flagged cell, on which every active cell meets htc = q''/dT_target."""
    ref = np.load(Path(__file__).parent / "data" / "hotspot_plans.npz")
    density = ref["mild.density"]
    pitch_mm, flow_mlpm, dt_k = ref["mild.settings"]
    assert pitch_mm == 1.0
    plan = explorer.hotspot_synthesize(explorer.PowerMap(density),
                                       flow_mlpm * MLPM, dt_k)
    assert plan.infeasible_cells == () and plan.warnings == ()
    active = density > 0
    np.testing.assert_allclose(plan.htc[active],
                               density[active] * 1e4 / dt_k, rtol=1e-9)
    assert plan.flow_total_mlpm == pytest.approx(flow_mlpm, rel=1e-9)
    report(11, "hotspot synthesis (b) band-path map, all cells ok",
           f"{int(active.sum())} active cells at dT {dt_k:g} K")


def test_12_catalog_and_fit():
    entry = corr.builtin_catalog()["8x8"]
    value = corr.eval_catalog(entry, 1000.0).value
    assert value == pytest.approx(1.24 * 1000 ** 0.67, rel=1e-6)
    assert value == pytest.approx(126.88833104281355, rel=1e-6)
    fit = corr.fit_power_law(
        [(re, 0.78 * re ** 0.73) for re in (100, 200, 400, 800)])
    assert fit.c == pytest.approx(0.78, rel=1e-10)
    assert fit.m == pytest.approx(0.73, rel=1e-10)
    report(12, "catalog and fit", f"8x8@1000={value:.4f}, "
           f"recovered (c,m)=({fit.c:.10f},{fit.m:.10f})")
