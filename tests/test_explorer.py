import math

import numpy as np
import pytest

from jetcool.correlations import HotspotHtcModel, NozzlePressureModel
from jetcool.errors import InvalidInputError
from jetcool.explorer import (M3S_PER_MLPM, ConstraintKind, ConstraintMode,
                              DesignSpace, PowerMap, cop_surface,
                              hotspot_scale, hotspot_synthesize, pareto_front,
                              sweep)
from jetcool.performance import OperatingPoint, evaluate_design
from jetcool.props import silicon, water

MLPM = M3S_PER_MLPM


def space(n_values=(4,), di=(0.3,), h=(0.3,), t=(0.1,)):
    return DesignSpace(n_values=n_values, di_over_L=di, H_over_L=h,
                       t_over_L=t, chip_side=8e-3, t_c=0.2e-3,
                       fluid=water(), solid=silicon())


class TestSweep:
    def test_degenerate_matches_evaluate(self):
        res = sweep(space(), ConstraintMode(ConstraintKind.CONST_FLOW,
                                            600 * MLPM))
        assert len(res.designs) == 1
        direct = evaluate_design(
            res.report and space().build(4, 0.3, 0.3, 0.3, 0.1) or None,
            water(), silicon(), OperatingPoint(flow_total=600 * MLPM))
        assert res.report.r_th[0] == pytest.approx(direct.r_th, rel=1e-12)
        assert res.report.dp[0] == pytest.approx(direct.dp, rel=1e-12)

    def test_const_pressure_inverse_consistency(self):
        flow_res = sweep(space(), ConstraintMode(ConstraintKind.CONST_FLOW,
                                                 600 * MLPM))
        dp = flow_res.report.dp[0]
        back = sweep(space(), ConstraintMode(ConstraintKind.CONST_PRESSURE, dp))
        assert back.flow[0] == pytest.approx(600 * MLPM, rel=1e-8)
        assert back.report.dp[0] == pytest.approx(dp, rel=1e-9)

    def test_const_pump_inverse_consistency(self):
        flow_res = sweep(space(), ConstraintMode(ConstraintKind.CONST_FLOW,
                                                 600 * MLPM))
        wp = flow_res.report.w_p[0]
        back = sweep(space(), ConstraintMode(ConstraintKind.CONST_PUMP, wp))
        assert back.report.w_p[0] == pytest.approx(wp, rel=1e-9)

    def test_row_order_follows_enumeration(self):
        sp = space(n_values=(2, 4), di=(0.2, 0.3))
        res = sweep(sp, ConstraintMode(ConstraintKind.CONST_FLOW, 600 * MLPM))
        assert [(n, a) for n, a, *_ in res.designs] == [
            (2, 0.2), (2, 0.3), (4, 0.2), (4, 0.3)]

    def test_saturation_with_nozzle_count(self):
        """Fixed pump power: r_th falls with N then flattens."""
        sp = space(n_values=(1, 2, 4, 8, 16, 32, 64))
        res = sweep(sp, ConstraintMode(ConstraintKind.CONST_PUMP, 0.2))
        feasible = [d[0] for d, ok in zip(res.designs, res.ok) if ok]
        r_th = dict(zip(feasible, res.report.r_th.tolist()))
        assert r_th[16] < r_th[2]
        assert abs(r_th[64] - r_th[32]) < abs(r_th[4] - r_th[2])


class TestPareto:
    def brute_force(self, pts):
        keep = []
        for i, p in enumerate(pts):
            dominated = any(
                q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                for q in pts)
            if not dominated and p not in keep:
                keep.append(p)
        return sorted(keep, key=lambda p: p[1])

    def test_trivial_sets(self):
        assert pareto_front([(1.0, 1.0)]) == [(1.0, 1.0)]
        assert pareto_front([(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]) == [
            (2.0, 1.0), (1.0, 2.0)]

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.RandomState(123)
        for _ in range(25):
            pts = [tuple(p) for p in rng.rand(200, 2)]
            assert pareto_front(pts) == self.brute_force(pts)

    def test_exact_duplicates_keep_first_occurrence(self):
        # 0.0 == -0.0, so only the sign shows which duplicate was kept
        front = pareto_front([(2.0, 2.0), (0.0, 3.0), (-0.0, 3.0),
                              (0.0, 3.0), (2.0, 2.0)])
        assert front == [(2.0, 2.0), (0.0, 3.0)]
        assert math.copysign(1.0, front[1][0]) == 1.0
        front = pareto_front([(-0.0, 3.0), (0.0, 3.0)])
        assert math.copysign(1.0, front[0][0]) == -1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            pareto_front([])

    @pytest.mark.parametrize("points", [[(math.nan, 1.0), (0.5, 2.0)],
                                        [(0.2, math.nan), (0.5, 2.0)]])
    def test_non_finite_rejected(self, points):
        with pytest.raises(InvalidInputError, match="must be finite"):
            pareto_front(points)


class TestCopSurface:
    def test_single_node_matches_report(self):
        grid = cop_surface(space(), 600 * MLPM)
        direct = evaluate_design(space().build(4, 0.3, 0.3, 0.3, 0.1),
                                 water(), silicon(),
                                 OperatingPoint(flow_total=600 * MLPM))
        assert grid.cop[0, 0] == pytest.approx(direct.cop, rel=1e-12)
        assert grid.cop.shape == (1, 1)

    def test_interior_density_maximum(self):
        """At fixed flow the best COP sits strictly inside the density sweep."""
        sp = space(n_values=(2, 4, 8, 16, 32))
        grid = cop_surface(sp, 300 * MLPM)
        col = grid.cop[:, 0]
        best = int(col.argmax())
        assert 0 < best < len(sp.n_values) - 1

    def test_cop_scales_inversely_with_pump_power(self):
        grid_lo = cop_surface(space(), 300 * MLPM)
        # COP definition: halving r_th at twice w_p cancels; just check sign
        grid_hi = cop_surface(space(), 600 * MLPM)
        assert grid_hi.cop[0, 0] < grid_lo.cop[0, 0]


class TestHotspotScale:
    def test_concentration_cases(self):
        tc1 = hotspot_scale(5.7e4, 9.4 * MLPM, 64, 24)
        assert tc1.m == pytest.approx(64 / 24, rel=1e-15)
        assert tc1.htc_star == pytest.approx(109969.91928530073, rel=1e-9)
        assert tc1.flow_star == pytest.approx(25.066666666666666 * MLPM,
                                              rel=1e-9)
        tc2 = hotspot_scale(5.7e4, 9.4 * MLPM, 64, 15)
        assert tc2.htc_star == pytest.approx(150672.60422295338, rel=1e-9)
        assert tc2.flow_star == pytest.approx(40.10666666666667 * MLPM,
                                              rel=1e-9)

    def test_identity_and_exponents(self):
        base = hotspot_scale(5e4, 10 * MLPM, 16, 16)
        assert base.htc_star == 5e4 and base.flow_star == 10 * MLPM
        s = hotspot_scale(5e4, 10 * MLPM, 64, 9)
        assert s.htc_star / 5e4 == pytest.approx(
            (s.flow_star / (10 * MLPM)) ** 0.67, rel=1e-12)
        assert s.dp_ratio == pytest.approx(
            (s.flow_star / (10 * MLPM)) ** 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            hotspot_scale(5e4, 1.0, 8, 0)
        with pytest.raises(InvalidInputError):
            hotspot_scale(5e4, 1.0, 8, 9)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
    def test_base_values_must_be_positive_and_finite(self, bad):
        with pytest.raises(InvalidInputError, match="base_htc"):
            hotspot_scale(bad, 10 * MLPM, 64, 9)
        with pytest.raises(InvalidInputError, match="base_flow_per_nozzle"):
            hotspot_scale(5e4, bad, 64, 9)


class TestHotspotSynthesize:
    def test_uniform_map_symmetry(self):
        plan = hotspot_synthesize(PowerMap(np.full((3, 3), 100.0)),
                                  60 * MLPM, 20.0, water())
        open_d = plan.d_mm[plan.d_mm > 0]
        assert np.allclose(open_d, open_d[0], rtol=1e-9)
        assert np.allclose(plan.m_nz_mlpm[plan.d_mm > 0],
                           60.0 / 9.0, rtol=1e-6)
        assert plan.infeasible_cells == ()

    def test_common_plenum_and_closure(self):
        density = np.array([[100.0, 0.0, 150.0],
                            [0.0, 250.0, 0.0],
                            [80.0, 0.0, 120.0]])
        plan = hotspot_synthesize(PowerMap(density), 50 * MLPM, 25.0, water())
        dp_model = NozzlePressureModel()
        active = plan.d_mm > 0
        dps = [dp_model.evaluate(d, m) for d, m in
               zip(plan.d_mm[active], plan.m_nz_mlpm[active])]
        assert np.ptp(dps) / plan.dp < 1e-6
        assert plan.flow_total_mlpm == pytest.approx(50.0, rel=1e-6)
        # zero-power cells stay closed
        assert np.all(plan.d_mm[~active] == 0.0)
        assert np.all(density[~active] == 0.0)

    def test_htc_monotone_in_power_density(self):
        density = np.array([[50.0, 120.0, 200.0, 320.0]])
        plan = hotspot_synthesize(PowerMap(density), 40 * MLPM, 25.0, water())
        htc = plan.htc[0]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(htc, htc[1:]))

    def test_requirement_met_when_feasible(self):
        density = np.array([[100.0, 200.0]])
        plan = hotspot_synthesize(PowerMap(density), 20 * MLPM, 25.0, water())
        if not plan.infeasible_cells:
            htc_req = density * 1e4 / 25.0
            np.testing.assert_allclose(plan.htc[plan.d_mm > 0],
                                       htc_req[plan.d_mm > 0], rtol=1e-6)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_power_map_validation(self, bad):
        with pytest.raises(InvalidInputError):
            PowerMap(np.array([[100.0, bad]]))

    def test_pitch_guard(self):
        with pytest.raises(InvalidInputError):
            hotspot_synthesize(PowerMap(np.full((2, 2), 50.0),
                                        cell_pitch=2e-3),
                               30 * MLPM, 20.0, water())
        # refitted constants for the new pitch are accepted
        plan = hotspot_synthesize(
            PowerMap(np.full((2, 2), 50.0), cell_pitch=2e-3),
            30 * MLPM, 20.0, water(),
            htc_model=HotspotHtcModel(pitch_mm=2.0),
            dp_model=NozzlePressureModel(pitch_mm=2.0))
        assert plan.flow_total_mlpm == pytest.approx(30.0, rel=1e-6)
