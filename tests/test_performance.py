import math

import numpy as np
import pytest

from jetcool.errors import (InvalidInputError, NoFlowError,
                            NonMeaningfulResistanceError)
from jetcool.geometry import array_from_ratios
from jetcool.performance import (CouplingMeasurement, OperatingPoint,
                                 coolant_compare, coupling, evaluate_design,
                                 lidded_series, pressure_decomposition,
                                 slab_resistivity)
from jetcool.props import FluidProps, builtin_fluids, silicon, water

MLPM = 1e-6 / 60.0


@pytest.fixture
def quad_array():
    return array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.1, 0.2e-3)


def test_evaluate_design_velocity_and_re(quad_array):
    op = OperatingPoint(flow_total=600 * MLPM, chip_power=50.0)
    report = evaluate_design(quad_array, water(), silicon(), op)
    assert report.v_nozzle == pytest.approx(2.210485320720769, rel=1e-9)
    assert report.re == pytest.approx(1019.9179269805629, rel=1e-9)
    assert report.flow_per_nozzle == pytest.approx(37.5 * MLPM, rel=1e-12)


def test_evaluate_design_chain_consistency(quad_array):
    op = OperatingPoint(flow_total=600 * MLPM, chip_power=50.0)
    r = evaluate_design(quad_array, water(), silicon(), op)
    # exact algebraic identities of the report
    assert r.w_p == r.dp * op.flow_total
    assert r.dT_avg == pytest.approx(50.0 * r.r_th, rel=1e-12)
    assert r.htc == pytest.approx(r.nu_j * 0.6 / 0.6e-3, rel=1e-12)
    assert r.r_th == pytest.approx(1 / (r.htc * quad_array.heated_area), rel=1e-12)
    assert r.cop == pytest.approx((60.0 / r.r_th) / r.w_p, rel=1e-12)
    assert r.nu_j < r.nu_f


def test_dp_from_pressure_coefficient():
    """dp = k * rho V^2 / 2 holds exactly against the friction model."""
    from jetcool.correlations import PredictiveInputs, friction_predict
    arr = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.33, 0.1, 0.2e-3)
    op = OperatingPoint(flow_total=600 * MLPM)
    r = evaluate_design(arr, water(), silicon(), op)
    k = friction_predict(PredictiveInputs(0.3, 0.3, 0.33, 0.1, r.re)).k
    assert r.dp == pytest.approx(k * 0.5 * 999.7 * r.v_nozzle ** 2, rel=1e-12)
    # magnitude agrees with the worked fixture point (k at Re = 1024)
    assert r.dp == pytest.approx(
        0.9744120272129078 * 0.5 * 999.7 * 2.210485320720769 ** 2, rel=1e-3)


def test_zero_power_zero_dT(quad_array):
    op = OperatingPoint(flow_total=600 * MLPM, chip_power=0.0)
    r = evaluate_design(quad_array, water(), silicon(), op)
    assert r.dT_avg == 0.0
    assert math.isfinite(r.r_th) and r.r_th > 0


def test_no_flow_error(quad_array):
    with pytest.raises(NoFlowError):
        evaluate_design(quad_array, water(), silicon(),
                        OperatingPoint(flow_total=0.0))


@pytest.mark.parametrize("field, value", [
    ("chip_power", math.nan), ("chip_power", math.inf), ("chip_power", -1.0)])
def test_operating_point_rejects_bad_values(field, value):
    with pytest.raises(InvalidInputError, match=field):
        OperatingPoint(flow_total=600 * MLPM, **{field: value})


@pytest.mark.parametrize("dt_max", [0.0, -5.0, math.nan, math.inf])
def test_dt_max_allow_must_be_positive_and_finite(quad_array, dt_max):
    with pytest.raises(InvalidInputError, match="dt_max_allow"):
        evaluate_design(quad_array, water(), silicon(),
                        OperatingPoint(flow_total=600 * MLPM), dt_max)


@pytest.mark.parametrize("flow", [600 * MLPM, np.full(3, 600 * MLPM)],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("heated_fraction, dt_max, message", [
    (1e-308, 60.0, r"dT_avg must be finite, got inf K at chip_power 50\.0 W"),
    (0.75, 1e308, r"cop must be finite, got inf at dt_max_allow 1e\+308 K")],
    ids=["heated_1e-308", "dt_max_1e308"])
def test_non_finite_dt_avg_or_cop_rejected(flow, heated_fraction, dt_max,
                                           message):
    # both were returned as inf
    array = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.1, 0.2e-3,
                              heated_fraction)
    with pytest.raises(InvalidInputError, match=message):
        evaluate_design(array, water(), silicon(),
                        OperatingPoint(flow_total=flow, chip_power=50.0),
                        dt_max)


def test_r_star_scale_invariance(quad_array):
    """Doubling chip side and N at the same per-nozzle flow keeps r_star, dp."""
    op = OperatingPoint(flow_total=600 * MLPM)
    base = evaluate_design(quad_array, water(), silicon(), op)
    big = array_from_ratios(16e-3, 8, 0.3, 0.3, 0.3, 0.1, 0.2e-3)
    r2 = evaluate_design(big, water(), silicon(),
                         OperatingPoint(flow_total=4 * 600 * MLPM))
    assert r2.r_star == pytest.approx(base.r_star, rel=1e-12)
    assert r2.dp == pytest.approx(base.dp, rel=1e-12)
    assert r2.r_th == pytest.approx(base.r_th / 4, rel=1e-12)


class TestPressureDecomposition:
    def test_hagen_poiseuille_reference(self, quad_array):
        arr = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.5, 0.2e-3)
        bd = pressure_decomposition(arr, water(), 37.5 * MLPM)
        assert bd.dp_in_nozzle == pytest.approx(255.43385928328888, rel=1e-9)

    def test_symmetry_and_zero_flow(self, quad_array):
        bd = pressure_decomposition(quad_array, water(), 37.5 * MLPM)
        assert bd.dp_out_nozzle == bd.dp_in_nozzle   # d_o = d_i
        assert bd.dp_jet_residual == 0.0
        assert "jet_residual_unmodeled" in bd.warnings
        z = pressure_decomposition(quad_array, water(), 0.0)
        assert (z.dp_in_nozzle, z.dp_out_nozzle, z.dp_channel) == (0, 0, 0)

    def test_scaling_laws(self, quad_array):
        one = pressure_decomposition(quad_array, water(), 10 * MLPM)
        two = pressure_decomposition(quad_array, water(), 20 * MLPM)
        assert two.dp_in_nozzle == pytest.approx(2 * one.dp_in_nozzle, rel=1e-12)
        thick = FluidProps("thick", 999.7, 2 * 0.0013, 4197, 0.6, 10)
        visc = pressure_decomposition(quad_array, thick, 10 * MLPM)
        assert visc.dp_in_nozzle == pytest.approx(2 * one.dp_in_nozzle, rel=1e-12)
        half = array_from_ratios(8e-3, 4, 0.15, 0.3, 0.3, 0.1, 0.2e-3)
        small = pressure_decomposition(half, water(), 10 * MLPM)
        assert small.dp_in_nozzle == pytest.approx(16 * one.dp_in_nozzle,
                                                   rel=1e-12)


def test_lidded_series():
    assert lidded_series(0.26, 0.45, 0.0) == pytest.approx(0.71, rel=1e-12)
    assert lidded_series(0.26, 0.0, 0.0) == 0.26
    # 80 um TIM at 1.9 W/mK
    assert slab_resistivity(80e-6, 1.9) == pytest.approx(
        0.42105263157894746, rel=1e-9)
    with pytest.raises(InvalidInputError):
        lidded_series(-0.1, 0.45, 0.0)


class TestCoupling:
    def test_single_chip_diagonal(self):
        m = CouplingMeasurement("a", powers={"a": 50.0}, temps={"a": 15.0},
                                t_in=10.0)
        result = coupling([m])
        assert result.r[0, 0] == pytest.approx(0.1, rel=1e-12)

    def test_two_chip_matrix_and_ratio(self):
        # passive chip rises 17% of the active one's increase
        m1 = CouplingMeasurement(
            "logic", powers={"logic": 50.0, "memory": 0.0},
            temps={"logic": 20.0, "memory": 10.0 + 0.17 * 10.0}, t_in=10.0)
        m2 = CouplingMeasurement(
            "memory", powers={"memory": 50.0, "logic": 0.0},
            temps={"memory": 20.0, "logic": 10.0 + 0.034 * 10.0}, t_in=10.0)
        result = coupling([m1, m2])
        labels = result.labels
        i_l, i_m = labels.index("logic"), labels.index("memory")
        assert result.r[i_l, i_l] == pytest.approx(0.2, rel=1e-12)
        assert result.coupling_ratio[("memory", "logic")] == pytest.approx(
            0.17, rel=1e-12)
        assert result.coupling_ratio[("logic", "memory")] == pytest.approx(
            0.034, rel=1e-12)
        for ratio in result.coupling_ratio.values():
            assert 0.0 <= ratio <= 1.0

    def test_multiple_sources_rejected(self):
        with pytest.raises(NonMeaningfulResistanceError):
            CouplingMeasurement("a", powers={"a": 50.0, "b": 10.0},
                                temps={"a": 20.0, "b": 15.0}, t_in=10.0)

    def test_missing_measurement(self):
        m = CouplingMeasurement("a", powers={"a": 50.0, "b": 0.0},
                                temps={"a": 20.0, "b": 11.0}, t_in=10.0)
        with pytest.raises(InvalidInputError):
            coupling([m])

    def test_measurement_missing_a_chip_temperature(self):
        m_a = CouplingMeasurement("a", powers={"a": 50.0}, temps={"a": 20.0},
                                  t_in=10.0)
        m_b = CouplingMeasurement("b", powers={"a": 0.0, "b": 50.0},
                                  temps={"a": 11.0, "b": 20.0}, t_in=10.0)
        with pytest.raises(InvalidInputError,
                           match=r"powering 'a' .* chip\(s\) \['b'\]"):
            coupling([m_a, m_b])

    @pytest.mark.parametrize("field, value", [
        ("temps", {"a": math.nan}), ("temps", {"a": math.inf}),
        ("powers", {"a": math.nan}), ("t_in", math.nan)])
    def test_non_finite_values_rejected(self, field, value):
        values = {"powers": {"a": 50.0}, "temps": {"a": 15.0}, "t_in": 10.0,
                  field: value}
        with pytest.raises(InvalidInputError, match="finite"):
            coupling([CouplingMeasurement("a", **values)])


class TestCoolantCompare:
    def test_reference_is_unity(self, quad_array):
        op = OperatingPoint(flow_total=600 * MLPM)
        ratings = coolant_compare([water()], water(), quad_array, op)
        assert ratings[0].relative_htc == pytest.approx(1.0, rel=1e-12)

    def test_all_survey_coolants_below_water(self, quad_array):
        fluids = builtin_fluids()
        ref = fluids["water-lit"]
        others = [fluids[n] for n in
                  ("coolanol-25r", "syltherm-xlt", "fc-77", "eg-50-50",
                   "methanol-water-40-60", "potassium-formate-40-60")]
        op = OperatingPoint(flow_total=600 * MLPM)
        ratings = coolant_compare(others, ref, quad_array, op,
                                  mode="const_flow")
        assert all(r.relative_htc < 1.0 for r in ratings)
        by_name = {r.fluid: r.relative_htc for r in ratings}
        assert by_name["eg-50-50"] > by_name["fc-77"]

    def test_const_pump_matches_reference_power(self, quad_array):
        fluids = builtin_fluids()
        op = OperatingPoint(flow_total=600 * MLPM)
        ratings = coolant_compare([fluids["eg-50-50"]], water(), quad_array,
                                  op, mode="const_pump")
        # higher-viscosity coolant runs at lower flow for the same pump power
        assert ratings[0].flow < op.flow_total
        assert ratings[0].relative_htc < 1.0

    def test_unknown_mode(self, quad_array):
        with pytest.raises(InvalidInputError):
            coolant_compare([water()], water(), quad_array,
                            OperatingPoint(flow_total=1e-5), mode="bogus")
