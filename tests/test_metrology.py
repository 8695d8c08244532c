import numpy as np
import pytest

from jetcool.errors import (InvalidInputError, NonMonotoneConvergenceError,
                            NonPhysicalReductionError)
from jetcool.metrology import (ChipStack, SensorMap, SensorModel, gci,
                               propagate, reduce, sensor_to_dT)


class TestSensors:
    def test_diode_conversion(self):
        on = np.full((2, 2), 0.6 - 15.5e-3)
        off = np.full((2, 2), 0.6)
        smap = SensorMap(on, SensorModel.DIODE, sensitivity=-1.55e-3)
        dT = sensor_to_dT(smap, off)
        np.testing.assert_allclose(dT, 10.0, rtol=1e-12)

    def test_tcr_conversion(self):
        r0 = np.full((2, 2), 100.0)
        r = np.full((2, 2), 101.7765)
        smap = SensorMap(r, SensorModel.TCR, tcr=3553e-6)
        np.testing.assert_allclose(sensor_to_dT(smap, r0), 5.0, rtol=1e-9)
        np.testing.assert_allclose(sensor_to_dT(
            SensorMap(r0, SensorModel.TCR, tcr=3553e-6), r0), 0.0)

    def test_linearity_in_reading_delta(self):
        off = np.zeros((3, 3))
        one = sensor_to_dT(SensorMap(off - 1.55e-3, SensorModel.DIODE,
                                     sensitivity=-1.55e-3), off)
        two = sensor_to_dT(SensorMap(off - 3.10e-3, SensorModel.DIODE,
                                     sensitivity=-1.55e-3), off)
        np.testing.assert_allclose(two, 2 * one, rtol=1e-12)

    def test_invalid_models(self):
        with pytest.raises(InvalidInputError):
            sensor_to_dT(SensorMap(np.ones((2, 2)), SensorModel.DIODE,
                                   sensitivity=0.0), np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            sensor_to_dT(SensorMap(np.ones((2, 2)), SensorModel.TCR),
                         np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            sensor_to_dT(SensorMap(np.ones((2, 2)), SensorModel.DIODE),
                         np.ones((3, 3)))

    @pytest.mark.parametrize("model, field", [(SensorModel.DIODE,
                                               "sensitivity"),
                                              (SensorModel.TCR, "tcr")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, model, field, bad):
        smap = SensorMap(np.ones((2, 2)), model, **{field: bad})
        with pytest.raises(InvalidInputError, match="finite"):
            sensor_to_dT(smap, np.full((2, 2), 2.0))

    def test_non_finite_reference_rejected(self):
        with pytest.raises(InvalidInputError, match="reference"):
            sensor_to_dT(SensorMap(np.ones((2, 2)), SensorModel.DIODE),
                         [[1.0, np.nan], [1.0, 1.0]])


CHIP = ChipStack(t_c=0.2e-3, k_s=149.0, a_heater=0.48e-4)


@pytest.mark.parametrize("field", ["t_c", "k_s", "a_heater"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_chip_stack_rejects_bad_values(field, bad):
    values = {"t_c": 0.2e-3, "k_s": 149.0, "a_heater": 0.48e-4, field: bad}
    with pytest.raises(InvalidInputError, match=field):
        ChipStack(**values)


class TestReduce:
    def test_loss_path(self):
        # mean dT of 25 K above a 25 degC ambient with 10 degC inlet
        dT = np.full((4, 4), 25.0)
        red = reduce(dT, power=50.0, t_amb=25.0, t_in=10.0, r_loss=16.8,
                     chip=CHIP)
        assert red.q_loss == pytest.approx(10.0 / 16.8, rel=1e-12)

    def test_conduction_drop(self):
        dT = np.full((4, 4), 25.0)
        red = reduce(dT, power=50.0 + 10.0 / 16.8, t_amb=25.0, t_in=10.0,
                     r_loss=16.8, chip=CHIP)
        # net 50 W conducts through 0.2 mm of silicon over 0.48 cm2
        assert (10.0 + 25.0) - red.t_s_avg == pytest.approx(
            1.3982102908277405, rel=1e-9)

    def test_htc_identity(self):
        dT = np.full((8, 8), 20.0)
        red = reduce(dT, power=50.0, t_amb=25.0, t_in=10.0, r_loss=16.8,
                     chip=CHIP)
        net = 50.0 - red.q_loss
        # energy bookkeeping holds exactly
        assert red.htc * CHIP.a_heater * (red.t_s_avg - 10.0) + red.q_loss \
            == pytest.approx(50.0, rel=1e-12)
        assert red.r_th == pytest.approx(20.0 / 50.0, rel=1e-12)

    def test_htc_reference_value(self):
        # direct check of net/(A*dT_s) with a crafted surface temperature
        htc = 50.0 / (0.48e-4 * 15.0)
        assert htc == pytest.approx(69444.44444444444, rel=1e-12)

    def test_rejects_non_finite_input(self):
        for dT in (np.full((2, 2), np.nan), [[1.0, np.inf]], np.empty((0, 0))):
            with pytest.raises(InvalidInputError):
                reduce(dT, power=50.0, t_amb=25.0, t_in=10.0, r_loss=16.8,
                       chip=CHIP)
        with pytest.raises(InvalidInputError):
            reduce(np.full((2, 2), 25.0), power=50.0, t_amb=float("nan"),
                   t_in=10.0, r_loss=16.8, chip=CHIP)

    def test_non_physical(self):
        dT = np.full((2, 2), 1e-4)
        with pytest.raises(NonPhysicalReductionError):
            reduce(dT, power=100.0, t_amb=25.0, t_in=10.0, r_loss=16.8,
                   chip=CHIP)


class TestPropagate:
    def test_reported_budgets(self):
        assert propagate({"power": 0.001, "dT": 0.015}) == pytest.approx(
            0.015033296378372907, rel=1e-12)
        assert propagate({"power": 0.001, "loss": 0.0213, "dT": 0.015}) \
            == pytest.approx(0.02607086496455382, rel=1e-12)

    def test_single_component(self):
        assert propagate({"x": 0.042}) == pytest.approx(0.042, rel=1e-15)

    def test_bounds(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            comps = {f"c{i}": v for i, v in
                     enumerate(rng.uniform(0, 0.1, size=rng.randint(1, 6)))}
            total = propagate(comps)
            assert total >= max(comps.values()) - 1e-15
            assert total <= sum(comps.values()) + 1e-15

    def test_empty_budget(self):
        with pytest.raises(InvalidInputError):
            propagate({})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01])
    def test_bad_component_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="components"):
            propagate({"power": 0.001, "dT": bad})


class TestGci:
    def test_worked_triple(self):
        result = gci(0.85, 0.9, 1.0, r=2.0, fs=1.25)
        assert result.p == pytest.approx(1.0, rel=1e-12)
        assert result.gci23 == pytest.approx(0.2777777777777778, rel=1e-9)
        assert result.gci12 == pytest.approx(1.25 * 2 * 0.05 / 0.85, rel=1e-9)
        assert result.asymptotic_ratio == pytest.approx(0.85 / 0.9, rel=1e-9)
        assert not result.in_asymptotic_range

    def test_exact_second_order(self):
        c = 2.0 ** -40
        result = gci(1 + c, 1 + 4 * c, 1 + 16 * c, r=2.0)
        assert result.p == pytest.approx(2.0, abs=1e-10)
        assert result.asymptotic_ratio == pytest.approx(1.0, abs=1e-10)
        assert result.in_asymptotic_range

    def test_reported_ratios_classify(self):
        for ratio_target in (0.99, 1.01):
            # construct f2 so gci23/(r^p gci12) = f1/f2 hits the target
            f1 = 1.0
            f2 = f1 / ratio_target
            f3 = f2 + 2 * (f2 - f1)   # keeps p = 1
            result = gci(f1, f2, f3, r=2.0)
            assert result.in_asymptotic_range

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneConvergenceError):
            gci(1.0, 0.9, 1.1)
        with pytest.raises(NonMonotoneConvergenceError):
            gci(1.0, 1.0, 1.1)
        with pytest.raises(InvalidInputError):
            gci(0.85, 0.9, 1.0, r=1.0)
        for args in ((0.0, 0.9, 1.0), (-0.1, 0.0, 0.2),
                     (float("nan"), 0.9, 1.0), (0.85, 0.9, float("inf"))):
            with pytest.raises(InvalidInputError):
                gci(*args)
        with pytest.raises(InvalidInputError):
            gci(0.85, 0.9, 1.0, r=float("nan"))

    @pytest.mark.parametrize("fs", [0.0, -1.25, np.nan, np.inf])
    def test_safety_factor_must_be_positive_and_finite(self, fs):
        with pytest.raises(InvalidInputError, match="fs"):
            gci(0.85, 0.9, 1.0, fs=fs)
