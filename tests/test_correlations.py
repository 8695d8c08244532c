import numpy as np
import pytest

from jetcool.correlations import (Basis, HotspotHtcModel, NozzlePressureModel,
                                  PowerLawCorrelation, PredictiveInputs,
                                  ValidityWarning, biot_correct,
                                  builtin_catalog, eval_catalog, fit_htc_model,
                                  fit_power_law, g_bi, load_catalog,
                                  nu_f_predict, nu_to_htc)
from jetcool.errors import (ConfigError, InvalidInputError,
                            UnderdeterminedFitError)
from jetcool.correlations import friction_predict

# frozen from direct evaluation of the fitted expressions
NU_F_REF = 40.217533063725305
F_REF = 2.923236081638723
K_REF = 0.9744120272129078


def inputs(a=0.3, h=0.33, t=0.1, re=1024.0, do=None):
    return PredictiveInputs(di_over_L=a, do_over_L=do if do is not None else a,
                            H_over_L=h, t_over_L=t, re=re)


class TestNuPredict:
    def test_reference_point(self):
        value, warns = nu_f_predict(inputs())
        assert value == pytest.approx(NU_F_REF, rel=1e-9)
        assert warns == ()

    def test_low_re_flagged(self):
        value, warns = nu_f_predict(inputs(re=1.0))
        assert value == pytest.approx(0.7120429065514541, rel=1e-9)
        assert any(w.startswith("re_out_of_range") for w in warns)

    def test_re_doubling_factor(self):
        lo = nu_f_predict(inputs(re=512.0)).value
        hi = nu_f_predict(inputs(re=1024.0)).value
        assert hi / lo == pytest.approx(2.0 ** (0.48 * 0.3 ** -0.16), rel=1e-12)
        assert hi / lo == pytest.approx(1.497, rel=1e-3)

    def test_monotone_in_re(self):
        values = [nu_f_predict(inputs(re=re)).value
                  for re in np.linspace(32, 2048, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_collapse_across_scales(self):
        # identical dimensionless inputs, no geometry scale anywhere
        assert nu_f_predict(inputs()).value == nu_f_predict(inputs()).value

    def test_smaller_outlet_warns(self):
        _, warns = nu_f_predict(inputs(do=0.2))
        assert any(w.startswith("do_smaller_than_di") for w in warns)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            PredictiveInputs(0.0, 0.3, 0.3, 0.1, 1024)


class TestFriction:
    def test_reference_point(self):
        f, k, warns = friction_predict(inputs())
        assert f == pytest.approx(F_REF, rel=1e-9)
        assert k == pytest.approx(K_REF, rel=1e-9)
        assert warns == ()

    def test_high_re_asymptote(self):
        f, k, _ = friction_predict(inputs(re=1e12))
        assert f == pytest.approx(0.8 / (0.1 / 0.3), rel=1e-6)

    def test_k_over_f_identity(self):
        for t in (0.1, 0.3, 0.6):
            f, k, _ = friction_predict(inputs(t=t))
            assert k / f == pytest.approx(t / 0.3, rel=1e-12)

    def test_decreasing_in_re(self):
        values = [friction_predict(inputs(re=re)).f
                  for re in np.linspace(32, 2048, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_biot_correction():
    bi = 0.05369127516778524
    assert g_bi(bi) == pytest.approx(1.0622314310166208, rel=1e-9)
    assert biot_correct(40.0, bi) == pytest.approx(37.656577306997534, rel=1e-9)
    assert biot_correct(40.0, 0.0) == 40.0
    assert biot_correct(40.0, 1.0) == pytest.approx(40.0 / 3.2, rel=1e-12)
    with pytest.raises(InvalidInputError):
        biot_correct(40.0, -0.1)


def test_g_bi_never_amplifies():
    for bi in np.linspace(0.0, 5.0, 101):
        assert g_bi(bi) >= 1.0
        assert biot_correct(40.0, bi) <= 40.0


def test_nu_to_htc():
    assert nu_to_htc(40.0, 0.6e-3, 0.6) == pytest.approx(40000.0, rel=1e-12)
    assert nu_to_htc(0.0, 0.6e-3, 0.6) == 0.0
    assert nu_to_htc(40.0, 0.3e-3, 0.6) == pytest.approx(80000.0, rel=1e-12)
    with pytest.raises(InvalidInputError):
        nu_to_htc(40.0, 0.0, 0.6)


class TestCatalog:
    def test_builtin_entries(self):
        cat = builtin_catalog()
        expected = {
            "single-jet": (0.54, 0.56), "4x4-distributed": (1.63, 0.57),
            "4x4-common-outlet": (1.34, 0.59), "8x8": (1.24, 0.67),
            "vertical-feed": (0.49, 0.65), "lateral-feed": (0.49, 0.64),
            "brunschwiler": (0.78, 0.73), "hoberg": (0.36, 0.59),
            "onstad-1": (0.376, 0.586), "onstad-2": (0.436, 0.579),
            "onstad-3": (0.602, 0.531), "huber-viskanta": (0.285, 0.710),
        }
        for label, (c, m) in expected.items():
            assert (cat[label].c, cat[label].m) == (c, m), label
        assert cat["brunschwiler"].re_max == 800
        assert cat["hoberg"].re_min == 500 and cat["hoberg"].re_max == 10000
        assert cat["hoberg"].basis is Basis.FLUID_INTERFACE
        assert cat["8x8"].basis is Basis.JUNCTION
        for onstad in ("onstad-1", "onstad-2", "onstad-3"):
            assert cat[onstad].pr_exponent == pytest.approx(1.0 / 3.0)

    def test_eval_8x8(self):
        value, warns = eval_catalog(builtin_catalog()["8x8"], 1000.0)
        assert value == pytest.approx(126.88833104281355, rel=1e-9)

    def test_eval_brunschwiler_re1(self):
        # only an upper validity bound is published for this entry
        value, warns = eval_catalog(builtin_catalog()["brunschwiler"], 1.0)
        assert value == pytest.approx(0.78, rel=1e-12)
        assert warns == ()
        _, warns = eval_catalog(builtin_catalog()["brunschwiler"], 900.0)
        assert any(w.startswith("re_above_validity") for w in warns)

    def test_eval_huber_viskanta(self):
        entry = builtin_catalog()["huber-viskanta"]
        value, warns = eval_catalog(entry, 3400.0, pr=7.0, h_over_d=1.0,
                                    xn_over_d=4.0)
        assert value == pytest.approx(63.76520358366958, rel=1e-9)
        assert warns == ()
        with pytest.raises(InvalidInputError):
            eval_catalog(entry, 3400.0)   # Pr and ratios required

    @pytest.mark.parametrize("arg", ["pr", "h_over_d", "xn_over_d"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
    def test_eval_rejects_bad_optional_arguments(self, arg, bad):
        entry = builtin_catalog()["huber-viskanta"]
        args = {"pr": 7.0, "h_over_d": 1.0, "xn_over_d": 4.0, arg: bad}
        with pytest.raises(InvalidInputError, match=arg):
            eval_catalog(entry, 3400.0, **args)

    def test_out_of_validity_flag(self):
        _, warns = eval_catalog(builtin_catalog()["hoberg"], 20000.0)
        assert any(w.startswith("re_above_validity") for w in warns)

    def test_exponent_band_warning(self):
        with pytest.warns(ValidityWarning):
            PowerLawCorrelation("weird", c=1.0, m=0.9, basis=Basis.JUNCTION)
        with pytest.raises(InvalidInputError):
            PowerLawCorrelation("bad", c=1.0, m=1.2, basis=Basis.JUNCTION)

    def test_custom_csv(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text(
            "label,c,m,pr_exponent,re_min,re_max,basis,form,"
            "h_over_d_exponent,xn_over_d_exponent\n"
            "mine,0.5,0.6,,100,1000,junction,power_law,,\n")
        cat = load_catalog(path)
        assert cat["mine"].c == 0.5
        assert eval_catalog(cat["mine"], 500.0).value == pytest.approx(
            0.5 * 500 ** 0.6, rel=1e-12)

    def test_unknown_basis_config_error(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("label,c,m,pr_exponent,re_min,re_max,basis\n"
                        "mine,0.5,0.6,,,,junction\n"
                        "other,0.5,0.6,,,,Junction\n")
        with pytest.raises(ConfigError) as exc:
            load_catalog(path)
        assert str(exc.value) == (
            f"{path}: data row 2, column basis: 'Junction' is not one of "
            "junction, fluid_interface, stagnation")


class TestFitPowerLaw:
    def test_exact_recovery(self):
        re = [100.0, 200.0, 400.0, 800.0]
        points = [(r, 0.78 * r ** 0.73) for r in re]
        fit = fit_power_law(points)
        assert fit.c == pytest.approx(0.78, rel=1e-10)
        assert fit.m == pytest.approx(0.73, rel=1e-10)
        assert fit.residual < 1e-12
        corr = fit.correlation("refit")
        assert (corr.re_min, corr.re_max) == (100.0, 800.0)

    def test_recovery_measured_multi_jet(self):
        points = [(r, 1.63 * r ** 0.57) for r in (150, 300, 600, 1200)]
        fit = fit_power_law(points)
        assert (fit.c, fit.m) == (pytest.approx(1.63, rel=1e-10),
                                  pytest.approx(0.57, rel=1e-10))

    def test_constant_nu_gives_zero_exponent(self):
        fit = fit_power_law([(100.0, 5.0), (200.0, 5.0), (400.0, 5.0)])
        assert fit.m == pytest.approx(0.0, abs=1e-12)
        assert fit.c == pytest.approx(5.0, rel=1e-12)
        # but such a trend is not admissible as a catalog entry
        with pytest.raises(InvalidInputError):
            fit.correlation("flat")

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_power_law([(100.0, 5.0)])
        with pytest.raises(UnderdeterminedFitError):
            fit_power_law([(100.0, 5.0), (100.0, 6.0)])

    @pytest.mark.parametrize("sample", [(200.0, np.nan), (np.nan, 7.0),
                                        (np.inf, 7.0), (200.0, -7.0)])
    def test_bad_sample_rejected(self, sample):
        with pytest.raises(InvalidInputError, match="samples"):
            fit_power_law([(100.0, 5.0), sample, (400.0, 9.0)])


class TestComponentTrends:
    """Single-parameter trends of the full models, checked against the
    partial fits they superseded (diagnostics, not independent predictors)."""

    def test_friction_power_law_in_plate_thickness(self):
        # observed exponents for f ~ (t/L)^b ranged from -0.75 to -0.87
        ts = np.linspace(0.1, 1.2, 24)
        for a in (0.1, 0.3, 0.4, 0.5):
            fs = [friction_predict(inputs(a=a, t=t)).f for t in ts]
            b, _ = np.polyfit(np.log(ts), np.log(fs), 1)
            assert -0.9 < b < -0.7, f"a={a}: b={b}"

    def test_nu_nearly_linear_in_inlet_ratio(self):
        aa = np.linspace(0.1, 0.4, 13)
        nus = [nu_f_predict(inputs(a=a)).value for a in aa]
        assert all(y > x for x, y in zip(nus, nus[1:]))
        assert np.corrcoef(aa, nus)[0, 1] > 0.99

    def test_nu_independent_of_plate_thickness(self):
        ref = nu_f_predict(inputs(t=0.1)).value
        for t in (0.3, 0.6, 1.2):
            assert nu_f_predict(inputs(t=t)).value == ref

    def test_friction_independent_of_outlet_ratio(self):
        ref = friction_predict(inputs(do=0.3)).f
        for do in (0.35, 0.45, 0.6):
            assert friction_predict(inputs(do=do)).f == ref


class TestHotspotFits:
    def test_htc_reference_point(self):
        model = HotspotHtcModel()
        assert model.evaluate(0.3, 15.63) == pytest.approx(
            69640.4613249857, rel=1e-9)

    def test_dp_reference_point(self):
        model = NozzlePressureModel()
        assert model.evaluate(0.3, 15.63) == pytest.approx(
            10212.312183551325, rel=1e-9)

    def test_dp_inversion(self):
        model = NozzlePressureModel()
        dp = model.evaluate(0.4, 12.0)
        assert model.flow_for_dp(0.4, dp) == pytest.approx(12.0, rel=1e-12)

    def test_htc_flow_inversion(self):
        model = HotspotHtcModel()
        htc = model.evaluate(0.25, 9.0)
        assert model.flow_for_htc(0.25, htc) == pytest.approx(9.0, rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda: HotspotHtcModel().evaluate(np.nan, 1.0),
        lambda: HotspotHtcModel().flow_for_htc(np.nan, 5e4),
        lambda: NozzlePressureModel().evaluate(0.4, np.nan),
        lambda: NozzlePressureModel().flow_for_dp(0.4, np.nan),
    ], ids=["htc_evaluate", "htc_flow_for_htc", "dp_evaluate",
            "dp_flow_for_dp"])
    def test_nan_rejected(self, call):
        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("name, model, args", [
        ("htc_evaluate", HotspotHtcModel(), ("evaluate", 2.0, 20.0)),
        ("htc_flow_for_htc", HotspotHtcModel(), ("flow_for_htc", 2e4, 2e5)),
        ("dp_evaluate", NozzlePressureModel(), ("evaluate", 2.0, 20.0)),
        ("dp_flow_for_dp", NozzlePressureModel(), ("flow_for_dp", 10.0, 1e5)),
    ])
    def test_array_call_matches_scalar_calls(self, name, model, args):
        method, lo, hi = args
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 0.9, (6, 1))
        second = rng.uniform(lo, hi, 5)
        got = getattr(model, method)(d, second)
        assert got.shape == (6, 5)
        want = [[getattr(model, method)(float(x), float(y)) for y in second]
                for x in d[:, 0]]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("call", [
        lambda d: HotspotHtcModel().evaluate(d, 5.0),
        lambda d: HotspotHtcModel().flow_for_htc(d, 5e4),
        lambda d: NozzlePressureModel().evaluate(d, 5.0),
        lambda d: NozzlePressureModel().flow_for_dp(d, 1e4),
        lambda m: HotspotHtcModel().evaluate(0.3, m),
        lambda dp: NozzlePressureModel().flow_for_dp(0.3, dp),
    ], ids=["htc_evaluate_d", "htc_flow_for_htc_d", "dp_evaluate_d",
            "dp_flow_for_dp_d", "htc_evaluate_m", "dp_flow_for_dp_dp"])
    def test_array_call_names_first_bad_element(self, call):
        with pytest.raises(InvalidInputError, match=r"= -0\.2\b"):
            call(np.array([0.3, 0.5, -0.2, np.nan]))

    def test_flow_exponent_check_names_the_diameter(self):
        with pytest.raises(InvalidInputError, match=r"at d = 1.5 mm"):
            HotspotHtcModel().flow_for_htc(np.array([0.3, 1.5, 2.0]), 5e4)

    def test_scalar_calls_return_python_floats(self):
        htc, dp = HotspotHtcModel(), NozzlePressureModel()
        for value in (htc.evaluate(0.3, 15.63), htc.flow_for_htc(0.3, 5e4),
                      dp.evaluate(0.3, 15.63), dp.flow_for_dp(0.3, 1e4)):
            assert type(value) is float
        # numpy scalars, as a caller reading a plan file passes them
        value = dp.evaluate(np.float64(0.3), np.float64(15.63))
        assert isinstance(value, float)
        assert value == pytest.approx(10212.312183551325, rel=1e-15)

    def test_fit_recovers_constants(self):
        model = HotspotHtcModel()
        points = [(d, m, model.evaluate(d, m))
                  for d in (0.2, 0.3, 0.5, 0.8)
                  for m in (2.0, 8.0, 20.0)]
        fit = fit_htc_model(points)
        assert fit.c == pytest.approx(model.c, rel=1e-8)
        assert fit.d_exp == pytest.approx(model.d_exp, rel=1e-8)
        assert fit.m_exp == pytest.approx(model.m_exp, rel=1e-8)
        assert fit.m_exp_d == pytest.approx(model.m_exp_d, rel=1e-8)

    def test_fit_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_htc_model([(0.3, 5.0, 1e4), (0.3, 9.0, 2e4),
                           (0.3, 15.0, 3e4), (0.3, 20.0, 4e4)])

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_fit_rejects_bad_sample(self, column, bad):
        model = HotspotHtcModel()
        points = [[d, m, model.evaluate(d, m)]
                  for d in (0.2, 0.5) for m in (2.0, 8.0, 20.0)]
        points[3][column] = bad
        with pytest.raises(InvalidInputError, match="samples"):
            fit_htc_model(points)
