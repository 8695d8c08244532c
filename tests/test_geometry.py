import numpy as np
import pytest

from jetcool.errors import InvalidGeometryError, InvalidInputError
from jetcool.geometry import (CoolerArray, array_from_ratios,
                              extrapolate_power, normalize, per_nozzle_flow)


def test_array_from_ratios_pitch():
    arr = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.3, 0.2e-3)
    assert arr.L == pytest.approx(2e-3, rel=1e-12)
    assert arr.d_i == pytest.approx(0.6e-3, rel=1e-12)
    # single jet: pitch equals the chip side
    single = array_from_ratios(8e-3, 1, 0.25, 0.25, 0.25, 0.875, 0.2e-3)
    assert single.L == pytest.approx(8e-3, rel=1e-12)
    # 8x8 on the same chip gives 0.3 mm nozzles
    dense = array_from_ratios(8e-3, 8, 0.3, 0.3, 0.6, 1.0, 0.2e-3)
    assert dense.d_i == pytest.approx(0.3e-3, rel=1e-12)


def test_nozzle_density():
    arr = array_from_ratios(8e-3, 8, 0.3, 0.3, 0.6, 1.0, 0.2e-3)
    assert arr.nozzle_density_cm2 == pytest.approx(100.0, rel=1e-12)
    arr4 = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.5, 0.2e-3)
    assert arr4.nozzle_density_cm2 == pytest.approx(25.0, rel=1e-12)


def test_diameter_ratio_bounds():
    with pytest.raises(InvalidGeometryError):
        array_from_ratios(8e-3, 4, 1.0, 0.3, 0.3, 0.3, 0.2e-3)
    with pytest.raises(InvalidGeometryError):
        array_from_ratios(8e-3, 4, 0.3, 1.2, 0.3, 0.3, 0.2e-3)
    with pytest.raises(InvalidGeometryError):
        array_from_ratios(8e-3, 8, 1.1, 0.3, 1.0, 1.0, 0.2e-3)
    with pytest.raises(InvalidGeometryError):
        array_from_ratios(8e-3, 0, 0.3, 0.3, 0.3, 0.3, 0.2e-3)


def test_ratio_scale_invariance():
    """Same ratios at different chip sizes give the same dimensionless cell."""
    small = array_from_ratios(4e-3, 2, 0.25, 0.35, 0.5, 0.2, 0.2e-3)
    large = array_from_ratios(4.0, 2000, 0.25, 0.35, 0.5, 0.2, 0.2e-3)
    for attr in ("di_over_L", "do_over_L", "H_over_L", "t_over_L"):
        assert getattr(small, attr) == getattr(large, attr)


def test_normalize_worked_values():
    r_star, w_star, v_star = normalize(0.25, 0.0, 0.0, 0.64e-4)
    assert r_star == pytest.approx(0.16, rel=1e-12)
    # unit area in cm2: r_star equals r_th numerically
    r_star, _, _ = normalize(0.33, 0.0, 0.0, 1e-4)
    assert r_star == pytest.approx(0.33, rel=1e-12)
    _, w_star, v_star = normalize(0.0, 1.46, 2.5e-3 / 60.0, 4e-4)
    assert w_star == pytest.approx(0.365, rel=1e-12)
    assert v_star == pytest.approx(2.5e-3 / 60.0 / 4.0, rel=1e-12)
    with pytest.raises(InvalidInputError):
        normalize(0.25, 1.0, 1.0, 0.0)


def test_per_nozzle_flow():
    assert per_nozzle_flow(600.0, 4) == pytest.approx(37.5, rel=1e-12)
    assert per_nozzle_flow(1000.0, 8) == pytest.approx(15.625, rel=1e-12)
    assert per_nozzle_flow(0.0, 5) == 0.0
    assert per_nozzle_flow(0.123, 7) * 49 == pytest.approx(0.123, rel=1e-15)
    with pytest.raises(InvalidInputError):
        per_nozzle_flow(1.0, 0)


def test_extrapolate_power():
    assert extrapolate_power(0.272, 5.3, 70.0) == pytest.approx(
        1363.970588235294, rel=1e-9)
    assert extrapolate_power(0.272, 5.3, 0.0) == 0.0
    one = extrapolate_power(0.3, 2.0, 50.0)
    assert extrapolate_power(0.3, 4.0, 50.0) == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(InvalidInputError):
        extrapolate_power(0.0, 5.3, 70.0)


def test_heated_fraction_default():
    arr = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.5, 0.2e-3)
    assert arr.heated_fraction == 0.75
    assert arr.heated_area == pytest.approx(0.75 * 64e-6, rel=1e-12)
    custom = array_from_ratios(8e-3, 4, 0.3, 0.3, 0.3, 0.5, 0.2e-3,
                               heated_fraction=1.0)
    assert custom.heated_area == pytest.approx(64e-6, rel=1e-12)


def test_ratios_kept_exactly():
    """A design holds the ratios it was given, not d_i / (chip_side / n)."""
    arr = array_from_ratios(8e-3, 3, 0.45, 0.45, 0.3, 0.5, 0.2e-3)
    assert arr.di_over_L == 0.45
    assert (arr.do_over_L, arr.H_over_L, arr.t_over_L, arr.tc) \
        == (0.45, 0.3, 0.5, 0.2e-3)
    assert array_from_ratios is CoolerArray


@pytest.mark.parametrize("args, message", [
    ((8e-3, 4, 0.3, 0.3, 0.3, 0.3, 0.2e-3, 0.0), "heated_fraction"),
    ((8e-3, 4, 0.3, 0.3, 0.3, 0.3, 0.2e-3, 1.5), "heated_fraction"),
    ((-8e-3, 4, 0.3, 0.3, 0.3, 0.3, 0.2e-3), "L must be finite"),
    ((8e-3, 4, 0.3, 0.3, float("nan"), 0.3, 0.2e-3), "H must be finite"),
    ((8e-3, 4, 0.3, 0.3, 0.3, float("inf"), 0.2e-3), "t must be finite"),
    ((8e-3, 4, 0.3, 0.3, 0.3, 0.3, 0.0), "tc must be finite"),
    ((1e-308, 4, 0.3, 0.3, 0.3, 0.3, 0.2e-3), "nozzle_area must be finite"),
    ((8e-3, 4, 1e-308, 0.3, 0.3, 0.3, 0.2e-3), "nozzle_area must be finite"),
])
def test_one_check_for_every_derived_quantity(args, message):
    with pytest.raises(InvalidGeometryError, match=message):
        CoolerArray(*args)


def test_array_valued_design_checked_per_element():
    n = np.array([2, 4, 8])
    arr = CoolerArray(8e-3, n, 0.3, 0.3, 0.3, 0.3, 0.2e-3)
    assert arr.L.tolist() == [4e-3, 2e-3, 1e-3]
    with pytest.raises(InvalidGeometryError, match="d_i/L .* got 1.2"):
        CoolerArray(8e-3, n, np.array([0.3, 1.2, 0.3]), 0.3, 0.3, 0.3, 0.2e-3)
