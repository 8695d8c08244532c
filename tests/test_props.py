import numpy as np
import pytest

from jetcool.errors import InvalidInputError
from jetcool.props import (PR_PAPER, FluidProps, SolidProps, biot,
                           builtin_fluids, builtin_solids, load_fluids,
                           prandtl, reynolds, silicon, water)

WATER = FluidProps("water", density=999.7, viscosity=0.0013,
                   specific_heat=4197.0, conductivity=0.6, reference_temp=10.0)


def test_reynolds_worked_values():
    assert reynolds(WATER, 0.6e-3, 1.47) == pytest.approx(678.258, rel=1e-6)
    assert reynolds(WATER, 1.2e-3, 1.47) == pytest.approx(1356.516, rel=1e-6)
    assert reynolds(WATER, 0.6e-3, 0.0) == 0.0


def test_reynolds_linear_in_d_and_v():
    base = reynolds(WATER, 0.4e-3, 1.0)
    assert reynolds(WATER, 0.8e-3, 1.0) == pytest.approx(2 * base, rel=1e-12)
    assert reynolds(WATER, 0.4e-3, 3.0) == pytest.approx(3 * base, rel=1e-12)


def test_reynolds_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        reynolds(WATER, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        reynolds(WATER, -1e-3, 1.0)
    with pytest.raises(InvalidInputError):
        reynolds(WATER, 1e-3, -0.1)
    with pytest.raises(InvalidInputError):
        reynolds(WATER, float("nan"), 1.0)


def test_prandtl():
    assert prandtl(WATER) == pytest.approx(9.0935, rel=1e-6)
    unity = FluidProps("unity", 1000.0, 0.001, 600.0, 0.6, 20.0)
    assert prandtl(unity) == pytest.approx(1.0, rel=1e-12)
    # the fit-time constant is exposed separately, never substituted
    assert PR_PAPER == 7.56
    assert prandtl(water()) != PR_PAPER


def test_biot_worked_values():
    assert biot(40.0, 0.2e-3, 0.6e-3, 0.6, 149.0) == pytest.approx(
        0.05369127516778524, rel=1e-9)
    assert biot(40.0, 0.4e-3, 0.6e-3, 0.6, 149.0) == pytest.approx(
        0.10738255033557048, rel=1e-9)
    assert biot(40.0, 0.0, 0.6e-3, 0.6, 149.0) == 0.0
    assert biot(0.0, 0.2e-3, 0.6e-3, 0.6, 149.0) == 0.0


def test_biot_validation():
    with pytest.raises(InvalidInputError):
        biot(40.0, 0.2e-3, 0.0, 0.6, 149.0)
    with pytest.raises(InvalidInputError):
        biot(40.0, 0.2e-3, 0.6e-3, 0.6, 0.0)
    with pytest.raises(InvalidInputError):
        biot(-1.0, 0.2e-3, 0.6e-3, 0.6, 149.0)


def test_fluid_validation():
    with pytest.raises(InvalidInputError):
        FluidProps("bad", density=0.0, viscosity=1e-3, specific_heat=4000,
                   conductivity=0.6, reference_temp=20)
    with pytest.raises(InvalidInputError):
        SolidProps("bad", conductivity=-1.0)


@pytest.mark.parametrize("temp, ok", [(-10.0, True), (-273.14, True),
                                      (-273.15, False), (-300.0, False),
                                      (np.inf, False), (np.nan, False)])
def test_reference_temp_above_absolute_zero(temp, ok):
    def make():
        return FluidProps("cold", density=1100.0, viscosity=2e-3,
                          specific_heat=3500.0, conductivity=0.5,
                          reference_temp=temp)
    if ok:
        assert make().reference_temp == temp
    else:
        with pytest.raises(InvalidInputError,
                           match="reference_temp must be finite and > "
                                 "-273.15, got"):
            make()


def test_builtin_catalog_values():
    fluids = builtin_fluids()
    w = fluids["water"]
    assert (w.density, w.viscosity, w.specific_heat, w.conductivity) == (
        999.7, 0.0013, 4197.0, 0.6)
    assert w.reference_temp == 10.0
    # the seven literature coolants, stored exactly as published
    expected = {
        "water-lit": (1000.0, 8.90e-4, 4217.0, 0.68),
        "coolanol-25r": (900.0, 0.009, 1750.0, 0.132),
        "syltherm-xlt": (850.0, 0.0014, 1600.0, 0.11),
        "fc-77": (1800.0, 0.0011, 1100.0, 0.06),
        "eg-50-50": (1087.0, 0.0038, 3285.0, 0.37),
        "methanol-water-40-60": (935.0, 0.002, 3560.0, 0.4),
        "potassium-formate-40-60": (1250.0, 0.0022, 3200.0, 0.53),
    }
    for name, (rho, mu, cp, k) in expected.items():
        f = fluids[name]
        assert (f.density, f.viscosity, f.specific_heat, f.conductivity) == (
            rho, mu, cp, k), name
    assert builtin_solids()["silicon"].conductivity == 149.0
    assert silicon().conductivity == 149.0


def test_csv_catalog_roundtrip(tmp_path):
    path = tmp_path / "fluids.csv"
    path.write_text(
        "name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,k_W_mK,ref_temp_C\n"
        "brine,1100,0.002,3500,0.55,15\n")
    cat = load_fluids(path)
    assert cat["brine"].viscosity == 0.002
    bad = tmp_path / "bad.csv"
    bad.write_text("name,density_kg_m3\nx,1\n")
    with pytest.raises(InvalidInputError):
        load_fluids(bad)
