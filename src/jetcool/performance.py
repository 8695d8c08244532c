"""Design-point evaluation: geometry + coolant + operating point -> report.

Chains the dimensionless predictors into engineering outputs (htc, thermal
resistance, pressure drop, pumping power, COP), decomposes the cell pressure
drop, models lidded-package series resistance, reduces multi-chip coupling
measurements and compares coolants. ``evaluate_design`` and ``dp_curve``
take one design or arrays of designs (an array-valued ``CoolerArray``), and
arrays of coolants (an array-valued ``FluidProps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import correlations as corr
from . import props as pr
from . import roots
from .errors import (InfeasibleError, InvalidGeometryError,
                     InvalidInputError, NoFlowError,
                     NonMeaningfulResistanceError, check)
from .geometry import CM2_PER_M2, CoolerArray, normalize, per_nozzle_flow

#: Default maximum allowed chip temperature increase for COP [K].
DT_MAX_ALLOW_DEFAULT = 60.0


@dataclass(frozen=True)
class OperatingPoint:
    flow_total: float          # m3/s
    chip_power: float = 0.0    # W

    def __post_init__(self) -> None:
        check((self.flow_total >= 0) & (self.flow_total < math.inf),
              "flow_total must be >= 0, got {}", self.flow_total)
        check((self.chip_power >= 0) & (self.chip_power < math.inf),
              "chip_power must be finite and >= 0, got {}", self.chip_power)


@dataclass(frozen=True)
class PerformanceReport:
    re: float
    pr: float
    nu_f: float
    bi: float
    nu_j: float
    htc: float          # W/(m2.K)
    r_th: float         # K/W
    r_star: float       # K.cm2/W
    dT_avg: float       # K
    dp: float           # Pa
    w_p: float          # W
    cop: float
    v_nozzle: float     # mean nozzle velocity m/s
    flow_per_nozzle: float  # m3/s
    warnings: tuple[str, ...] = ()


def evaluate_design(array: CoolerArray, fluid: pr.FluidProps,
                    solid: pr.SolidProps, op: OperatingPoint,
                    dt_max_allow: float = DT_MAX_ALLOW_DEFAULT) -> PerformanceReport:
    """Full performance chain for one design point, or for arrays of them.

    Nozzle velocity -> Re -> Nu_f -> Biot-corrected Nu_j -> htc -> R_th, and
    pressure coefficient k -> dp = k * (1/2) rho V^2 -> W_p = V_dot * dp,
    COP = (dt_max_allow / R_th) / W_p. Validity warnings from the fitted
    correlations are carried through in the report; with array-valued
    designs every report field is an array and ``warnings`` holds one tuple
    per design.
    """
    check((dt_max_allow > 0) & (dt_max_allow < math.inf),
          "dt_max_allow must be finite and > 0, got {}", dt_max_allow)
    check(op.flow_total != 0, "flow_total is zero", error=NoFlowError)
    flow_pn = per_nozzle_flow(op.flow_total, array.n)
    v_bar, inputs = _jet(array, fluid, op.flow_total)
    nu_f, nu_warns = corr.nu_f_predict(inputs)
    bi = pr.biot(nu_f, array.tc, array.d_i, fluid.conductivity,
                 solid.conductivity)
    nu_j = corr.biot_correct(nu_f, bi)
    htc = corr.nu_to_htc(nu_j, array.d_i, fluid.conductivity)
    r_th = 1.0 / (htc * array.heated_area)
    friction = corr.friction_predict(inputs)
    dp = friction.k * 0.5 * fluid.density * v_bar ** 2
    w_p = op.flow_total * dp
    check(dp < math.inf, "dp must be finite, got {}", dp)
    check(w_p > 0, "pump power must be > 0, got {} at flow_total {} m3/s",
          w_p, op.flow_total, error=NoFlowError)
    r_star, _, _ = normalize(r_th, w_p, op.flow_total, array.area)
    warns = ([tuple(dict.fromkeys(a + b)) for a, b
              in zip(nu_warns, friction.warnings)] if isinstance(nu_warns, list)
             else tuple(dict.fromkeys(nu_warns + friction.warnings)))
    return PerformanceReport(
        re=inputs.re, pr=pr.prandtl(fluid), nu_f=nu_f, bi=bi, nu_j=nu_j,
        htc=htc, r_th=r_th, r_star=r_star, dT_avg=op.chip_power * r_th, dp=dp,
        w_p=w_p, cop=(dt_max_allow / r_th) / w_p, v_nozzle=v_bar,
        flow_per_nozzle=flow_pn, warnings=warns)


def _jet(array: CoolerArray, fluid: pr.FluidProps, flow):
    """Mean nozzle velocity [m/s] and the predictive inputs at total flow."""
    v_bar = per_nozzle_flow(flow, array.n) / array.nozzle_area
    re = pr.reynolds(fluid, array.d_i, v_bar)
    return v_bar, corr.PredictiveInputs(array.di_over_L, array.do_over_L,
                                        array.H_over_L, array.t_over_L, re)


def dp_curve(array: CoolerArray, fluid: pr.FluidProps):
    """Cell pressure drop dp(V) [Pa] as a function of total flow V [m3/s].

    Re and the nozzle velocity are proportional to V, so the two terms of
    the pressure coefficient k (``correlations.friction_re_coef``) make
    dp(V) = A V^(2 + F_RE_EXP) + B V^2, strictly increasing in V. With
    array-valued designs or fluids, A and B are arrays and so is dp(V).
    """
    v_unit, inputs = _jet(array, fluid, 1.0)
    q_unit = 0.5 * fluid.density * v_unit ** 2
    a_coef = q_unit * inputs.re ** corr.F_RE_EXP * corr.friction_re_coef(
        inputs.di_over_L, inputs.H_over_L, inputs.t_over_L)
    b_coef = q_unit * corr.K_INF
    return lambda v: a_coef * v ** (2.0 + corr.F_RE_EXP) + b_coef * v * v


# ---------------------------------------------------------------------------
# pressure decomposition

@dataclass(frozen=True)
class PressureBreakdown:
    """First-order split of the unit-cell pressure drop [Pa].

    The sum of the components is a first-order estimate, not asserted equal
    to the measured/correlated total; the jet turning/expansion share is not
    modeled and reported as zero with a flag.
    """

    dp_in_nozzle: float
    dp_out_nozzle: float
    dp_channel: float
    dp_jet_residual: float
    warnings: tuple[str, ...] = ("jet_residual_unmodeled",)


def pressure_decomposition(array: CoolerArray, fluid: pr.FluidProps,
                           v_nozzle: float) -> PressureBreakdown:
    """Hagen-Poiseuille nozzle losses plus a slab model of the cavity channel.

    v_nozzle is the volumetric flow per nozzle [m3/s]. The channel term uses
    a plane-Poiseuille slab of length (L - d_i)/2, width L and gap H:
    dp = 12 mu v (L - d_i) / (2 L H^3), realizing the ~L*V/H^4 cavity scaling
    per unit width with a standard laminar constant (first order only).
    """
    check((v_nozzle >= 0) & (v_nozzle < math.inf),
          "v_nozzle must be >= 0, got {}", v_nozzle)
    mu = fluid.viscosity

    def hagen_poiseuille(name: str, d: float) -> float:
        return 8.0 * mu * array.t * v_nozzle / (
            math.pi * _length_power(f"({name}/2)", d / 2.0, 4))

    dp_channel = (12.0 * mu * v_nozzle * (array.L - array.d_i)
                  / (2.0 * array.L * _length_power("H", array.H, 3)))
    breakdown = PressureBreakdown(
        dp_in_nozzle=hagen_poiseuille("d_i", array.d_i),
        dp_out_nozzle=hagen_poiseuille("d_o", array.d_o),
        dp_channel=dp_channel, dp_jet_residual=0.0)
    for name in ("dp_in_nozzle", "dp_out_nozzle", "dp_channel"):
        value = getattr(breakdown, name)
        check(value < math.inf, "{} must be finite, got {}", name, value)
    return breakdown


def _length_power(name: str, length: float, k: int) -> float:
    """length ** k [m^k], checked finite and > 0: at extreme lengths a float
    power underflows to 0 or overflows."""
    try:
        value = length ** k
    except OverflowError:
        value = math.inf
    check((value > 0) & (value < math.inf),
          "{}^{} must be finite and > 0, got {} for {} = {} m", name, k,
          value, name, length, error=InvalidGeometryError)
    return value


# ---------------------------------------------------------------------------
# lidded packages

def lidded_series(r_star: float, tim_resistivity: float,
                  lid_resistivity: float) -> float:
    """1D series stack [K.cm2/W]: cooler + TIM + lid, no spreading."""
    for name, val in (("r_star", r_star), ("tim_resistivity", tim_resistivity),
                      ("lid_resistivity", lid_resistivity)):
        check((val >= 0) & (val < math.inf), "{} must be >= 0, got {}",
              name, val)
    return r_star + tim_resistivity + lid_resistivity


def slab_resistivity(thickness: float, conductivity: float) -> float:
    """Area-normalized 1D slab resistance thickness/k, in K.cm2/W."""
    check((thickness >= 0) & (conductivity > 0),
          "thickness >= 0 and conductivity > 0 required")
    return thickness / conductivity * CM2_PER_M2


# ---------------------------------------------------------------------------
# multi-chip coupling

@dataclass(frozen=True)
class CouplingMeasurement:
    """One single-source excitation: exactly one chip powered."""

    active_chip: str
    powers: Mapping[str, float]     # W per chip
    temps: Mapping[str, float]      # degC average per chip
    t_in: float                     # degC coolant inlet

    def __post_init__(self) -> None:
        values = np.array([*self.powers.values(), *self.temps.values(),
                           self.t_in], dtype=float)
        check(abs(values) < math.inf,
              "powers, temperatures and t_in must be finite, got {}", values)
        active = [c for c, p in self.powers.items() if p != 0.0]
        if len(active) != 1:
            raise NonMeaningfulResistanceError(
                "thermal resistance requires exactly one powered chip, "
                f"got {len(active)} nonzero powers")
        if active[0] != self.active_chip:
            raise InvalidInputError(
                f"active_chip {self.active_chip!r} does not match the nonzero "
                f"power on {active[0]!r}")


class CouplingMatrix(NamedTuple):
    r: np.ndarray                   # K/W, r[i][j] = (T_i - T_in)/P_j
    labels: tuple[str, ...]
    coupling_ratio: dict[tuple[str, str], float]


def coupling(measurements: Sequence[CouplingMeasurement]) -> CouplingMatrix:
    """Thermal resistance matrix from single-source measurements.

    R_ij = (T_i - T_in)/P_j from the measurement powering chip j only;
    coupling_ratio[(passive, active)] = (T_passive - T_in)/(T_active - T_in).
    One measurement per chip, giving every chip's temperature, is required.
    """
    check(len(measurements) > 0, "no measurements")
    labels = tuple(sorted({c for m in measurements for c in m.temps}))
    seen: dict[str, CouplingMeasurement] = {}
    for m in measurements:
        if m.active_chip in seen:
            raise InvalidInputError(f"duplicate measurement for {m.active_chip!r}")
        lacking = sorted(set(labels) - set(m.temps))
        check(not lacking, "measurement powering {!r} has no temperature for "
              "chip(s) {}", m.active_chip, lacking)
        seen[m.active_chip] = m
    missing = set(labels) - set(seen)
    if missing:
        raise InvalidInputError(f"no measurement powering chip(s): {sorted(missing)}")
    n = len(labels)
    r = np.zeros((n, n))
    ratios: dict[tuple[str, str], float] = {}
    for j, active in enumerate(labels):
        m = seen[active]
        p = m.powers[active]
        dt_active = m.temps[active] - m.t_in
        for i, chip in enumerate(labels):
            r[i, j] = (m.temps[chip] - m.t_in) / p
            if chip != active:
                ratios[(chip, active)] = (m.temps[chip] - m.t_in) / dt_active
    return CouplingMatrix(r=r, labels=labels, coupling_ratio=ratios)


# ---------------------------------------------------------------------------
# coolant comparison

class CoolantRating(NamedTuple):
    fluid: str
    relative_htc: float
    flow: float                     # m3/s actually used
    warnings: tuple[str, ...] = ()


def _htc_with_pr(array: CoolerArray, fluid: pr.FluidProps, flow_total):
    """Predicted htc with a Pr^(1/3) factor on the fixed-Pr correlation.

    The fitted Nu model holds at one Prandtl number; the multiplicative
    Pr^(1/3) follows the survey correlations and is a flagged approximation.
    """
    _, inputs = _jet(array, fluid, flow_total)
    nu_f, warns = corr.nu_f_predict(inputs)
    htc = corr.nu_to_htc(nu_f * pr.prandtl(fluid) ** (1.0 / 3.0),
                         array.d_i, fluid.conductivity)
    return htc, warns


def coolant_compare(coolants: Sequence[pr.FluidProps], reference: pr.FluidProps,
                    array: CoolerArray, op: OperatingPoint,
                    mode: str = "const_flow") -> list[CoolantRating]:
    """Relative heat transfer of each coolant against the reference.

    const_flow evaluates everything at op.flow_total; const_pump first solves
    each coolant's flow so that V*dp(V) matches the reference pumping power
    (``dp_curve``, one array bisection). All coolants are evaluated as one
    array-valued fluid.
    """
    if mode not in ("const_flow", "const_pump"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    check(op.flow_total > 0, "flow_total must be > 0", error=NoFlowError)
    fluids = pr.FluidProps("coolants", *(
        np.array([getattr(c, f) for c in coolants])
        for f in ("density", "viscosity", "specific_heat", "conductivity",
                  "reference_temp")))
    flow = np.full(len(coolants), op.flow_total)
    if mode == "const_pump":
        w_ref = op.flow_total * dp_curve(array, reference)(op.flow_total)
        dp = dp_curve(array, fluids)
        flow = roots.bisect_monotone(lambda v: v * dp(v), w_ref, op.flow_total)
        check(~np.isnan(flow), "pump power for {}: could not bracket the "
              "target", np.array([c.name for c in coolants]),
              error=InfeasibleError)
    htc_ref, _ = _htc_with_pr(array, reference, op.flow_total)
    htc, warns = _htc_with_pr(array, fluids, flow)
    return [CoolantRating(c.name, h / htc_ref, v, w) for c, h, v, w
            in zip(coolants, htc.tolist(), flow.tolist(), warns)]

