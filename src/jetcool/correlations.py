"""Predictive Nu/f models, literature correlation catalog, Biot correction.

The predictors return a value together with machine-readable validity
warnings: design exploration legitimately probes outside the fitted ranges,
so out-of-range inputs are never clamped and never fatal. The predictive
chain (``PredictiveInputs`` through ``nu_to_htc``) takes floats or arrays
of designs alike; for arrays the warnings are one tuple per design.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import tables
from .errors import InvalidInputError, UnderdeterminedFitError, check


class Basis(Enum):
    """Temperature reference the Nusselt number of a correlation is built on."""

    JUNCTION = "junction"
    FLUID_INTERFACE = "fluid_interface"
    STAGNATION = "stagnation"


class Prediction(NamedTuple):
    value: float
    warnings: tuple[str, ...] = ()


class FrictionPrediction(NamedTuple):
    f: float
    k: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PredictiveInputs:
    """Dimensionless arguments of the fitted predictive models (floats, or
    arrays with one element per design)."""

    di_over_L: float
    do_over_L: float
    H_over_L: float
    t_over_L: float
    re: float

    def __post_init__(self) -> None:
        for name in ("di_over_L", "do_over_L", "H_over_L", "t_over_L"):
            val = getattr(self, name)
            check((val > 0) & (val < math.inf), "{} must be > 0, got {}",
                  name, val)
        check((self.re >= 0) & (self.re < math.inf),
              "re must be >= 0, got {}", self.re)


def _flagged(*flags) -> tuple[str, ...] | list[tuple[str, ...]]:
    """Validity warnings "name:value" from (name, mask, value) flags.

    For scalar flags one tuple, in flag order. For arrays one such tuple per
    design, with strings formatted only for the designs that are flagged.
    """
    if not any(isinstance(mask, np.ndarray) for _, mask, _ in flags):
        return tuple(f"{name}:{val:g}" for name, mask, val in flags if mask)
    shape = np.broadcast_shapes(*(np.shape(m) for _, m, _ in flags))
    out: list[tuple[str, ...]] = [()] * shape[0]
    for name, mask, val in flags:
        val = np.broadcast_to(val, shape)
        for i in np.flatnonzero(np.broadcast_to(mask, shape)):
            out[i] += (f"{name}:{val[i]:g}",)
    return out


def nu_f_predict(inputs: PredictiveInputs) -> Prediction:
    """Interface-temperature Nusselt number of a distributed-outlet array.

    Nu_f = (5.64 a^2 + 0.031 a - 0.000632) * (H/L)^-0.29 * Re^(0.48 a^-0.16)
    with a = d_i/L; the fit holds for d_o/L = d_i/L, a in [0.01, 0.4],
    H/L in [0.01, 0.4], Re in [32, 2048] (confidence +-25%).
    """
    a, h, re, do = (inputs.di_over_L, inputs.H_over_L, inputs.re,
                    inputs.do_over_L)
    coef = 5.64 * a * a + 0.031 * a - 0.000632
    value = coef * h ** -0.29 * re ** (0.48 * a ** -0.16)
    # fit condition d_o/L = d_i/L; smaller outlets raise the pressure drop
    # and can degrade heat transfer
    return Prediction(value, _flagged(
        ("di_over_L_out_of_range", (a < 0.01) | (a > 0.4), a),
        ("H_over_L_out_of_range", (h < 0.01) | (h > 0.4), h),
        ("re_out_of_range", (re < 32) | (re > 2048), re),
        ("do_smaller_than_di", do < a, do)))


#: The pressure coefficient k = f * (t/d_i) of ``friction_predict`` is
#: friction_re_coef(a, H/L, t/L) * Re**F_RE_EXP + K_INF.
F_RE_EXP = -0.73
K_INF = 0.8


def friction_re_coef(a, h_over_L, t_over_L):
    """Coefficient of the Re**F_RE_EXP term of the pressure coefficient k."""
    return ((21.2 * a + 14.5) * a ** -0.26 * (2.26 * t_over_L + 0.89)
            * (0.37 * h_over_L ** 0.15 + 0.55))


def friction_predict(inputs: PredictiveInputs) -> FrictionPrediction:
    """Friction factor f and pressure coefficient k = f * (t/d_i).

    f = ((21.2 a + 14.5) Re^-0.73 a^-0.26 (2.26 t/L + 0.89)
         (0.37 (H/L)^0.15 + 0.55) + 0.8) * (t/d_i)^-1
    valid for d_o/L = d_i/L, a in [0.05, 0.6], t/L >= 0.1, H/d_i >= 0.2,
    Re in [32, 2048] (confidence +-15%). k relates to the pressure drop via
    dp = k * (1/2) rho V^2.
    """
    a, h, t, re = (inputs.di_over_L, inputs.H_over_L, inputs.t_over_L,
                   inputs.re)
    # an extreme t/L overflows k to inf, which the dp check reports
    with np.errstate(over="ignore", invalid="ignore"):
        t_over_di = t / a
        k = friction_re_coef(a, h, t) * re ** F_RE_EXP + K_INF
        f = k / t_over_di
    return FrictionPrediction(f, k, _flagged(
        ("di_over_L_out_of_range", (a < 0.05) | (a > 0.6), a),
        ("t_over_L_out_of_range", t < 0.1, t),
        ("H_over_di_out_of_range", h / a < 0.2, h / a),
        ("re_out_of_range", (re < 32) | (re > 2048), re)))


def biot_correct(nu_f: float, bi: float) -> float:
    """Junction-temperature Nusselt number Nu_j = Nu_f / g(Bi).

    g(Bi) = 1 + Bi + (0.1 Bi + 1.1 Bi^2) folds 1D conduction and spreading in
    the die; g(0) = 1 so Nu_j -> Nu_f for a vanishing chip thickness.
    """
    check((bi >= 0) & (bi < math.inf), "bi must be >= 0, got {}", bi)
    return nu_f / g_bi(bi)


def g_bi(bi: float) -> float:
    return 1.0 + bi + (0.1 * bi + 1.1 * bi * bi)


def nu_to_htc(nu: float, d_i: float, k_f: float) -> float:
    """Heat transfer coefficient h = Nu * k_f / d_i [W/(m2.K)]."""
    check((d_i > 0) & (d_i < math.inf), "d_i must be > 0, got {}", d_i)
    return nu * k_f / d_i


# ---------------------------------------------------------------------------
# literature catalog

class ValidityWarning(UserWarning):
    """Raised (as a warning) when a fitted exponent is unusual."""


@dataclass(frozen=True)
class PowerLawCorrelation:
    """Nu = c * Re^m [* Pr^pr_exponent] [* (H/D)^..., (Xn/D)^...].

    re_min/re_max delimit the stated validity range (None = not stated).
    Extra geometric factors cover multi-factor literature forms.
    """

    label: str
    c: float
    m: float
    basis: Basis
    pr_exponent: float | None = None
    re_min: float | None = None
    re_max: float | None = None
    h_over_d_exponent: float | None = None
    xn_over_d_exponent: float | None = None

    def __post_init__(self) -> None:
        check(0 < self.c < math.inf, "{}: c must be > 0, got {}", self.label,
              self.c)
        check(0 < self.m < 1, "{}: Re exponent must be in (0, 1), got {}",
              self.label, self.m)
        if not 0.45 <= self.m <= 0.85:
            _warnings.warn(
                f"{self.label}: Re exponent {self.m} outside the usual "
                "0.45-0.85 survey band", ValidityWarning, stacklevel=3)


def eval_catalog(entry: PowerLawCorrelation, re: float,
                 pr: float | None = None, h_over_d: float | None = None,
                 xn_over_d: float | None = None) -> Prediction:
    """Evaluate a catalog correlation at a Reynolds number.

    Pr (and the geometric ratios for multi-factor forms) are required exactly
    when the entry carries the matching exponent; a Re outside the stated
    validity range is flagged, not rejected.
    """
    check((re > 0) & (re < math.inf), "re must be > 0, got {}", re)
    warns = []
    if entry.re_min is not None and re < entry.re_min:
        warns.append(f"re_below_validity:{re:g}<{entry.re_min:g}")
    if entry.re_max is not None and re > entry.re_max:
        warns.append(f"re_above_validity:{re:g}>{entry.re_max:g}")
    value = entry.c * re ** entry.m
    for exponent, arg, name in ((entry.pr_exponent, pr, "pr"),
                                (entry.h_over_d_exponent, h_over_d, "h_over_d"),
                                (entry.xn_over_d_exponent, xn_over_d, "xn_over_d")):
        if exponent is None:
            continue
        if arg is None:
            raise InvalidInputError(f"{entry.label}: {name} required")
        check((arg > 0) & (arg < math.inf), "{}: {} must be > 0, got {}",
              entry.label, name, arg)
        value *= arg ** exponent
    return Prediction(value, tuple(warns))


# in the order of the PowerLawCorrelation fields: the columns after basis
# may be blank, and the last two absent
_CATALOG_COLUMNS = dict(label=str, c=float, m=float, basis=Basis,
                        pr_exponent=float, re_min=float, re_max=float,
                        h_over_d_exponent=float, xn_over_d_exponent=float)


def load_catalog(path: str | Path) -> dict[str, PowerLawCorrelation]:
    """Load a correlation catalog CSV.

    Header ``label,c,m,pr_exponent,re_min,re_max,basis``; multi-factor rows
    carry a ``form`` column naming the template (``power_law`` or
    ``power_law_hd_xn``) plus ``h_over_d_exponent``/``xn_over_d_exponent``.
    """
    names = list(_CATALOG_COLUMNS)
    rows = tables.read_csv(path, _CATALOG_COLUMNS, blank=names[4:],
                           optional=names[7:])
    return {row[0]: PowerLawCorrelation(*row) for row in rows}


def builtin_catalog() -> dict[str, PowerLawCorrelation]:
    """Correlations measured in this project plus the literature survey."""
    return load_catalog(tables.DATA_DIR / "nu_catalog.csv")


# ---------------------------------------------------------------------------
# fitting

class FitResult(NamedTuple):
    """Raw power-law fit: Nu = c * Re^m with log-space residual norm.

    The exponent is reported as fitted (a flat trend legitimately yields
    m = 0); converting to a catalog entry applies the catalog's exponent
    validation.
    """

    c: float
    m: float
    residual: float
    re_min: float
    re_max: float

    def correlation(self, label: str = "fit",
                    basis: Basis = Basis.JUNCTION) -> PowerLawCorrelation:
        return PowerLawCorrelation(label=label, c=self.c, m=self.m,
                                   basis=basis, re_min=self.re_min,
                                   re_max=self.re_max)


def fit_power_law(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of ln(nu) = ln(c) + m*ln(re).

    Requires >= 2 points with distinct Re; all samples positive.
    """
    if len(points) < 2:
        raise UnderdeterminedFitError("need at least 2 points")
    re = np.asarray([p[0] for p in points], dtype=float)
    nu = np.asarray([p[1] for p in points], dtype=float)
    check((re > 0) & (re < math.inf) & (nu > 0) & (nu < math.inf),
          "all samples must be finite and > 0, got ({}, {})", re, nu)
    if np.unique(re).size < 2:
        raise UnderdeterminedFitError("need at least 2 distinct Re values")
    A = np.column_stack([np.ones_like(re), np.log(re)])
    coef, *_ = np.linalg.lstsq(A, np.log(nu), rcond=None)
    resid = float(np.linalg.norm(A @ coef - np.log(nu)))
    return FitResult(c=float(np.exp(coef[0])), m=float(coef[1]),
                     residual=resid, re_min=float(re.min()),
                     re_max=float(re.max()))


# ---------------------------------------------------------------------------
# per-nozzle hotspot fits (1 mm pitch cells; d in mm, m_nz in mL/min)

@dataclass(frozen=True)
class HotspotHtcModel:
    """htc = c * d^d_exp * m_nz^(m_exp + m_exp_d * d)  [W/(m2.K)].

    Fitted per-cell heat transfer against nozzle diameter d [mm] and
    per-nozzle flow m_nz [mL/min]; the flow exponent itself varies with d.
    Both fits take floats, giving floats, or arrays that broadcast, giving
    arrays; a bad element is reported by its value.
    """

    c: float = 8440.0
    d_exp: float = -0.4157
    m_exp: float = 0.7843
    m_exp_d: float = -0.6624
    pitch_mm: float = 1.0

    def evaluate(self, d_mm, m_nz_mlpm):
        check((d_mm > 0) & (m_nz_mlpm >= 0),
              "d must be > 0 and m_nz >= 0, got d = {} mm, m_nz = {} mL/min",
              d_mm, m_nz_mlpm)
        return (self.c * d_mm ** self.d_exp
                * m_nz_mlpm ** (self.m_exp + self.m_exp_d * d_mm))

    def flow_for_htc(self, d_mm, htc):
        """Per-nozzle flow needed to reach htc at diameter d.

        Only defined while the flow exponent stays positive (d below
        -m_exp/m_exp_d); beyond that more flow does not raise htc.
        """
        check((d_mm > 0) & (htc > 0),
              "d and htc must be > 0, got d = {} mm, htc = {} W/(m2.K)",
              d_mm, htc)
        exponent = self.m_exp + self.m_exp_d * d_mm
        check(exponent > 0, "flow exponent {:g} <= 0 at d = {} mm", exponent,
              d_mm)
        return (htc / (self.c * d_mm ** self.d_exp)) ** (1.0 / exponent)


@dataclass(frozen=True)
class NozzlePressureModel:
    """dp = c * d^d_exp * m_nz^m_exp (same unit convention as the htc fit).

    Only ratios and equality constraints of this fit are load bearing; the
    absolute pressure unit is the one implicit in the fitted constant.
    Takes floats or arrays, as ``HotspotHtcModel`` does.
    """

    c: float = 0.655
    d_exp: float = -4.0
    m_exp: float = 1.76
    pitch_mm: float = 1.0

    def evaluate(self, d_mm, m_nz_mlpm):
        check((d_mm > 0) & (m_nz_mlpm >= 0),
              "d must be > 0 and m_nz >= 0, got d = {} mm, m_nz = {} mL/min",
              d_mm, m_nz_mlpm)
        return self.c * d_mm ** self.d_exp * m_nz_mlpm ** self.m_exp

    def flow_for_dp(self, d_mm, dp):
        """Invert the fit: per-nozzle flow driven through diameter d at dp."""
        check((d_mm > 0) & (dp >= 0),
              "d must be > 0 and dp >= 0, got d = {} mm, dp = {}", d_mm, dp)
        return (dp / (self.c * d_mm ** self.d_exp)) ** (1.0 / self.m_exp)


def fit_htc_model(points: Sequence[tuple[float, float, float]],
                  pitch_mm: float = 1.0) -> HotspotHtcModel:
    """Fit the two-variable per-cell htc power law in log space.

    points are (d_mm, m_nz_mlpm, htc) samples; the model is linear in
    (1, ln d, ln m, d*ln m) after taking logs, so an ordinary least-squares
    solve recovers all four constants. Requires >= 4 samples spanning at
    least two diameters and two flows.
    """
    if len(points) < 4:
        raise UnderdeterminedFitError("need at least 4 points")
    d = np.asarray([p[0] for p in points], dtype=float)
    m = np.asarray([p[1] for p in points], dtype=float)
    htc = np.asarray([p[2] for p in points], dtype=float)
    check((d > 0) & (d < math.inf) & (m > 0) & (m < math.inf) & (htc > 0)
          & (htc < math.inf),
          "all samples must be finite and > 0, got ({}, {}, {})", d, m, htc)
    if np.unique(d).size < 2 or np.unique(m).size < 2:
        raise UnderdeterminedFitError("need >= 2 distinct diameters and flows")
    A = np.column_stack([np.ones_like(d), np.log(d), np.log(m), d * np.log(m)])
    coef, *_ = np.linalg.lstsq(A, np.log(htc), rcond=None)
    return HotspotHtcModel(c=float(np.exp(coef[0])), d_exp=float(coef[1]),
                           m_exp=float(coef[2]), m_exp_d=float(coef[3]),
                           pitch_mm=pitch_mm)
