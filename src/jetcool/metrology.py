"""Experimental data reduction, uncertainty propagation, grid convergence.

All temperatures are handled as increases relative to the power-off/inlet
reference, never as absolute readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (NonMonotoneConvergenceError, NonPhysicalReductionError,
                     check)

#: diode sensitivity default [mV/degC] of the 32x32 sensor array
DIODE_SENSITIVITY_MV_C = -1.55
#: resistor temperature coefficient default [1/degC] at 25 degC reference
TCR_PER_C = 3553e-6
#: three-grid-level safety factor for the convergence index
GCI_SAFETY_FACTOR = 1.25
#: default grid refinement ratio between successive levels
GCI_REFINEMENT_RATIO = 2.0
#: largest |asymptotic_ratio - 1| still counted as the asymptotic range
GCI_ASYMPTOTIC_TOL = 0.05


class SensorModel(Enum):
    DIODE = "diode"
    TCR = "tcr"


@dataclass(frozen=True)
class SensorMap:
    """Grid of raw sensor readings plus the conversion model.

    diode: readings are voltages [V], sensitivity [V/degC].
    tcr: readings are resistances [Ohm], tcr [1/degC]; the reference map
    carries the per-cell R0 at the reference temperature.
    """

    readings: np.ndarray
    model: SensorModel
    sensitivity: float = DIODE_SENSITIVITY_MV_C * 1e-3
    tcr: float = TCR_PER_C

    def __post_init__(self) -> None:
        object.__setattr__(self, "readings",
                           np.asarray(self.readings, dtype=float))
        check(abs(self.readings) < math.inf, "sensor readings must be finite")


def sensor_to_dT(sensor_map: SensorMap, reference_readings) -> np.ndarray:
    """Per-cell temperature increase [K] against the power-off reference.

    diode: dT = (V_on - V_off)/sigma; tcr: dT = (R - R0)/(R0 * TCR).
    """
    ref = np.asarray(reference_readings, dtype=float)
    check(ref.shape == sensor_map.readings.shape,
          "reference shape {} != readings shape {}", ref.shape,
          sensor_map.readings.shape)
    check(abs(ref) < math.inf, "reference readings must be finite")
    if sensor_map.model is SensorModel.DIODE:
        sens = sensor_map.sensitivity
        check(0 < abs(sens) < math.inf,
              "diode sensitivity must be finite and nonzero, got {}", sens)
        return (sensor_map.readings - ref) / sens
    check(0 < abs(sensor_map.tcr) < math.inf,
          "TCR must be finite and nonzero, got {}", sensor_map.tcr)
    check(ref != 0, "R0 must be nonzero")
    return (sensor_map.readings - ref) / (ref * sensor_map.tcr)


@dataclass(frozen=True)
class ChipStack:
    """Minimal chip description for the 1D reduction."""

    t_c: float          # chip thickness m
    k_s: float          # silicon conductivity W/(m.K)
    a_heater: float     # active heater area m2

    def __post_init__(self) -> None:
        for name in ("t_c", "k_s", "a_heater"):
            val = getattr(self, name)
            check(0 < val < math.inf, "{} must be finite and > 0, got {}",
                  name, val)


class Reduction(NamedTuple):
    r_th: float         # K/W, junction-side, losses included
    q_loss: float       # W escaping through the package
    t_s_avg: float      # degC average cooled-surface temperature
    htc: float          # W/(m2.K) area-averaged
    dT_avg: float       # K mean chip temperature increase


def reduce(dT_grid, power: float, t_amb: float, t_in: float, r_loss: float,
           chip: ChipStack) -> Reduction:
    """Reduce a temperature-increase map to R_th, heat loss and htc.

    The chip average temperature is t_in + mean(dT); the package loss path of
    resistance r_loss carries q_loss = (T_chip - t_amb)/r_loss; the remaining
    net power conducts 1D through the chip to the cooled surface, whose
    temperature then defines htc = net/(A*(t_s - t_in)). By construction
    htc*A*(t_s - t_in) + q_loss = power exactly.
    """
    check(0 < power < math.inf, "power must be finite and > 0, got {}", power)
    check(0 < r_loss < math.inf, "r_loss must be finite and > 0, got {}",
          r_loss)
    check(abs(t_amb) < math.inf and abs(t_in) < math.inf,
          "t_amb and t_in must be finite, got {}, {}", t_amb, t_in)
    dT = np.asarray(dT_grid, dtype=float)
    check(dT.size > 0 and np.all(abs(dT) < math.inf),
          "temperature map must be non-empty and finite")
    dT_avg = float(dT.mean())
    t_chip = t_in + dT_avg
    r_th = dT_avg / power
    q_loss = (t_chip - t_amb) / r_loss
    net = power - q_loss
    t_s = t_chip - net * chip.t_c / (chip.a_heater * chip.k_s)
    if t_s <= t_in:
        raise NonPhysicalReductionError(
            f"cooled surface at {t_s:.3f} degC not above inlet {t_in:.3f} degC")
    htc = net / (chip.a_heater * (t_s - t_in))
    return Reduction(r_th=r_th, q_loss=q_loss, t_s_avg=t_s, htc=htc,
                     dT_avg=dT_avg)


def propagate(budget: Mapping[str, float]) -> float:
    """Root-sum-square of independent relative uncertainty components."""
    check(len(budget) > 0, "empty uncertainty budget")
    comps = np.asarray(list(budget.values()), dtype=float)
    check((comps >= 0) & (comps < math.inf),
          "components must be finite and >= 0, got {}", comps)
    return float(np.sqrt(np.sum(comps ** 2)))


class GciResult(NamedTuple):
    p: float                 # observed order of convergence
    gci12: float             # fine-pair index
    gci23: float             # coarse-pair index
    asymptotic_ratio: float  # gci23 / (r^p * gci12), ~1 in asymptotic range
    in_asymptotic_range: bool


def gci(f1_fine: float, f2: float, f3_coarse: float,
        r: float = GCI_REFINEMENT_RATIO,
        fs: float = GCI_SAFETY_FACTOR) -> GciResult:
    """Grid convergence index from three solutions at refinement ratio r.

    p = ln((f3-f2)/(f2-f1))/ln r; GCI_pair = fs*r^p/(r^p-1)*|relative change|.
    Differences must be same-signed, nonzero and shrink toward the fine grid
    (oscillatory or divergent levels are out of scope); the inputs must be
    finite, and f1, f2 nonzero. The ratio
    is in the asymptotic range within GCI_ASYMPTOTIC_TOL (0.05) of 1.
    """
    for name, val in (("f1", f1_fine), ("f2", f2), ("f3", f3_coarse)):
        check(abs(val) < math.inf, "{} must be finite, got {}", name, val)
    check(1 < r < math.inf, "refinement ratio must be finite and > 1, got {}",
          r)
    check(0 < fs < math.inf, "safety factor fs must be finite and > 0, got {}",
          fs)
    check(f1_fine != 0 and f2 != 0,
          "f1 and f2 must be nonzero: the index is relative to them")
    d32 = f3_coarse - f2
    d21 = f2 - f1_fine
    if d21 == 0 or (d32 > 0) != (d21 > 0) or abs(d32) <= abs(d21):
        raise NonMonotoneConvergenceError(
            f"grid-level differences {d21:g}, {d32:g} must be nonzero, "
            "same-signed and shrink toward the fine grid (order p > 0)")
    steps = d32 / d21
    check(0 < steps < math.inf, "(f3 - f2)/(f2 - f1) must be finite and > 0, "
          "got {}", steps)
    p = math.log(steps) / math.log(r)
    amp = fs * r ** p / (r ** p - 1.0)
    gci23 = amp * abs(d32 / f2)
    gci12 = amp * abs(d21 / f1_fine)
    scale = r ** p * gci12
    check(abs(gci23) < math.inf and 0 < abs(scale) < math.inf, "GCI_23 = {} "
          "and r^p * GCI_12 = {} must be finite, the latter nonzero", gci23,
          scale)
    ratio = gci23 / scale
    return GciResult(p=p, gci12=gci12, gci23=gci23, asymptotic_ratio=ratio,
                     in_asymptotic_range=abs(ratio - 1.0) <= GCI_ASYMPTOTIC_TOL)
