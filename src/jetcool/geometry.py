"""Nozzle-array geometry, dimensionless ratios and normalization.

The repeating tile of an N x N array is the unit cell: one inlet nozzle of
diameter d_i surrounded by outlets of diameter d_o, on a pitch
L = chip_side / N, under a cavity of height H behind a nozzle plate of
thickness t, cooling a chip of thickness tc. A design is one
``CoolerArray`` of the chip side, N, the four ratios d_i/L, d_o/L, H/L and
t/L, and tc; the lengths are derived from them. All lengths in meters. Every
length, ratio and count may also be an array, one element per design; the
checks then hold element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, check

CM2_PER_M2 = 1e4
#: Default share of the chip area covered by the heater.
HEATED_FRACTION_DEFAULT = 0.75


@dataclass(frozen=True)
class CoolerArray:
    """Square chip with an N x N inlet-nozzle array, given by its unit-cell
    ratios: pitch L = chip_side/n, and d_i, d_o, H and t as fractions of L."""

    chip_side: float
    n: int
    di_over_L: float
    do_over_L: float
    H_over_L: float
    t_over_L: float
    tc: float
    heated_fraction: float = HEATED_FRACTION_DEFAULT

    def __post_init__(self) -> None:
        check(self.n >= 1, "n must be >= 1, got {}", self.n,
              error=InvalidGeometryError)
        for name, val in (("d_i/L", self.di_over_L),
                          ("d_o/L", self.do_over_L)):
            check((val > 0) & (val < 1), "{} must be in (0, 1), got {}", name,
                  val, error=InvalidGeometryError)
        hf = self.heated_fraction
        check((hf > 0) & (hf <= 1), "heated_fraction must be in (0, 1], got {}",
              hf, error=InvalidGeometryError)
        for name in ("L", "d_i", "d_o", "H", "t", "tc", "nozzle_area",
                     "heated_area"):
            val = getattr(self, name)
            check((val > 0) & (val < math.inf),
                  "{} must be finite and > 0, got {}", name, val,
                  error=InvalidGeometryError)

    @property
    def L(self) -> float:
        """Pitch [m]."""
        return self.chip_side / self.n

    @property
    def d_i(self) -> float:
        return self.di_over_L * self.L

    @property
    def d_o(self) -> float:
        return self.do_over_L * self.L

    @property
    def H(self) -> float:
        return self.H_over_L * self.L

    @property
    def t(self) -> float:
        return self.t_over_L * self.L

    @property
    def nozzle_area(self) -> float:
        """Inlet nozzle cross-section pi*d_i^2/4 [m2]; d_i * d_i is inf,
        without a warning, where a float d_i ** 2 would raise OverflowError."""
        with np.errstate(over="ignore"):
            return math.pi * (self.d_i * self.d_i) / 4.0

    @property
    def area(self) -> float:
        """Chip area [m2]."""
        return self.chip_side ** 2

    @property
    def area_cm2(self) -> float:
        return self.area * CM2_PER_M2

    @property
    def heated_area(self) -> float:
        """Active heater area [m2]."""
        return self.area * self.heated_fraction

    @property
    def nozzle_count(self) -> int:
        return self.n * self.n

    @property
    def nozzle_density_cm2(self) -> float:
        """Inlet nozzles per cm2 of chip area, N^2/A."""
        return self.nozzle_count / self.area_cm2


#: The constructor under its ratio-building name.
array_from_ratios = CoolerArray


def normalize(r_th: float, w_p: float, v_dot: float,
              area: float) -> tuple[float, float, float]:
    """Area-normalize one design point.

    area is the chip area in m2. Returns the conventional mixed units:
    (r_star [K.cm2/W], w_star [W/cm2], v_star [(m3/s)/cm2]).
    """
    check((area > 0) & (area < math.inf), "area must be > 0, got {}", area)
    area_cm2 = area * CM2_PER_M2
    return r_th * area_cm2, w_p / area_cm2, v_dot / area_cm2


def per_nozzle_flow(v_total: float, n: int) -> float:
    """Flow rate through one nozzle of an N x N array: V_total / N^2."""
    check(n >= 1, "n must be >= 1, got {}", n)
    return v_total / (n * n)


def extrapolate_power(r_star: float, area_cm2: float, dT_allow: float) -> float:
    """Coolable chip power [W] at a given die area from normalized resistance.

    P = dT_allow * area / r_star with r_star in K.cm2/W and area in cm2.
    """
    check((r_star > 0) & (r_star < math.inf), "r_star must be > 0, got {}",
          r_star)
    check((area_cm2 >= 0) & (dT_allow >= 0), "area and dT_allow must be >= 0")
    return dT_allow * area_cm2 / r_star
