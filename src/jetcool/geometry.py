"""Nozzle-array geometry, dimensionless ratios and normalization.

The repeating tile of an N x N array is the unit cell: one inlet nozzle of
diameter d_i surrounded by outlets of diameter d_o, on a pitch
L = chip_side / N, under a cavity of height H behind a nozzle plate of
thickness t, cooling a chip of thickness t_c. All lengths in meters. Every
length, ratio and count may also be an array, one element per design; the
checks then hold element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidGeometryError, check

CM2_PER_M2 = 1e4
#: Default share of the chip area covered by the heater.
HEATED_FRACTION_DEFAULT = 0.75


@dataclass(frozen=True)
class UnitCell:
    L: float
    d_i: float
    d_o: float
    H: float
    t: float
    t_c: float

    def __post_init__(self) -> None:
        for name in ("L", "d_i", "d_o", "H", "t", "t_c"):
            val = getattr(self, name)
            check((val > 0) & (val < math.inf),
                  "{} must be finite and > 0, got {}", name, val,
                  error=InvalidGeometryError)
        check(self.d_i < self.L, "inlet diameter {} must be smaller than the "
              "pitch {}", self.d_i, self.L, error=InvalidGeometryError)
        check(self.d_o < self.L, "outlet diameter {} must be smaller than the "
              "pitch {}", self.d_o, self.L, error=InvalidGeometryError)

    @property
    def di_over_L(self) -> float:
        return self.d_i / self.L

    @property
    def do_over_L(self) -> float:
        return self.d_o / self.L

    @property
    def H_over_L(self) -> float:
        return self.H / self.L

    @property
    def t_over_L(self) -> float:
        return self.t / self.L

    @property
    def nozzle_area(self) -> float:
        """Inlet nozzle cross-section pi*d_i^2/4 [m2]."""
        return math.pi * self.d_i ** 2 / 4.0


@dataclass(frozen=True)
class CoolerArray:
    """Square chip with an N x N inlet-nozzle array (pitch L = chip_side/n)."""

    chip_side: float
    n: int
    cell: UnitCell
    heated_fraction: float = HEATED_FRACTION_DEFAULT

    def __post_init__(self) -> None:
        check(self.n >= 1, "n must be >= 1, got {}", self.n,
              error=InvalidGeometryError)
        hf = self.heated_fraction
        check((hf > 0) & (hf <= 1), "heated_fraction must be in (0, 1], got {}",
              hf, error=InvalidGeometryError)
        check(abs(self.cell.L * self.n - self.chip_side)
              <= 1e-12 * self.chip_side, "cell pitch {} x n {} != chip side {}",
              self.cell.L, self.n, self.chip_side, error=InvalidGeometryError)

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


def array_from_ratios(chip_side: float, n: int, di_over_L: float,
                      do_over_L: float, H_over_L: float, t_over_L: float,
                      tc: float,
                      heated_fraction: float = HEATED_FRACTION_DEFAULT
                      ) -> CoolerArray:
    """Build a CoolerArray from dimensionless ratios and absolute chip size."""
    check(n >= 1, "n must be >= 1, got {}", n, error=InvalidGeometryError)
    check((di_over_L > 0) & (di_over_L < 1), "d_i/L must be in (0, 1), got {}",
          di_over_L, error=InvalidGeometryError)
    check((do_over_L > 0) & (do_over_L < 1), "d_o/L must be in (0, 1), got {}",
          do_over_L, error=InvalidGeometryError)
    L = chip_side / n
    cell = UnitCell(L=L, d_i=di_over_L * L, d_o=do_over_L * L,
                    H=H_over_L * L, t=t_over_L * L, t_c=tc)
    return CoolerArray(chip_side=chip_side, n=n, cell=cell,
                       heated_fraction=heated_fraction)


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
