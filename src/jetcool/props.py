"""Material property catalog and dimensionless-number helpers.

Properties are constant (temperature independent). The built-in catalog is
loaded from ``data/fluids.csv`` / ``data/solids.csv`` which use the same CSV
schema accepted for user catalogs:

    name,density_kg_m3,viscosity_kg_ms,cp_J_kgK,k_W_mK,ref_temp_C
    name,k_W_mK

The built-in catalogs are read once per process and shared: each is a
read-only mapping, so a caller that adds entries merges into a copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from . import tables
from .errors import check

#: Prandtl number used when the predictive correlations were fitted
#: (representative DI-water value). The catalog water entry evaluates to
#: Pr = 9.09 instead; both are exposed, neither is substituted for the other.
PR_PAPER = 7.56


@dataclass(frozen=True)
class FluidProps:
    """Constant-property liquid coolant.

    density kg/m3, viscosity kg/(m.s), specific_heat J/(kg.K),
    conductivity W/(m.K), reference_temp degC. Array-valued properties
    describe several coolants at once, one per element.
    """

    name: str
    density: float
    viscosity: float
    specific_heat: float
    conductivity: float
    reference_temp: float

    def __post_init__(self) -> None:
        for field, low in (("density", 0), ("viscosity", 0),
                           ("specific_heat", 0), ("conductivity", 0),
                           ("reference_temp", -273.15)):
            val = getattr(self, field)
            check((val > low) & (val < math.inf),
                  "fluid {!r}: {} must be finite and > {}, got {}", self.name,
                  field, low, val)


@dataclass(frozen=True)
class SolidProps:
    """Isotropic solid with scalar conductivity W/(m.K)."""

    name: str
    conductivity: float

    def __post_init__(self) -> None:
        check(0 < self.conductivity < math.inf,
              "solid {!r}: conductivity must be finite and > 0, got {}",
              self.name, self.conductivity)


def reynolds(fluid: FluidProps, d: float, v: float) -> float:
    """Nozzle Reynolds number rho*d*V/mu for diameter d [m], velocity v [m/s]
    (floats or arrays)."""
    check((d > 0) & (d < math.inf), "diameter must be finite and > 0, got {}",
          d)
    check((v >= 0) & (v < math.inf), "velocity must be finite and >= 0, got {}",
          v)
    return fluid.density * d * v / fluid.viscosity


def prandtl(fluid: FluidProps) -> float:
    """Prandtl number mu*Cp/k of the coolant."""
    return fluid.viscosity * fluid.specific_heat / fluid.conductivity


def biot(nu_f: float, t_c: float, d_i: float, k_f: float, k_s: float) -> float:
    """Conduction/convection Biot number Nu_f * (t_c/d_i) * (k_f/k_s).

    t_c is the chip thickness [m], d_i the nozzle diameter [m]; zero t_c or
    zero Nu_f give Bi = 0 (no conduction penalty). Floats or arrays.
    """
    check((d_i > 0) & (d_i < math.inf), "d_i must be finite and > 0, got {}",
          d_i)
    check((k_s > 0) & (k_s < math.inf), "k_s must be finite and > 0, got {}",
          k_s)
    check((nu_f >= 0) & (nu_f < math.inf) & (t_c >= 0) & (t_c < math.inf),
          "nu_f and t_c must be finite and >= 0")
    check(abs(k_f) < math.inf, "k_f must be finite, got {}", k_f)
    return nu_f * (t_c / d_i) * (k_f / k_s)


# ---------------------------------------------------------------------------
# catalog loading

# in the order of the FluidProps and SolidProps fields
_FLUID_COLUMNS = dict(name=str, density_kg_m3=float, viscosity_kg_ms=float,
                      cp_J_kgK=float, k_W_mK=float, ref_temp_C=float)
_SOLID_COLUMNS = dict(name=str, k_W_mK=float)


def load_fluids(path: str | Path) -> dict[str, FluidProps]:
    """Load a fluid catalog CSV (schema in the module docstring)."""
    return {row[0]: FluidProps(*row)
            for row in tables.read_csv(path, _FLUID_COLUMNS)}


def load_solids(path: str | Path) -> dict[str, SolidProps]:
    """Load a solid catalog CSV with header ``name,k_W_mK``."""
    return {row[0]: SolidProps(*row)
            for row in tables.read_csv(path, _SOLID_COLUMNS)}


@functools.cache
def builtin_fluids() -> MappingProxyType[str, FluidProps]:
    """Built-in coolant catalog (CFD water plus the literature coolant survey)."""
    return MappingProxyType(load_fluids(tables.DATA_DIR / "fluids.csv"))


@functools.cache
def builtin_solids() -> MappingProxyType[str, SolidProps]:
    return MappingProxyType(load_solids(tables.DATA_DIR / "solids.csv"))


#: Default coolant: DI water at 10 degC as used for every thermal test.
def water() -> FluidProps:
    return builtin_fluids()["water"]


def silicon() -> SolidProps:
    return builtin_solids()["silicon"]
