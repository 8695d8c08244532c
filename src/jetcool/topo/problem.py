"""Topology-optimization problem definition and Brinkman interpolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, check
from ..props import FluidProps
from .grid import Grid2D


def default_alpha_bounds(mu: float, length_scale: float = 1.0) -> tuple[float, float]:
    """(alpha_max, alpha_min) = 2.5 mu / (0.01 L)^2 and 2.5 mu / (100 L)^2.

    alpha_max penalizes solid (eps = 0), alpha_min is the negligible drag of
    open fluid (eps = 1). The classic 0.01/100 magnitudes presume a
    unit-length domain, so they are applied in units of the domain length
    scale L: the solid-side Brinkman penetration depth
    sqrt(mu/alpha_max) = 0.0063 L then stays far below the domain size at
    any physical scale. Some write-ups assign the two symbols the other way
    around, giving eps = 1 the large drag; that swapped reading stays
    available behind ``alpha_assignment="literal"`` for reproduction.
    """
    check(0 < mu < np.inf, "viscosity must be finite and > 0, got {}", mu)
    check(0 < length_scale < np.inf,
          "length_scale must be finite and > 0, got {}", length_scale)
    return (2.5 * mu / (0.01 * length_scale) ** 2,
            2.5 * mu / (100.0 * length_scale) ** 2)


def inverse_permeability(eps, q: float, alpha_max: float,
                         alpha_min: float):
    """Convex interpolation alpha(eps) = a_max + (a_min - a_max) eps (1+q)/(eps+q).

    eps may be a scalar or array in [0, 1]; q > 0 tunes how attractive
    intermediate densities are (small q biases strongly toward fluid).
    """
    check(0 < q < np.inf, "q must be finite and > 0, got {}", q)
    # for q below about 5.6e-17, s rounds to 1 for every eps well above q
    check(0.5 * (1.0 + q) / (0.5 + q) < 1.0, "q = {} is too small: "
          "eps (1 + q)/(eps + q) rounds to 1 for every eps >= 1/2, so "
          "alpha(eps) is a step", q)
    arr = np.asarray(eps, dtype=float)
    check((arr >= -1e-12) & (arr <= 1 + 1e-12), "eps must lie in [0, 1]")
    s = arr * (1.0 + q) / (arr + q)
    # blend form keeps the endpoints exact despite the magnitude gap
    out = alpha_max * (1.0 - s) + alpha_min * s
    return float(out) if np.isscalar(eps) else out


def inverse_permeability_deriv(eps, q: float, alpha_max: float,
                               alpha_min: float):
    """d(alpha)/d(eps) of the interpolation above."""
    arr = np.asarray(eps, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (alpha_min - alpha_max) * (1.0 + q) * q / (arr + q) ** 2
    check(np.isfinite(out), "d(alpha)/d(eps) must be finite, got {} at q = {}",
          out, q)
    return float(out) if np.isscalar(eps) else out


@dataclass(frozen=True)
class TopoProblem:
    """Weighted flow-uniformity / dissipation design problem on a grid.

    J = (1 - beta) * lambda1 * J2 + beta * lambda2 * J1 with J1 the
    Brinkman + viscous dissipation, J2 the outlet-flux spread and fixed
    ``weights``. Only relative comparisons of J are meaningful, so weights
    lambda1', lambda2' at beta act as these at beta* = 1 / (1 + rho *
    lambda2 / lambda1), rho = (1 - beta) * lambda1' / (beta * lambda2').
    """

    grid: Grid2D
    fluid: FluidProps
    beta: float = 0.5
    volume_fraction: float = 1.0
    q: float = 0.01
    alpha_assignment: str = "fluid"   # "fluid" (consistent) or "literal" (as printed)

    def __post_init__(self) -> None:
        check(0.0 <= self.beta <= 1.0, "beta must be in [0, 1], got {}",
              self.beta)
        check(0.0 < self.volume_fraction <= 1.0,
              "volume_fraction must be in (0, 1], got {}", self.volume_fraction)
        check(0 < self.q < np.inf, "q must be finite and > 0, got {}",
              self.q)
        if self.alpha_assignment not in ("fluid", "literal"):
            raise InvalidInputError(
                f"alpha_assignment must be 'fluid' or 'literal', "
                f"got {self.alpha_assignment!r}")

    @property
    def mu(self) -> float:
        return self.fluid.viscosity

    def alpha_bounds(self) -> tuple[float, float]:
        """(solid-side, fluid-side) inverse permeability actually applied."""
        a_max, a_min = default_alpha_bounds(
            self.mu, max(self.grid.lx, self.grid.ly))
        if self.alpha_assignment == "literal":
            return a_min, a_max
        return a_max, a_min

    def alpha(self, eps) -> np.ndarray:
        solid, fluid_side = self.alpha_bounds()
        return inverse_permeability(eps, self.q, solid, fluid_side)

    def alpha_deriv(self, eps) -> np.ndarray:
        solid, fluid_side = self.alpha_bounds()
        return inverse_permeability_deriv(eps, self.q, solid, fluid_side)

    def weights(self) -> tuple[float, float]:
        """(lambda1, lambda2) = (1/q_in^2, mu u_ref^2/L^2): q_in the inlet
        flux, u_ref the largest inlet speed, L the larger domain side."""
        q_in = self.grid.inlet_flux()
        lam1 = 1.0 / q_in ** 2 if q_in != 0 else 1.0
        u_ref = max((seg.value for seg in self.grid.segments
                     if seg.kind == "inlet"), default=1.0)
        length = max(self.grid.lx, self.grid.ly)
        return lam1, self.mu * u_ref ** 2 / length ** 2
