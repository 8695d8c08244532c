"""Rectangular staggered grid with tagged boundary segments.

Cells are (nx, ny) with spacing (dx, dy); boundary segments live on the four
sides and are addressed in boundary-cell indices (j for left/right, i for
bottom/top). Any boundary face not covered by a segment is a no-slip wall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, check

SIDES = ("left", "right", "bottom", "top")
KINDS = ("wall", "inlet", "outlet_velocity", "outlet_pressure")
#: Sign of each side's outward normal along its coordinate axis.
OUTWARD = {"left": -1.0, "right": 1.0, "bottom": -1.0, "top": 1.0}


@dataclass(frozen=True)
class Segment:
    """One tagged boundary interval.

    ``value`` is the mean normal speed [m/s] (positive; the kind fixes the
    direction: inlets point into the domain, velocity outlets out of it).
    ``profile`` is "constant" or "parabolic" (zero at the segment edges,
    peak 1.5x mean at its center). Pressure outlets carry no profile.
    """

    side: str
    lo: int
    hi: int
    kind: str
    profile: str = "constant"
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise InvalidInputError(f"unknown side {self.side!r}")
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown boundary kind {self.kind!r}")
        check(0 <= self.lo < self.hi, "bad segment range [{}, {})", self.lo,
              self.hi)
        if self.profile not in ("constant", "parabolic"):
            raise InvalidInputError(f"unknown profile {self.profile!r}")
        check(self.kind not in ("inlet", "outlet_velocity")
              or 0 <= self.value < np.inf,
              "segment speed must be finite and >= 0")

    def node_values(self) -> np.ndarray:
        """Normal speeds at the face midpoints of the segment."""
        n = self.hi - self.lo
        if self.kind in ("wall", "outlet_pressure"):
            return np.zeros(n)
        if self.profile == "constant":
            return np.full(n, self.value)
        xi = (np.arange(n) + 0.5) / n
        return 6.0 * self.value * xi * (1.0 - xi)


class Grid2D:
    """Staggered-grid domain: u on vertical faces, v on horizontal faces,
    p in cell centers."""

    def __init__(self, nx: int, ny: int, dx: float, dy: float,
                 segments: list[Segment] | tuple[Segment, ...] = ()):
        check(nx >= 1 and ny >= 1, "nx and ny must be >= 1")
        check(0 < dx < np.inf and 0 < dy < np.inf,
              "dx and dy must be finite and > 0")
        self.nx, self.ny = int(nx), int(ny)
        self.dx, self.dy = float(dx), float(dy)
        self.segments = tuple(segments)

        side_len = {"left": ny, "right": ny, "bottom": nx, "top": nx}
        # per-side kind codes and normal-velocity component values
        self.side_kind = {s: np.zeros(side_len[s], dtype=int) for s in SIDES}
        self.side_value = {s: np.zeros(side_len[s]) for s in SIDES}
        covered = {s: np.zeros(side_len[s], dtype=bool) for s in SIDES}

        for seg in self.segments:
            check(seg.hi <= side_len[seg.side],
                  "segment [{}, {}) exceeds {} side length {}", seg.lo,
                  seg.hi, seg.side, side_len[seg.side])
            span = slice(seg.lo, seg.hi)
            check(not covered[seg.side][span].any(),
                  "overlapping segments on side {!r}", seg.side)
            covered[seg.side][span] = True
            self.side_kind[seg.side][span] = KINDS.index(seg.kind)
            # inlets point against the outward normal, outlets along it
            sign = OUTWARD[seg.side] * (-1.0 if seg.kind == "inlet" else 1.0)
            self.side_value[seg.side][span] = sign * seg.node_values()

        kinds = {seg.kind for seg in self.segments}
        check("inlet" in kinds, "grid needs at least one inlet segment")
        check(not kinds.isdisjoint({"outlet_velocity", "outlet_pressure"}),
              "grid needs at least one outlet segment")

        if not self.has_pressure_boundary:
            flux = self.boundary_flux_imbalance()
            scale = max(abs(self.inlet_flux()), 1e-300)
            check(abs(flux) <= 1e-12 * scale, "all-velocity boundaries must "
                  "balance: net flux {:g} vs inlet {:g}", flux, scale)

    # -- geometry ----------------------------------------------------------

    @property
    def lx(self) -> float:
        return self.nx * self.dx

    @property
    def ly(self) -> float:
        return self.ny * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def has_pressure_boundary(self) -> bool:
        return any(seg.kind == "outlet_pressure" for seg in self.segments)

    def face_length(self, side: str) -> float:
        return self.dy if side in ("left", "right") else self.dx

    # -- flux bookkeeping --------------------------------------------------

    def _flux_sum(self, signs: dict[str, float]) -> float:
        """Prescribed flux of the segments whose kind is in ``signs``,
        each times its kind's sign [m2/s per unit depth]."""
        total = 0.0
        for seg in self.segments:
            if seg.kind in signs:
                s = seg.node_values().sum() * self.face_length(seg.side)
                total += signs[seg.kind] * s
        return total

    def inlet_flux(self) -> float:
        """Total prescribed inflow [m2/s per unit depth]."""
        return self._flux_sum({"inlet": 1.0})

    def boundary_flux_imbalance(self) -> float:
        """Net prescribed inflow minus outflow over velocity segments."""
        return self._flux_sum({"inlet": 1.0, "outlet_velocity": -1.0})

    def outlet_segments(self) -> list[Segment]:
        return [s for s in self.segments
                if s.kind in ("outlet_velocity", "outlet_pressure")]


@dataclass(frozen=True)
class DensityField:
    """Design field: eps[i, j] in [0, 1] per cell (1 = fluid, 0 = solid)."""

    eps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", arr)
        if arr.ndim != 2:
            raise InvalidInputError("eps must be a 2D array")
        check((arr >= -1e-12) & (arr <= 1 + 1e-12), "eps must lie in [0, 1]")

    @property
    def volume_fraction(self) -> float:
        return float(self.eps.mean())

    @staticmethod
    def uniform(grid: Grid2D, value: float) -> "DensityField":
        return DensityField(np.full((grid.nx, grid.ny), float(value)))
