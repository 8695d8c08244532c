"""Design-space sweeps under constraints, Pareto extraction, COP surfaces,
hotspot flow scaling and hotspot-targeted nozzle-array synthesis."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import correlations as corr
from . import props as pr
from .errors import InfeasibleError, InvalidInputError, check
from .geometry import (HEATED_FRACTION_DEFAULT, CoolerArray,
                       array_from_ratios)
from .performance import (OperatingPoint, PerformanceReport, dp_curve,
                          evaluate_design)
from .roots import bisect_bracket, bisect_monotone


@dataclass(frozen=True)
class DesignSpace:
    """Cartesian design grid; every combination becomes one sweep row."""

    n_values: tuple[int, ...]
    di_over_L: tuple[float, ...]
    H_over_L: tuple[float, ...]
    t_over_L: tuple[float, ...]
    chip_side: float
    t_c: float
    fluid: pr.FluidProps
    solid: pr.SolidProps
    do_over_L: tuple[float, ...] | None = None  # defaults to d_i/L per design
    heated_fraction: float = HEATED_FRACTION_DEFAULT

    def designs(self) -> list[tuple[int, float, float, float, float]]:
        """Every (n, d_i/L, d_o/L, H/L, t/L), the last varying fastest."""
        dos = (None,) if self.do_over_L is None else self.do_over_L
        return [(n, a, a if do is None else do, h, t) for n, a, do, h, t
                in itertools.product(self.n_values, self.di_over_L, dos,
                                     self.H_over_L, self.t_over_L)]

    def build(self, n: int, a: float, do: float, h: float,
              t: float) -> CoolerArray:
        """One design, or with array arguments one array-valued CoolerArray."""
        return array_from_ratios(self.chip_side, n, a, do, h, t, self.t_c,
                                 self.heated_fraction)


class ConstraintKind(Enum):
    CONST_FLOW = "const_flow"
    CONST_PRESSURE = "const_pressure"
    CONST_PUMP = "const_pump"


@dataclass(frozen=True)
class ConstraintMode:
    kind: ConstraintKind
    value: float          # m3/s, Pa or W depending on kind

    def __post_init__(self) -> None:
        check((self.value > 0) & (self.value < math.inf),
              "constraint value must be > 0, got {}", self.value)


@dataclass(frozen=True)
class SweepResult:
    """A sweep as columns, one entry per design in enumeration order."""

    designs: list[tuple[int, float, float, float, float]]  # n, d_i/L ... t/L
    flow: np.ndarray            # m3/s evaluated (0 where infeasible)
    ok: np.ndarray              # False where the target is out of reach
    report: PerformanceReport   # array-valued, over the feasible designs


def sweep(space: DesignSpace, mode: ConstraintMode) -> SweepResult:
    """Evaluate every design of the space under the constraint, as columns.

    const_flow evaluates directly; const_pressure / const_pump invert the
    monotone dp(V) / V*dp(V) maps (``dp_curve``) with one bisection over all
    designs, to ``roots.REL_TOL`` of the target. A target outside the
    searched flow window marks its design infeasible (``ok`` False, flow 0).
    The feasible designs are evaluated in one ``evaluate_design`` call:
    ``report`` holds, in order, an entry for each k where ``ok[k]``.
    """
    designs = space.designs()
    if not designs:
        raise InvalidInputError("the design space is empty")
    columns = [np.array(c) for c in zip(*designs)]
    if mode.kind is ConstraintKind.CONST_FLOW:
        flow = np.full(len(designs), mode.value)
    else:
        dp = dp_curve(space.build(*columns), space.fluid)
        pump = mode.kind is ConstraintKind.CONST_PUMP
        flow = bisect_monotone((lambda v: v * dp(v)) if pump else dp,
                               mode.value, guess=1e-5)
    ok = ~np.isnan(flow)
    report = evaluate_design(
        space.build(*(c[ok] for c in columns)), space.fluid, space.solid,
        OperatingPoint(flow_total=flow[ok]))
    return SweepResult(designs, np.where(ok, flow, 0.0), ok, report)


def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset under (minimize r_th, minimize w_p).

    Returned sorted by w_p ascending; exact duplicates keep their first
    occurrence only.
    """
    if not points:
        raise InvalidInputError("empty point set")
    check(all(map(math.isfinite, itertools.chain.from_iterable(points))),
          "Pareto points must be finite")
    front: list[tuple[float, float]] = []
    best_r = math.inf
    # a stable sort: equal points stay in input order
    for r, w in sorted(points, key=lambda p: (p[1], p[0])):
        if r < best_r:
            front.append((r, w))
            best_r = r
    return front


class CopGrid(NamedTuple):
    n_values: tuple[int, ...]
    H_over_L: tuple[float, ...]
    density_cm2: tuple[float, ...]
    cop: np.ndarray                 # shape (len(n_values), len(H_over_L))


def cop_surface(space: DesignSpace, flow: float) -> CopGrid:
    """COP over (nozzle density, cavity height) at a fixed total flow.

    Uses the first d_i/L and t/L of the space; one grid node per
    (n, H/L) pair.
    """
    check(flow > 0, "flow must be > 0, got {}", flow)
    a = space.di_over_L[0]
    t = space.t_over_L[0]
    n, h = np.meshgrid(space.n_values, space.H_over_L, indexing="ij")
    array = space.build(n.ravel(), a, a, h.ravel(), t)
    report = evaluate_design(array, space.fluid, space.solid,
                             OperatingPoint(flow_total=flow))
    density = array.nozzle_density_cm2.reshape(n.shape)[:, 0]
    return CopGrid(tuple(space.n_values), tuple(space.H_over_L),
                   tuple(density.tolist()), report.cop.reshape(n.shape))


# ---------------------------------------------------------------------------
# hotspot scaling (flow concentration at fixed total flow)

class HotspotScaling(NamedTuple):
    m: float            # concentration ratio N^2/M
    htc_star: float     # expected local htc of the targeted cooler
    flow_star: float    # per-nozzle flow of the targeted cooler
    dp_ratio: float     # expected pressure-drop multiplier


def hotspot_scale(base_htc: float, base_flow_per_nozzle: float, n_sq: int,
                  m_nozzles: int) -> HotspotScaling:
    """Unit-cell scaling when N^2 array nozzles concentrate into M nozzles.

    m = N^2/M (exact ratio, no rounding); htc* = m^0.67 htc, V* = m V,
    dp scales with m^2 at fixed total flow.
    """
    check(0 < base_htc < math.inf, "base_htc must be finite and > 0, got {}",
          base_htc)
    check(0 < base_flow_per_nozzle < math.inf,
          "base_flow_per_nozzle must be finite and > 0, got {}",
          base_flow_per_nozzle)
    check(m_nozzles >= 1, "m_nozzles must be >= 1, got {}", m_nozzles)
    check(n_sq >= m_nozzles, "n_sq {} must be >= m_nozzles {}", n_sq,
          m_nozzles)
    m = n_sq / m_nozzles
    return HotspotScaling(m=m, htc_star=m ** 0.67 * base_htc,
                          flow_star=m * base_flow_per_nozzle, dp_ratio=m * m)


# ---------------------------------------------------------------------------
# hotspot-targeted nozzle synthesis

M3S_PER_MLPM = 1e-6 / 60.0


@dataclass(frozen=True)
class PowerMap:
    """Cell power densities [W/cm2] on a square layout with the given pitch."""

    density_w_cm2: np.ndarray
    cell_pitch: float = 1e-3       # m

    def __post_init__(self) -> None:
        object.__setattr__(self, "density_w_cm2",
                           np.asarray(self.density_w_cm2, dtype=float))
        check(np.isfinite(self.density_w_cm2), "power densities must be finite")
        check(self.density_w_cm2 >= 0, "power densities must be >= 0")

    @property
    def total_power(self) -> float:
        cell_area_cm2 = (self.cell_pitch * 100.0) ** 2
        return float(self.density_w_cm2.sum() * cell_area_cm2)


@dataclass(frozen=True)
class NozzlePlan:
    """Per-cell nozzle diameters [mm] (0 = no inlet nozzle, outlets only),
    the per-cell flows [mL/min] and achieved htc [W/(m2.K)], and the shared
    plenum pressure (units of the pressure fit)."""

    d_mm: np.ndarray
    m_nz_mlpm: np.ndarray
    htc: np.ndarray
    dp: float
    flow_total_mlpm: float
    infeasible_cells: tuple[tuple[int, int], ...] = ()
    warnings: tuple[str, ...] = ()


def hotspot_synthesize(power_map: PowerMap, flow_total: float,
                       dT_target: float, fluid: pr.FluidProps,
                       bounds: tuple[float, float] = (0.1, 0.9),
                       htc_model: corr.HotspotHtcModel | None = None,
                       dp_model: corr.NozzlePressureModel | None = None) -> NozzlePlan:
    """Choose per-cell nozzle diameters for a uniform target temperature rise.

    Every open nozzle shares one plenum pressure, which fixes its flow as a
    function of diameter; the diameter per cell is solved so the per-cell
    fitted htc meets htc_req = q''/dT_target, and the plenum pressure is
    bisected until the open-nozzle flows sum to flow_total [m3/s].
    Cells whose requirement is unreachable inside the diameter bounds are
    clamped to the nearest bound and flagged. The default fitted constants
    hold for 1 mm pitch cells with the reference coolant; other pitches or
    coolants require explicitly refitted models (fit_htc_model).
    """
    htc_model = htc_model if htc_model is not None else corr.HotspotHtcModel()
    dp_model = dp_model if dp_model is not None else corr.NozzlePressureModel()
    pitch_mm = power_map.cell_pitch * 1000.0
    check(abs(pitch_mm - htc_model.pitch_mm) <= 1e-9
          and abs(pitch_mm - dp_model.pitch_mm) <= 1e-9,
          "fitted constants hold for {} mm pitch; map pitch is {} mm — "
          "supply refitted models", htc_model.pitch_mm, pitch_mm)
    d_min, d_max = bounds
    check((0 < d_min) & (d_min < d_max), "bad diameter bounds {}", bounds)
    check(power_map.total_power > 0, "total map power must be > 0")
    check(dT_target > 0, "dT_target must be > 0")
    check(flow_total > 0, "flow_total must be > 0")
    flow_total_mlpm = flow_total / M3S_PER_MLPM

    density = power_map.density_w_cm2
    active = density > 0
    # W/cm2 -> W/m2 in argwhere order, as Python floats (faster than numpy's)
    reqs = (density[active] * 1e4 / dT_target).tolist()

    def dp_needed(d: float, req: float) -> float:
        """Plenum pressure at which diameter d exactly meets req."""
        return dp_model.evaluate(d, htc_model.flow_for_htc(d, req))

    def htc_at(d: float, dp: float) -> float:
        return htc_model.evaluate(d, dp_model.flow_for_dp(d, dp))

    # At fixed plenum pressure the achieved htc rises with d while the flow
    # exponent is large, peaks, then falls as the exponent collapses; only
    # the rising branch is physically sensible (less flow, smaller nozzle
    # for the same cooling), so each cell solve is restricted to it.
    d_samples = np.geomspace(d_min, d_max, 160).tolist()

    def cell_states(dp: float) -> list[tuple[float, float, str]]:
        """(diameter, flow, status) of every active cell at plenum pressure
        dp, in np.argwhere(active) order. The htc curve is built once."""
        achieved = [htc_at(d, dp) for d in d_samples]
        k_peak = achieved.index(max(achieved))
        d_peak = d_samples[k_peak]
        states = []
        for req in reqs:
            if req > achieved[k_peak]:
                d, status = d_peak, "unreachable"  # under-cooled at the peak
            elif req < achieved[0]:
                d, status = d_min, "exceeded"      # over-cooled even at d_min
            else:
                d = bisect_bracket(lambda x: htc_at(x, dp) - req, d_min,
                                   d_peak, achieved[0] - req, 1e-12 * req)
                status = "ok"
            states.append((d, dp_model.flow_for_dp(d, dp), status))
        return states

    def flow_error(dp: float) -> float:
        return sum(m for _, m, _ in cell_states(dp)) - flow_total_mlpm

    # pressure band on which every cell is exactly solvable: total flow is
    # strictly decreasing there, so that root is preferred when it exists
    # (outside it, cells clamp and the total becomes non-monotone)
    dp_star = None
    try:
        band_lo = max(min(dp_needed(d, r) for d in d_samples) for r in reqs)
        band_hi = min(dp_needed(d_min, r) for r in reqs)
    except InvalidInputError:
        band_lo, band_hi = 1.0, 0.0
    if band_lo <= band_hi:
        e_lo, e_hi = flow_error(band_lo), flow_error(band_hi)
        if min(e_lo, e_hi) <= 0.0 <= max(e_lo, e_hi):
            dp_star = bisect_bracket(flow_error, band_lo, band_hi, e_lo,
                                     1e-12 * flow_total_mlpm)
    if dp_star is None:
        # target outside the fully-feasible range: with cells clamped at
        # their bounds the total is only piecewise monotone, so scan a wide
        # pressure range and prefer the bracket with the fewest flagged
        # cells (over-cooled plans beat under-cooled ones on a tie). A hot
        # cell can lift the window above the pressure that delivers a small
        # flow, so a window that brackets nothing is extended down to dp_lo,
        # below which even all-d_max nozzles carry too little.
        window_lo = max(band_lo * 1e-6, 1e-9)
        dp_lo = dp_model.evaluate(d_max, flow_total_mlpm / len(reqs))
        for lo in (window_lo, dp_lo):
            dp_grid = np.geomspace(lo, max(band_hi, band_lo, 1.0) * 1e6,
                                   240).tolist()
            resid = [flow_error(dp) for dp in dp_grid]
            brackets = [k for k in range(len(dp_grid) - 1)
                        if resid[k] == 0.0 or resid[k] * resid[k + 1] <= 0.0]
            if brackets or dp_lo >= window_lo:
                break
        if not brackets:
            raise InfeasibleError(
                f"no plenum pressure delivers {flow_total_mlpm:g} mL/min "
                "within the diameter bounds")

        def badness(k: int) -> tuple[int, int, float]:
            states = cell_states(math.sqrt(dp_grid[k] * dp_grid[k + 1]))
            return (sum(s == "unreachable" for _, _, s in states),
                    sum(s != "ok" for _, _, s in states), dp_grid[k])

        # bisect in log dp, so that the midpoints stay geometric
        k = min(brackets, key=badness)
        dp_star = math.exp(bisect_bracket(
            lambda s: flow_error(math.exp(s)), math.log(dp_grid[k]),
            math.log(dp_grid[k + 1]), resid[k], 1e-9 * flow_total_mlpm))

    d, m_nz, status = zip(*cell_states(dp_star))
    d_grid, m_grid, htc_grid = np.zeros((3, *density.shape))
    d_grid[active], m_grid[active] = d, m_nz
    htc_grid[active] = list(map(htc_model.evaluate, d, m_nz))
    flagged = [(i, j, s) for (i, j), s
               in zip(np.argwhere(active).tolist(), status) if s != "ok"]
    return NozzlePlan(d_mm=d_grid, m_nz_mlpm=m_grid, htc=htc_grid, dp=dp_star,
                      flow_total_mlpm=float(m_grid.sum()),
                      infeasible_cells=tuple((i, j) for i, j, _ in flagged),
                      warnings=tuple(f"htc_{s}:{i},{j}" for i, j, s in flagged))
