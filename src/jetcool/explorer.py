"""Design-space sweeps under constraints, Pareto extraction, COP surfaces,
hotspot flow scaling and hotspot-targeted nozzle-array synthesis.

Hotspot synthesis solves all powered cells as one array per plenum
pressure; its 240-point pressure scan, and the ranking of the brackets that
scan finds, are one (pressure x cell) array solve each. Only the bisection
of the plenum pressure itself steps one scalar at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import correlations as corr
from . import props as pr
from .errors import (InfeasibleError, InvalidInputError, SolverError,
                     check)
from .geometry import (HEATED_FRACTION_DEFAULT, CoolerArray,
                       array_from_ratios)
from .performance import (OperatingPoint, PerformanceReport, dp_curve,
                          evaluate_design)
from .roots import MAX_ITER, bisect_bracket, bisect_monotone


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


#: Status codes of a cell in the array solve, indexing ``_STATUS``.
_OK, _EXCEEDED, _UNREACHABLE = range(3)
_STATUS = ("ok", "exceeded", "unreachable")


def _lambert_w(log_z):
    """Principal branch W(z) of Lambert's function for z = exp(log_z) > 0.

    Newton steps on w + ln w = ln z from w = ln(1 + z); five reach
    round-off for ln z in [-200, 709] (Corless et al. 1996, "On the
    Lambert W function").
    """
    w = np.logaddexp(0.0, log_z)
    for _ in range(5):
        w = w / (1.0 + w) * (1.0 + log_z - np.log(w))
    return w


def hotspot_synthesize(power_map: PowerMap, flow_total: float,
                       dT_target: float,
                       bounds: tuple[float, float] = (0.1, 0.9),
                       htc_model: corr.HotspotHtcModel | None = None,
                       dp_model: corr.NozzlePressureModel | None = None) -> NozzlePlan:
    """Choose per-cell nozzle diameters for a uniform target temperature rise.

    Every open nozzle shares one plenum pressure, which fixes its flow as a
    function of diameter; the diameter per cell is solved so the per-cell
    fitted htc meets htc_req = q''/dT_target, and the plenum pressure is
    bisected until the open-nozzle flows sum to flow_total [m3/s].
    Cells whose requirement is unreachable inside the diameter bounds are
    clamped to d_min (over-cooled) or to the htc peak (under-cooled) and
    flagged. A plan whose flows miss flow_total by more than the bisection
    tolerance raises ``SolverError``. The default fitted constants hold for
    1 mm pitch cells cooled by water; other pitches or coolants require
    explicitly refitted models (fit_htc_model), whose constants must give
    the htc a single peak in d at fixed plenum pressure.

    At each plenum pressure the htc peak over d is taken in closed form and
    every cell is solved below it by safeguarded Newton steps, as one array.
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
    # both fits scale as a power of d, which overflows at a tiny d_min
    exponents = np.array([htc_model.d_exp, dp_model.d_exp])
    with np.errstate(over="ignore", divide="ignore"):
        scale = np.float64(d_min) ** exponents
    check(scale < math.inf, "d_min = {} mm is too small for the fits: "
          "d_min^{} overflows", d_min, exponents)
    check(power_map.total_power > 0, "total map power must be > 0")
    check(dT_target > 0, "dT_target must be > 0")
    check(flow_total > 0, "flow_total must be > 0")
    flow_total_mlpm = flow_total / M3S_PER_MLPM

    # At fixed plenum pressure dp the flow is m = (dp/c_p)^(1/mu) d^gamma,
    # so ln htc = ln c + a ln d + (b + e d) ln m. Its slope in ln d is
    # a + gamma b + e gamma d (ln d + s), with s = ln(dp/c_p)/(mu gamma) + 1:
    # for a + gamma b > 0, e < 0 and gamma > 0 it falls through zero once,
    # at d = exp(W(C e^s) - s) with C = -(a + gamma b)/(e gamma). Only the
    # rising branch below that peak is physically sensible (less flow,
    # smaller nozzle for the same cooling), so each cell is solved on it.
    a, b, e = htc_model.d_exp, htc_model.m_exp, htc_model.m_exp_d
    gamma = -dp_model.d_exp / dp_model.m_exp
    check(gamma > 0 and a + gamma * b > 0 and e < 0,
          "the htc fit needs a single peak in d at fixed plenum pressure: "
          "d_exp + gamma*m_exp > 0 and m_exp_d < 0 with gamma = "
          "-d_exp/m_exp of the pressure fit > 0; got d_exp = {}, m_exp = {}, "
          "m_exp_d = {}, gamma = {}", a, b, e, gamma)
    log_c = math.log((a + gamma * b) / (-e * gamma))

    density = power_map.density_w_cm2
    active = density > 0
    # W/cm2 -> W/m2, in argwhere order
    with np.errstate(over="ignore"):
        req = density[active] * 1e4 / dT_target
    check((req > 0) & (req < math.inf), "the required htc q''/dT_target "
          "must be finite and > 0, got {} W/(m2.K)", req)

    def htc_at(d, dp):
        return htc_model.evaluate(d, dp_model.flow_for_dp(d, dp))

    def peak_diameter(dp):
        s = np.log(dp / dp_model.c) / (-dp_model.d_exp) + 1.0
        return np.clip(np.exp(_lambert_w(log_c + s) - s), d_min, d_max)

    def solve_rising(r, dp, lo, hi, u):
        """Diameters meeting htc = r at pressures dp, one per element: Newton
        steps in u = ln d on ln htc - ln r from u, kept inside the bracket
        [lo, hi] of u by bisecting whenever a step leaves it. An element
        stops once |htc - r| <= 1e-12 r or its bracket collapses to
        round-off; all stop after MAX_ITER steps."""
        for _ in range(MAX_ITER):
            d = np.exp(u)
            m = dp_model.flow_for_dp(d, dp)
            h = htc_model.evaluate(d, m)
            open_ = (np.abs(h - r) > 1e-12 * r) & (hi - lo > 1e-15)
            if not open_.any():
                return d
            below = h < r
            lo, hi = np.where(below, u, lo), np.where(below, hi, u)
            slope = a + e * d * np.log(m) + (b + e * d) * gamma
            newton = u - np.log(h / r) / np.where(slope > 0, slope, np.inf)
            inside = (lo < newton) & (newton < hi)
            u = np.where(open_, np.where(inside, newton, 0.5 * (lo + hi)), u)
        return np.exp(u)

    def cell_states(dp):
        """Diameter, flow and status code of every active cell at plenum
        pressure dp, in np.argwhere(active) order; a 1-D array of pressures
        gives one row of cells per pressure."""
        dp = np.asarray(dp, dtype=float)[..., None]
        d_peak = peak_diameter(dp)
        h_min, h_peak = htc_at(d_min, dp), htc_at(d_peak, dp)
        status = np.where(req > h_peak, _UNREACHABLE,
                          np.where(req < h_min, _EXCEEDED, _OK))
        d = np.where(status == _UNREACHABLE, d_peak, d_min)
        ok = status == _OK
        if ok.any():
            def at_ok(x):
                return np.broadcast_to(x, status.shape)[ok]
            r = at_ok(req)
            f_lo, f_hi = np.log(at_ok(h_min) / r), np.log(at_ok(h_peak) / r)
            lo, hi = np.full(r.shape, math.log(d_min)), np.log(at_ok(d_peak))
            # start from the secant of ln htc over the bracket
            u = lo - f_lo * (hi - lo) / np.where(f_hi > f_lo, f_hi - f_lo, 1.0)
            d[ok] = solve_rising(r, at_ok(dp), lo, hi, u)
        return d, dp_model.flow_for_dp(d, dp), status

    def flow_error(dp):
        return cell_states(dp)[1].sum(axis=-1) - flow_total_mlpm

    # pressure band on which every cell is exactly solvable: total flow is
    # strictly decreasing there, so that root is preferred when it exists
    # (outside it, cells clamp and the total becomes non-monotone). Its
    # lower end is the least pressure over 160 sampled diameters.
    dp_star = None
    tol = 1e-12 * flow_total_mlpm
    d_samples = np.geomspace(d_min, d_max, 160)[:, None]
    try:
        with np.errstate(over="ignore"):
            need = dp_model.evaluate(
                d_samples, htc_model.flow_for_htc(d_samples, req))
        band_lo, band_hi = float(need.min(axis=0).max()), float(need[0].min())
    except InvalidInputError:
        band_lo = band_hi = math.inf
    if max(band_lo, band_hi) == math.inf:   # a fit fails or overflows
        band_lo, band_hi = 1.0, 0.0
    if 0 < band_lo <= band_hi:
        e_lo, e_hi = flow_error(np.array([band_lo, band_hi])).tolist()
        if min(e_lo, e_hi) <= 0.0 <= max(e_lo, e_hi):
            dp_star = bisect_bracket(flow_error, band_lo, band_hi, e_lo, tol)
    if dp_star is None:
        # target outside the fully-feasible range: with cells clamped at
        # their bounds the total is only piecewise monotone, so scan a wide
        # pressure range and prefer the bracket with the fewest flagged
        # cells (over-cooled plans beat under-cooled ones on a tie). A hot
        # cell can lift the window above the pressure that delivers a small
        # flow, so a window that brackets nothing is extended down to dp_lo,
        # below which even all-d_max nozzles carry too little.
        tol = 1e-9 * flow_total_mlpm
        window_lo = max(band_lo * 1e-6, 1e-9)
        window_hi = max(band_hi, band_lo, 1.0) * 1e6
        # a numpy scalar, so that an overflow gives inf, not OverflowError
        with np.errstate(over="ignore"):
            dp_lo = dp_model.evaluate(
                d_max, np.float64(flow_total_mlpm / req.size))
        check(0 < dp_lo < math.inf, "the plenum scan window must be finite "
              "and > 0, got a lower end of {} for {} mL/min over {} powered "
              "cells", dp_lo, flow_total_mlpm, req.size)
        for lo in (window_lo, dp_lo):
            dp_grid = np.geomspace(lo, window_hi, 240)
            resid = flow_error(dp_grid)
            # a grid point within the tolerance of the root is a bracket
            near = np.abs(resid) <= tol
            brackets = np.flatnonzero(near[:-1]
                                      | (resid[:-1] * resid[1:] <= 0.0))
            if brackets.size or dp_lo >= window_lo:
                break
        if not brackets.size:
            raise InfeasibleError(
                f"no plenum pressure delivers {flow_total_mlpm:g} mL/min "
                "within the diameter bounds")
        status = cell_states(np.sqrt(dp_grid[brackets]
                                     * dp_grid[brackets + 1]))[2]
        k = min(zip((status == _UNREACHABLE).sum(axis=1).tolist(),
                    (status != _OK).sum(axis=1).tolist(),
                    dp_grid[brackets].tolist(), brackets.tolist()))[3]
        if near[k]:
            dp_star = float(dp_grid[k])
        else:
            # bisect in log dp, so that the midpoints stay geometric
            dp_star = math.exp(bisect_bracket(
                lambda s: flow_error(math.exp(s)), math.log(dp_grid[k]),
                math.log(dp_grid[k + 1]), float(resid[k]), tol))

    d, m_nz, status = cell_states(dp_star)
    d_grid, m_grid, htc_grid = np.zeros((3, *density.shape))
    d_grid[active], m_grid[active] = d, m_nz
    htc_grid[active] = htc_model.evaluate(d, m_nz)
    flow = float(m_nz.sum())
    # tol is that of the bisection that gave dp_star
    if not abs(flow - flow_total_mlpm) <= tol:
        raise SolverError(
            f"the plan at plenum pressure {dp_star!r} delivers {flow!r} "
            f"mL/min, not the target {flow_total_mlpm!r} mL/min")
    flagged = [(i, j, _STATUS[s]) for (i, j), s
               in zip(np.argwhere(active).tolist(), status.tolist())
               if s != _OK]
    return NozzlePlan(d_mm=d_grid, m_nz_mlpm=m_grid, htc=htc_grid, dp=dp_star,
                      flow_total_mlpm=flow,
                      infeasible_cells=tuple((i, j) for i, j, _ in flagged),
                      warnings=tuple(f"htc_{s}:{i},{j}" for i, j, s in flagged))
