"""Command-line surface.

Commands: predict, explore, pareto, cop, hotspot, topo, reduce, gci,
benchmark. Configs are INI files with the units fixed at the boundary
(mm, mL/min, degC, W); everything is SI internally. Exit codes: 0 success,
2 input error, 3 infeasible/non-physical, 4 solver failure.

The argument parser is built once per process, and ``run`` calls the
``cmd_<command>`` function this module holds at call time. Only ``topo``
imports ``jetcool.topo``, and with it scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import config, explorer, metrology, performance, tables
from .errors import (ConfigError, InfeasibleError, InvalidInputError,
                     SolverError, check)
from .explorer import M3S_PER_MLPM
from .geometry import HEATED_FRACTION_DEFAULT, array_from_ratios

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_payload(args, payload: dict, stem: str) -> None:
    """Emit a report as JSON (default) or a flat key,value CSV."""
    out = _out_dir(args)
    if args.format == "csv":
        rows = []
        for key, val in payload.items():
            if isinstance(val, dict):
                rows += [(f"{key}.{sub}", sval) for sub, sval in val.items()]
            else:
                rows.append((key, val))
        tables.write_csv(out / f"{stem}.csv", ("key", "value"), rows)
    else:
        tables.write_json(out / f"{stem}.json", payload)


#: Report values in report order as (``PerformanceReport`` field, report
#: key, summary metric); the summary metrics are printed by ``predict`` and
#: are the metric columns of a sweep.
REPORT = (("re", "re", True), ("pr", "pr", False), ("nu_f", "nu_f", True),
          ("bi", "bi", False), ("nu_j", "nu_j", True),
          ("htc", "htc_W_m2K", True), ("r_th", "r_th_K_W", True),
          ("r_star", "r_star_Kcm2_W", True), ("dT_avg", "dT_avg_K", False),
          ("dp", "dp_Pa", True), ("w_p", "wp_W", True), ("cop", "cop", True),
          ("v_nozzle", "v_nozzle_m_s", False))
SUMMARY = tuple((field, key) for field, key, summary in REPORT if summary)


def _report_dict(report: performance.PerformanceReport) -> dict:
    payload = {key: getattr(report, field) for field, key, _ in REPORT}
    payload["flow_per_nozzle_mlpm"] = report.flow_per_nozzle / M3S_PER_MLPM
    payload["warnings"] = list(report.warnings)
    return payload


# ---------------------------------------------------------------------------
# commands

def cmd_predict(args) -> int:
    cp = config.read(args.config)
    sec = config.section(cp, "geometry")
    di_over_l = config.value(sec, "di_over_l")
    array = array_from_ratios(
        chip_side=config.value(sec, "chip_side_mm", scale=1e-3),
        n=config.value(sec, "n", cast=int),
        di_over_L=di_over_l,
        do_over_L=config.value(sec, "do_over_l", di_over_l),
        H_over_L=config.value(sec, "h_over_l"),
        t_over_L=config.value(sec, "t_over_l"),
        tc=config.value(sec, "tc_mm", scale=1e-3),
        heated_fraction=config.value(sec, "heated_fraction",
                                     HEATED_FRACTION_DEFAULT))
    fluid = config.fluid(cp)
    solid = config.solid(cp)
    sec = config.section(cp, "operating")
    op = performance.OperatingPoint(
        flow_total=config.value(sec, "flow_mlpm", scale=M3S_PER_MLPM),
        chip_power=config.value(sec, "power_w", 0.0))
    dt_max = config.value(sec, "dt_max_allow",
                          performance.DT_MAX_ALLOW_DEFAULT)
    report = performance.evaluate_design(array, fluid, solid, op, dt_max)
    breakdown = performance.pressure_decomposition(
        array, fluid, report.flow_per_nozzle)
    payload = _report_dict(report)
    payload["pressure_breakdown_Pa"] = dataclasses.asdict(breakdown)
    payload["inputs"] = {
        "chip_side_mm": array.chip_side * 1e3, "n": array.n,
        "di_over_l": array.di_over_L, "do_over_l": array.do_over_L,
        "h_over_l": array.H_over_L, "t_over_l": array.t_over_L,
        "tc_mm": array.tc * 1e3, "fluid": fluid.name,
        "solid": solid.name, "flow_mlpm": op.flow_total / M3S_PER_MLPM,
        "power_w": op.chip_power,
    }
    _write_payload(args, payload, "report")
    for _, key in SUMMARY:
        print(f"{key:>14}  {tables.fmt(payload[key])}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


SWEEP_HEADER = ("n", "di_over_L", "do_over_L", "H_over_L", "t_over_L",
                "flow_mlpm", *(c for _, c in SUMMARY), "status", "warnings")


def _build_space(cp, name: str) -> explorer.DesignSpace:
    """DesignSpace from the lists of [sweep] or [cop] and the chip keys."""
    sec = config.section(cp, name)
    geo = config.section(cp, "geometry")
    return explorer.DesignSpace(
        n_values=config.values(sec, "n", int),
        di_over_L=config.values(sec, "di_over_l"),
        H_over_L=config.values(sec, "h_over_l"),
        t_over_L=config.values(sec, "t_over_l"),
        chip_side=config.value(geo, "chip_side_mm", scale=1e-3),
        t_c=config.value(geo, "tc_mm", scale=1e-3),
        heated_fraction=config.value(geo, "heated_fraction",
                                     HEATED_FRACTION_DEFAULT),
        fluid=config.fluid(cp), solid=config.solid(cp))


def _build_mode(cp) -> explorer.ConstraintMode:
    sec = config.section(cp, "constraint")
    mode = sec.get("mode", "const_flow")
    keys = {"const_flow": ("value_mlpm", M3S_PER_MLPM),
            "const_pressure": ("value_pa", 1.0), "const_pump": ("value_w", 1.0)}
    if mode not in keys:
        raise ConfigError(f"[constraint] unknown mode {mode!r}")
    key, scale = keys[mode]
    return explorer.ConstraintMode(explorer.ConstraintKind(mode),
                                   config.value(sec, key, scale=scale))


def _write_sweep_csv(result: explorer.SweepResult, path: Path) -> None:
    """One line per design; infeasible designs (flow 0) leave the metrics
    empty."""
    r = result.report
    feasible = zip(*(getattr(r, field).tolist() for field, _ in SUMMARY),
                   itertools.repeat("ok"), r.warnings)
    infeasible = ("",) * len(SUMMARY) + ("infeasible", "")
    flow = (result.flow / M3S_PER_MLPM).tolist()
    tables.write_csv(path, SWEEP_HEADER, (
        (*design, v, *(next(feasible) if ok else infeasible))
        for design, v, ok in zip(result.designs, flow, result.ok.tolist())))


def cmd_explore(args) -> int:
    cp = config.read(args.config)
    result = explorer.sweep(_build_space(cp, "sweep"), _build_mode(cp))
    out = _out_dir(args)
    _write_sweep_csv(result, out / "sweep.csv")
    print(f"wrote {len(result.designs)} rows to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_pareto(args) -> int:
    src = args.input
    for rk, wk in (("r_th_K_W", "wp_W"), ("r_th", "w_p")):
        try:
            rows = tables.read_csv(src, {rk: float, wk: float}, blank=(rk, wk))
            break
        except tables.MissingColumnsError:
            continue
    else:
        raise ConfigError(f"{src}: need columns r_th_K_W/wp_W or r_th/w_p")
    # infeasible sweep rows leave both metrics blank, feasible ones neither
    for k, (r, w) in enumerate(rows, 1):
        if (r is None) != (w is None):
            col = wk if w is None else rk
            raise ConfigError(f"{src}: data row {k}, column {col}: '' is not "
                              "a finite number")
    points = [row for row in rows if row[0] is not None]
    if not points:
        raise ConfigError(f"{src}: no usable points")
    front = explorer.pareto_front(points)
    out = _out_dir(args)
    tables.write_csv(out / "pareto.csv", ("r_th_K_W", "wp_W"), front)
    print(f"{len(front)} non-dominated of {len(points)} points "
          f"-> {out / 'pareto.csv'}")
    return EXIT_OK


def cmd_cop(args) -> int:
    cp = config.read(args.config)
    space = _build_space(cp, "cop")
    # cop_surface evaluates one d_i/L and one t/L
    if len(space.di_over_L) != 1 or len(space.t_over_L) != 1:
        raise ConfigError("[cop] di_over_l and t_over_l take one value each")
    flow = config.value(cp["cop"], "flow_mlpm", scale=M3S_PER_MLPM)
    grid = explorer.cop_surface(space, flow)
    out = _out_dir(args)
    tables.write_csv(
        out / "cop.csv",
        ["n", "density_cm2"] + [f"H_over_L={tables.fmt(h)}"
                                for h in grid.H_over_L],
        ((n, grid.density_cm2[i], *grid.cop[i])
         for i, n in enumerate(grid.n_values)))
    print(f"wrote {len(grid.n_values)}x{len(grid.H_over_L)} COP grid "
          f"-> {out / 'cop.csv'}")
    return EXIT_OK


def cmd_hotspot(args) -> int:
    cp = config.read(args.config)
    out = _out_dir(args)
    if cp.has_section("scale"):
        sec = cp["scale"]
        result = explorer.hotspot_scale(
            base_htc=config.value(sec, "base_htc_w_m2k"),
            base_flow_per_nozzle=config.value(sec, "base_flow_mlpm",
                                              scale=M3S_PER_MLPM),
            n_sq=config.value(sec, "n_total", cast=int),
            m_nozzles=config.value(sec, "m_nozzles", cast=int))
        payload = {"m": result.m, "htc_star_W_m2K": result.htc_star,
                   "flow_star_mlpm": result.flow_star / M3S_PER_MLPM,
                   "dp_ratio": result.dp_ratio}
        _write_payload(args, payload, "hotspot_scale")
        for key, val in payload.items():
            print(f"{key:>16}  {tables.fmt(val)}")
        return EXIT_OK

    sec = config.section(cp, "map")
    density = tables.read_grid(config.value(sec, "file", cast=str))
    power_map = explorer.PowerMap(
        density_w_cm2=density,
        cell_pitch=config.value(sec, "pitch_mm", 1.0, scale=1e-3))
    plan = explorer.hotspot_synthesize(
        power_map,
        flow_total=config.value(sec, "flow_mlpm", scale=M3S_PER_MLPM),
        dT_target=config.value(sec, "dt_target_k"),
        bounds=(config.value(sec, "d_min_mm", 0.1),
                config.value(sec, "d_max_mm", 0.9)))
    tables.write_csv(
        out / "nozzle_plan.csv",
        ("row", "col", "power_W_cm2", "d_mm", "m_nz_mlpm", "htc_W_m2K"),
        ((i, j, density[i, j], plan.d_mm[i, j], plan.m_nz_mlpm[i, j],
          plan.htc[i, j]) for i, j in np.ndindex(density.shape)))
    tables.write_json(out / "hotspot_summary.json", {
        "dp": plan.dp, "flow_total_mlpm": plan.flow_total_mlpm,
        "infeasible_cells": [list(c) for c in plan.infeasible_cells],
        "warnings": list(plan.warnings)})
    if plan.infeasible_cells:
        unreachable = sum(w.startswith("htc_unreachable")
                          for w in plan.warnings)
        exceeded = len(plan.infeasible_cells) - unreachable
        if unreachable:
            print(f"{unreachable} cell(s) cannot reach the required htc "
                  "within the diameter bounds", file=sys.stderr)
        if exceeded:
            print(f"{exceeded} cell(s) exceed the required htc even at the "
                  "smallest diameter", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"wrote plan for {int((density > 0).sum())} active cells "
          f"-> {out / 'nozzle_plan.csv'}")
    return EXIT_OK


def _topo_selftest() -> int:
    """Plane-channel analytic check: RMS error order vs the formal order 2."""
    from . import topo
    from .props import water
    errs = []
    for ny in (8, 16, 32):
        nx = 4 * ny
        ly = 1e-3
        grid = topo.Grid2D(nx, ny, 4 * ly / nx, ly / ny, [
            topo.Segment("left", 0, ny, "inlet", "parabolic", 0.01),
            topo.Segment("right", 0, ny, "outlet_pressure")])
        sol = topo.solve_flow(grid, topo.DensityField.uniform(grid, 1.0),
                              water())
        y = (np.arange(ny) + 0.5) * grid.dy
        u_exact = 6 * 0.01 * y * (ly - y) / ly ** 2
        err = np.sqrt(((sol.u - u_exact[None, :]) ** 2).mean()) / u_exact.max()
        errs.append(err)
        print(f"ny={ny:3d}  rms_error={err:.4e}  "
              f"mass_imbalance={sol.mass_imbalance():.2e}")
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(len(errs) - 1)]
    print("measured orders:", ", ".join(f"{o:.3f}" for o in orders))
    if all(abs(o - 2.0) <= 0.3 for o in orders):
        print("selftest passed (formal order 2)")
        return EXIT_OK
    print("selftest FAILED: order drifted from 2", file=sys.stderr)
    return EXIT_SOLVER


def cmd_topo(args) -> int:
    if args.selftest:
        return _topo_selftest()
    from . import topo
    problem, max_iters, q_schedule = topo.parse_problem_file(args.config)
    result = topo.optimize(problem, max_iters=max_iters,
                           q_schedule=q_schedule)
    out = _out_dir(args)
    topo.export_density(result.eps, out / "density.csv", out / "density.pgm")
    topo.write_history(result.history, out / "history.csv")
    topo.write_fields(result.solution, out / "fields.csv")
    flows = result.solution.outlet_flows()
    print(f"status={result.status} iterations={len(result.history) - 1} "
          f"J={tables.fmt(result.history[-1].J)}")
    print("outlet flow shares:", " ".join(
        tables.fmt(f / flows.sum()) for f in flows))
    return EXIT_OK


def cmd_reduce(args) -> int:
    head = config.header(args.config)
    rows = tables.read_csv(args.config, dict(
        row=int, col=int, reading_on=float, reading_off=float))
    if not rows:
        raise ConfigError(f"{args.config}: empty dataset")
    # each (row, col) from (0, 0) to the largest must be given exactly once
    cells = np.array([r[:2] for r in rows])
    bad = cells[(cells < 0).any(axis=1)]
    if not bad.size:
        count = np.zeros(cells.max(axis=0) + 1, dtype=int)
        np.add.at(count, tuple(cells.T), 1)
        bad = np.argwhere(count != 1)
    if bad.size:
        raise ConfigError(f"{args.config}: sensor cell (row {bad[0, 0]}, col "
                          f"{bad[0, 1]}) is missing, repeated or negative")
    on, off = np.zeros((2, *count.shape))
    on[tuple(cells.T)] = [r[2] for r in rows]
    off[tuple(cells.T)] = [r[3] for r in rows]

    model = config.value(head, "model", "diode", cast=str)
    if model == "diode":
        sens = config.value(head, "sensitivity_mv_per_c",
                            metrology.DIODE_SENSITIVITY_MV_C, scale=1e-3)
        smap = metrology.SensorMap(on, metrology.SensorModel.DIODE,
                                   sensitivity=sens)
    elif model == "tcr":
        tcr = config.value(head, "tcr_ppm_per_c", metrology.TCR_PER_C * 1e6,
                           scale=1e-6)
        smap = metrology.SensorMap(on, metrology.SensorModel.TCR, tcr=tcr)
    else:
        raise ConfigError(f"[header] unknown sensor model {model!r}")
    dT = metrology.sensor_to_dT(smap, off)
    chip = metrology.ChipStack(
        t_c=config.value(head, "tc_mm", scale=1e-3),
        k_s=config.value(head, "k_s_w_mk", 149.0),
        a_heater=config.value(head, "heater_area_cm2", scale=1e-4))
    red = metrology.reduce(
        dT, power=config.value(head, "power_w"),
        t_amb=config.value(head, "t_amb_c"), t_in=config.value(head, "t_in_c"),
        r_loss=config.value(head, "r_loss_k_w"), chip=chip)
    payload = {"r_th_K_W": red.r_th, "q_loss_W": red.q_loss,
               "t_s_avg_C": red.t_s_avg, "htc_W_m2K": red.htc,
               "dT_avg_K": red.dT_avg}
    _write_payload(args, payload, "reduction")
    for key, val in payload.items():
        print(f"{key:>12}  {tables.fmt(val)}")
    return EXIT_OK


def cmd_gci(args) -> int:
    cp = config.read(args.config)
    sec = config.section(cp, "gci")
    result = metrology.gci(
        f1_fine=config.value(sec, "f1"), f2=config.value(sec, "f2"),
        f3_coarse=config.value(sec, "f3"), r=config.value(sec, "r", 2.0),
        fs=config.value(sec, "fs", metrology.GCI_SAFETY_FACTOR))
    payload = result._asdict()
    _write_payload(args, payload, "gci")
    for key, val in payload.items():
        print(f"{key:>20}  {tables.fmt(val)}")
    return EXIT_OK


# benchmark fixture unit parsing -------------------------------------------

_FLOW_UNITS = {"ml/min": M3S_PER_MLPM, "l/min": 1e-3 / 60.0}
_DP_UNITS = {"pa": 1.0, "kpa": 1e3, "bar": 1e5}


def _parse_quantity(text: str, units: dict, where: str) -> float | None:
    """A ``<number> <unit>`` cell in SI units, None if blank; any other
    cell raises ``ConfigError`` naming ``where``."""
    lowered = text.strip().lower()
    if not lowered:
        return None
    # longest suffix first so "kpa" is not eaten by "pa"
    for unit in sorted(units, key=len, reverse=True):
        if lowered.endswith(unit):
            try:
                return float(lowered[:-len(unit)]) * units[unit]
            except ValueError:
                break
    raise ConfigError(f"{where}: {text!r} is not a number in one of the "
                      f"units {', '.join(units)}")


_FIXTURE_COLUMNS = dict(authors=str, year=str, material=str,
                        thermal_metric_unit=str, flow=str, dp=str,
                        chip_area_cm2=float, thermal_metric=float, pump_w=float)


def cmd_benchmark(args) -> int:
    fixture = (tables.DATA_DIR / "benchmark_fixture.csv"
               if args.fixture is None else args.fixture)
    # a short fixture row reads as empty cells, reported like missing values
    rows = tables.read_csv(fixture, _FIXTURE_COLUMNS,
                           blank=("chip_area_cm2", "thermal_metric", "pump_w"))
    out = _out_dir(args)
    points = []
    for authors, year, material, unit, flow, dp, area, metric, pump in rows:
        warnings = []
        label = f"{authors} {year}"
        for name, val in (("chip_area_cm2", area), ("thermal_metric", metric)):
            check(val is None or val > 0, "{}: {}: {} must be > 0, got {}",
                  fixture, label, name, val, error=ConfigError)
        r_star = ""
        if metric is not None:
            if unit == "Kcm2/W":
                r_star = metric
            elif unit == "K/W" and area is not None:
                r_star = metric * area
            elif unit.startswith("W/cm2K"):
                r_star = 1.0 / metric   # R*A = 1/h for convective resistance
            else:
                warnings.append("metric_not_normalizable")
        check(r_star == "" or 0 < r_star < math.inf, "{}: {}: R_th*A must be "
              "finite and > 0, got {}", fixture, label, r_star,
              error=ConfigError)
        flow_m3s = _parse_quantity(flow, _FLOW_UNITS,
                                   f"{fixture}: {label}: column flow")
        dp_pa = _parse_quantity(dp, _DP_UNITS, f"{fixture}: {label}: column dp")
        if pump is None and flow_m3s is not None and dp_pa is not None:
            pump = flow_m3s * dp_pa
        w_star = ""
        if pump is not None and area is not None:
            w_star = pump / area
            check(0 <= w_star < math.inf, "{}: {}: W_p/A must be finite and "
                  ">= 0, got {}", fixture, label, w_star, error=ConfigError)
        else:
            warnings.append("no_pump_power")
        points.append((label, material, r_star, w_star, warnings))
    user = (args.user_r_star, args.user_pump_w, args.user_area_cm2)
    if user != (None, None, None):
        if None in user:
            raise ConfigError("user point needs --user-r-star, --user-pump-w "
                              "and --user-area-cm2")
        r_star, pump, area = user
        check(0 < r_star < math.inf,
              "--user-r-star must be finite and > 0, got {}", r_star)
        check(0 <= pump < math.inf,
              "--user-pump-w must be finite and >= 0, got {}", pump)
        check(0 < area < math.inf,
              "--user-area-cm2 must be finite and > 0, got {}", area)
        points.append((args.user_label, "user", r_star, pump / area, ""))
    tables.write_csv(out / "benchmark.csv", ("label", "material",
                                             "r_star_Kcm2_W", "w_star_W_cm2",
                                             "warnings"), points)
    print(f"wrote {len(points)} benchmark points -> {out / 'benchmark.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcool",
        description="multi-jet impingement cooler design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "INI config / problem / dataset file"
    out_help = "output directory"
    for name in ("predict", "explore", "cop", "hotspot", "reduce", "gci"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--out", default="out", help=out_help)
        if name not in ("explore", "cop"):     # the _write_payload commands
            p.add_argument("--format", choices=("csv", "json"),
                           default="json", help="format for report payloads "
                           "(tabular artifacts are always CSV)")

    p = sub.add_parser("pareto")
    p.add_argument("--out", default="out", help=out_help)
    p.add_argument("--input", required=True,
                   help="CSV of points (sweep output or r_th,w_p)")

    p = sub.add_parser("topo")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help=config_help)
    p.add_argument("--out", default="out", help=out_help)
    source.add_argument("--selftest", action="store_true",
                        help="run the analytic channel-flow convergence check")

    p = sub.add_parser("benchmark")
    p.add_argument("--out", default="out", help=out_help)
    p.add_argument("--fixture", help="alternative fixture CSV")
    p.add_argument("--user-r-star", type=float, default=None)
    p.add_argument("--user-pump-w", type=float, default=None)
    p.add_argument("--user-area-cm2", type=float, default=None)
    p.add_argument("--user-label", default="this-work")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse's --help (0) or usage error (2)
        return exc.code
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
