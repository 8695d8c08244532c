"""Problem-file parsing and result export for the topology module.

Problem files are INI-style:

    [grid]
    nx = 100
    ny = 30
    lx_mm = 10
    ly_mm = 2

    [fluid]
    name = water            ; same [fluid] rules as the CLI configs

    [problem]
    beta = 0.5
    volume_fraction = 0.5
    q = 0.01 0.1            ; one value, or a continuation schedule
    max_iters = 100         ; per stage of the schedule
    ; optional: alpha_assignment = fluid|literal

    [segments]
    list =
        left 0 30 inlet constant 0.02
        bottom 23 29 outlet_pressure

Segment lines: side lo hi kind [profile value_m_s].
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import config, tables
from ..errors import ConfigError, InvalidInputError, check
# Unused here: perfbench/spans.py patches jetcool.topo.io.builtin_fluids and
# fails without it. Drop it with the next change to that target list.
from ..props import builtin_fluids  # noqa: F401
from .grid import DensityField, Grid2D, Segment
from .optimize import MAX_ITERS_DEFAULT
from .problem import TopoProblem
from .solver import FlowSolution


def _parse_segment(sec, line: str) -> Segment:
    parts = line.split()
    if len(parts) < 4:
        raise InvalidInputError(f"malformed segment line: {line!r}")
    lo, hi = (config.convert(sec, "list", tok, int) for tok in parts[1:3])
    kind, profile, value = parts[3], "constant", 0.0
    if kind in ("inlet", "outlet_velocity"):
        if len(parts) != 6:
            raise InvalidInputError(
                f"{kind} segment needs 'profile value': {line!r}")
        profile, value = parts[4], config.convert(sec, "list", parts[5])
    elif len(parts) != 4:
        raise InvalidInputError(f"{kind} segment takes no profile: {line!r}")
    return Segment(parts[0], lo, hi, kind, profile, value)


def parse_problem_file(path: str | Path) -> tuple[TopoProblem, int, tuple]:
    """Read a problem file: (problem at the last q listed, max_iters, the
    q schedule, or () for one q)."""
    cp = config.read(path)
    gsec = config.section(cp, "grid")
    nx = config.value(gsec, "nx", cast=int)
    ny = config.value(gsec, "ny", cast=int)
    lx = config.value(gsec, "lx_mm", scale=1e-3)
    ly = config.value(gsec, "ly_mm", scale=1e-3)
    ssec = config.section(cp, "segments")
    segments = [_parse_segment(ssec, line) for line in
                config.value(ssec, "list", cast=str).strip().splitlines()]
    if nx < 1 or ny < 1:    # before the cell sizes divide by them
        raise ConfigError(f"[grid] nx and ny must be >= 1, got {nx}, {ny}")
    grid = Grid2D(nx=nx, ny=ny, dx=lx / nx, dy=ly / ny, segments=segments)

    psec = config.section(cp, "problem")
    for key in ("lambda1", "lambda2", "u_ref"):
        check(key not in psec, "[problem] {} is not a setting: the objective "
              "weights are fixed at 1/q_in^2 and mu*u_ref^2/L^2; adjust beta "
              "instead", key, error=ConfigError)
    check("q_continuation" not in psec, "[problem] q_continuation is not a "
          "setting: list the schedule under q", error=ConfigError)
    schedule = config.values(psec, "q", default=(TopoProblem.q,))
    problem = TopoProblem(
        grid=grid, fluid=config.fluid(cp),
        beta=config.value(psec, "beta", TopoProblem.beta),
        volume_fraction=config.value(psec, "volume_fraction",
                                     TopoProblem.volume_fraction),
        q=schedule[-1], alpha_assignment=psec.get(
            "alpha_assignment", TopoProblem.alpha_assignment))
    max_iters = config.value(psec, "max_iters", MAX_ITERS_DEFAULT, cast=int)
    return problem, max_iters, schedule if len(schedule) > 1 else ()


def export_density(eps: DensityField, csv_path: str | Path,
                   pgm_path: str | Path) -> None:
    """Write the density field as CSV and as an 8-bit PGM image.

    Rows run top-to-bottom (first row = top of the domain), columns
    left-to-right; pixel value 0 = solid (black), 255 = fluid (white).
    """
    arr = eps.eps
    nx, ny = arr.shape
    tables.write_csv(csv_path, None, arr[:, ::-1].T)
    gray = np.clip(np.rint(arr * 255.0), 0, 255).astype(int)
    with open(pgm_path, "w") as fh:
        fh.write(f"P2\n{nx} {ny}\n255\n")
        for j in range(ny - 1, -1, -1):
            fh.write(" ".join(str(gray[i, j]) for i in range(nx)) + "\n")


def write_history(history, path: str | Path) -> None:
    tables.write_csv(path, ("iter", "J", "J1", "J2", "volume"), history)


def write_fields(solution: FlowSolution, path: str | Path) -> None:
    """Cell-centered x,y,u,v,p CSV (velocities interpolated to centers)."""
    g = solution.op.grid
    u_c = 0.5 * (solution.u[1:, :] + solution.u[:-1, :])
    v_c = 0.5 * (solution.v[:, 1:] + solution.v[:, :-1])
    tables.write_csv(path, ("x", "y", "u", "v", "p"),
                     (((i + 0.5) * g.dx, (j + 0.5) * g.dy, u_c[i, j],
                       v_c[i, j], solution.p[i, j])
                      for i, j in np.ndindex(g.nx, g.ny)))
