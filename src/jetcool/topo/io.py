"""Problem-file parsing and result export for the topology module.

Problem files are INI-style:

    [grid]
    nx = 100
    ny = 30
    lx_mm = 10
    ly_mm = 2

    [fluid]
    name = water            ; or density/viscosity/... fields inline

    [problem]
    beta = 0.5
    volume_fraction = 0.5
    q = 0.01
    max_iters = 100
    ; optional: lambda1, lambda2, u_ref, alpha_assignment = fluid|literal

    [segments]
    list =
        left 0 30 inlet constant 0.02
        bottom 23 29 outlet_pressure

Segment lines: side lo hi kind [profile value_m_s].
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from ..errors import InvalidInputError
from ..props import FluidProps, builtin_fluids
from .grid import DensityField, Grid2D, Segment
from .problem import TopoProblem
from .solver import FlowSolution


def _parse_segment(line: str) -> Segment:
    parts = line.split()
    if len(parts) < 4:
        raise InvalidInputError(f"malformed segment line: {line!r}")
    side, lo, hi, kind = parts[0], int(parts[1]), int(parts[2]), parts[3]
    profile, value = "constant", 0.0
    if kind in ("inlet", "outlet_velocity"):
        if len(parts) != 6:
            raise InvalidInputError(
                f"{kind} segment needs 'profile value': {line!r}")
        profile, value = parts[4], float(parts[5])
    elif len(parts) != 4:
        raise InvalidInputError(f"{kind} segment takes no profile: {line!r}")
    return Segment(side=side, lo=lo, hi=hi, kind=kind, profile=profile,
                   value=value)


def parse_problem_file(path: str | Path) -> tuple[TopoProblem, int, tuple]:
    """Read a problem definition; returns (problem, max_iters, q_schedule)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    read = cp.read(path)
    if not read:
        raise InvalidInputError(f"cannot read problem file {path}")
    for section in ("grid", "fluid", "problem", "segments"):
        if not cp.has_section(section):
            raise InvalidInputError(f"problem file missing [{section}] section")

    gsec = cp["grid"]
    nx, ny = gsec.getint("nx"), gsec.getint("ny")
    lx = gsec.getfloat("lx_mm") * 1e-3
    ly = gsec.getfloat("ly_mm") * 1e-3
    segments = [_parse_segment(line)
                for line in cp["segments"]["list"].strip().splitlines()]
    grid = Grid2D(nx=nx, ny=ny, dx=lx / nx, dy=ly / ny, segments=segments)

    fsec = cp["fluid"]
    if "name" in fsec:
        catalog = builtin_fluids()
        name = fsec["name"]
        if name not in catalog:
            raise InvalidInputError(f"unknown fluid {name!r}")
        fluid = catalog[name]
    else:
        fluid = FluidProps(
            name="custom", density=fsec.getfloat("density_kg_m3"),
            viscosity=fsec.getfloat("viscosity_kg_ms"),
            specific_heat=fsec.getfloat("cp_J_kgK", 4000.0),
            conductivity=fsec.getfloat("k_W_mK", 0.6),
            reference_temp=fsec.getfloat("ref_temp_C", 20.0))

    psec = cp["problem"]
    problem = TopoProblem(
        grid=grid, fluid=fluid,
        beta=psec.getfloat("beta", 0.5),
        volume_fraction=psec.getfloat("volume_fraction", 1.0),
        q=psec.getfloat("q", 0.01),
        lambda1=psec.getfloat("lambda1", fallback=None),
        lambda2=psec.getfloat("lambda2", fallback=None),
        u_ref=psec.getfloat("u_ref", fallback=None),
        alpha_assignment=psec.get("alpha_assignment", "fluid"))
    schedule = tuple(float(tok) for tok in
                     psec.get("q_continuation", "").split())
    return problem, psec.getint("max_iters", 100), schedule


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def export_density(eps: DensityField, csv_path: str | Path,
                   pgm_path: str | Path | None = None) -> None:
    """Write the density field as CSV (and optionally an 8-bit PGM image).

    Rows run top-to-bottom (first row = top of the domain), columns
    left-to-right; pixel value 0 = solid (black), 255 = fluid (white).
    """
    arr = eps.eps
    nx, ny = arr.shape
    with open(csv_path, "w") as fh:
        for j in range(ny - 1, -1, -1):
            fh.write(",".join(_fmt(arr[i, j]) for i in range(nx)) + "\n")
    if pgm_path is None:
        return
    gray = np.clip(np.rint(arr * 255.0), 0, 255).astype(int)
    with open(pgm_path, "w") as fh:
        fh.write(f"P2\n{nx} {ny}\n255\n")
        for j in range(ny - 1, -1, -1):
            fh.write(" ".join(str(gray[i, j]) for i in range(nx)) + "\n")


def write_history(history, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("iter,J,J1,J2,volume\n")
        for row in history:
            fh.write(f"{row.iteration},{_fmt(row.J)},{_fmt(row.J1)},"
                     f"{_fmt(row.J2)},{_fmt(row.volume)}\n")


def write_fields(solution: FlowSolution, path: str | Path) -> None:
    """Cell-centered x,y,u,v,p CSV (velocities interpolated to centers)."""
    g = solution.op.grid
    u_c = 0.5 * (solution.u[1:, :] + solution.u[:-1, :])
    v_c = 0.5 * (solution.v[:, 1:] + solution.v[:, :-1])
    with open(path, "w") as fh:
        fh.write("x,y,u,v,p\n")
        for i in range(g.nx):
            for j in range(g.ny):
                fh.write(f"{_fmt((i + 0.5) * g.dx)},{_fmt((j + 0.5) * g.dy)},"
                         f"{_fmt(u_c[i, j])},{_fmt(v_c[i, j])},"
                         f"{_fmt(solution.p[i, j])}\n")
