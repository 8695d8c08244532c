"""Staggered-grid (MAC) Stokes-Brinkman solver with direct factorization.

u lives on vertical cell faces, v on horizontal faces, p in cell centers;
this pairing is inf-sup stable so no pressure stabilization is needed. The
operator splits into an eps-independent part (viscous terms, pressure
gradient, continuity) assembled once per grid, plus a diagonal Brinkman drag
alpha(eps) updated per solve; one LU factorization then serves both the
forward and the (transposed) adjoint solve.

The factorization is a LAPACK band LU with partial pivoting (the saddle-point
system needs it) under a reverse Cuthill-McKee order (Cuthill & McKee 1969),
whose order and band positions are computed once per grid. A grid whose band
would make that LU slower or much larger than sparse LU is factored with
SuperLU instead; ``factor`` hides which path a grid takes.

Boundary treatment: velocity-type faces are Dirichlet; tangential velocity
at velocity-type boundaries uses linear-reflection ghosts (formal order 2 of
the scheme overall); pressure outlets anchor p = 0 at the boundary with a
half-cell pressure gradient and zero normal gradient of the boundary-normal
velocity (a first-order traction-free outflow).

Every operator is a Kronecker product of the 1-D stencils below (the
vectorized assembly of Andreassen et al. 2011, "Efficient topology
optimization in MATLAB using 88 lines of code"). Faces are numbered u faces
first, then v faces, each in C order of its (x, y) array; cells in C order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..errors import SolverError, check
from ..props import FluidProps
from .grid import KINDS, OUTWARD, SIDES, DensityField, Grid2D
from .problem import TopoProblem

_RESIDUAL_TOL = 1e-10
_PRESSURE_KIND = KINDS.index("outlet_pressure")

# A grid takes the band path when both hold (see _BandLayout):
# - kl^2 / sqrt(n) <= BAND_SCORE_MAX. Per factorization plus two solves on a
#   2-vCPU AVX-512 VM (scipy 1.17), the band LU was 26 % faster than SuperLU
#   at 206 (a 40x40 grid) and 6 % slower at 258 (50x50);
# - at most BAND_FILL_MAX band entries (8 bytes) per stored nonzero of
#   k_base. SuperLU's factors of the same grids hold 17-27 (12 bytes each),
#   so the band array stays within about 3x of their size.
BAND_SCORE_MAX = 230.0
BAND_FILL_MAX = 80.0


# 1-D stencils along an axis of n cells and n + 1 faces


def _second_difference(n: int, zero_gradient_ends: bool) -> sp.csr_matrix:
    """[-1, 2, -1] on n nodes. Zero-gradient ends copy the end node into the
    ghost outside it (normal velocity at a pressure outlet); otherwise the
    ghost term is left to a diagonal correction (tangential velocity)."""
    main = np.full(n, 2.0)
    if zero_gradient_ends:
        main[[0, -1]] = 1.0
    return sp.diags([-1.0, main, -1.0], [-1, 0, 1], shape=(n, n),
                    format="csr")


def _half_cell_gradient(n: int) -> sp.csr_matrix:
    """Cell-to-face difference, (n + 1) x n. An end face differences its one
    cell against a zero half a cell away (p = 0 at a pressure outlet,
    u = 0 at a wall)."""
    grad = sp.diags([1.0, -1.0], [0, -1], shape=(n + 1, n), format="lil")
    grad[0, 0], grad[n, n - 1] = 2.0, -2.0
    return grad.tocsr()


def _divergence(n: int) -> sp.csr_matrix:
    """Face-to-cell difference, n x (n + 1)."""
    return sp.diags([-1.0, 1.0], [0, 1], shape=(n, n + 1), format="csr")


def _face_average(n: int) -> sp.csr_matrix:
    """Cell-to-face mean, (n + 1) x n; an end face takes its one cell."""
    avg = sp.diags([0.5, 0.5], [0, -1], shape=(n + 1, n), format="lil")
    avg[0, 0] = avg[n, n - 1] = 1.0
    return avg.tocsr()


def _trapezoid(n: int) -> np.ndarray:
    """Share of a cell width that each of the n + 1 faces controls."""
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    return w


def _side_faces(grid: Grid2D, side: str) -> tuple[np.ndarray, float]:
    """Face numbers along one side and the sign of its outward normal."""
    nx, ny = grid.nx, grid.ny
    if side in ("left", "right"):
        i = 0 if side == "left" else nx
        return i * ny + np.arange(ny), OUTWARD[side]
    j = 0 if side == "bottom" else ny
    return (nx + 1) * ny + np.arange(nx) * (ny + 1) + j, OUTWARD[side]


class _BandLayout:
    """Reverse Cuthill-McKee order of a sparse matrix and where its stored
    entries fall in LAPACK band storage: A[i, j] of the reordered matrix sits
    at ab[kl + ku + i - j, j] of a (2 kl + ku + 1, n) Fortran array whose
    first kl rows are room for the pivoting fill."""

    def __init__(self, k: sp.csr_matrix):
        n = k.shape[0]
        pattern = abs(k)
        self.perm = reverse_cuthill_mckee(
            (pattern + pattern.T + sp.identity(n)).tocsr(),
            symmetric_mode=True).astype(np.intp)
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(n)
        entries = k.tocoo()
        entries.sum_duplicates()
        rows, cols = self.iperm[entries.row], self.iperm[entries.col]
        self.kl = int((rows - cols).max(initial=0))
        self.ku = int((cols - rows).max(initial=0))
        self.shape = (2 * self.kl + self.ku + 1, n)
        # offsets into the band array flattened in Fortran order
        self.values = entries.data
        self.value_at = cols * self.shape[0] + self.kl + self.ku + rows - cols
        self.diagonal_at = self.iperm * self.shape[0] + self.kl + self.ku

    def fits(self) -> bool:
        """Whether the band path beats SuperLU (BAND_SCORE_MAX) without
        outgrowing its factors (BAND_FILL_MAX)."""
        n = self.shape[1]
        return (self.kl ** 2 <= BAND_SCORE_MAX * np.sqrt(n)
                and self.shape[0] * n <= BAND_FILL_MAX * self.values.size)


class BandLU:
    """LAPACK band LU factors with SuperLU's ``solve(rhs, trans)``."""

    def __init__(self, layout: _BandLayout, lub: np.ndarray, piv: np.ndarray):
        self.layout = layout
        self.lub = lub
        self.piv = piv

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        band = self.layout
        x, _ = dgbtrs(self.lub, band.kl, band.ku, rhs[band.perm], self.piv,
                      trans={"N": 0, "T": 1}[trans])
        return x[band.iperm]


def factor(op: "StokesOperator", drag: np.ndarray):
    """LU factors of op.k_base + diag(drag), band or SuperLU as the operator
    chose; either has ``solve(rhs, trans="N"|"T")``."""
    band = op.band
    if band is None:
        try:
            return spla.splu((op.k_base + sp.diags(drag)).tocsc())
        except RuntimeError as exc:
            raise SolverError(
                f"singular Stokes-Brinkman system: {exc}") from exc
    flat = np.zeros(band.shape[0] * band.shape[1])
    flat[band.value_at] = band.values
    flat[band.diagonal_at] += drag
    lub, piv, info = dgbtrf(flat.reshape(band.shape, order="F"), band.kl,
                            band.ku, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"singular Stokes-Brinkman system: band LU "
                          f"(dgbtrf) returned info {info}")
    return BandLU(band, lub, piv)


class StokesOperator:
    """Grid-bound discretization, reusable across density fields."""

    def __init__(self, grid: Grid2D, mu: float):
        check(0 < mu < np.inf, "viscosity must be finite and > 0, got {}", mu)
        self.grid = grid
        self.mu = mu
        nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
        nfu, nc = (nx + 1) * ny, grid.n_cells
        self.n_faces = nfu + nx * (ny + 1)
        cxx, cyy = mu / dx ** 2, mu / dy ** 2
        eye = sp.identity

        def kron(a, b):
            return sp.kron(a, b, format="csr")  # BSR would store zeros

        # A tangential-velocity node on the boundary has a zero-gradient
        # ghost when every boundary cell next to it is a pressure outlet
        # (their face average is then exactly 1), and a reflecting ghost
        # (zero wall velocity) otherwise.
        zero_grad = {side: _face_average(kind.size)
                     @ (kind == _PRESSURE_KIND).astype(float) == 1.0
                     for side, kind in grid.side_kind.items()}

        def ghost(side, shape, nodes, c):
            diag = np.zeros(shape)
            diag[nodes] = np.where(zero_grad[side], -c, c)
            return sp.diags(diag.ravel())

        # momentum rows over all faces, continuity rows over all cells
        lap_u = (kron(cxx * _second_difference(nx + 1, True), eye(ny))
                 + kron(eye(nx + 1), cyy * _second_difference(ny, False))
                 + ghost("bottom", (nx + 1, ny), np.s_[:, 0], cyy)
                 + ghost("top", (nx + 1, ny), np.s_[:, -1], cyy))
        lap_v = (kron(eye(nx), cyy * _second_difference(ny + 1, True))
                 + kron(cxx * _second_difference(nx, False), eye(ny + 1))
                 + ghost("left", (nx, ny + 1), np.s_[0, :], cxx)
                 + ghost("right", (nx, ny + 1), np.s_[-1, :], cxx))
        div_x = kron(_divergence(nx) / dx, eye(ny))
        div_y = kron(eye(nx), _divergence(ny) / dy)
        continuity = sp.hstack([div_x, div_y, sp.csr_matrix((nc, nc))])
        if not grid.has_pressure_boundary:
            # all-velocity boundaries fix p only up to a constant: the first
            # cell's row anchors its pressure instead
            continuity = (sp.diags(np.r_[0.0, np.ones(nc - 1)]) @ continuity
                          + sp.csr_matrix(([1.0], ([0], [self.n_faces])),
                                          shape=continuity.shape))
        grad_x = kron(_half_cell_gradient(nx) / dx, eye(ny))
        grad_y = kron(eye(nx), _half_cell_gradient(ny) / dy)
        full = sp.vstack([sp.bmat([[lap_u, None, grad_x],
                                   [None, lap_v, grad_y]]),
                          continuity]).tocsr()

        # eliminate the Dirichlet faces: x_full = select @ x + dirichlet
        free = np.ones(self.n_faces + nc, dtype=bool)
        self.dirichlet_vec = np.zeros(self.n_faces)
        for side in SIDES:
            faces, _ = _side_faces(grid, side)
            fixed = grid.side_kind[side] != _PRESSURE_KIND
            free[faces[fixed]] = False
            self.dirichlet_vec[faces[fixed]] = grid.side_value[side][fixed]
        select = sp.identity(free.size, format="csr")[:, free]
        self.k_base = (select.T @ full @ select).tocsr()
        # 0.0 - (...) keeps -0.0 out of the right-hand side
        self.rhs_base = 0.0 - select.T @ (
            full @ np.r_[self.dirichlet_vec, np.zeros(nc)])
        self.scatter = select[:self.n_faces]
        self.n_unknowns = select.shape[1]
        self.p_offset = self.n_unknowns - nc
        band = _BandLayout(self.k_base)
        self.band = band if band.fits() else None

        # Brinkman drag: cell alpha averaged to the faces
        self.alpha_face = sp.vstack([kron(_face_average(nx), eye(ny)),
                                     kron(eye(nx), _face_average(ny))]).tocsr()
        self.alpha_avg = (self.scatter.T @ self.alpha_face).tocsr()
        self.face_area = dx * dy * np.r_[
            np.kron(_trapezoid(nx), np.ones(ny)),
            np.kron(np.ones(nx), _trapezoid(ny))]

        # Velocity-gradient quadrature Q = sum_k w_k (G x_all)_k^2: du/dx and
        # dv/dy at cell centers, du/dy and dv/dx at cell corners except where
        # the tangential ghost has zero gradient (traction-free outlet).
        # The sample order fixes how every sum over samples rounds: cell by
        # cell, then du/dy corners x-major, then dv/dx corners y-major.
        corners = (nx + 1, ny + 1)
        w_corner = dx * dy * np.outer(_trapezoid(nx), _trapezoid(ny))
        keep_dudy = np.ones(corners, dtype=bool)
        keep_dudy[:, 0] = ~zero_grad["bottom"]
        keep_dudy[:, -1] = ~zero_grad["top"]
        keep_dvdx = np.ones(corners, dtype=bool)
        keep_dvdx[0, :] = ~zero_grad["left"]
        keep_dvdx[-1, :] = ~zero_grad["right"]
        y_major = np.arange(w_corner.size).reshape(corners).T.ravel()
        dudy = kron(eye(nx + 1), _half_cell_gradient(ny) / dy)
        dvdx = kron(_half_cell_gradient(nx) / dx, eye(ny + 1))[y_major]
        by_cell = np.arange(2 * nc).reshape(2, nc).T.ravel()
        self.grad_op = sp.vstack([
            sp.block_diag([div_x, div_y], format="csr")[by_cell],
            sp.block_diag([dudy[keep_dudy.ravel()],
                           dvdx[keep_dvdx.T.ravel()]])]).tocsr()
        self.grad_w = np.r_[np.full(2 * nc, dx * dy), w_corner[keep_dudy],
                            w_corner.T[keep_dvdx.T]]

        # outlet flux extraction rows, one per outlet segment
        outlets = grid.outlet_segments()
        flux = np.zeros((len(outlets), self.n_faces))
        for k, seg in enumerate(outlets):
            faces, sign = _side_faces(grid, seg.side)
            flux[k, faces[seg.lo:seg.hi]] = sign * grid.face_length(seg.side)
        self.outlet_op = sp.csr_matrix(flux)
        self.inlet_flux = grid.inlet_flux()

    # ------------------------------------------------------------------
    # solving

    def matrix(self, alpha_cells: np.ndarray) -> sp.csr_matrix:
        return self.k_base + sp.diags(self.drag(alpha_cells))

    def drag(self, alpha_cells: np.ndarray) -> np.ndarray:
        """Brinkman drag diagonal of the unknowns from cell values of alpha."""
        alpha = np.asarray(alpha_cells, dtype=float).ravel()
        check(alpha.size == self.grid.n_cells,
              "alpha_cells has {} values, the grid has {} cells",
              alpha.size, self.grid.n_cells)
        check(np.isfinite(alpha) & (alpha >= 0),
              "alpha_cells must be finite and >= 0, got {}", alpha)
        return self.alpha_avg @ alpha

    def solve(self, alpha_cells: np.ndarray) -> "FlowSolution":
        drag = self.drag(alpha_cells)
        lu = factor(self, drag)
        x = lu.solve(self.rhs_base)
        if not np.all(np.isfinite(x)):
            raise SolverError("non-finite solution (singular or ill-posed "
                              "boundary conditions)")
        b_norm = float(np.linalg.norm(self.rhs_base))
        res = float(np.linalg.norm(self.k_base @ x + drag * x - self.rhs_base))
        residual = res / b_norm if b_norm > 0 else res
        if residual > _RESIDUAL_TOL:
            raise SolverError(f"direct solve residual {residual:g} exceeds "
                              f"{_RESIDUAL_TOL:g}")
        return FlowSolution(self, x, lu, residual)


@dataclass
class FlowSolution:
    """Velocity/pressure state plus the factorization it came from."""

    op: StokesOperator
    x: np.ndarray
    lu: object               # BandLU or SuperLU, from factor(); serves the adjoint
    residual: float

    def __post_init__(self) -> None:
        g = self.op.grid
        x_all = self.op.scatter @ self.x + self.op.dirichlet_vec
        nfu = (g.nx + 1) * g.ny
        self.u = x_all[:nfu].reshape(g.nx + 1, g.ny)
        self.v = x_all[nfu:].reshape(g.nx, g.ny + 1)
        self.p = self.x[self.op.p_offset:].reshape(g.nx, g.ny)
        self.x_all = x_all

    def outlet_flows(self) -> np.ndarray:
        """Outward flux through each outlet segment [m2/s per unit depth]."""
        return self.op.outlet_op @ self.x_all

    def divergence(self) -> np.ndarray:
        """Net volume flux out of every cell [m2/s per unit depth]."""
        g = self.op.grid
        return ((self.u[1:, :] - self.u[:-1, :]) * g.dy
                + (self.v[:, 1:] - self.v[:, :-1]) * g.dx)

    def mass_imbalance(self) -> float:
        """max cell |divergence| relative to the inlet flux."""
        scale = abs(self.op.inlet_flux)
        if scale == 0:
            scale = 1.0
        return float(np.abs(self.divergence()).max() / scale)


def solve_flow(grid: Grid2D, eps: DensityField, fluid: FluidProps,
               q: float = 0.01) -> FlowSolution:
    """One-off Brinkman flow solve (builds the operator; for repeated solves
    on the same grid use StokesOperator or TopoProblem/optimize)."""
    check(eps.eps.shape == (grid.nx, grid.ny), "eps shape {} != grid cells {}",
          eps.eps.shape, (grid.nx, grid.ny))
    problem = TopoProblem(grid=grid, fluid=fluid, q=q)
    op = StokesOperator(grid, fluid.viscosity)
    return op.solve(problem.alpha(eps.eps))
