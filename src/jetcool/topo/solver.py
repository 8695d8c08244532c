"""Staggered-grid (MAC) Stokes-Brinkman solver with direct factorization.

u lives on vertical cell faces, v on horizontal faces, p in cell centers;
this pairing is inf-sup stable so no pressure stabilization is needed. The
operator splits into an eps-independent part (viscous terms, pressure
gradient, continuity) assembled once per grid, plus a diagonal Brinkman drag
alpha(eps) updated per solve; one LU factorization then serves both the
state solve and the velocity-only adjoint solve of the gradient.

The solve works in the null space of the divergence (Benzi, Golub & Liesen
2005, "Numerical solution of saddle point problems", Acta Numerica 14, sec.
6): the velocity on the free faces is u = u_p + Z psi, where Z is the
discrete curl of a stream function psi on the grid nodes (the staggered-grid
basis of Amit, Hall & Porsching 1981, J. Comput. Phys. 40) and u_p meets
continuity. Multiplying the momentum rows by Z^T S^-1 removes the pressure,
which leaves the reduced matrix R = Z^T S^-1 (A + D) Z, about a third of the
unknowns of the saddle-point system and a narrower band. The pressure comes
back from the momentum residual through a cell Poisson matrix factored once
per grid; the same matrix gives u_p, once per grid. R's interior block is
factored as a LAPACK band LU under a reverse Cuthill-McKee order (Cuthill &
McKee 1969) computed once per grid, or with SuperLU when its band would be
too large; the few stream-function values of wall runs between outlets
border it and are eliminated through a Schur complement. ``factor`` hides
all of this behind ``state()`` and the velocity-only ``adjoint(rhs)``.

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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import (connected_components,
                                  reverse_cuthill_mckee)

from ..errors import SolverError, check
from ..props import FluidProps
from .grid import KINDS, OUTWARD, SIDES, DensityField, Grid2D
from .problem import TopoProblem

_RESIDUAL_TOL = 1e-10
_PRESSURE_KIND = KINDS.index("outlet_pressure")

# The interior block of R takes the band path when both hold (see
# _BandLayout). Per factorization plus a forward and a transposed solve on a
# 2-vCPU AVX-512 VM (scipy 1.17), on two-outlet grids from 16x8 to 140x140:
# - kl^2 / sqrt(n) <= BAND_SCORE_MAX. The band path took 0.34-0.86 of the
#   SuperLU path's time up to 555 (140x140); larger scores are unmeasured;
# - at most BAND_FILL_MAX band entries (8 bytes) per stored nonzero of the
#   block. SuperLU's factors of the same grids hold 2.5-19 (12 bytes each),
#   so the band array stays within about 2x of their size: 100x100 (46.5,
#   47 MB against 24 MB) takes the band, 120x120 (55.7, 81 MB) SuperLU.
BAND_SCORE_MAX = 560.0
BAND_FILL_MAX = 50.0


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
    """Reverse Cuthill-McKee order of an n x n sparsity pattern, given by the
    rows and columns of its entries, and where those entries fall in LAPACK
    band storage: A[i, j] of the reordered matrix sits at ab[kl + ku + i - j,
    j] of a (2 kl + ku + 1, n) Fortran array whose first kl rows are room for
    the pivoting fill."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                shape=(n, n))
        # a one-cell-wide grid can leave no interior node; RCM needs one
        self.perm = reverse_cuthill_mckee(
            (pattern + pattern.T + sp.identity(n)).tocsr(),
            symmetric_mode=True).astype(np.intp) if n else np.arange(0)
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(n)
        rows, cols = self.iperm[rows], self.iperm[cols]
        self.kl = int((rows - cols).max(initial=0))
        self.ku = int((cols - rows).max(initial=0))
        self.shape = (2 * self.kl + self.ku + 1, n)
        # offsets into the band array flattened in Fortran order
        self.value_at = cols * self.shape[0] + self.kl + self.ku + rows - cols

    def fits(self) -> bool:
        """Whether the band path beats SuperLU (BAND_SCORE_MAX) without
        outgrowing its factors (BAND_FILL_MAX). An empty block, which LAPACK
        cannot take, goes to SuperLU."""
        n = self.shape[1]
        return (n > 0 and self.kl ** 2 <= BAND_SCORE_MAX * np.sqrt(n)
                and self.shape[0] * n <= BAND_FILL_MAX * self.value_at.size)


class BandLU:
    """LAPACK band LU factors with SuperLU's ``solve(rhs, trans)``."""

    def __init__(self, layout: _BandLayout, values: np.ndarray):
        self.layout = layout
        flat = np.zeros(layout.shape[0] * layout.shape[1])
        flat[layout.value_at] = values
        self.lub, self.piv, info = dgbtrf(
            flat.reshape(layout.shape, order="F"), layout.kl, layout.ku,
            overwrite_ab=1)
        if info != 0:
            raise SolverError(f"singular Stokes-Brinkman system: band LU "
                              f"(dgbtrf) returned info {info}")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        band = self.layout
        x, _ = dgbtrs(self.lub, band.kl, band.ku, rhs[band.perm], self.piv,
                      trans={"N": 0, "T": 1}[trans])
        return x[band.iperm]


class _NullSpace:
    """The per-grid part of the null-space solve (see NullSpaceLU).

    ``basis`` Z is the discrete curl from the grid nodes to the free faces,
    so div @ Z = 0. The nodes that Dirichlet boundary faces join share one
    stream-function value: every run of wall, inlet or velocity-outlet faces
    between two pressure outlets is one column, and the largest run is the
    gauge psi = 0. Single nodes come first (the interior block, factored as
    a band or by SuperLU) and runs last (the border). The entries of the
    reduced matrix R = Z^T S^-1 (A + D) Z are listed once, interior block
    first, then the border rows, then the border columns; their values are
    ``base + drag_map @ d`` for the drag d on the free faces.
    """

    def __init__(self, k_base: sp.csr_matrix, rhs: np.ndarray,
                 div: sp.csr_matrix, curl: sp.csr_matrix, fixed: np.ndarray,
                 s: np.ndarray, pinned: np.ndarray):
        nu = s.size
        self.a = k_base[:nu, :nu]
        self.s = s
        # An all-velocity boundary anchors the pressure of cell 0 in place of
        # its continuity row; every other continuity row holds.
        self.held = np.ones(div.shape[0], dtype=bool)
        self.held[pinned] = False
        self.div_held = div[self.held]
        self.poisson = spla.splu((self.div_held @ self.div_held.T).tocsc())
        # the state's right-hand side is fixed: the pinned pressure, the
        # momentum part less its gradient, and u_p with div u_p = the rest
        bottom = rhs[nu:]
        self.pressure = np.zeros(bottom.size)
        self.pressure[pinned] = bottom[pinned]
        self.top = rhs[:nu] - k_base[:nu, nu + pinned] @ bottom[pinned]
        self.u_p = self.div_held.T @ self.poisson.solve(bottom[self.held])

        links = abs(curl[fixed])
        _, label = connected_components(links.T @ links, directed=False)
        size = np.bincount(label)
        single, run = size == 1, size > 1
        single[size.argmax()] = run[size.argmax()] = False   # the gauge
        ni = self.n_interior = int(np.count_nonzero(single))
        self.n_border = int(np.count_nonzero(run))
        n = ni + self.n_border
        column = np.full(size.size, -1)
        column[single] = np.arange(ni)
        column[run] = np.arange(ni, n)

        # every free face holds the curl of the two nodes at its ends
        face_curl = curl[~fixed]
        face_curl.sort_indices()
        ends = column[label[face_curl.indices]].reshape(nu, 2)
        coef = face_curl.data.reshape(nu, 2)
        faces = np.repeat(np.arange(nu), 2)
        use = ends.ravel() >= 0
        self.basis = sp.csr_matrix(
            (coef.ravel()[use], (faces[use], ends.ravel()[use])),
            shape=(nu, n))
        self.basis_t = self.basis.T     # a CSC view, formed once

        # R = Z^T S^-1 A Z + sum_f (d_f / s_f) z_f z_f^T over the rows z_f
        # of Z, so each face adds to the four entries its end nodes share
        r_a = (self.basis.T @ sp.diags(1.0 / s) @ self.a @ self.basis).tocoo()
        r_a.sum_duplicates()
        first, second = [0, 0, 1, 1], [0, 1, 0, 1]
        row, col = ends[:, first].ravel(), ends[:, second].ravel()
        weight = (coef[:, first] * coef[:, second] / s[:, None]).ravel()
        use = (row >= 0) & (col >= 0)
        row, col, weight = row[use], col[use], weight[use]

        def key(r, c):
            # column-major within each part: interior, border rows, border
            # columns
            part = np.where(c >= ni, 2, np.where(r >= ni, 1, 0))
            return (part * n + c) * n + r

        keys = np.unique(np.r_[key(r_a.row, r_a.col), key(row, col)])
        self.base = np.zeros(keys.size)
        self.base[np.searchsorted(keys, key(r_a.row, r_a.col))] = r_a.data
        self.drag_map = sp.csr_matrix(
            (weight, (np.searchsorted(keys, key(row, col)),
                      np.repeat(np.arange(nu), 4)[use])),
            shape=(keys.size, nu))
        rows, cols = keys % n, keys // n % n
        self.split = np.searchsorted(keys, [n * n, 2 * n * n])
        a, b = self.split
        # interior block in CSC form, and flat offsets of the border entries
        # into a dense (n_border, n_interior) lower and (n, n_border) right
        self.indices = rows[:a]
        self.indptr = np.searchsorted(cols[:a], np.arange(ni + 1))
        self.lower_at = (rows[a:b] - ni) * ni + cols[a:b]
        self.right_at = rows[b:] * self.n_border + cols[b:] - ni
        band = _BandLayout(rows[:a], cols[:a], ni)
        self.band = band if band.fits() else None

    def factor_interior(self, values: np.ndarray):
        """LU factors of the interior block, band or SuperLU."""
        if self.band is not None:
            return BandLU(self.band, values)
        ni = self.n_interior
        try:
            return spla.splu(sp.csc_matrix((values, self.indices,
                                            self.indptr), shape=(ni, ni)))
        except RuntimeError as exc:
            raise SolverError(
                f"singular Stokes-Brinkman system: {exc}") from exc


class NullSpaceLU:
    """Factors of k_base + diag(drag) through its null-space system.

    With A + D the velocity block, G = -S div^T the pressure gradient and
    u = u_p + Z psi, where div u_p = b: Z^T S^-1 G = 0, so
    R psi = Z^T S^-1 (f - (A + D) u_p), and then div^T p = S^-1 ((A + D) u - f)
    is solved in the cell Poisson matrix div div^T. In the transposed system
    K^T [w; q] = [r; 0], v = S w meets the held continuity rows, so
    v = Z R^-T Z^T r and q is not needed.

    R is blocked as [[R_ii, upper], [lower, corner]], interior first, with
    the n_border wall-run columns last. ``coupling`` is R_ii^-1 upper and
    ``schur`` the inverse of the Schur complement corner - lower coupling,
    so a reduced solve in either direction makes one interior solve.
    """

    def __init__(self, ns: _NullSpace, d: np.ndarray, interior,
                 lower: np.ndarray, schur: np.ndarray, coupling: np.ndarray):
        self.ns = ns
        self.d = d
        self.interior = interior     # BandLU or SuperLU of the interior block
        self.lower, self.schur, self.coupling = lower, schur, coupling

    def _reduced(self, rhs: np.ndarray) -> np.ndarray:
        """Solve R psi = rhs by block elimination of the interior block:
        y = R_ii^-1 rhs_i, runs = schur (rhs_b - lower y) and
        psi_i = y - coupling runs."""
        ni = self.ns.n_interior
        y = self.interior.solve(rhs[:ni])
        runs = self.schur @ (rhs[ni:] - self.lower @ y)
        return np.r_[y - self.coupling @ runs, runs]

    def _reduced_t(self, rhs: np.ndarray) -> np.ndarray:
        """Solve R^T psi = rhs: runs = schur^T (rhs_b - coupling^T rhs_i),
        then psi_i = R_ii^-T (rhs_i - lower^T runs)."""
        ni = self.ns.n_interior
        runs = self.schur.T @ (rhs[ni:] - self.coupling.T @ rhs[:ni])
        return np.r_[self.interior.solve(rhs[:ni] - self.lower.T @ runs,
                                         trans="T"), runs]

    def _momentum(self, u: np.ndarray) -> np.ndarray:
        """(A + D) u."""
        return self.ns.a @ u + self.d * u

    def state(self) -> np.ndarray:
        """Velocity and pressure of the operator's right-hand side."""
        ns = self.ns
        u = ns.u_p + ns.basis @ self._reduced(
            ns.basis_t @ ((ns.top - self._momentum(ns.u_p)) / ns.s))
        pressure = ns.pressure.copy()
        pressure[ns.held] = ns.poisson.solve(
            ns.div_held @ ((self._momentum(u) - ns.top) / ns.s))
        return np.r_[u, pressure]

    def adjoint(self, rhs: np.ndarray) -> np.ndarray:
        """Velocity part w of K^T [w; q] = [rhs; 0], for a right-hand side
        on the free faces."""
        ns = self.ns
        return ns.basis @ self._reduced_t(ns.basis_t @ rhs) / ns.s


def factor(op: "StokesOperator", drag: np.ndarray) -> NullSpaceLU:
    """Factors of op.k_base + diag(drag), for ``state()`` and ``adjoint``.

    Fills the reduced matrix R from the drag, factors its interior block on
    the path the operator chose, and eliminates the border through the
    Schur complement of that block."""
    ns = op.null_space
    d = drag[:ns.s.size]
    values = ns.base + ns.drag_map @ d
    a, b = ns.split
    ni, nb = ns.n_interior, ns.n_border
    interior = ns.factor_interior(values[:a])
    lower = np.zeros((nb, ni))
    lower.flat[ns.lower_at] = values[a:b]
    right = np.zeros((ni + nb, nb))
    right.flat[ns.right_at] = values[b:]
    upper, corner = right[:ni], right[ni:]
    coupling = interior.solve(upper)
    try:
        schur = np.linalg.inv(corner - lower @ coupling)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular Stokes-Brinkman system: {exc}") from exc
    return NullSpaceLU(ns, d, interior, lower, schur, coupling)


class StokesOperator:
    """Grid-bound discretization, reusable across density fields."""

    def __init__(self, grid: Grid2D, mu: float):
        check(0 < mu < np.inf, "viscosity must be finite and > 0, got {}", mu)
        self.grid = grid
        self.mu = mu
        nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
        nfu, nc = (nx + 1) * ny, grid.n_cells
        self.n_faces = nfu + nx * (ny + 1)
        # numpy scalars: an extreme cell size gives inf or 0, not an error
        with np.errstate(over="ignore", divide="ignore"):
            cxx, cyy = mu / np.float64(dx) ** 2, mu / np.float64(dy) ** 2
        check(0 < cxx < np.inf and 0 < cyy < np.inf, "the viscous coefficients"
              " mu/dx^2 = {} and mu/dy^2 = {} must be finite and > 0", cxx, cyy)
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
        outlet = np.zeros(self.n_faces, dtype=bool)
        self.dirichlet_vec = np.zeros(self.n_faces)
        for side in SIDES:
            faces, _ = _side_faces(grid, side)
            fixed = grid.side_kind[side] != _PRESSURE_KIND
            free[faces[fixed]] = False
            outlet[faces[~fixed]] = True
            self.dirichlet_vec[faces[fixed]] = grid.side_value[side][fixed]
        select = sp.identity(free.size, format="csr")[:, free]
        self.k_base = (select.T @ full @ select).tocsr()
        # 0.0 - (...) keeps -0.0 out of the right-hand side
        self.rhs_base = 0.0 - select.T @ (
            full @ np.r_[self.dirichlet_vec, np.zeros(nc)])
        self.scatter = select[:self.n_faces]
        self.n_unknowns = select.shape[1]
        self.p_offset = self.n_unknowns - nc

        # Null space of the continuity rows: the discrete curl from the
        # (nx + 1, ny + 1) grid nodes, C order, to the faces. The gradient is
        # G = -S div^T with S = 2 on the pressure-outlet faces, where the
        # half-cell gradient is doubled.
        curl = sp.vstack([kron(eye(nx + 1), _divergence(ny) / dy),
                          -kron(_divergence(nx) / dx, eye(ny + 1))]).tocsr()
        free_faces = free[:self.n_faces]
        faces_div = sp.hstack([div_x, div_y]) @ self.scatter[:, :self.p_offset]
        self.null_space = _NullSpace(
            self.k_base, self.rhs_base, faces_div.tocsr(), curl, ~free_faces,
            np.where(outlet[free_faces], 2.0, 1.0),
            pinned=np.arange(0 if grid.has_pressure_boundary else 1))

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

        # the transposes the adjoint gradient applies, formed once per grid
        # as CSC views of the CSR operators (no copy); alpha_avg_t takes
        # only the velocity rows of alpha_avg
        self.scatter_t = self.scatter.T
        self.grad_op_t = self.grad_op.T
        self.alpha_face_t = self.alpha_face.T
        self.outlet_op_t = self.outlet_op.T
        self.alpha_avg_t = self.alpha_avg[:self.p_offset].T

    # ------------------------------------------------------------------
    # solving

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
        x = lu.state()
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
    lu: NullSpaceLU          # from factor(); serves the adjoint
    residual: float
    # (problem, design, parts) of the objective's last dissipation
    # quadratures on this solution (see objective._dissipation_parts)
    dissipation_memo: tuple | None = field(default=None, init=False,
                                           repr=False, compare=False)

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
