"""Pin the Stokes-Brinkman operators to a stored reference assembly.

``tests/data/stokes_operators.npz`` was written at commit 1a1933c, whose
``StokesOperator`` assembled every operator with per-node Python loops, by
running this file as a script::

    PYTHONPATH=src python tests/test_topo_operators.py

The grids below cover the boundary cases of the discretization: all-velocity
boundaries with the pinned pressure cell, pressure outlets on two adjacent
sides and on three sides (zero-gradient tangential ghosts at the corners), and
a velocity outlet next to a pressure outlet. Each operator must keep its
sparsity pattern and match the reference to 1e-15 relative.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from jetcool.props import water
from jetcool.topo import Grid2D, Segment, StokesOperator

REFERENCE = Path(__file__).parent / "data" / "stokes_operators.npz"
REL_TOL = 1e-15

GRIDS = {
    "pinned": lambda: Grid2D(7, 5, 1.0e-4, 0.7e-4, [
        Segment("left", 0, 5, "inlet", "parabolic", 0.01),
        Segment("bottom", 0, 3, "inlet", "constant", 0.004),
        Segment("right", 0, 5, "outlet_velocity", "parabolic", 0.01),
        Segment("top", 0, 3, "outlet_velocity", "constant", 0.004)]),
    "adjacent_pressure": lambda: Grid2D(6, 4, 0.8e-4, 1.1e-4, [
        Segment("left", 0, 4, "inlet", "parabolic", 0.02),
        Segment("right", 0, 4, "outlet_pressure"),
        Segment("top", 0, 6, "outlet_pressure")]),
    "three_pressure": lambda: Grid2D(5, 6, 1.3e-4, 0.9e-4, [
        Segment("left", 1, 5, "inlet", "constant", 0.015),
        Segment("right", 0, 6, "outlet_pressure"),
        Segment("bottom", 0, 5, "outlet_pressure"),
        Segment("top", 0, 5, "outlet_pressure")]),
    "velocity_outlet": lambda: Grid2D(8, 5, 1.0e-4, 1.0e-4, [
        Segment("left", 0, 5, "inlet", "parabolic", 0.02),
        Segment("bottom", 2, 4, "outlet_velocity", "constant", 0.01),
        Segment("bottom", 5, 8, "outlet_pressure"),
        Segment("right", 1, 4, "outlet_pressure")]),
}

MATRICES = ("k_base", "scatter", "alpha_avg", "alpha_face", "gtwg")
VECTORS = ("rhs_base", "dirichlet_vec", "face_area")


def _canonical(matrix) -> sp.csr_matrix:
    out = sp.csr_matrix(matrix, copy=True)
    out.sum_duplicates()
    return out


def _operators(name: str) -> dict:
    op = StokesOperator(GRIDS[name](), water().viscosity)
    found = {attr: getattr(op, attr) for attr in
             ("k_base", "scatter", "alpha_avg", "alpha_face") + VECTORS}
    found["gtwg"] = op.grad_op.T @ sp.diags(op.grad_w) @ op.grad_op
    found["n_samples"] = op.grad_w.size
    return found


def write_reference(path: Path = REFERENCE) -> None:
    arrays = {}
    for name in GRIDS:
        found = _operators(name)
        for attr in MATRICES:
            m = _canonical(found[attr])
            arrays[f"{name}.{attr}.data"] = m.data
            arrays[f"{name}.{attr}.indices"] = m.indices
            arrays[f"{name}.{attr}.indptr"] = m.indptr
            arrays[f"{name}.{attr}.shape"] = np.array(m.shape)
        for attr in VECTORS:
            arrays[f"{name}.{attr}"] = found[attr]
        arrays[f"{name}.n_samples"] = np.array(found["n_samples"])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def _assert_close(found, expected, what):
    scale = np.abs(expected).max(initial=0.0)
    err = np.abs(found - expected).max(initial=0.0)
    assert err <= REL_TOL * scale, f"{what}: max error {err:g} vs {scale:g}"


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_operators_match_reference(name):
    ref = np.load(REFERENCE)
    found = _operators(name)
    assert found["n_samples"] == int(ref[f"{name}.n_samples"])
    for attr in MATRICES:
        m = _canonical(found[attr])
        key = f"{name}.{attr}"
        assert m.shape == tuple(ref[key + ".shape"]), attr
        np.testing.assert_array_equal(m.indptr, ref[key + ".indptr"], attr)
        np.testing.assert_array_equal(m.indices, ref[key + ".indices"], attr)
        _assert_close(m.data, ref[key + ".data"], attr)
    for attr in VECTORS:
        expected = ref[f"{name}.{attr}"]
        assert found[attr].shape == expected.shape, attr
        _assert_close(found[attr], expected, attr)


if __name__ == "__main__":
    write_reference()
