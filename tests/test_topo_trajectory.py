"""Pin the optimizer's trajectory on the tiny manifold to a stored recording.

``tests/data/topo_trajectory.npz`` was written at commit 23bc7d7, before
each flow solution came to carry its own dissipation quadratures and the
null-space factors came to build themselves. The problem is the ``tiny``
size of the benchmark's ``manifold`` workload at seed 0: 20x6 cells over
2 x 0.6 mm, a constant 0.02 m/s inlet on the left, outlets two cells wide
centred at cells 4, 8, 12 and 16 of the bottom, beta = 0.1, volume
fraction 0.4, q = 0.01 and 12 iterations. The file is written by running
this file as a script from the repository root::

    PYTHONPATH=src python tests/test_topo_trajectory.py

Every history row and every design density must match to 1e-12 relative.
"""

import tempfile
from pathlib import Path

import numpy as np

from jetcool.topo import optimize, parse_problem_file

REFERENCE = Path(__file__).parent / "data" / "topo_trajectory.npz"
RTOL = 1e-12
PROBLEM = """\
[grid]
nx = 20
ny = 6
lx_mm = 2.0
ly_mm = 0.6

[fluid]
name = water

[problem]
beta = 0.1
volume_fraction = 0.4
q = 0.01
max_iters = 12

[segments]
list =
    left 0 6 inlet constant 0.02
    bottom 3 5 outlet_pressure
    bottom 7 9 outlet_pressure
    bottom 11 13 outlet_pressure
    bottom 15 17 outlet_pressure
"""


def _run(workdir: Path):
    path = workdir / "manifold.ini"
    path.write_text(PROBLEM)
    problem, max_iters, q_schedule = parse_problem_file(path)
    return optimize(problem, max_iters=max_iters, q_schedule=q_schedule)


def write_reference(path: Path = REFERENCE) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        res = _run(Path(workdir))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, history=np.array(res.history, dtype=float),
                        density=res.eps.eps, status=np.array(res.status))


def test_trajectory_matches_reference(tmp_path):
    ref = np.load(REFERENCE)
    res = _run(tmp_path)
    assert res.status == str(ref["status"])
    history = np.array(res.history, dtype=float)
    assert history.shape == ref["history"].shape
    for row, ref_row in zip(history, ref["history"]):
        np.testing.assert_allclose(row, ref_row, rtol=RTOL, atol=0,
                                   err_msg=f"history row {int(ref_row[0])}")
    np.testing.assert_allclose(res.eps.eps, ref["density"], rtol=RTOL, atol=0)


if __name__ == "__main__":
    write_reference()
