"""Pin ``explorer.sweep`` rows to stored reference rows.

``tests/data/sweep_rows.npz`` was written at commit b71a051, whose ``sweep``
evaluated one design at a time and inverted dp(V) and V*dp(V) by bisection
(``roots.bisect_monotone``), by running this file as a script from the
repository root::

    PYTHONPATH=src python tests/test_sweep_rows.py

The design space has 32 rows. It mixes in-range and flagged rows:
``re_out_of_range`` (one nozzle), ``di_over_L_out_of_range`` (d_i/L = 0.45),
``H_over_L_out_of_range`` and ``H_over_di_out_of_range`` (H/L = 0.005),
``t_over_L_out_of_range`` (t/L = 0.05) and ``do_smaller_than_di``
(d_o/L = 0.15 < d_i/L). It runs in each constraint mode, and once more with
a pressure target of 2e75 Pa: the d_i/L = 0.2 rows reach it inside the
searched flow window, the d_i/L = 0.45 rows do not and are ``infeasible``.

``const_flow`` rows must match to 1e-12 relative (vectorized ``power``
may differ from libm ``pow`` in the last bit). Pressure and pump rows
come from a root solve that stops at ``roots.REL_TOL``, so they must match
to 1e-8 relative and meet their target to ``REL_TOL``. Status and warnings
must be identical.
"""

from pathlib import Path

import numpy as np
import pytest

from jetcool.explorer import (M3S_PER_MLPM, ConstraintKind, ConstraintMode,
                              DesignSpace, sweep)
from jetcool.props import silicon, water
from jetcool.roots import REL_TOL

REFERENCE = Path(__file__).parent / "data" / "sweep_rows.npz"
FIELDS = ("re", "pr", "nu_f", "bi", "nu_j", "htc", "r_th", "r_star", "dT_avg",
          "dp", "w_p", "cop", "v_nozzle", "flow_per_nozzle")
CASES = {
    "flow": (ConstraintKind.CONST_FLOW, 600 * M3S_PER_MLPM),
    "pressure": (ConstraintKind.CONST_PRESSURE, 2.0e4),
    "pump": (ConstraintKind.CONST_PUMP, 0.2),
    "pressure_window": (ConstraintKind.CONST_PRESSURE, 2.0e75),
}
TARGET_FIELD = {ConstraintKind.CONST_PRESSURE: "dp",
                ConstraintKind.CONST_PUMP: "w_p"}


def _space() -> DesignSpace:
    return DesignSpace(n_values=(1, 4), di_over_L=(0.2, 0.45),
                       do_over_L=(0.15, 0.3), H_over_L=(0.005, 0.3),
                       t_over_L=(0.05, 0.5), chip_side=8e-3, t_c=0.2e-3,
                       fluid=water(), solid=silicon())


def _columns(result) -> dict:
    """Design, flow and report columns; infeasible rows hold nan values."""
    ok = result.ok
    values = np.full((ok.size, len(FIELDS)), np.nan)
    values[ok] = np.column_stack([
        np.broadcast_to(getattr(result.report, f), ok.sum()) for f in FIELDS])
    warnings = np.full(ok.size, "", dtype=object)
    warnings[ok] = [";".join(w) for w in result.report.warnings]
    return {
        "designs": np.array(result.designs),
        "flow": result.flow,
        "values": values,
        "status": np.where(ok, "ok", "infeasible"),
        "warnings": warnings.astype(str),
    }


def _run(name: str) -> dict:
    kind, value = CASES[name]
    return _columns(sweep(_space(), ConstraintMode(kind, value)))


def write_reference(path: Path = REFERENCE) -> None:
    arrays = {f"{name}.{key}": val for name in CASES
              for key, val in _run(name).items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize("name", list(CASES))
def test_rows_match_reference(name):
    ref = np.load(REFERENCE)
    got = _run(name)
    assert got["status"].tolist() == ref[f"{name}.status"].tolist()
    assert got["warnings"].tolist() == ref[f"{name}.warnings"].tolist()
    np.testing.assert_array_equal(got["designs"], ref[f"{name}.designs"])
    kind, target = CASES[name]
    rtol = 1e-12 if kind is ConstraintKind.CONST_FLOW else 1e-8
    np.testing.assert_allclose(got["flow"], ref[f"{name}.flow"], rtol=rtol,
                               atol=0)
    np.testing.assert_allclose(got["values"], ref[f"{name}.values"],
                               rtol=rtol, atol=0)
    if kind in TARGET_FIELD:
        ok = got["status"] == "ok"
        reached = got["values"][ok, FIELDS.index(TARGET_FIELD[kind])]
        assert np.all(np.abs(reached - target) <= REL_TOL * target)


def test_reference_covers_flags_and_infeasible_rows():
    ref = np.load(REFERENCE)
    kinds = {w.split(":")[0] for w in ";".join(
        ref["flow.warnings"].tolist()).split(";") if w}
    assert kinds == {"re_out_of_range", "di_over_L_out_of_range",
                     "H_over_L_out_of_range", "H_over_di_out_of_range",
                     "t_over_L_out_of_range", "do_smaller_than_di"}
    assert "" in ref["flow.warnings"].tolist()
    status = ref["pressure_window.status"].tolist()
    assert status.count("infeasible") == status.count("ok") == 16


if __name__ == "__main__":
    write_reference()
