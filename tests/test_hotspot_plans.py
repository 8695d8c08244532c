"""Pin hotspot nozzle plans to stored reference plans, and check plans
against their requirements without the recording.

``tests/data/hotspot_plans.npz`` was first written at commit 747bfb5. It
was re-recorded by the change after commit 8c78b0f that solves every cell
as one array per plenum pressure: the htc peak became exact (a closed form
in Lambert's W) instead of the best of 160 sampled diameters, and each cell
is solved by a safeguarded Newton iteration instead of a bisection. Both
stop at the same 1e-12 relative htc tolerance, so the ``mild``, ``strong``
and ``acceptance`` plans moved inside it, and the one ``unreachable`` cell
moved from the best sample to the true peak.

It was re-recorded again by the change after commit 9911da6 that finds the
plenum pressure by regula falsi (``roots.bracket_root``) in ln dp instead
of bisecting it (in dp inside the band, in ln dp on the scan). The root
stops at the same flow tolerances, 1e-12 of the target inside the band and
1e-9 on the scan, at a different point inside them. The flags did not
change; the largest relative changes were 1.6e-12 (``mild``, in
``m_nz_mlpm``), 6.8e-09 (``strong``, in ``m_nz_mlpm``) and 2e-10 or less
for the other cases.

The file is written by running this file as a script from the repository
root, which prints how far each plan moved and refuses to write if any
case's flags change::

    PYTHONPATH=src python tests/test_hotspot_plans.py

The file holds each input map next to its plan, so the test needs nothing
but jetcool. The maps cover both plenum-pressure paths and both flag kinds:

- ``mild``: the 10x10 mild map of the benchmark's ``hotspot`` seed 0,
  solved inside the pressure band on which every cell meets its
  requirement exactly;
- ``strong``: the 10x10 strong map of the same seed, which falls back to
  the plenum-pressure scan and over-cools (``htc_exceeded``) its weakest
  cells;
- ``acceptance``: the 3x3 map of acceptance test 11, also a scan-path map
  with two over-cooled cells;
- ``unreachable``: one 3,000 W/cm2 cell at 5 mL/min and 25 K, which no
  diameter cools enough (``htc_unreachable``);
- ``pitch2``: a uniform 2x2 map at 2 mm pitch with refitted models.

Band-path plans must match exactly. Scan-path plans must match to 1e-13
relative, and ``dp`` to 1e-14 relative.
"""

from pathlib import Path

import numpy as np
import pytest

from jetcool import explorer
from jetcool.correlations import HotspotHtcModel, NozzlePressureModel
from jetcool.errors import SolverError
from jetcool.explorer import M3S_PER_MLPM, PowerMap, hotspot_synthesize

REFERENCE = Path(__file__).parent / "data" / "hotspot_plans.npz"
BAND_CASES = {"mild"}
PLAN_RTOL = 1e-13
DP_RTOL = 1e-14
FIELDS = ("d_mm", "m_nz_mlpm", "htc")


def _benchmark_maps(seed: int) -> tuple:
    """The mild and strong maps of the benchmark's ``hotspot`` seed."""
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import HOTSPOT_AMPLITUDE, hotspot_map

    rng = np.random.default_rng(seed)
    return tuple(hotspot_map(rng, 10, 30, HOTSPOT_AMPLITUDE[kind])
                 for kind in ("mild", "strong"))


def _cases() -> dict:
    """Input maps and run settings, as written into the reference file."""
    mild, strong = _benchmark_maps(0)
    return {
        "acceptance": (np.array([[100.0, 0.0, 150.0], [0.0, 250.0, 0.0],
                                 [80.0, 0.0, 120.0]]), 1.0, 50.0, 25.0),
        "mild": (mild, 1.0, 340.0, 25.0),
        "strong": (strong, 1.0, 340.0, 25.0),
        "unreachable": (np.array([[3000.0]]), 1.0, 5.0, 25.0),
        "pitch2": (np.full((2, 2), 50.0), 2.0, 30.0, 20.0),
    }


def _plan(density, pitch_mm, flow_mlpm, dt_k):
    return hotspot_synthesize(
        PowerMap(density, cell_pitch=pitch_mm * 1e-3),
        flow_mlpm * M3S_PER_MLPM, dt_k,
        htc_model=HotspotHtcModel(pitch_mm=pitch_mm),
        dp_model=NozzlePressureModel(pitch_mm=pitch_mm))


def _recorded(plan) -> dict:
    """The arrays of one plan, as the reference file stores them."""
    arrays = {field: getattr(plan, field) for field in FIELDS}
    arrays["dp"] = np.array(plan.dp)
    arrays["flow_total_mlpm"] = np.array(plan.flow_total_mlpm)
    arrays["infeasible_cells"] = np.array(plan.infeasible_cells,
                                          dtype=int).reshape(-1, 2)
    arrays["warnings"] = np.array(plan.warnings, dtype=str)
    return arrays


def _largest_rel_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = np.where(old != 0, np.abs(old), 1.0)
    return float(np.max(np.abs(new - old) / scale, initial=0.0))


def write_reference(path: Path = REFERENCE) -> None:
    """Record every case, after printing how far each plan moved from the
    file it replaces. Refuses to write when a case's flags change."""
    old = np.load(path) if path.exists() else None
    arrays, changed = {}, []
    for name, (density, pitch_mm, flow_mlpm, dt_k) in _cases().items():
        plan = _recorded(_plan(density, pitch_mm, flow_mlpm, dt_k))
        arrays[f"{name}.density"] = density
        arrays[f"{name}.settings"] = np.array([pitch_mm, flow_mlpm, dt_k])
        arrays.update((f"{name}.{key}", value) for key, value in plan.items())
        if old is None or f"{name}.dp" not in old.files:
            print(f"{name}: new case")
            continue
        moved = ", ".join(
            f"{key} {_largest_rel_change(plan[key], old[f'{name}.{key}']):.2g}"
            for key in (*FIELDS, "dp"))
        print(f"{name}: largest relative change {moved}")
        changed += [f"{name}.{key}" for key in ("infeasible_cells", "warnings")
                    if not np.array_equal(plan[key], old[f"{name}.{key}"])]
    if changed:
        raise SystemExit(f"not written: {', '.join(changed)} changed")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize("name", ["mild", "strong", "acceptance",
                                  "unreachable", "pitch2"])
def test_plan_matches_reference(name):
    ref = np.load(REFERENCE)
    pitch_mm, flow_mlpm, dt_k = ref[f"{name}.settings"]
    plan = _plan(ref[f"{name}.density"], pitch_mm, flow_mlpm, dt_k)
    assert plan.infeasible_cells == tuple(
        (int(i), int(j)) for i, j in ref[f"{name}.infeasible_cells"])
    assert plan.warnings == tuple(str(w) for w in ref[f"{name}.warnings"])
    rtol = 0.0 if name in BAND_CASES else PLAN_RTOL
    for field in FIELDS:
        np.testing.assert_allclose(getattr(plan, field),
                                   ref[f"{name}.{field}"], rtol=rtol, atol=0,
                                   err_msg=field)
    np.testing.assert_allclose(plan.flow_total_mlpm,
                               ref[f"{name}.flow_total_mlpm"], rtol=rtol)
    np.testing.assert_allclose(plan.dp, ref[f"{name}.dp"],
                               rtol=0.0 if name in BAND_CASES else DP_RTOL)


def test_reference_covers_both_flag_kinds():
    ref = np.load(REFERENCE)
    kinds = {str(w).split(":")[0] for key in ref.files
             if key.endswith(".warnings") for w in ref[key]}
    assert kinds == {"htc_exceeded", "htc_unreachable"}


# the strong maps of these benchmark seeds missed their flow (341.80 and
# 335.07 mL/min) while the htc peak was the best of 160 sampled diameters
@pytest.mark.parametrize("seed", [78, 111])
def test_strong_map_plan_delivers_its_flow(seed):
    plan = _plan(_benchmark_maps(seed)[1], 1.0, 340.0, 25.0)
    assert plan.m_nz_mlpm.sum() == pytest.approx(340.0, rel=1e-9, abs=0)
    assert plan.flow_total_mlpm == pytest.approx(340.0, rel=1e-9, abs=0)


@pytest.mark.parametrize("name", ["mild", "strong", "acceptance",
                                  "unreachable", "pitch2", 78, 111])
def test_plan_meets_each_cell_or_sits_at_the_htc_peak(name):
    """Every "ok" cell meets htc = q''/dT_target, every under-cooled cell
    sits at the htc maximum over d at the plan's plenum pressure, every
    over-cooled cell at d_min, and the flows sum to the target."""
    if isinstance(name, int):
        density, pitch_mm, flow_mlpm, dt_k = (_benchmark_maps(name)[1], 1.0,
                                              340.0, 25.0)
    else:
        density, pitch_mm, flow_mlpm, dt_k = _cases()[name]
    plan = _plan(density, pitch_mm, flow_mlpm, dt_k)
    htc_model = HotspotHtcModel(pitch_mm=pitch_mm)
    dp_model = NozzlePressureModel(pitch_mm=pitch_mm)

    def htc_at(d):
        return htc_model.evaluate(d, dp_model.flow_for_dp(d, plan.dp))

    kinds = {tuple(map(int, w.split(":")[1].split(","))): w.split(":")[0]
             for w in plan.warnings}
    for i, j in np.argwhere(density > 0).tolist():
        d, req = plan.d_mm[i, j], density[i, j] * 1e4 / dt_k
        kind = kinds.get((i, j), "ok")
        if kind == "ok":
            assert abs(plan.htc[i, j] - req) <= 2e-12 * req
        elif kind == "htc_unreachable":
            assert plan.htc[i, j] < req
            for near in (d * (1 - 1e-6), d * (1 + 1e-6)):
                if 0.1 <= near <= 0.9:
                    assert htc_at(near) <= htc_at(d)
        else:
            assert kind == "htc_exceeded" and d == 0.1
            assert plan.htc[i, j] > req
    assert plan.m_nz_mlpm.sum() == pytest.approx(flow_mlpm, rel=1e-9, abs=0)


@pytest.mark.parametrize("name", ["mild", "strong"])
def test_plan_off_its_flow_raises_solver_error(monkeypatch, name):
    # both paths end in bracket_root on ln dp: shifting its root by 0.01
    # moves dp by 1 %
    root = explorer.bracket_root
    monkeypatch.setattr(explorer, "bracket_root",
                        lambda *args: root(*args) + 0.01)
    with pytest.raises(SolverError, match=r"delivers \S+ mL/min, not the "
                       r"target 340\.0 mL/min"):
        _plan(*_cases()[name])


@pytest.mark.parametrize("name, most", [("mild", 12), ("strong", 14)])
def test_plan_solves_the_cells_a_few_times(monkeypatch, name, most):
    """Each solve of the cells at one or more plenum pressures takes one
    htc peak; with a bisection of the pressure, ``mild`` took 43 and
    ``strong`` 28."""
    peaks = []
    lambert_w = explorer._lambert_w
    monkeypatch.setattr(explorer, "_lambert_w",
                        lambda log_z: peaks.append(1) or lambert_w(log_z))
    _plan(*_cases()[name])
    assert len(peaks) <= most


if __name__ == "__main__":
    write_reference()
