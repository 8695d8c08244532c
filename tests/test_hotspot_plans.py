"""Pin hotspot nozzle plans to stored reference plans.

``tests/data/hotspot_plans.npz`` was written at commit 747bfb5, whose
``hotspot_synthesize`` rebuilt the htc-vs-diameter curve for every cell and
ran its own bisection loops, by running this file as a script from the
repository root::

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

Band-path plans must match exactly. The scan takes its midpoints in
``log dp``, so scan-path plans must match to 1e-13 relative, and ``dp`` to
1e-14 relative.
"""

from pathlib import Path

import numpy as np
import pytest

from jetcool.correlations import HotspotHtcModel, NozzlePressureModel
from jetcool.explorer import M3S_PER_MLPM, PowerMap, hotspot_synthesize
from jetcool.props import water

REFERENCE = Path(__file__).parent / "data" / "hotspot_plans.npz"
BAND_CASES = {"mild"}
PLAN_RTOL = 1e-13
DP_RTOL = 1e-14
FIELDS = ("d_mm", "m_nz_mlpm", "htc")


def _cases() -> dict:
    """Input maps and run settings, as written into the reference file."""
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import HOTSPOT_AMPLITUDE, hotspot_map

    rng = np.random.default_rng(0)
    mild = hotspot_map(rng, 10, 30, HOTSPOT_AMPLITUDE["mild"])
    strong = hotspot_map(rng, 10, 30, HOTSPOT_AMPLITUDE["strong"])
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
        flow_mlpm * M3S_PER_MLPM, dt_k, water(),
        htc_model=HotspotHtcModel(pitch_mm=pitch_mm),
        dp_model=NozzlePressureModel(pitch_mm=pitch_mm))


def write_reference(path: Path = REFERENCE) -> None:
    arrays = {}
    for name, (density, pitch_mm, flow_mlpm, dt_k) in _cases().items():
        plan = _plan(density, pitch_mm, flow_mlpm, dt_k)
        arrays[f"{name}.density"] = density
        arrays[f"{name}.settings"] = np.array([pitch_mm, flow_mlpm, dt_k])
        for field in FIELDS:
            arrays[f"{name}.{field}"] = getattr(plan, field)
        arrays[f"{name}.dp"] = np.array(plan.dp)
        arrays[f"{name}.flow_total_mlpm"] = np.array(plan.flow_total_mlpm)
        arrays[f"{name}.infeasible_cells"] = np.array(
            plan.infeasible_cells, dtype=int).reshape(-1, 2)
        arrays[f"{name}.warnings"] = np.array(plan.warnings, dtype=str)
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


if __name__ == "__main__":
    write_reference()
