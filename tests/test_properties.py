"""Property-based checks of the array-valued design evaluation.

- ``evaluate_design`` on an array-valued ``CoolerArray`` equals the
  one-design call row by row, warnings included;
- dp(V) and V*dp(V) of the correlation chain are strictly increasing;
- every flow solved by ``sweep`` meets its pressure or pump-power target
  to ``roots.REL_TOL``.

Examples are few and derandomized so the suite stays fast and repeatable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcool.explorer import (ConstraintKind, ConstraintMode, DesignSpace,
                              sweep)
from jetcool.geometry import array_from_ratios
from jetcool.performance import OperatingPoint, evaluate_design
from jetcool.props import silicon, water
from jetcool.roots import REL_TOL

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
CHIP, TC = 8e-3, 0.2e-3
FIELDS = ("re", "pr", "nu_f", "bi", "nu_j", "htc", "r_th", "r_star",
          "dT_avg", "dp", "w_p", "cop", "v_nozzle", "flow_per_nozzle")

designs = st.tuples(
    st.integers(1, 64),                                  # n
    st.floats(0.02, 0.9),                                # d_i/L
    st.floats(0.02, 0.9),                                # d_o/L
    st.floats(0.005, 2.0),                               # H/L
    st.floats(0.02, 3.0),                                # t/L
    st.floats(-8.0, -3.0).map(lambda e: 10.0 ** e))      # flow [m3/s]


@SETTINGS
@given(st.lists(designs, min_size=1, max_size=8),
       st.floats(0.0, 200.0))
def test_array_evaluation_equals_one_row_calls(rows, power):
    n, a, do, h, t, flow = (np.array(c) for c in zip(*rows))
    batch = evaluate_design(array_from_ratios(CHIP, n, a, do, h, t, TC),
                            water(), silicon(),
                            OperatingPoint(flow_total=flow, chip_power=power))
    for i, one in enumerate(rows):
        single = evaluate_design(array_from_ratios(CHIP, *one[:5], TC),
                                 water(), silicon(),
                                 OperatingPoint(flow_total=one[5],
                                                chip_power=power))
        assert batch.warnings[i] == single.warnings
        for field in FIELDS:
            got = np.broadcast_to(getattr(batch, field), n.shape)[i]
            assert got == pytest.approx(getattr(single, field), rel=1e-12,
                                        abs=0.0), field


@SETTINGS
@given(designs, st.floats(1.001, 10.0))
def test_dp_and_pump_power_increase_with_flow(design, factor):
    array = array_from_ratios(CHIP, *design[:5], TC)
    lo, hi = (evaluate_design(array, water(), silicon(),
                              OperatingPoint(flow_total=v))
              for v in (design[5], design[5] * factor))
    assert hi.dp > lo.dp
    assert hi.w_p > lo.w_p


@SETTINGS
@given(st.lists(designs, min_size=1, max_size=6),
       st.sampled_from([ConstraintKind.CONST_PRESSURE,
                        ConstraintKind.CONST_PUMP]),
       st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))
def test_solved_flows_meet_their_target(rows, kind, target):
    n, a, do, h, t, _ = zip(*rows)
    space = DesignSpace(n_values=n[:2], di_over_L=a[:3], do_over_L=do[:2],
                        H_over_L=h[:2], t_over_L=t, chip_side=CHIP, t_c=TC,
                        fluid=water(), solid=silicon())
    solved = [r for r in sweep(space, ConstraintMode(kind, target))
              if r.status == "ok"]
    assert solved
    for row in solved:
        got = row.report.dp if kind is ConstraintKind.CONST_PRESSURE \
            else row.report.w_p
        assert abs(got - target) <= REL_TOL * target
