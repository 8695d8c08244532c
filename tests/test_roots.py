import numpy as np
import pytest

from jetcool.errors import InfeasibleError
from jetcool.roots import REL_TOL, bisect_monotone


def test_bisect_monotone_solves_all_rows_at_once():
    coef = np.array([1.0, 4.0, 9.0, 1e-300])
    x = bisect_monotone(lambda v: coef * v * v, 9.0, guess=1.0)
    np.testing.assert_allclose(x[:3], [3.0, 1.5, 1.0], rtol=REL_TOL)
    assert x[2] == 1.0                  # the guess already meets the target
    assert np.isnan(x[3])               # root 3e150 lies beyond 2**120


def test_bisect_monotone_needs_a_positive_guess():
    with pytest.raises(InfeasibleError):
        bisect_monotone(lambda v: v, 1.0, guess=0.0)
