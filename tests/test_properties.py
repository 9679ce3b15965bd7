"""Property tests of the batch solve over drawn chemistries.

Hypothesis draws G, b0, b1 and the drive mu_inf - muStar; each example
solves one table of 61 bead radii with solve_eta.  The drive runs from
1e-6 to 10, so with muR1 = 3 both signs of Vstarstar occur, and eta stops
at 1e6, where d/r0 still moves by many ulp of nu from one row to the next.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accrete.strain_energy import NeoHookean  # noqa: E402
from accrete.treadmill import ModelParams, compute_scales, solve_eta  # noqa: E402

ETAS = np.geomspace(1e-6, 1e6, 61)
EPS = 2.0**-52


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0), drive=decades(-6.0, 1.0))
def test_thickness_falls_and_speed_is_bounded(G, b0, b1, drive):
    p = ModelParams(
        energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=3.0 * b0 / (b0 + b1) + drive, rhoR=1.0, M=1.0, r0=1.0,
    )
    s = compute_scales(p)
    table = solve_eta(p, ETAS)
    assert np.all(np.diff(table.nu - 1.0) < 0.0)
    ratio, lower = table.V0 / s.Vstar, s.Vstarstar / s.Vstar
    assert np.all(ratio >= lower - 4.0 * EPS * abs(lower))
    assert np.all(ratio <= 1.0 + 4.0 * EPS)
