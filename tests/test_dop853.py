"""The quadrature profiles and periods against scipy's DOP853 as the oracle.

lagmin solves no ODE: each profile is a quadrature of its first integral.
Here the profile equation itself, in the variables (r, u) with r' = tanh u
(``helpers.ode_rhs``), is solved by scipy's ``solve_ivp(method="DOP853")``
through ``profiles.solve_ivp``, and the profile rows and periods must
agree with it to the solver's own accuracy.
"""

import math

import numpy as np
import pytest

from lagmin import profiles
from lagmin import serialization as ser
from lagmin.profiles import ProfileFamily, detect_period, solve_profile

from helpers import half_line_solve, ode_rhs

PROFILE_CASES = [
    (tag, n, rho, file_tol)
    for tag, grid in (
        ("ch_sphere", [(2, 0.05), (3, 1.0), (6, 2.0)]),
        ("ch_tube", [(2, 2.0), (4, 0.05), (6, 0.5)]),
        ("cp_sphere", [(2, 0.6), (3, 0.3), (6, 1.2)]),
    )
    for n, rho in grid
    for file_tol in (1e-10, 1e-11)
]


@pytest.mark.parametrize("tag, n, rho, file_tol", PROFILE_CASES)
def test_profile_grids_match_scipy(tag, n, rho, file_tol):
    # rtol 1e-12: DOP853's own global error over s <= 3 stays below 1e-11;
    # the profile is read back from a file whose tol field, any number,
    # changes no row
    pytest.importorskip("scipy")
    fam = ProfileFamily(tag, n, rho)
    d = ser.profile_to_dict(solve_profile(fam, 3.0))
    sol = ser.profile_from_dict(dict(d, tol=ser.fnum(file_tol)))
    assert sol.stored_deviation == 0.0
    ref = half_line_solve(fam, 3.0, rtol=1e-12)
    assert ref.success
    pos = sol.s >= 0
    r, u = ref.sol(sol.s[pos])
    assert np.max(np.abs(sol.r[pos] - r) / np.maximum(np.abs(r), 1.0)) <= 2e-11
    assert np.max(np.abs(sol.rp[pos] - np.tanh(u))) <= 2e-11


def _scipy_period(n, rho):
    """The second crossing of u = 0 in the direction of r''(rho), from a
    DOP853 solve at rtol 1e-12."""
    fam = ProfileFamily("cp_sphere", n, rho)

    def u_zero(_, y):
        return y[1]

    u_zero.direction = math.copysign(1.0, fam.second_derivative(rho, 0.0))
    u_zero.terminal = 2  # the root at s = 0, then the return
    res = profiles.solve_ivp(ode_rhs(fam), (0.0, 50.0), (rho, 0.0), rtol=1e-12, atol=1e-14,
                             events=u_zero)
    return res.t_events[0][1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("rho", [0.05, 0.6, 1.5])
def test_periods_match_scipy(n, rho):
    # at n = 5, rho = 0.05 the orbit comes within 3e-7 of pi/2, where
    # DOP853 keeps about 1e-12 of the period
    pytest.importorskip("scipy")
    result = detect_period(n, rho)
    assert abs(result.period - _scipy_period(n, rho)) <= 1e-11 * result.period
    assert result.closure_residual <= 1e-14
