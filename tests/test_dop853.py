"""The in-repo DOP853 against scipy's ``solve_ivp``, bit for bit.

scipy is the oracle here: every profile solve, period and event root must
come out of ``lagmin.dop853`` with the same bits and the same number of rhs
evaluations as out of ``scipy.integrate.solve_ivp(method="DOP853")``.
"""

import math

import numpy as np
import pytest

from lagmin import dop853, profiles
from lagmin.profiles import ProfileFamily, detect_period, solve_profile


def _bits(a):
    """Bytes of a float array: equal bits, signed zeros included."""
    return np.asarray(a, dtype=float).tobytes()


def _scipy_dop853(fun, t_span, y0, rtol, atol, event=None):
    """scipy's solve_ivp as the port is called; scipy's list of one root
    array per event becomes the port's one array."""
    from scipy.integrate import solve_ivp

    res = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=event)
    if event is not None:
        (res.t_events,) = res.t_events
    return res


def _with_each_solver(monkeypatch, call):
    """``call()`` once with the port and once with scipy as
    ``profiles.solve_ivp``; each result comes with the solves it made."""
    out = []
    for solver in (dop853.solve_ivp, _scipy_dop853):
        solves = []

        def recorded(*args, solver=solver, solves=solves, **kwargs):
            solves.append(solver(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(profiles, "solve_ivp", recorded)
        out.append((call(), solves))
    return out


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("C", "A", "B", "E3", "E5", "D"):
        ours, theirs = getattr(dop853, name), getattr(ref, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853, name) == getattr(ref, name)


PROFILE_CASES = [
    (tag, n, rho, tol)
    for tag, grid in (
        ("ch_sphere", [(2, 0.05), (3, 1.0), (6, 2.0)]),
        ("ch_tube", [(2, 2.0), (4, 0.05), (6, 0.5)]),
        ("cp_sphere", [(2, 0.6), (3, 0.3), (6, 1.2)]),
    )
    for n, rho in grid
    for tol in (1e-10, 1e-11)
]


@pytest.mark.parametrize("tag, n, rho, tol", PROFILE_CASES)
def test_profile_grids_match_scipy(monkeypatch, tag, n, rho, tol):
    (ours, our_solves), (ref, ref_solves) = _with_each_solver(
        monkeypatch, lambda: solve_profile(ProfileFamily(tag, n, rho), 3.0, tol=tol))
    for name in ("s", "r", "rp", "u"):
        assert _bits(getattr(ours, name)) == _bits(getattr(ref, name)), name
    assert [s.nfev for s in our_solves] == [s.nfev for s in ref_solves]
    for a, b in zip(our_solves, ref_solves):
        assert _bits(a.t) == _bits(b.t)
        assert (a.status, a.message) == (b.status, b.message)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("rho", [0.05, 0.6, 1.5])
def test_periods_match_scipy(monkeypatch, n, rho):
    (ours, our_solves), (ref, ref_solves) = _with_each_solver(
        monkeypatch, lambda: detect_period(n, rho))
    assert ours == ref  # T, closure residual and amplitude, as floats
    (a,), (b,) = our_solves, ref_solves
    assert len(a.t_events) == 2 and _bits(a.t_events) == _bits(b.t_events)
    assert a.nfev == b.nfev and _bits(a.t) == _bits(b.t)
    assert (a.status, a.message) == (b.status, b.message) == (1, "A termination event occurred.")


def _traced(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def _smooth_brackets():
    cases = [
        (lambda x: x * x - 2.0, 0.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
        (lambda x: math.atan(x) - 0.5, -10.0, 20.0),
        (lambda x: x**9 - 0.1, 0.0, 1.3),
    ]
    rng = np.random.default_rng(11)
    for p in rng.normal(size=(20, 3)):
        root = float(np.tanh(p[2]))
        cases.append((lambda x, p=p, root=root: (x - root) * (1.0 + p[0] ** 2 * math.sin(x) ** 2)
                      + p[1] ** 2 * (x - root) ** 3, -1.5, 1.5))
    return cases


def test_brentq_matches_scipy_on_smooth_brackets():
    from scipy.optimize import brentq

    tol = 4 * dop853.EPS
    for f, a, b in _smooth_brackets():
        ours, our_points = _traced(f)
        ref, ref_points = _traced(f)
        assert dop853.brentq(ours, a, b) == brentq(ref, a, b, xtol=tol, rtol=tol)
        assert our_points == ref_points


def test_brentq_matches_scipy_on_the_period_event(monkeypatch):
    from scipy.optimize import brentq

    # the return crossing of u = 0 lies in the last step of a period solve
    for n, rho in ((2, 0.6), (3, 0.05), (5, 1.5)):
        ((period, (sol,)), _) = _with_each_solver(monkeypatch, lambda: detect_period(n, rho))
        step = sol.sol.interpolants[-1]
        ours, our_points = _traced(lambda t: step(t)[1])
        ref, ref_points = _traced(lambda t: step(t)[1])
        root = dop853.brentq(ours, step.t_old, step.t)
        assert root == brentq(ref, step.t_old, step.t, xtol=4 * dop853.EPS, rtol=4 * dop853.EPS)
        assert our_points == ref_points
        assert root == period.period == sol.t_events[1] == sol.t[-1]


def test_brentq_errors_match_scipy():
    from scipy.optimize import brentq

    tol = 4 * dop853.EPS
    # a fifth-order root: 100 iterations do not reach 4 eps
    cases = [
        (lambda x: x * x + 1.0, ValueError, "different signs"),
        (lambda x: math.nan if x > 0.5 else -1.0, ValueError, "is NaN"),
        (lambda x: (x - 1e-3) ** 5, RuntimeError, "Failed to converge after 100 iterations"),
    ]
    for f, error, message in cases:
        for solve in (lambda: dop853.brentq(f, -1.0, 2.0),
                      lambda: brentq(f, -1.0, 2.0, xtol=tol, rtol=tol)):
            with pytest.raises(error, match=message):
                solve()


def test_stalling_solve_fails_like_scipy():
    # y' = y^2, y(0) = 1 blows up at t = 1
    def blowup(_t, y):
        return y * y

    with np.errstate(over="ignore", invalid="ignore"):
        ours = dop853.solve_ivp(blowup, (0.0, 2.0), [1.0], rtol=1e-3, atol=1e-6)
        ref = _scipy_dop853(blowup, (0.0, 2.0), [1.0], rtol=1e-3, atol=1e-6)
    assert not ours.success and not ref.success
    assert ours.message == ref.message == "Required step size is less than spacing between numbers."
    assert ours.status == ref.status == -1
    assert ours.t[-1] == ref.t[-1] and 1.0 < ours.t[-1] < 1.0 + 1e-5
    assert ours.nfev == ref.nfev and _bits(ours.t) == _bits(ref.t)


def test_event_without_terminal_records_every_crossing():
    # u' oscillates through zero: every crossing of either sign is recorded
    fam = ProfileFamily("cp_sphere", 2, 0.6)

    def u_zero(_t, y):
        return y[1]

    ours = dop853.solve_ivp(fam.ode_rhs, (0.0, 9.0), (0.6, 0.0), rtol=1e-10, atol=1e-13, event=u_zero)
    ref = _scipy_dop853(fam.ode_rhs, (0.0, 9.0), (0.6, 0.0), rtol=1e-10, atol=1e-13, event=u_zero)
    assert ours.status == ref.status == 0
    assert len(ours.t_events) >= 6 and _bits(ours.t_events) == _bits(ref.t_events)
    points = np.linspace(0.0, 9.0, 997)
    assert _bits(ours.sol(points)) == _bits(ref.sol(points))
    assert _bits(ours.sol(4.5)) == _bits(ref.sol(4.5))


def test_arguments_outside_the_port_are_rejected():
    rhs = ProfileFamily("ch_sphere", 2, 1.0).ode_rhs
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), (1.0, 0.0), rtol=1e-15)
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), (1.0, math.inf))


def _dense_solve(name):
    """The port's and scipy's result for one shape of solution that the
    stacked dense output must evaluate like scipy's per-step interpolants."""
    fam = ProfileFamily("cp_sphere", 3, 0.3)

    def u_zero(_t, y):
        return y[1]

    u_zero.direction = 1.0
    u_zero.terminal = 2
    args, event = {
        "forward": ((ProfileFamily("ch_sphere", 3, 1.0).ode_rhs, (0.0, 3.0), (1.0, 0.0)), None),
        "backward": ((fam.ode_rhs, (0.0, -4.0), (0.3, 0.0)), None),
        "one step": ((lambda _t, y: -y, (0.0, 1e-3), (1.0, 2.0)), None),
        "terminal event": ((fam.ode_rhs, (0.0, 30.0), (0.3, 0.0)), u_zero),
    }[name]
    kw = dict(rtol=1e-10, atol=1e-13, event=event)
    return dop853.solve_ivp(*args, **kw), _scipy_dop853(*args, **kw)


@pytest.mark.parametrize("name", ["forward", "backward", "one step", "terminal event"])
def test_stacked_dense_output_matches_scipy(name):
    ours, ref = _dense_solve(name)
    assert _bits(ours.t) == _bits(ref.t) and ours.nfev == ref.nfev
    assert (len(ours.t) == 2) == (name == "one step")
    t = ours.t
    span = t[-1] - t[0]
    rng = np.random.default_rng(3)
    inside = t[0] + span * rng.uniform(0.0, 1.0, 301)
    queries = {
        "unsorted": inside,
        "duplicated": np.concatenate([inside[:40], inside[:40], inside[7:9], inside[7:9]]),
        "boundaries ascending": np.sort(t),
        "boundaries descending": np.sort(t)[::-1],
        "boundaries as stored": t,
        "outside": t[0] + span * np.array([-3.0, 2.5, -1e-3, 1.0 + 1e-3, 40.0, -0.5]),
        "mixed": rng.permutation(np.concatenate([inside, t, t[0] - span * inside[:5]])),
    }
    for what, points in queries.items():
        assert _bits(ours.sol(points)) == _bits(ref.sol(points)), what
        assert ours.sol(points).shape == ref.sol(points).shape, what
    for point in [*t, *inside[:25], t[0] - span, t[-1] + span]:
        assert _bits(ours.sol(point)) == _bits(ref.sol(point)), point
        assert ours.sol(point).shape == ref.sol(point).shape == (2,)


def test_terminal_event_dense_output_keeps_the_step_end():
    # the last boundary is the root, but the last piece is still the whole
    # step's interpolant, with x from that step's own t_old and h
    ours, ref = _dense_solve("terminal event")
    assert ours.status == 1 and ours.t[-1] == ours.t_events[-1]
    last = ours.sol.interpolants[-1]
    assert last.t_old == ours.t[-2] and last.t > ours.t[-1]
    ref_last = ref.sol.interpolants[-1]
    assert (last.t_old, last.t) == (ref_last.t_old, ref_last.t)
    points = np.linspace(last.t_old, last.t, 57)
    assert _bits(last(points)) == _bits(ref_last(points))
    assert _bits(ours.sol(points)) == _bits(ref.sol(points))
    assert len(ours.sol.interpolants) == len(ref.sol.interpolants) == ours.sol.n_segments


@pytest.mark.parametrize("ascending", [True, False])
def test_side_rule_on_pieces_that_disagree_at_the_boundaries(ascending):
    # a solver's pieces meet bit for bit (fl(fl(y_old + dy) - y_old) + y_old
    # is fl(y_old + dy)), so random pieces are what shows which one owns a
    # boundary: the earlier in the direction of integration, as in scipy
    from scipy.integrate._ivp.common import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    rng = np.random.default_rng(17 if ascending else 18)
    ts = np.cumsum(rng.uniform(0.1, 1.0, 9))
    ts = ts if ascending else ts[::-1]
    y_old = rng.normal(size=(8, 2))
    F = rng.normal(size=(8, dop853.INTERPOLATOR_POWER, 2))
    steps = np.column_stack([ts[:-1], ts[1:], y_old, F.reshape(8, -1)])
    ours = dop853.OdeSolution(ts, steps)
    ref = OdeSolution(ts, [Dop853DenseOutput(a, b, y, f)
                           for a, b, y, f in zip(ts[:-1], ts[1:], y_old, F)])
    span = ts[-1] - ts[0]
    points = np.concatenate([ts, ts[::-1], ts[0] + span * rng.uniform(-0.2, 1.2, 50)])
    assert _bits(ours(points)) == _bits(ref(points))
    for point in points:
        assert _bits(ours(point)) == _bits(ref(point))
    assert _bits(ours(ts[1:-1])) != _bits(ours.interpolants[1](ts[1:-1]))  # the pieces do disagree
