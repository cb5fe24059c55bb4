"""The in-repo Gauss-Kronrod ``quad`` against scipy's ``quad``.

scipy is the oracle here and is imported only by these tests: the rule's
table must be scipy's, and the total curvature integrals must come out of
``profiles.quad`` as they do out of ``scipy.integrate.quad``.  ``quad``
has fixed settings, a relative tolerance and a panel limit; scipy's is
called with the same ones (``scipy_quad``).
"""

import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

from lagmin import profiles
from lagmin.profiles import IntegrationFailure, SigmaIntegralSpec, quad, sigma_integral_thm1

SWEEP = [(n, rho) for n in range(2, 9) for rho in (0.05, 0.3, 0.5, 1.0, 2.0, 3.0)]


def scipy_quad(f, a, b, points=None):
    """scipy's ``quad`` at ``quad``'s settings: no absolute tolerance."""
    from scipy.integrate import quad as reference

    return reference(f, a, b, epsabs=0.0, epsrel=profiles._QUAD_RTOL,
                     limit=profiles._QUAD_LIMIT, points=points)


def test_gk21_table_is_scipys():
    from scipy.integrate import _quad_vec

    tree = ast.parse(textwrap.dedent(inspect.getsource(_quad_vec._quadrature_gk21)))
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.walk(tree) if isinstance(node, ast.Assign)}
    assert tables == {"x": profiles._GK21_NODES, "w": profiles._GK21_GAUSS,
                      "v": profiles._GK21_KRONROD}


@pytest.mark.parametrize("n, rho", SWEEP)
def test_t_form_matches_scipy(monkeypatch, n, rho):
    spec = SigmaIntegralSpec(n, rho, method="t")
    ours = sigma_integral_thm1(spec)
    monkeypatch.setattr(profiles, "quad", scipy_quad)
    ref = sigma_integral_thm1(spec)
    assert abs(ours - ref) <= 1e-13 * ref


@pytest.mark.parametrize("f, a, b", [
    (np.exp, -1.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 40.0),
    (lambda x: np.sin(30.0 * x) ** 2, 0.0, math.pi),
])
def test_smooth_integrands_match_scipy(f, a, b):
    ours, our_err = quad(f, a, b)
    ref, _ = scipy_quad(f, a, b)
    assert abs(ours - ref) <= 1e-13 * abs(ref)
    assert our_err <= 1e-12 * abs(ours)


def test_exact_on_polynomials_up_to_degree_31():
    rng = np.random.default_rng(3)
    a, b = -0.3, 1.7
    for degree in range(32):
        poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
        exact = poly.integ()(b) - poly.integ()(a)
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(max(abs(a), b))
        (value,), _ = profiles._gk21_panels(poly, np.array([a]), np.array([b]))
        assert abs(value - exact) <= 1e-14 * scale, degree
        if degree <= 19:  # the embedded Gauss rule is exact too: one panel suffices
            sizes = []
            value, _ = quad(lambda x: sizes.append(len(x)) or poly(x), a, b)
            assert sizes == [21]
            assert abs(value - exact) <= 1e-14 * scale, degree


def test_one_call_of_f_per_round():
    for points in (None, [-0.5, 0.25, 0.75]):
        sizes = []

        def f(x):
            sizes.append(x.shape)
            return 1.0 / (1e-3 + x * x)

        value, _ = quad(f, -1.0, 1.0, points=points)
        assert value == pytest.approx(2.0 * math.atan(1e-3 ** -0.5) / 1e-3 ** 0.5, rel=1e-12)
        assert len(sizes) > 2
        assert all(len(s) == 1 and s[0] % 21 == 0 for s in sizes)
        # the whole first round, every breakpoint panel of it, in the first call
        assert sizes[0] == (21 * (1 + len(points or [])),)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
def test_breakpoints_match_scipy(a, b):
    # a kinked peak at the breakpoint 0.3, smooth on either side of it
    f = lambda x: np.exp(-40.0 * np.abs(x - 0.3))
    ref, _ = scipy_quad(f, min(a, b), max(a, b), points=[0.3])
    ref *= math.copysign(1.0, b - a)
    # repeated and outside breakpoints, and the ends, are dropped
    for points in ([0.3], [0.3, 0.3, -2.0, 0.0, 1.0, 5.0]):
        value, _ = quad(f, a, b, points=points)
        assert abs(value - ref) <= 1e-13 * abs(ref)


def test_too_many_breakpoint_panels_raise():
    with pytest.raises(IntegrationFailure, match="201 breakpoint panels above the limit 200"):
        quad(np.cos, 0.0, 1.0, points=np.linspace(0.0, 1.0, 202))
    # the limit itself is allowed
    assert quad(np.cos, 0.0, 1.0, points=np.linspace(0.0, 1.0, 201))[0] == pytest.approx(
        math.sin(1.0), rel=1e-15)


def _count_evaluations(monkeypatch):
    calls = []
    evaluate = profiles.ProfileSolution._evaluate
    monkeypatch.setattr(profiles.ProfileSolution, "_evaluate",
                        lambda self, s: calls.append(1) or evaluate(self, s))
    return calls


@pytest.mark.parametrize("n, rho", SWEEP)
def test_s_form_reads_the_profile_twice(monkeypatch, n, rho):
    # one quadrature round on the tables' panels, the tail's s_max in its
    # batch: the profile is read once.  The name is kept from when the tail
    # read s_max on its own, a second read
    calls = _count_evaluations(monkeypatch)
    vs = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="s"))
    assert len(calls) == 1
    vt = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="t"))
    assert abs(vs - vt) <= 1e-10 * vt


@pytest.mark.parametrize("n, rho", [(8, 20.0), (12, 5.0), (13, 5.0), (30, 5.0)])
def test_large_cells_are_finite(n, rho):
    # a^n overflowed at (8, 20) and (13, 5), where the s-form's
    # sinh^{-(n^2+1)} r underflowed to 0, and t^{n^2-n+1} overflowed at (12, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vs = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="t"))
    assert math.isfinite(vt)
    assert abs(vs - vt) <= 1e-10 * vt


def test_running_out_of_panels_raises():
    # a thousand jumps, more than 200 panels can resolve, and NaN estimates
    comb = lambda x: np.floor(1e3 * x) % 2
    with pytest.raises(IntegrationFailure, match="limit 200"):
        quad(comb, 0.0, 1.0)
    with pytest.raises(IntegrationFailure, match="limit 200"):
        quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
