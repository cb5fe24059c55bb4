import math

import numpy as np
import pytest

from lagmin import profiles
from lagmin.model_spaces import InvalidArgument
from lagmin.profiles import (
    DetectionFailure,
    IntegrationFailure,
    NeedsLargerDomain,
    ProfileFamily,
    ProfileSolution,
    SigmaIntegralSpec,
    Spline,
    detect_period,
    embedding_phase_sup,
    energy_residual,
    phase_integrals,
    sigma_integral_thm1,
    solve_profile,
    sphere_volume,
)

from helpers import evenness_residual


@pytest.fixture(scope="module")
def sphere21():
    return solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 8.0, tol=1e-10)


class TestFamilyValidation:
    def test_ranges(self):
        with pytest.raises(InvalidArgument):
            ProfileFamily("ch_sphere", 1, 1.0)
        with pytest.raises(InvalidArgument):
            ProfileFamily("ch_sphere", 2, -1.0)
        with pytest.raises(InvalidArgument):
            ProfileFamily("cp_sphere", 2, 1.7)
        with pytest.raises(InvalidArgument):
            ProfileFamily("nope", 2, 1.0)
        # the energy constant overflows: sinh (a power on ch_horo) at 1e300, inf at inf
        for tag in ("ch_sphere", "ch_tube", "ch_horo"):
            for rho in (math.inf, 1e300):
                with pytest.raises(InvalidArgument, match="rho"):
                    ProfileFamily(tag, 2, rho)

    def test_energy_constants(self):
        assert ProfileFamily("ch_sphere", 2, 1.0).energy_constant == pytest.approx(
            math.cosh(1) ** 2 * math.sinh(1) ** 4)
        assert ProfileFamily("ch_tube", 3, 0.5).energy_constant == pytest.approx(
            math.sinh(0.5) ** 2 * math.cosh(0.5) ** 6)
        assert ProfileFamily("ch_horo", 2, 1.5).energy_constant == pytest.approx(1.5 ** 6)
        assert ProfileFamily("cp_sphere", 2, 0.6).energy_constant == pytest.approx(
            math.sin(0.6) ** 4 * math.cos(0.6) ** 2)

    @pytest.mark.parametrize("tag", ["ch_sphere", "ch_tube", "ch_horo", "cp_sphere"])
    def test_second_derivative_is_the_displayed_equation(self, tag):
        # the profile equations as the module docstring displays them
        n, rho = 3, 0.8
        fam = ProfileFamily(tag, n, rho)
        rng = np.random.default_rng(11)
        if tag == "ch_horo":
            # along r = rho cosh^{1/(n+1)}((n+1) s)
            s = rng.uniform(-2.0, 2.0, 64)
            m = n + 1
            r = rho * np.cosh(m * s) ** (1 / m)
            rp = r * np.tanh(m * s)
            expected = r * (np.tanh(m * s) ** 2 + m / np.cosh(m * s) ** 2)
        else:
            r, rp = rng.uniform(0.1, 1.5, 64), rng.uniform(-0.99, 0.99, 64)
            sh, ch = (np.sin(r), np.cos(r)) if tag == "cp_sphere" else (np.sinh(r), np.cosh(r))
            rhs = {"ch_sphere": sh**2 + n * ch**2, "ch_tube": ch**2 + n * sh**2,
                   "cp_sphere": n * ch**2 - sh**2}[tag]
            expected = (1 - rp**2) * rhs / (sh * ch)
        np.testing.assert_allclose(fam.second_derivative(r, rp), expected,
                                   rtol=1e-13, atol=1e-13)

    def test_tol_range(self):
        with pytest.raises(InvalidArgument):
            solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 2.0, tol=1e-5)

    @pytest.mark.parametrize("s_max", [math.inf, math.nan, 0.0])
    def test_s_max_must_be_positive_and_finite(self, s_max):
        with pytest.raises(InvalidArgument, match="s_max"):
            solve_profile(ProfileFamily("ch_sphere", 2, 1.0), s_max)


class TestSolveProfile:
    def test_initial_conditions(self, sphere21):
        i0 = np.argmin(np.abs(sphere21.s))
        assert sphere21.s[i0] == 0.0
        assert sphere21.r[i0] == pytest.approx(1.0, abs=1e-14)
        assert sphere21.rp[i0] == pytest.approx(0.0, abs=1e-14)

    def test_horo_closed_form(self):
        sol = solve_profile(ProfileFamily("ch_horo", 3, 0.7), 5.0)
        assert sol.r_of(0.0) == pytest.approx(0.7, abs=1e-15)
        assert sol.rp_of(0.0) == pytest.approx(0.0, abs=1e-12)
        s = 1.3
        assert sol.r_of(s) == pytest.approx(0.7 * math.cosh(4 * s) ** 0.25, rel=1e-12)

    def test_cp_constant_solution(self):
        rho = math.atan(math.sqrt(2.0))
        sol = solve_profile(ProfileFamily("cp_sphere", 2, rho), 5.0)
        assert np.ptp(sol.r) < 1e-12

    def test_evenness(self, sphere21):
        assert evenness_residual(sphere21) <= 1e-8

    def test_minimum_at_zero(self, sphere21):
        # rho is the only absolute minimum of r
        assert np.min(sphere21.r) >= 1.0 - 1e-9
        assert abs(sphere21.s[np.argmin(sphere21.r)]) <= 1e-6

    def test_tolerance_halving_shifts_endpoint_little(self):
        fam = ProfileFamily("ch_sphere", 2, 1.0)
        a = solve_profile(fam, 8.0, tol=1e-10)
        b = solve_profile(fam, 8.0, tol=5e-11)
        assert abs(a.r[-1] - b.r[-1]) < 10 * 1e-10


class TestEnergyResidual:
    def test_horo_identity(self):
        sol = solve_profile(ProfileFamily("ch_horo", 2, 1.0), 5.0)
        assert energy_residual(sol) <= 1e-10

    def test_conservation_cross_checked(self):
        fam = ProfileFamily("ch_sphere", 2, 1.0)
        res = energy_residual(solve_profile(fam, 8.0, tol=1e-10))
        res_tight = energy_residual(solve_profile(fam, 8.0, tol=5e-11))
        assert res <= 1e-8
        assert res_tight <= res * 10 + 1e-12

    @pytest.mark.parametrize("rho", [0.61, 0.635])
    def test_constant_state_reads_zero(self, rho):
        # r = rho, u = 0 is the reference state itself, so its logs must be
        # taken exactly as the grid's are (math and numpy logs differ by an
        # ulp at these rho)
        fam = ProfileFamily("cp_sphere", 2, rho)
        zero = np.zeros(2)
        sol = ProfileSolution(fam, np.array([0.0, 1.0]), np.full(2, rho), zero, zero,
                              fam.energy_constant, 1e-10)
        assert energy_residual(sol) == 0.0

    def test_cp_equilibrium_exact(self):
        rho = math.atan(math.sqrt(3.0))
        sol = solve_profile(ProfileFamily("cp_sphere", 3, rho), 4.0)
        assert energy_residual(sol) < 1e-12

    @pytest.mark.parametrize("tag,n,rho", [
        ("ch_sphere", 3, 0.5), ("ch_tube", 2, 2.0), ("cp_sphere", 3, 1.2),
        ("ch_horo", 4, 2.0),
    ])
    def test_spread_of_families(self, tag, n, rho):
        sol = solve_profile(ProfileFamily(tag, n, rho), 8.0, tol=1e-10)
        assert energy_residual(sol) <= 1e-8
        assert evenness_residual(sol) <= 1e-8


class TestPhaseIntegrals:
    def test_zero_at_origin(self, sphere21):
        ph = phase_integrals(sphere21)
        assert ph.a_of_s(0.0) == pytest.approx(0.0, abs=1e-15)
        assert ph.b_of_s(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone(self, sphere21):
        ph = phase_integrals(sphere21)
        s = np.linspace(-3, 3, 41)
        assert np.all(np.diff(ph.a_of_s(s)) > 0)

    def test_refinement_consistency(self, sphere21):
        # quadrature self-consistency between grid steps h and 2h
        sol = sphere21
        thinned = ProfileSolution(sol.family, sol.s[::2], sol.r[::2], sol.rp[::2],
                                  sol.u[::2], sol.energy_constant, sol.tol)
        a1 = phase_integrals(sol).a_of_s(1.0)
        a2 = phase_integrals(thinned).a_of_s(1.0)
        assert abs(a1 - a2) <= 1e-8

    def test_phase_speed_matches_derivative(self, sphere21):
        ph = phase_integrals(sphere21)
        s, eps = 0.7, 1e-5
        deriv = (ph.a_of_s(s + eps) - ph.a_of_s(s - eps)) / (2 * eps)
        assert deriv == pytest.approx(float(ph.phase_speed(s)), rel=1e-7)

    def test_cp_first_exponent_negative(self):
        sol = solve_profile(ProfileFamily("cp_sphere", 2, 0.6), 3.0)
        ph = phase_integrals(sol)
        assert ph.a_of_s(1.0) < 0
        assert ph.b_of_s(1.0) > 0

    def test_horo_phase_closed_form(self):
        # r = rho cosh^{1/(n+1)}((n+1) s) makes a' = rho^{n+1} / r^{n+1}
        # = sech((n+1) s), whose integral is 2 atan(tanh((n+1) s / 2)) / (n+1)
        s = np.linspace(-2.5, 2.5, 101)
        for n, rho in ((2, 2.0), (3, 0.5), (5, 1.0)):
            ph = phase_integrals(solve_profile(ProfileFamily("ch_horo", n, rho), 3.0))
            exact = 2.0 * np.arctan(np.tanh((n + 1) * s / 2)) / (n + 1)
            assert np.max(np.abs(ph.a_of_s(s) - exact)) <= 1e-13

    @pytest.mark.parametrize("tag,rho", [
        ("ch_sphere", 1.0), ("ch_tube", 0.5), ("ch_horo", 1.0), ("cp_sphere", 0.6),
    ])
    def test_rates_are_the_derivatives(self, tag, rho):
        # a', b' against central differences of the cumulative integrals, and
        # a'', b'' against central differences of a', b' along the profile
        sol = solve_profile(ProfileFamily(tag, 3, rho), 3.0)
        ph = phase_integrals(sol)
        R, dR = sol.interpolant, sol.rp_interpolant()
        s, eps = np.array([-1.1, 0.4, 0.7, 1.3]), 1e-5

        def rates(x):
            return np.stack(ph.rates(R(x), dR(x)))

        def central(f):
            return (f(s + eps) - f(s - eps)) / (2 * eps)

        a1, a2, b1, b2 = rates(s)
        np.testing.assert_allclose(a1, central(ph.a_of_s), rtol=1e-8)
        np.testing.assert_allclose(b1, central(ph.b_of_s), rtol=1e-8)
        da1, _, db1, _ = central(rates)
        np.testing.assert_allclose(a2, da1, rtol=1e-8)
        np.testing.assert_allclose(b2, db1, rtol=1e-8)


class TestEmbeddingPhase:
    def test_zero_at_origin_and_monotone(self, sphere21):
        ph = phase_integrals(sphere21)
        vals = 2.0 * (np.array(ph.a_of_s([0.0, 0.5, 1.0, 2.0]))
                      - np.array(ph.b_of_s([0.0, 0.5, 1.0, 2.0])))
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(vals) > 0)

    def test_limit_below_pi(self, sphere21):
        v8 = embedding_phase_sup(sphere21)
        v12 = embedding_phase_sup(solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 12.0))
        assert abs(v8 - v12) <= 1e-6
        assert v12 < math.pi - 0.01
        assert v12 == pytest.approx(0.3800760789, abs=1e-6)  # derived reference

    def test_needs_larger_domain(self):
        sol = solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 1.0)
        with pytest.raises(NeedsLargerDomain):
            embedding_phase_sup(sol)

    def test_wrong_family(self):
        sol = solve_profile(ProfileFamily("ch_tube", 2, 1.0), 2.0)
        with pytest.raises(InvalidArgument):
            embedding_phase_sup(sol)


class TestSigmaIntegral:
    def test_prefactor_n2(self):
        spec = SigmaIntegralSpec(2, 1.0)
        assert spec.prefactor == pytest.approx(16 * math.pi, rel=1e-14)
        assert sphere_volume(1) == pytest.approx(2 * math.pi)
        assert sphere_volume(2) == pytest.approx(4 * math.pi)

    def test_cross_method_agreement(self):
        vs = sigma_integral_thm1(SigmaIntegralSpec(2, 1.0, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(2, 1.0, method="t"))
        assert abs(vs - vt) / vt <= 1e-4
        assert vt == pytest.approx(31.931593049, rel=1e-7)  # derived reference

    @pytest.mark.parametrize("n, rho", [(n, rho) for n in range(2, 9)
                                        for rho in (0.3, 0.5, 1.0, 2.0, 3.0)])
    def test_s_and_t_forms_agree_across_the_domain(self, n, rho):
        # the s-form integral is about sinh^{-(n^2+1)} rho, 1e-21 at n = 6,
        # rho = 2: an absolute quadrature tolerance would stop on the first
        # estimate there
        vs = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="t"))
        assert abs(vs - vt) <= 1e-6 * vt

    @pytest.mark.xfail(strict=True, reason="the profile loses precision near small r "
                       "(ROADMAP item 1): s/t differ by 1.5e-4 at n = 8, rho = 0.05")
    def test_s_and_t_forms_agree_at_n8_small_rho(self):
        vs = sigma_integral_thm1(SigmaIntegralSpec(8, 0.05, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(8, 0.05, method="t"))
        assert abs(vs - vt) <= 1e-4 * vt  # acceptance 07

    def test_t_form_of_a_tiny_integral_matches_mpmath(self):
        # at n = 8, rho = 2 the integral I is about 2e-38
        mpmath = pytest.importorskip("mpmath")
        n, rho = 8, 2.0
        spec = SigmaIntegralSpec(n, rho, method="t")
        with mpmath.workdps(30):
            t0 = mpmath.sinh(mpmath.mpf(rho))

            def integrand(u):
                # (t^{2n+2} + t^{2n} - a^2) / (t - t0) as a sum of powers
                t = t0 + u * u
                S = sum(t**k * t0 ** (2 * n + 1 - k) for k in range(2 * n + 2))
                S += sum(t**k * t0 ** (2 * n - 1 - k) for k in range(2 * n))
                return 2 / (t ** (n * n - n + 1) * mpmath.sqrt(S))

            ref = mpmath.quad(integrand, list(mpmath.linspace(0, 4, 41)) + [mpmath.inf])
        value = sigma_integral_thm1(spec) / (spec.prefactor * spec.energy_factor)
        assert abs(value - float(ref)) <= 1e-13 * float(ref)

    def test_integrand_positive_decreasing(self, sphere21):
        # s-form integrand sinh^{-(n^2+1)} r for n = 2
        s = np.linspace(0.0, 5.0, 50)
        vals = np.sinh(sphere21.r_of(s)) ** (-5.0)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestDetectPeriod:
    def test_equilibrium(self):
        assert detect_period(2, math.atan(math.sqrt(2.0))) is None
        assert detect_period(3, math.atan(math.sqrt(3.0))) is None

    def test_equilibrium_rhs_tiny(self):
        for n in (2, 3):
            rho = math.atan(math.sqrt(n))
            rhs = n * math.cos(rho) ** 2 - math.sin(rho) ** 2
            assert abs(rhs) <= 1e-14

    def test_period_and_closure(self):
        pr = detect_period(2, 0.6)
        assert pr.closure_residual <= 1e-8
        assert 1.0 < pr.period < 10.0

    def test_periodicity_probes(self):
        # high-resolution integration oracle for r(s + T) = r(s)
        pr = detect_period(2, 0.6)
        sol = solve_profile(ProfileFamily("cp_sphere", 2, 0.6), pr.period + 2.5, tol=1e-12)
        probes = np.linspace(0.0, 2.0, 20)
        assert np.max(np.abs(sol.r_of(probes + pr.period) - sol.r_of(probes))) <= 1e-7

    def test_small_orbit_near_equilibrium(self):
        pr = detect_period(2, 0.9553)
        assert pr is not None
        assert pr.amplitude < 1e-3


def _mp_period(n, rho, dps=40):
    """cp_sphere period by mpmath quadrature of the energy integral.

    (1 - r'^2) sin^2n r cos^2 r = E gives T = 2 int_a^b dr / sqrt(1 - E/F(r))
    between the turning points a, b (F(a) = F(b) = E, F = sin^2n r cos^2 r).
    r = a + (b - a)(1 - cos theta)/2 = a + (b - a) sin^2(theta/2) cancels both
    endpoint singularities.
    The turning points and the integrand are evaluated at 3 * dps digits, so
    nodes within 10^-dps of an end still resolve 1 - E/F(r) > 0.
    """
    mpmath = pytest.importorskip("mpmath")
    inner = 3 * dps
    with mpmath.workdps(inner):
        def log_f(r):
            return 2 * n * mpmath.log(mpmath.sin(r)) + 2 * mpmath.log(mpmath.cos(r))

        start = mpmath.mpf(rho)
        level = log_f(start)
        peak = mpmath.atan(mpmath.sqrt(n))
        edge = mpmath.mpf(10) ** -inner
        bracket = (peak, mpmath.pi / 2 - edge) if start < peak else (edge, peak)
        other = mpmath.findroot(lambda r: log_f(r) - level, bracket, solver="anderson")
        a, b = min(start, other), max(start, other)

    def integrand(theta):
        with mpmath.workdps(inner):
            r = a + (b - a) * mpmath.sin(theta / 2) ** 2
            return (b - a) / 2 * mpmath.sin(theta) / mpmath.sqrt(-mpmath.expm1(level - log_f(r)))

    with mpmath.workdps(dps):
        return float(2 * mpmath.quad(integrand, [0, mpmath.pi]))


class TestPeriodEvent:
    """detect_period as one event-terminated ODE solve."""

    @pytest.mark.parametrize("n, rho", [(2, 0.6), (2, 1.2), (3, 0.3), (4, 0.05)])
    def test_matches_mpmath_quadrature(self, n, rho):
        assert abs(detect_period(n, rho).period - _mp_period(n, rho)) <= 1e-11

    def test_one_solve_stopping_at_the_return(self, monkeypatch):
        solves = []
        solve = profiles.solve_ivp

        def recorded(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(profiles, "solve_ivp", recorded)
        for n, rho in ((2, 0.6), (3, 1.2)):
            solves.clear()
            T = detect_period(n, rho).period
            assert len(solves) == 1
            assert solves[0].t[-1] == T

    def test_search_time_short_of_the_period(self, monkeypatch):
        T = detect_period(2, 0.6).period
        monkeypatch.setattr(profiles, "_PERIOD_SEARCH_TIME", 0.9 * T)
        with pytest.raises(DetectionFailure):
            detect_period(2, 0.6)
        monkeypatch.setattr(profiles, "_PERIOD_SEARCH_TIME", 1.1 * T)
        assert detect_period(2, 0.6).period == pytest.approx(T, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("offset", [-0.3, 0.3])
    def test_both_sides_of_equilibrium(self, n, offset):
        # the orbit crosses arctan(sqrt n) to the turning point on the other
        # side and comes back once
        equilibrium = math.atan(math.sqrt(n))
        pr = detect_period(n, equilibrium + offset)
        assert pr.amplitude > abs(offset)
        assert pr.closure_residual <= 1e-11
        assert 1.0 < pr.period < 4.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.6, 1.2, 1.5])
    def test_closure(self, n, rho):
        assert detect_period(n, rho).closure_residual <= 1e-11

    @pytest.mark.xfail(strict=True, raises=IntegrationFailure, reason=(
        "known limit: at n = 8, rho = 0.05 the orbit runs to within 4e-11 of "
        "pi/2, where tan r blows up, and DOP853 stops (required step below "
        "the spacing of doubles)"))
    @pytest.mark.parametrize("solve", ["profile", "period"])
    def test_n8_small_rho(self, solve):
        if solve == "profile":
            sol = solve_profile(ProfileFamily("cp_sphere", 8, 0.05), 8.0)
            assert energy_residual(sol) <= 1e-8
        else:
            assert detect_period(8, 0.05).closure_residual <= 1e-11


class TestSpline:
    """The numpy spline reproduces scipy's CubicHermiteSpline bit for bit."""

    @staticmethod
    def _assert_same(ours, ref, points):
        assert np.array_equal(ours(points), ref(points))
        few = points[:: len(points) // 17]
        assert np.array_equal(ours(few), ref(few))
        for x in few:
            y = ours(float(x))
            assert np.ndim(y) == 0 and y == ref(float(x))

    def _assert_antiderivative(self, x, y, dy, points):
        # the coefficients (scipy's highest power first) and the values
        from scipy.interpolate import CubicHermiteSpline

        ours = Spline.hermite_antiderivative(x, y, dy)
        ref = CubicHermiteSpline(x, y, dy).antiderivative()
        assert np.array_equal(ours.rows, ref.c[::-1].T)
        self._assert_same(ours, ref, points)

    @staticmethod
    def _probe_points(s):
        mid = 0.5 * (s[1:] + s[:-1])
        outside = [s[0] - 1.0, s[0] - 1e-9, s[-1] + 1e-9, s[-1] + 1.0, -0.0]
        return np.concatenate([s, mid, outside])

    @pytest.mark.parametrize("tag,rho", [
        ("ch_sphere", 1.0), ("ch_tube", 0.5), ("ch_horo", 1.0), ("cp_sphere", 0.6),
    ])
    def test_profile_families(self, tag, rho):
        from scipy.interpolate import CubicHermiteSpline

        sol = solve_profile(ProfileFamily(tag, 3, rho), 3.0)
        ref = CubicHermiteSpline(sol.s, sol.r, sol.rp)
        points = self._probe_points(sol.s)
        self._assert_same(sol.interpolant, ref, points)
        self._assert_antiderivative(sol.s, sol.r, sol.rp, points)
        rpp = sol.family.second_derivative(sol.r, sol.rp)
        self._assert_same(sol.rp_interpolant(), CubicHermiteSpline(sol.s, sol.rp, rpp), points)
        self._assert_antiderivative(sol.s, sol.rp, rpp, points)

    def test_non_uniform_knots(self):
        from scipy.interpolate import CubicHermiteSpline

        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.01, 1.0, 800))
        y, dy = np.sin(x), np.cos(x)
        ours, ref = Spline.hermite(x, y, dy), CubicHermiteSpline(x, y, dy)
        points = np.concatenate([self._probe_points(x), rng.uniform(-5, x[-1] + 5, 500)])
        self._assert_same(ours, ref, points)
        self._assert_antiderivative(x, y, dy, points)

    def test_nan_propagates(self):
        sol = solve_profile(ProfileFamily("ch_horo", 2, 1.0), 1.0)
        assert np.all(np.isnan(sol.interpolant(np.full(3, np.nan))))
        assert math.isnan(sol.interpolant(math.nan))
