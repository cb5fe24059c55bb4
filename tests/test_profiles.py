import math
import warnings

import numpy as np
import pytest

from lagmin import profiles
from lagmin import serialization as ser
from lagmin.model_spaces import InvalidArgument
from lagmin.profiles import (
    IntegrationFailure,
    NeedsLargerDomain,
    ProfileFamily,
    SigmaIntegralSpec,
    cumulative,
    detect_period,
    embedding_phase_sup,
    energy_residual,
    phase_integrals,
    sigma_integral_thm1,
    solve_profile,
    sphere_volume,
)

from helpers import evenness_residual, ode_rhs, two_solve_profile


def assert_two_solve_route(sol, bound=1e-10):
    """``sol``'s rows agree with independent forward and backward DOP853
    solves of the profile equation (rtol 1e-13) on its grid, r relative to
    max(|r|, 1)."""
    s, r, rp = two_solve_profile(sol.family, sol.s_max)
    assert np.array_equal(sol.s, s)
    assert np.max(np.abs(sol.r - r) / np.maximum(np.abs(r), 1.0)) <= bound
    assert np.max(np.abs(sol.rp - rp)) <= bound


def assert_exact_mirror(sol):
    """The profile at -s is (r, -r', r'', -A, -B) at s, bit for bit."""
    s = np.linspace(0.0, sol.s_max, 97)
    for got, ref, sign in zip(sol.state(-s), sol.state(s), (1, -1, 1, -1, -1)):
        assert np.array_equal(got, sign * ref)


@pytest.fixture(scope="module")
def sphere21():
    return solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 8.0)


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
        assert sol.state(0.0)[1] == pytest.approx(0.0, abs=1e-12)
        s = 1.3
        assert sol.r_of(s) == pytest.approx(0.7 * math.cosh(4 * s) ** 0.25, rel=1e-12)

    def test_cp_constant_solution(self):
        rho = math.atan(math.sqrt(2.0))
        sol = solve_profile(ProfileFamily("cp_sphere", 2, rho), 5.0)
        assert np.ptp(sol.r) < 1e-12

    def test_evenness(self, sphere21):
        assert_exact_mirror(sphere21)
        assert evenness_residual(sphere21) <= 1e-14  # the grid is symmetric to an ulp
        assert_two_solve_route(sphere21)

    def test_minimum_at_zero(self, sphere21):
        # rho is the only absolute minimum of r
        assert np.min(sphere21.r) >= 1.0 - 1e-9
        assert abs(sphere21.s[np.argmin(sphere21.r)]) <= 1e-6

    def test_points_in_any_shape(self):
        # a column or a block of points is the flat points' values, bit for
        # bit, in the points' shape
        fam = ProfileFamily("ch_sphere", 3, 1.0)
        flat = np.linspace(-2.5, 2.5, 6)
        for shape in ((3, 1), (2, 3)):
            x = flat[:math.prod(shape)].reshape(shape)
            # from two profiles, so that the flat read is not served from
            # the shaped read's cache
            shaped = solve_profile(fam, 3.0).state(x)
            for got, ref in zip(shaped, solve_profile(fam, 3.0).state(x.ravel())):
                assert got.shape == shape
                assert got.tobytes() == ref.tobytes()

    def test_one_evaluation_for_a_reshaped_batch(self, monkeypatch):
        # a build reads its s values flat and its checks as a column: one
        # evaluation serves both, in either shape, bit for bit
        sol = solve_profile(ProfileFamily("ch_sphere", 3, 1.0), 3.0)
        calls = []
        evaluate = sol._evaluate
        monkeypatch.setattr(sol, "_evaluate", lambda s: calls.append(s.shape) or evaluate(s))
        s = np.linspace(-2.5, 2.5, 64)
        flat = sol.state(s)
        column = sol.state(s[:, None])
        assert calls == [(64,)]
        for a, b in zip(flat, column):
            assert a.shape == (64,) and b.shape == (64, 1)
            assert a.tobytes() == b.tobytes()

    def test_nan_propagates(self):
        for tag, rho in (("ch_horo", 1.0), ("ch_sphere", 1.0), ("cp_sphere", 0.6)):
            sol = solve_profile(ProfileFamily(tag, 2, rho), 1.0)
            assert np.all(np.isnan(sol.r_of(np.full(3, np.nan))))
            assert math.isnan(sol.r_of(math.nan))


class TestEnergyResidual:
    def test_horo_identity(self):
        sol = solve_profile(ProfileFamily("ch_horo", 2, 1.0), 5.0)
        assert energy_residual(sol) <= 1e-10

    def test_horo_relative_without_overflow(self):
        # relative to r^2: at rho = 10 and s = 30 the absolute residual read
        # the roundoff of r^2 (7.5e-9), and at n = 8, s = 100 r^{2n} overflowed
        sol = solve_profile(ProfileFamily("ch_horo", 2, 10.0), 30.0)
        assert energy_residual(sol) <= 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_profile(ProfileFamily("ch_horo", 8, 10.0), 100.0)
            assert energy_residual(sol) <= 1e-10

    def test_conservation_cross_checked(self):
        # the tables of a shorter span hold the first integral as well
        fam = ProfileFamily("ch_sphere", 2, 1.0)
        res = energy_residual(solve_profile(fam, 8.0))
        res_short = energy_residual(solve_profile(fam, 4.0))
        assert res <= 1e-8
        assert res_short <= res * 10 + 1e-12

    @pytest.mark.parametrize("rho", [0.61, 0.635])
    def test_constant_state_reads_zero(self, rho):
        # s = 0 is the reference state (rho, 0) itself, and the residual's
        # reference logs are taken as the nodes' are (math and numpy logs
        # differ by an ulp at these rho), so the nodes read roundoff
        sol = solve_profile(ProfileFamily("cp_sphere", 2, rho), 1.0)
        r, rp = sol.state(0.0)[:2]
        assert (r, rp) == (rho, 0.0)
        assert energy_residual(sol) <= 1e-14

    def test_cp_equilibrium_exact(self):
        rho = math.atan(math.sqrt(3.0))
        sol = solve_profile(ProfileFamily("cp_sphere", 3, rho), 4.0)
        assert energy_residual(sol) < 1e-12

    @pytest.mark.parametrize("tag,n,rho", [
        ("ch_sphere", 3, 0.5), ("ch_tube", 2, 2.0), ("cp_sphere", 3, 1.2),
        ("ch_horo", 4, 2.0),
    ])
    def test_spread_of_families(self, tag, n, rho):
        sol = solve_profile(ProfileFamily(tag, n, rho), 8.0)
        assert energy_residual(sol) <= 1e-8
        assert_exact_mirror(sol)
        if tag != "ch_horo":  # closed form, no quadrature
            assert_two_solve_route(sol)


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
        # quadrature self-consistency: s_max = 3 lays out other panels
        # than s_max = 8 past the start
        other = solve_profile(sphere21.family, 3.0)
        assert len(other._pieces[1].table.mid) != len(sphere21._pieces[1].table.mid)
        s = np.linspace(-2.5, 2.5, 11)
        for a1, a2 in zip(sphere21.state(s), other.state(s)):
            assert np.max(np.abs(a1 - a2)) <= 1e-14 * np.max(np.abs(a1))

    def test_phase_speed_matches_derivative(self, sphere21):
        ph = phase_integrals(sphere21)
        s, eps = 0.7, 1e-5
        deriv = (ph.a_of_s(s + eps) - ph.a_of_s(s - eps)) / (2 * eps)
        speed = sphere21.family.phase_rates(*sphere21.state(s)[:2])[0]
        assert deriv == pytest.approx(float(speed), rel=1e-7)

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

    @pytest.mark.parametrize("tag,n,rho", [
        ("ch_sphere", 2, 1.0), ("ch_sphere", 3, 0.5), ("ch_tube", 3, 0.5), ("ch_tube", 2, 1.0),
    ])
    def test_phases_against_the_first_integral(self, tag, n, rho):
        # an independent route: on s >= 0 the first integral gives
        # r'^2 = 1 - E / f(r) = (f(r) - f(rho)) / f(r), so s(R), A(s(R)) and
        # B(s(R)) are integrals over r in [rho, R]; r = rho + v^2 removes the
        # square root at the turning point.  The bound is the ODE route's;
        # the quadrature tables read at most 3.9e-16
        mp = pytest.importorskip("mpmath")
        sphere = tag == "ch_sphere"
        ph = phase_integrals(solve_profile(ProfileFamily(tag, n, rho), 8.0))
        with mp.workdps(40):
            sh, ch = mp.sinh, mp.cosh
            f = (lambda r: sh(r) ** (2 * n) * ch(r) ** 2) if sphere else \
                (lambda r: sh(r) ** 2 * ch(r) ** (2 * n))
            f_rho = f(mp.mpf(rho))
            a = mp.sqrt(f_rho)
            rates = [lambda r: 1,  # ds/ds
                     (lambda r: a / sh(r) ** (n + 1)) if sphere else
                     (lambda r: a / (sh(r) ** 2 * ch(r) ** (n - 1))),
                     (lambda r: a / (sh(r) ** (n - 1) * ch(r) ** 2)) if sphere else
                     (lambda r: a / ch(r) ** (n + 1))]

            def over_r(rate, R):
                def integrand(v):
                    r = rho + v * v
                    fr = f(r)
                    return 2 * v * rate(r) * mp.sqrt(fr / (fr - f_rho))

                return mp.quad(integrand, [0, mp.sqrt(R - rho)], method="gauss-legendre")

            for R in (rho + 0.25, rho + 1.0, rho + 4.0):
                s_R, A, B = (over_r(rate, mp.mpf(R)) for rate in rates)
                for got, ref in ((ph.a_of_s(float(s_R)), A), (ph.b_of_s(float(s_R)), B)):
                    assert abs(got - float(ref)) <= 1e-9 * abs(float(ref))

    @pytest.mark.parametrize("tag,rho", [
        ("ch_sphere", 1.0), ("ch_tube", 0.5), ("ch_horo", 1.0), ("cp_sphere", 0.6),
    ])
    def test_rates_are_the_derivatives(self, tag, rho):
        # a', b' against central differences of the cumulative integrals, and
        # a'', b'' against central differences of a', b' along the profile
        sol = solve_profile(ProfileFamily(tag, 3, rho), 3.0)
        ph = phase_integrals(sol)
        s, eps = np.array([-1.1, 0.4, 0.7, 1.3]), 1e-5

        def rates(x):
            return np.stack(sol.family.phase_rates(*sol.state(x)[:2]))

        def central(f):
            return (f(s + eps) - f(s - eps)) / (2 * eps)

        a1, a2, b1, b2 = rates(s)
        np.testing.assert_allclose(a1, central(ph.a_of_s), rtol=1e-8)
        np.testing.assert_allclose(b1, central(ph.b_of_s), rtol=1e-8)
        da1, _, db1, _ = central(rates)
        np.testing.assert_allclose(a2, da1, rtol=1e-8)
        np.testing.assert_allclose(b2, db1, rtol=1e-8)


class TestCumulative:
    def test_gauss_legendre_rule(self):
        # nodes and weights against 40-digit ones (numpy's leggauss weights
        # are up to 4.4e-16 off)
        mp = pytest.importorskip("mpmath")
        m = profiles._GL_M
        with mp.workdps(40):
            x = [mp.findroot(lambda t: mp.legendre(m, t), float(x0)) for x0 in profiles._GL_X]
            w = [2 / ((1 - t**2) * mp.diff(lambda u: mp.legendre(m, u), t) ** 2) for t in x]
        assert np.max(np.abs(profiles._GL_X - np.array(x, dtype=float))) <= 2e-16
        assert np.max(np.abs(profiles._GL_W - np.array(w, dtype=float))) <= 2e-16

    @pytest.mark.parametrize("f, F", [(np.cos, np.sin), (np.exp, np.expm1),
                                      (lambda t: 1 / (1 + t * t), np.arctan)])
    def test_against_closed_forms(self, f, F):
        # the integral from 0 between and at the panel edges, on both sides
        x = np.concatenate([np.linspace(-3.0, 5.0, 801), [-3.0, 0.0, 5.0]])
        got = cumulative(f, -3.0, 5.0)(x)
        assert np.max(np.abs(got - F(x))) <= 2e-15 * np.max(np.abs(F(x)))


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


def _mp_t_form(n, rho, u_end):
    """(a, I) of the t-form at 30 digits, I with t = sinh rho + u^2 on 40
    equal panels of [0, u_end] and the rest of the half line."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        t0 = mpmath.sinh(mpmath.mpf(rho))

        def integrand(u):
            # (t^{2n+2} + t^{2n} - a^2) / (t - t0) as a sum of powers
            t = t0 + u * u
            S = sum(t**k * t0 ** (2 * n + 1 - k) for k in range(2 * n + 2))
            S += sum(t**k * t0 ** (2 * n - 1 - k) for k in range(2 * n))
            return 2 / (t ** (n * n - n + 1) * mpmath.sqrt(S))

        pts = list(mpmath.linspace(0, u_end, 41)) + [mpmath.inf]
        return mpmath.cosh(mpmath.mpf(rho)) * t0**n, mpmath.quad(integrand, pts)


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

    def test_s_and_t_forms_agree_at_n8_small_rho(self):
        vs = sigma_integral_thm1(SigmaIntegralSpec(8, 0.05, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(8, 0.05, method="t"))
        assert abs(vs - vt) <= 1e-4 * vt  # acceptance 07

    def test_t_form_of_a_tiny_integral_matches_mpmath(self):
        # at n = 8, rho = 2 the integral I is about 2e-38
        n, rho = 8, 2.0
        spec = SigmaIntegralSpec(n, rho, method="t")
        ref = float(_mp_t_form(n, rho, 4)[1])
        value = sigma_integral_thm1(spec) / (spec.prefactor * spec.family.phase_constant**n)
        assert abs(value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n, rho", [(8, 20.0), (13, 5.0)])
    def test_large_cells_match_mpmath(self, n, rho):
        # a^n overflows doubles here (1e604 at n = 8, rho = 20) while a^n I
        # is finite: the reference takes both at 30 digits, on breakpoints
        # scaled to the integrand's width sqrt(sinh rho / (n^2 + 1)) in u
        width = math.sqrt(math.sinh(rho) / (n * n + 1))
        a, integral = _mp_t_form(n, rho, 20 * width)
        ref = float(a**n * integral)
        for method in "st":
            spec = SigmaIntegralSpec(n, rho, method=method)
            assert abs(sigma_integral_thm1(spec) / spec.prefactor - ref) <= 1e-12 * ref

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
        sol = solve_profile(ProfileFamily("cp_sphere", 2, 0.6), pr.period + 2.5)
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
    """detect_period as 2 s(e_b), twice the arc length out to the far turn,
    read from the profile's quadrature tables."""

    @pytest.mark.parametrize("n, rho", [(2, 0.6), (2, 1.2), (3, 0.3), (4, 0.05), (6, 0.05),
                                        (8, 0.05), (8, 0.02), (12, 0.1)])
    def test_matches_mpmath_quadrature(self, n, rho):
        # DOP853 had (6, 0.05) 5.2e-8 off and stopped at the other three
        # new cases, whose orbits come within 4e-11, 3e-14 and 1e-12 of pi/2
        assert abs(detect_period(n, rho).period - _mp_period(n, rho)) <= 1e-11

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

    @pytest.mark.parametrize("solve", ["profile", "period"])
    def test_n8_small_rho(self, solve):
        # the orbit comes within 4e-11 of pi/2, where DOP853 stopped
        if solve == "profile":
            sol = solve_profile(ProfileFamily("cp_sphere", 8, 0.05), 8.0)
            assert energy_residual(sol) <= 1e-8
        else:
            assert detect_period(8, 0.05).closure_residual <= 1e-11


MIRROR_CASES = [
    (tag, n, rho, file_tol, s_max)
    for tag, params in (
        ("ch_sphere", [(2, 0.05), (3, 1.0), (8, 2.5)]),
        ("ch_tube", [(2, 2.0), (5, 0.05), (8, 0.3)]),
        ("cp_sphere", [(2, 0.6), (5, 0.3), (8, 1.4)]),
    )
    for n, rho in params
    for file_tol, s_max in ((1e-8, 8.5), (1e-12, 3.0))
]


class TestOneSolve:
    """One set of quadrature tables per profile: s < 0 is their exact
    mirror, and it agrees with independent forward and backward DOP853
    solves of the profile equation, also when read back from a file
    whose ``tol`` field holds any number."""

    @pytest.mark.parametrize("tag, n, rho, file_tol, s_max", MIRROR_CASES)
    def test_mirror_is_the_two_solve_route(self, tag, n, rho, file_tol, s_max):
        sol = solve_profile(ProfileFamily(tag, n, rho), s_max)
        read = ser.profile_from_dict(dict(ser.profile_to_dict(sol), tol=ser.fnum(file_tol)))
        assert read.stored_deviation == 0.0
        assert_exact_mirror(sol)
        assert_exact_mirror(read)
        # DOP853's global error at rtol 1e-13 grows to about 1e-11 by s = 8.5
        assert_two_solve_route(read, bound=1e-10)

    @pytest.mark.parametrize("n, rho, rtol", [(8, 0.02, 1e-8), (12, 0.1, 1e-6)])
    def test_succeeds_where_dop853_stops(self, n, rho, rtol):
        # the orbit runs to within 3e-14 and 1e-12 of pi/2 in the first 1.5
        # units of s, where DOP853 stops: the required step falls below the
        # spacing of doubles
        fam = ProfileFamily("cp_sphere", n, rho)
        with pytest.raises(IntegrationFailure, match="spacing between numbers"):
            two_solve_profile(fam, 3.0, rtol=rtol)
        sol = solve_profile(fam, 3.0)
        assert energy_residual(sol) <= 1e-13
        assert_exact_mirror(sol)
        assert np.max(sol.r) < math.pi / 2
        assert abs(sol.period - _mp_period(n, rho)) <= 1e-11

    @pytest.mark.parametrize("tag", ["ch_sphere", "ch_tube", "cp_sphere"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_ode_rhs_is_tanh_and_slope(self, tag, n):
        # the oracle's right-hand side is (tanh u, r''/(1 - r'^2)) of the
        # profile equation as the library states it, over random states,
        # tiny r and (cp_sphere) r near pi/2
        fam = ProfileFamily(tag, n, 0.5)
        rng = np.random.default_rng(n)
        hi = math.pi / 2 if tag == "cp_sphere" else 30.0
        r = [rng.uniform(1e-6, hi, 2000), 10.0 ** rng.uniform(-300, -6, 100)]
        if tag == "cp_sphere":
            r.append(math.pi / 2 - 10.0 ** rng.uniform(-15, -3, 100))
        r = np.concatenate(r)
        u = rng.uniform(-30.0, 30.0, len(r))
        rhs = ode_rhs(fam)
        got = np.array([rhs(0.0, y) for y in zip(r, u)])
        assert np.array_equal(got[:, 0], [math.tanh(x) for x in u])
        np.testing.assert_allclose(got[:, 1], fam.second_derivative(r, 0.0), rtol=1e-14)
