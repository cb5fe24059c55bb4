import math

import numpy as np
import pytest

from lagmin.immersions import (
    ImmersionFamilySpec,
    InvalidArgument,
    build_immersion,
    make_seed,
    normal_position_angles,
    power_curve,
    real_geodesic_curve,
    seed_residuals,
    slice_at,
    ch_sphere_curve,
    cp_sphere_curve,
    wavy_control_curve,
)
from lagmin.model_spaces import herm_form, projective_distance, quadric_defect


@pytest.fixture(scope="module")
def thm1_n2():
    return build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(16, 16))


class TestSpecValidation:
    def test_requires_rho(self):
        with pytest.raises(InvalidArgument):
            ImmersionFamilySpec("thm1", 2)

    def test_requires_seed(self):
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0), grid=(4, 4))

    def test_seed_target_mismatch(self):
        seed = make_seed("tg_plane_c", 1)
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0), grid=(4, 4), seed=seed)

    def test_seed_dimension_mismatch(self):
        seed = make_seed("tg_sphere_cp", 2)
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0), grid=(4, 4), seed=seed)

    def test_detuned_only_thm1(self):
        with pytest.raises(InvalidArgument):
            ImmersionFamilySpec("thm2", 2, 1.0, detuned=True)

    def test_bad_custom_seed_rejected(self):
        import numpy as np
        from lagmin.immersions import SeedLagrangian, box_chart

        # potential with the wrong real part fails the quadric condition
        bad = SeedLagrangian(
            "custom", 1, "c", box_chart(1),
            lift=lambda X: np.atleast_2d(np.asarray(X)).astype(complex),
            potential=lambda X: (np.sum(np.atleast_2d(np.asarray(X)) ** 2, axis=-1)
                                 + 0.1).astype(complex),
        )
        with pytest.raises(InvalidArgument, match="Re f"):
            build_immersion(ImmersionFamilySpec("prop3c", 2, 1.0), grid=(4, 4), seed=bad)

        # a lift off the unit sphere fails the norm invariant
        bad2 = SeedLagrangian(
            "custom", 1, "cp", box_chart(1),
            lift=lambda X: 1.1 * np.exp(1j * np.atleast_2d(np.asarray(X)))
            .repeat(2, axis=-1),
        )
        with pytest.raises(InvalidArgument, match="quadric"):
            build_immersion(ImmersionFamilySpec("prop4a", 2), grid=(4, 4), seed=bad2)

    def test_domain_guards(self):
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("tg_sphere", 2), grid=(4, 4),
                            s_window=(-1.0, 1.0))
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("prop6b", 2, seed_kind="tg_sphere_cp"),
                            grid=(4, 4), s_window=(0.2, 2.0))
        with pytest.raises(InvalidArgument):
            build_immersion(
                ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=0),
                grid=(4, 4), s_window=(-1.0, 1.0))


class TestDisplayedValues:
    def test_thm1_initial_slice(self, thm1_n2):
        # at s = 0 the phases vanish and the lift is (sinh rho x, cosh rho)
        th = np.array([[0.4], [2.2]])
        x = thm1_n2.chart.to_model(th)
        got = thm1_n2.evaluate(np.zeros(2), th)
        expect = np.concatenate(
            [math.sinh(1.0) * x, math.cosh(1.0) * np.ones((2, 1))], axis=-1)
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_thm5_constant_solution_matches_clifford_form(self):
        n = 2
        rho = math.atan(math.sqrt(n))
        imm = build_immersion(ImmersionFamilySpec("thm5", n, rho), grid=(8, 8),
                              s_window=(-1.5, 1.5))
        s = np.array([0.0, 0.4, -0.9, 1.3])
        th = np.array([0.3, 1.1, 2.0, 4.4])
        x = np.stack([np.cos(th), np.sin(th)], axis=-1)
        got = imm.evaluate(s, th[:, None])
        tau = s / math.sqrt(n)  # the clean form uses a rescaled parameter
        expect = np.concatenate(
            [math.sqrt(n) * np.exp(-1j * tau)[:, None] * x,
             np.exp(1j * n * tau)[:, None]], axis=-1) / math.sqrt(n + 1)
        assert np.max(np.abs(got - expect)) < 1e-12

    @pytest.mark.parametrize("spec", [
        ImmersionFamilySpec("thm3", 2, 1.0),
        ImmersionFamilySpec("thm3", 3, 0.7),
        ImmersionFamilySpec("prop3c", 3, 1.0, seed_kind="tg_plane_c"),
    ])
    def test_horospherical_lift_matches_displayed_formula(self, spec):
        # e^{iF} (r eta, (1 + r^2 (f - 1 - 2iG))/2r, (1 + r^2 (f + 1 - 2iG))/2r)
        imm = build_immersion(spec, grid=(16, 9))
        s, X = imm.s_values, imm.x_grid[None]
        r = imm.profile.r_of(s)[:, None, None]
        F, G = imm.phases.a_of_s(s)[:, None, None], imm.phases.b_of_s(s)[:, None, None]
        f = np.sum(X**2, axis=-1, keepdims=True)
        w = f - 1.0 - 2j * G
        p, q = (1 + r * r * w) / (2 * r), (1 + r * r * (w + 2)) / (2 * r)
        expect = np.exp(1j * F) * np.concatenate([r * X, p, q], axis=-1)
        scale = np.max(np.abs(expect), axis=-1)
        assert np.max(np.max(np.abs(imm.samples - expect), axis=-1) / scale) <= 1e-14

    @pytest.mark.parametrize("fam,n,rho,seed", [
        ("thm1", 2, 1.0, None),
        ("thm2", 3, 0.5, None),
        ("thm3", 2, 1.0, None),
        ("thm5", 2, 0.8, None),
        ("prop3b", 2, 1.0, "tg_rh_ch"),
        ("prop4c", 3, None, "tg_plane_c"),
        ("prop6b", 2, None, "tg_sphere_cp"),
    ])
    def test_lifts_on_quadric(self, fam, n, rho, seed):
        imm = build_immersion(ImmersionFamilySpec(fam, n, rho, seed_kind=seed),
                              grid=(8, 8))
        flat = imm.samples.reshape(-1, imm.samples.shape[-1])
        assert np.max(quadric_defect(imm.ambient.space, flat)) < 1e-8
        assert imm.header["horizontal"] <= 1e-6


class TestSeeds:
    def test_tg_sphere_unit_norm(self):
        seed = make_seed("tg_sphere_cp", 2)
        X = np.array([[0.4, 1.0], [1.2, 5.0]])
        lift = seed.lift(X)
        assert np.max(np.abs(np.sum(np.abs(lift) ** 2, axis=-1) - 1.0)) < 1e-14

    def test_tg_plane_potential(self):
        seed = make_seed("tg_plane_c", 2)
        X = np.array([[0.3, -0.8], [1.1, 0.2]])
        f = seed.potential(X)
        assert np.max(np.abs(f.real - np.sum(X**2, axis=-1))) == 0.0
        assert np.max(np.abs(f.imag)) == 0.0

    def test_clifford_norm_split(self):
        seed = make_seed("clifford_cp", 2)
        lift = seed.lift(np.array([[0.7, 2.1]]))
        assert np.sum(np.abs(lift[0, :2]) ** 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert np.abs(lift[0, 2]) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_clifford_requires_dim2(self):
        with pytest.raises(InvalidArgument):
            make_seed("clifford_cp", 1)

    def test_custom_not_built_here(self):
        with pytest.raises(InvalidArgument):
            make_seed("custom", 2)

    @pytest.mark.parametrize("kind,dim", [
        ("tg_sphere_cp", 2), ("tg_rh_ch", 2), ("tg_plane_c", 2), ("clifford_cp", 2),
    ])
    def test_seed_residuals(self, kind, dim):
        seed = make_seed(kind, dim)
        rng = np.random.default_rng(0)
        X = seed.chart.lo + (seed.chart.hi - seed.chart.lo) * rng.uniform(0.1, 0.9, size=(12, dim))
        res = seed_residuals(seed, X)
        if seed.target == "c":
            assert res["re_f"] <= 1e-10
            assert res["potential"] <= 1e-5
        else:
            assert res["norm"] <= 1e-10


class TestComposedFamilies:
    def test_prop3a_with_tg_seed_reproduces_thm1(self, thm1_n2):
        imm = build_immersion(
            ImmersionFamilySpec("prop3a", 2, 1.0, seed_kind="tg_sphere_cp"), grid=(16, 16))
        space = imm.ambient.space
        a = thm1_n2.samples.reshape(-1, 3)
        b = imm.samples.reshape(-1, 3)
        worst = max(projective_distance(space, a[i], b[i]) for i in range(0, len(a), 7))
        assert worst <= 1e-8

    def test_prop4a_with_tg_seed_is_tg_sphere(self):
        tg = build_immersion(ImmersionFamilySpec("tg_sphere", 3), grid=(8, 8))
        p4 = build_immersion(
            ImmersionFamilySpec("prop4a", 3, seed_kind="tg_sphere_cp"), grid=(8, 8))
        assert np.max(np.abs(tg.samples - p4.samples)) < 1e-14

    def test_cn_product_power_curve(self):
        s = np.linspace(-2.5, 2.5, 301)
        for c in (0, 1):
            ss = s[s > 0.1] if c == 0 else s
            g = power_curve(ss, c, 3)
            assert np.max(np.abs(g**3 - (ss + 1j * c))) <= 1e-10
            # branch continuity
            assert np.max(np.abs(np.diff(g))) < 0.2

    def test_cn_product_lift(self):
        imm = build_immersion(
            ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=1),
            grid=(8, 8))
        s = np.array([0.5, -1.0])
        th = np.array([[0.3], [1.9]])
        got = imm.evaluate(s, th)
        g = power_curve(s, 1, 2)
        x = imm.chart.to_model(th)
        assert np.max(np.abs(got - g[:, None] * x)) < 1e-14


class TestSlices:
    def test_initial_slice(self, thm1_n2):
        rec = slice_at(thm1_n2, 0.0)
        assert rec.radius == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rec.subspace.matrix - np.eye(3))) < 1e-14
        center = rec.center.rep
        assert np.max(np.abs(center - np.array([0, 0, 1.0]))) == 0.0

    @pytest.mark.parametrize("s", [-1.0, 0.5, 2.0])
    def test_dephased_slices_real(self, thm1_n2, s):
        rec = slice_at(thm1_n2, s)
        assert rec.dephase_residual <= 1e-8
        assert rec.radius == pytest.approx(float(thm1_n2.profile.r_of(s)), abs=1e-12)

    def test_slices_meet_only_at_center(self, thm1_n2):
        # sample real points of the two real forms; only the center matches
        space = thm1_n2.ambient.space
        rng = np.random.default_rng(1)
        A = slice_at(thm1_n2, 0.4).subspace.matrix
        B = slice_at(thm1_n2, 1.4).subspace.matrix
        center = np.array([0, 0, 1.0], dtype=complex)
        assert projective_distance(space, center @ A, center @ B) < 1e-12
        for _ in range(40):
            y = rng.normal(size=(2, 2)) * 1.5
            v = np.c_[y, np.sqrt(1.0 + np.sum(y * y, axis=-1, keepdims=True))]
            d = projective_distance(space, v[0].astype(complex) @ A,
                                    v[1].astype(complex) @ B)
            assert d > 1e-3

    def test_wrong_family(self):
        imm = build_immersion(ImmersionFamilySpec("thm2", 2, 1.0), grid=(4, 4))
        with pytest.raises(InvalidArgument):
            slice_at(imm, 0.0)


class TestNormalPosition:
    def test_components_equal(self, thm1_n2):
        th = normal_position_angles(thm1_n2.phases, 0.0, 1.0)
        assert len(th) == 2
        assert np.ptp(th) <= 1e-12
        assert np.all((0 < th) & (th < math.pi))

    def test_swap_negates_before_reduction(self, thm1_n2):
        ph = thm1_n2.phases
        d1 = float(ph.a_of_s(1.0) - ph.a_of_s(0.0)) - float(ph.b_of_s(1.0) - ph.b_of_s(0.0))
        d2 = float(ph.a_of_s(0.0) - ph.a_of_s(1.0)) - float(ph.b_of_s(0.0) - ph.b_of_s(1.0))
        assert d1 == pytest.approx(-d2, rel=1e-14)
        th = normal_position_angles(thm1_n2.phases, 0.0, 1.0)
        th_swapped = normal_position_angles(thm1_n2.phases, 1.0, 0.0)
        assert th_swapped[0] == pytest.approx(math.pi - th[0], rel=1e-10)

    def test_continuity_to_zero(self, thm1_n2):
        th = normal_position_angles(thm1_n2.phases, 0.5, 0.5 + 1e-6)
        assert min(th[0], math.pi - th[0]) < 1e-5

    def test_degenerate_pair(self, thm1_n2):
        with pytest.raises(InvalidArgument):
            normal_position_angles(thm1_n2.phases, 0.5, 0.5)


class TestLegendreCurves:
    def test_ch_sphere_curve_invariants(self):
        s = np.linspace(-2, 2, 201)
        curve = ch_sphere_curve(2, 1.0, s)
        res = curve.invariant_residuals()
        assert res["norm"] <= 1e-10
        assert res["horizontal"] <= 1e-8
        # arc-length parametrization
        speed = herm_form(curve.space, curve.d1, curve.d1).real
        assert np.max(np.abs(speed - 1.0)) < 1e-9

    @pytest.mark.parametrize("fam,curve,n,rho", [
        ("thm1", ch_sphere_curve, 2, 1.0), ("thm1", ch_sphere_curve, 3, 0.5),
        ("thm5", cp_sphere_curve, 2, 0.6),
    ])
    def test_profile_curve_is_first_and_last_lift_columns(self, fam, curve, n, rho):
        # at B = e_1 the lift is (gamma_1, 0, ..., 0, gamma_2); the same
        # profile window and tolerance give the same profile
        s = np.linspace(-2.0, 2.0, 41)
        imm = build_immersion(ImmersionFamilySpec(fam, n, rho), grid=(4, 4),
                              s_window=(-2.0, 2.0), ode_tol=1e-11)
        X = np.zeros((len(s), n - 1))
        assert np.array_equal(imm.chart.to_model(X[:1]), np.eye(1, n))
        lift = imm.evaluate(s, X)
        gamma = curve(n, rho, s).gamma
        assert np.array_equal(gamma, lift[:, [0, -1]])
        assert np.max(np.abs(lift[:, 1:-1])) == 0.0

    def test_wavy_curve_invariants(self):
        s = np.linspace(-2, 2, 201)
        res = wavy_control_curve(s).invariant_residuals()
        assert res["norm"] <= 1e-10
        assert res["horizontal"] <= 1e-8

    def test_geodesic_curve(self):
        s = np.linspace(0.3, 2.0, 101)
        curve = real_geodesic_curve(s)
        assert curve.invariant_residuals()["horizontal"] == 0.0


class TestDetunedControl:
    def test_detuned_still_legendrian(self):
        imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True),
                              grid=(8, 8))
        assert imm.header["horizontal"] <= 1e-6
        assert imm.header["quadric"] <= 1e-8
