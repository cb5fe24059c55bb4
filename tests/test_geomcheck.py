import math

import numpy as np
import pytest

from lagmin import geomcheck as gc
from lagmin.immersions import (
    FAMILY_TAGS,
    Ambient,
    ImmersionFamilySpec,
    SampledImmersion,
    box_chart,
    build_immersion,
    real_geodesic_curve,
    ch_sphere_curve,
    wavy_control_curve,
)
from lagmin.model_spaces import (
    InvalidArgument,
    embed_isometry,
    projective_distance,
    random_euclid,
    random_so,
    random_so1,
)
from lagmin import fd


@pytest.fixture(scope="module")
def thm1():
    return build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(12, 12))


@pytest.fixture(scope="module")
def thm1_jets(thm1):
    return gc.jet(thm1, thm1.grid_xi())


def _complex_curve_immersion():
    """A holomorphic disc in CH^2 lifted to the quadric: not Lagrangian."""
    spec = ImmersionFamilySpec("thm1", 2, 1.0)  # tag unused by the residuals

    def evaluate(s, X):
        s = np.asarray(s, dtype=float)
        t = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
        w = s + 1j * t
        scale = 1.0 / np.sqrt(np.cos(2.0 * t))
        z = np.stack([np.sinh(w), np.zeros_like(w), np.cosh(w)], axis=-1)
        return z * scale[:, None]

    s_values = np.linspace(-0.5, 0.5, 5)
    x_grid = np.linspace(-0.4, 0.4, 5)[:, None]
    si = np.repeat(s_values, 5)
    xi = np.tile(x_grid, (5, 1))
    samples = evaluate(si, xi).reshape(5, 5, 3)
    return SampledImmersion(
        spec=spec, ambient=Ambient("ch", 2), chart=box_chart(1),
        s_values=s_values, x_grid=x_grid, samples=samples, evaluate=evaluate,
    )


class TestJets:
    def test_mixed_partial_symmetry_nested(self, thm1):
        # cross-check the symmetric cross stencil against nested first
        # differences taken in both orders
        xi = np.array([[0.3, 1.1]])
        h = 1e-3
        jets = gc.jet(thm1, xi, h=h)

        def d_theta(Xi):
            return fd.first_partials(thm1.evaluate_xi, Xi, h)[:, 1, :]

        up = d_theta(xi + np.array([[h, 0.0]]))
        dn = d_theta(xi - np.array([[h, 0.0]]))
        nested = (up - dn) / (2 * h)
        scale = np.max(np.abs(jets.d1))
        assert np.max(np.abs(jets.d2[0, 0, 1] - nested[0])) <= 1e-5 * scale

    def test_first_derivative_order_two_with_3pt(self):
        imm = build_immersion(ImmersionFamilySpec("tg_sphere", 2), grid=(4, 4))
        xi = np.array([[0.8, 1.3]])
        x = imm.chart.to_model(xi[:, 1:])
        exact = np.concatenate([math.cosh(0.8) * x, [[math.sinh(0.8)]]], axis=-1)
        errs = []
        for h in (2e-3, 1e-3):
            d1 = fd.first_partials(imm.evaluate_xi, xi, h, five_point=False)
            errs.append(np.max(np.abs(d1[0, 0] - exact[0])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_flat_factor_second_partials_analytic(self):
        # the horospherical lift is quadratic in x, so x-second-partials are
        # exactly the ambient formula e^s (0, delta, delta)
        imm = build_immersion(ImmersionFamilySpec("tg_horo", 3), grid=(4, 4))
        xi = np.array([[0.4, 0.3, -0.2]])
        jets = gc.jet(imm, xi)
        expect = math.exp(0.4) * np.array([0, 0, 1.0, 1.0], dtype=complex)
        assert np.max(np.abs(jets.d2[0, 1, 1] - expect)) <= 1e-6
        assert np.max(np.abs(jets.d2[0, 1, 2])) <= 1e-6

    def test_out_of_domain(self, thm1):
        with pytest.raises(gc.OutOfDomain):
            gc.jet(thm1, np.array([[thm1.profile.s_max, 0.5]]))


class TestMetric:
    def test_thm1_at_origin(self, thm1):
        jets = gc.jet(thm1, np.array([[0.0, 0.7]]))
        g = gc.induced_metric(thm1, jets)
        expect = np.diag([1.0, math.sinh(1.0) ** 2])
        assert np.max(np.abs(g[0] - expect)) < 1e-8

    def test_thm3_warped_euclidean(self):
        imm = build_immersion(ImmersionFamilySpec("thm3", 3, 1.0), grid=(4, 4))
        xi = np.array([[0.6, 0.2, -0.4]])
        g = gc.induced_metric(imm, gc.jet(imm, xi))
        r = float(imm.profile.r_of(0.6))
        assert np.max(np.abs(g[0] - np.diag([1.0, r * r, r * r]))) < 1e-6 * r * r

    def test_tg_tube_unit_speed(self):
        imm = build_immersion(ImmersionFamilySpec("tg_tube", 2), grid=(4, 4))
        g = gc.induced_metric(imm, gc.jet(imm, np.array([[0.9, 0.5]])))
        assert g[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_metric_residual_families(self, thm1, thm1_jets):
        assert gc.metric_residual(thm1, thm1_jets) <= 1e-6


class TestLagrangian:
    def test_real_lift_exactly_zero(self):
        imm = build_immersion(ImmersionFamilySpec("tg_tube", 2), grid=(6, 6))
        jets = gc.jet(imm, imm.grid_xi())
        assert gc.lagrangian_residual(imm, jets) <= 1e-12

    def test_families_small(self, thm1, thm1_jets):
        assert gc.lagrangian_residual(thm1, thm1_jets) <= 1e-6

    def test_complex_curve_is_not_lagrangian(self):
        imm = _complex_curve_immersion()
        jets = gc.jet(imm, imm.grid_xi())
        assert gc.lagrangian_residual(imm, jets) >= 0.5
        with pytest.raises(gc.NotLagrangianError):
            gc.second_fundamental_form(imm, jets)


class TestSecondFundamentalForm:
    def test_thm1_closed_form(self, thm1, thm1_jets):
        res = gc.sff_residuals(thm1, thm1_jets)
        assert res["component_rel"] <= 1e-3
        assert res["zero_component"] <= 1e-3
        assert res["sigma_sq_rel"] <= 1e-3

    def test_component_signs(self, thm1):
        jets = gc.jet(thm1, np.array([[0.5, 1.0]]))
        sff = gc.second_fundamental_form(thm1, jets)
        n = 2
        r = float(thm1.profile.r_of(0.5))
        F = thm1.profile.family.phase_constant / math.sinh(r) ** (n + 1)
        assert sff.coeffs[0, 0, 0, 0] == pytest.approx(-(n - 1) * F, rel=1e-3)
        assert sff.coeffs[0, 0, 1, 1] == pytest.approx(F, rel=1e-3)
        assert sff.coeffs[0, 1, 1, 0] == pytest.approx(F, rel=1e-3)

    def test_totally_geodesic_zero(self):
        imm = build_immersion(ImmersionFamilySpec("tg_horo", 2), grid=(6, 6))
        sff = gc.second_fundamental_form(imm, gc.jet(imm, imm.grid_xi()))
        assert np.max(np.abs(sff.coeffs)) <= 1e-5

    @pytest.mark.parametrize("fam,seed", [
        ("prop4a", "tg_sphere_cp"), ("prop4b", "tg_rh_ch"), ("prop4c", "tg_plane_c"),
    ])
    def test_geodesic_products_over_tg_seeds(self, fam, seed):
        # with totally geodesic seeds the full product map is totally geodesic
        imm = build_immersion(ImmersionFamilySpec(fam, 2, seed_kind=seed), grid=(6, 6))
        sff = gc.second_fundamental_form(imm, gc.jet(imm, imm.grid_xi()))
        assert np.max(np.abs(sff.coeffs)) <= 1e-5

    def test_symmetry(self, thm1, thm1_jets):
        sff = gc.second_fundamental_form(thm1, thm1_jets)
        assert sff.symmetry_residual() <= 1e-4

    def test_minimality_and_detuned_control(self, thm1, thm1_jets):
        assert gc.minimality_residual(thm1, thm1_jets) <= 5e-4
        bad = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True),
                              grid=(8, 8))
        jets = gc.jet(bad, bad.grid_xi())
        assert gc.minimality_residual(bad, jets) >= 1e-2

    @pytest.mark.parametrize("spec", [
        # closed-form complex lifts: the constant-profile cp family (its
        # splines are exact, no knot wiggle) and the flat product; real
        # totally geodesic lifts have identically zero J-components, so
        # they carry no convergence signal
        ImmersionFamilySpec("thm5", 2, math.atan(math.sqrt(2.0))),
        ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=1),
    ])
    def test_mean_curvature_converges_at_order_two(self, spec):
        imm = build_immersion(spec, grid=(5, 5))
        xi = imm.grid_xi()
        hs = (4e-3, 2e-3, 1e-3)
        vals = []
        for h in hs:
            # whole-lift differences: the stencil order is what is under test
            jets = gc.JetBatch(xi, *fd.jet_partials(imm.evaluate_xi, xi, h, False), h)
            sff = gc.second_fundamental_form(imm, jets)
            vals.append(float(np.max(sff.mean_curvature_norm)))
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= 1.7


# one spec per family tag (the seeded ones over a seed of the right target),
# plus the detuned thm1 control
_EVERY_FAMILY = [
    ImmersionFamilySpec("thm1", 3, 1.0),
    ImmersionFamilySpec("thm1", 2, 1.0, detuned=True),
    ImmersionFamilySpec("thm2", 3, 1.0),
    ImmersionFamilySpec("thm3", 3, 1.0),
    ImmersionFamilySpec("thm5", 3, 0.6),
    ImmersionFamilySpec("tg_sphere", 3),
    ImmersionFamilySpec("tg_tube", 3),
    ImmersionFamilySpec("tg_horo", 3),
    ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"),
    ImmersionFamilySpec("prop3b", 3, 1.0, seed_kind="tg_rh_ch"),
    ImmersionFamilySpec("prop3c", 3, 1.0, seed_kind="tg_plane_c"),
    ImmersionFamilySpec("prop4a", 3, seed_kind="tg_sphere_cp"),
    ImmersionFamilySpec("prop4b", 3, seed_kind="tg_rh_ch"),
    ImmersionFamilySpec("prop4c", 3, seed_kind="tg_plane_c"),
    ImmersionFamilySpec("prop6a", 3, 0.6, seed_kind="clifford_cp"),
    ImmersionFamilySpec("prop6b", 3, seed_kind="clifford_cp"),
    ImmersionFamilySpec("cn_product", 3, seed_kind="clifford_cp", c=1),
    ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=0),
]


class TestProductJets:
    def test_every_family_tag_covered(self):
        assert {spec.family for spec in _EVERY_FAMILY} == set(FAMILY_TAGS)

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda sp: "-".join(
        filter(None, (sp.family, sp.seed_kind, "detuned" * sp.detuned))))
    def test_matches_whole_lift_differences(self, spec):
        imm = build_immersion(spec, grid=(11, 9))
        xi = imm.grid_xi()
        xi = xi[np.abs(xi[:, 0]) <= 1.0]
        h = 1e-3
        value, d1, d2 = imm.product_jet(xi, h)
        fv, f1, f2 = fd.jet_partials(imm.evaluate_xi, xi, h)
        scale = np.max(np.abs(fv))
        assert np.max(np.abs(value - fv)) <= 1e-13 * scale
        # 5-point first partials are O(h^4)
        assert np.max(np.abs(d1 - f1)) <= 1e-8 * scale
        # the mixed cross stencil is O(h^2) and the whole-lift stencil sees
        # the profile spline's knot wiggle (knots every 2h)
        assert np.max(np.abs(d2 - f2)) <= 1e-4 * scale

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda sp: "-".join(
        filter(None, (sp.family, sp.seed_kind, "detuned" * sp.detuned))))
    def test_samples_evaluate_and_jet_value_bitwise(self, spec):
        # one factorization feeds all three, down to the sign of zero
        imm = build_immersion(spec, grid=(11, 9))
        xi = imm.grid_xi()
        flat = imm.samples.reshape(len(xi), -1)
        assert flat.tobytes() == imm.evaluate_xi(xi).tobytes()
        assert flat.tobytes() == imm.product_jet(xi, gc.DEFAULT_FD_STEP)[0].tobytes()

    def test_hand_built_immersion_falls_back_to_differences(self):
        imm = _complex_curve_immersion()
        xi = imm.grid_xi()
        jets = gc.jet(imm, xi)
        value, d1, d2 = fd.jet_partials(imm.evaluate_xi, xi, gc.DEFAULT_FD_STEP)
        assert np.array_equal(jets.d2, d2)
        # the base value the stored-sample consistency check reads
        assert np.array_equal(jets.value, imm.samples.reshape(len(xi), -1))

    def test_run_checks_is_one_geometry_pass(self, thm1, monkeypatch):
        calls = {"jet": 0, "sff": 0, "fd": [], "evaluate_xi": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def fd_spy(evaluate, *args, **kwargs):
            calls["fd"].append(evaluate)
            return jet_partials(evaluate, *args, **kwargs)

        jet_partials = fd.jet_partials
        monkeypatch.setattr(gc, "jet", counted("jet", gc.jet))
        monkeypatch.setattr(gc, "second_fundamental_form",
                            counted("sff", gc.second_fundamental_form))
        monkeypatch.setattr(fd, "jet_partials", fd_spy)
        monkeypatch.setattr(SampledImmersion, "evaluate_xi",
                            counted("evaluate_xi", SampledImmersion.evaluate_xi))
        report = gc.run_checks(thm1)
        assert report.verdict
        assert calls["jet"] == 1
        assert calls["sff"] == 1
        # sample consistency reads the jet's value: no second lift evaluation
        assert calls["evaluate_xi"] == 0
        # only the block is differenced, never the whole lift
        assert calls["fd"] and thm1.evaluate_xi not in calls["fd"]


class TestDomainRegressions:
    """Default-setting thm1 builds that failed the sff check on correct
    geometry before the jets became product-rule jets."""

    @pytest.mark.parametrize("n,rho", [(3, 0.3), (3, 2.0), (4, 1.0), (5, 1.0)])
    def test_thm1_passes_every_check(self, n, rho):
        report = gc.run_checks(build_immersion(ImmersionFamilySpec("thm1", n, rho)))
        assert report.verdict, [c for c in report.checks if not c["pass"]]

    @pytest.mark.xfail(strict=True, reason=(
        "known limit: at rho = 1e-3 the curvature F ~ 1e-9 cancels against O(1) "
        "lift coordinates when the SFF is extracted; sff residual about 1e-2"))
    def test_thm1_tiny_rho(self):
        report = gc.run_checks(build_immersion(ImmersionFamilySpec("thm1", 3, 1e-3)))
        assert report.verdict


class TestInvariance:
    def test_identity_element_exact_zero(self, thm1):
        n = 2
        mat = embed_isometry("so_n", np.eye(n), n).matrix
        s = thm1.s_values[:3]
        xm = thm1.chart.to_model(thm1.x_grid[:3])
        left = thm1.model_evaluate(s, xm) @ mat
        right = thm1.model_evaluate(s, xm)
        assert max(projective_distance(thm1.ambient.space, left[i], right[i])
                   for i in range(3)) == 0.0

    def test_matched_group(self, thm1):
        assert gc.invariance_residual(thm1, "so_n", k=6) <= 1e-8

    def test_mismatched_group(self, thm1):
        assert gc.invariance_residual(thm1, "so1_n", k=6) >= 0.1

    def test_seeded_family_has_no_model_action(self):
        imm = build_immersion(
            ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"), grid=(4, 4))
        with pytest.raises(InvalidArgument):
            gc.invariance_residual(imm, "so_n", k=2)

    @pytest.mark.parametrize("fam,grp", [
        ("tg_sphere", "so_n"), ("tg_tube", "so1_n"), ("tg_horo", "euclid_n"),
    ])
    def test_totally_geodesic_families(self, fam, grp):
        imm = build_immersion(ImmersionFamilySpec(fam, 3), grid=(6, 6))
        assert gc.invariance_residual(imm, grp, k=6) <= 1e-8

    @pytest.mark.parametrize("fam,grp", [
        ("thm1", "so_n"), ("thm2", "so1_n"), ("thm3", "euclid_n"), ("thm1", "so1_n"),
    ])
    def test_matches_pairwise_loop_bitwise(self, fam, grp):
        # the same seeded points and group elements, compared one pair at a time
        imm = build_immersion(ImmersionFamilySpec(fam, 3, 1.0), grid=(8, 9))
        k, n, space = 7, 3, imm.ambient.space
        rng = np.random.default_rng(5)
        idx = rng.integers(0, len(imm.s_values) * len(imm.x_grid), size=k)
        s_pts = np.repeat(imm.s_values, len(imm.x_grid))[idx]
        x_model = imm.chart.to_model(np.tile(imm.x_grid, (len(imm.s_values), 1))[idx])
        worst = 0.0
        for _ in range(k):
            if grp == "euclid_n":
                A, a = random_euclid(rng, n)
                moved, mat = x_model @ A + a, embed_isometry(grp, (A, a), n).matrix
            else:
                A = random_so(rng, n) if grp == "so_n" else random_so1(rng, n)
                moved, mat = x_model @ A, embed_isometry(grp, A, n).matrix
            left = imm.model_evaluate(s_pts, x_model) @ mat
            right = imm.model_evaluate(s_pts, moved)
            for i in range(k):
                worst = max(worst, projective_distance(space, left[i], right[i]))
        assert gc.invariance_residual(imm, grp, k=k, rng_seed=5) == worst


class TestLegendreFunctional:
    def test_ch_sphere_curve_vanishes(self):
        s = np.linspace(-2, 2, 301)
        for n in (2, 3):
            a = gc.legendre_functional(ch_sphere_curve(n, 1.0, s), n)
            assert np.max(np.abs(a)) <= 1e-9

    def test_real_geodesic_exact_zero(self):
        s = np.linspace(0.3, 2.3, 101)
        a = gc.legendre_functional(real_geodesic_curve(s), 2)
        assert np.max(np.abs(a)) == 0.0

    def test_wavy_control_nonzero(self):
        s = np.linspace(-2, 2, 301)
        a = gc.legendre_functional(wavy_control_curve(s), 2)
        assert np.max(np.abs(a)) >= 1e-2

    def test_spherical_profile_curve_vanishes(self):
        from lagmin.immersions import cp_sphere_curve
        s = np.linspace(-2, 2, 301)
        curve = cp_sphere_curve(2, 0.6, s)
        assert curve.invariant_residuals()["horizontal"] <= 1e-10
        a = gc.legendre_functional(curve, 2)
        assert np.max(np.abs(a)) <= 1e-9

    def test_vanishing_gamma1_guard(self):
        s = np.linspace(-0.5, 0.5, 51)  # sinh s vanishes at 0
        with pytest.raises(Exception, match="gamma_1"):
            gc.legendre_functional(real_geodesic_curve(s), 2)


class TestPowerCurveCurvature:
    def test_flat_line_image(self):
        s = np.linspace(0.4, 3.0, 1501)
        from lagmin.immersions import power_curve
        _, k = gc.power_curve_curvature(power_curve(s, 1, 2), s, 2)
        assert np.max(np.abs(k)) <= 1e-6

    def test_unit_circle(self):
        s = np.linspace(0.0, 2 * math.pi, 2001)
        _, k = gc.power_curve_curvature(np.exp(1j * s), s, 2)
        assert np.max(np.abs(k - 1.0)) <= 1e-6

    def test_radial_line(self):
        s = np.linspace(0.5, 2.5, 1001)
        gamma = s * np.exp(1j * 0.7)
        _, k = gc.power_curve_curvature(gamma, s, 3)
        assert np.max(np.abs(k)) <= 1e-6

    def test_singular_input(self):
        s = np.linspace(-1, 1, 101)
        with pytest.raises(InvalidArgument):
            gc.power_curve_curvature(s.astype(complex), s, 2)


class TestRunChecks:
    def test_thm1_all_pass(self, thm1):
        report = gc.run_checks(thm1)
        assert report.verdict
        names = {c["name"] for c in report.checks}
        assert {"lagrangian", "horizontal", "minimal", "metric", "sff",
                "invariance", "symmetry"} <= names

    def test_unknown_check(self, thm1):
        with pytest.raises(InvalidArgument):
            gc.run_checks(thm1, checks=("lagrangian", "frobnicate"))

    def test_selected_checks_only(self, thm1):
        report = gc.run_checks(thm1, checks=("minimal",))
        assert [c["name"] for c in report.checks] == ["minimal"]
        assert report.verdict
