import math
from itertools import permutations

import numpy as np
import pytest

from lagmin import geomcheck as gc
from lagmin.immersions import (
    FAMILY_TAGS,
    Ambient,
    ImmersionFamilySpec,
    ProductJet,
    SampledImmersion,
    SeedLagrangian,
    box_chart,
    build_immersion,
    grid_order,
    jet_rows,
    make_seed,
    product_xi,
    real_geodesic_curve,
    ch_sphere_curve,
    wavy_control_curve,
    _mul_jet,
    _phase_jet,
)
from lagmin.model_spaces import (
    InvalidArgument,
    PreconditionViolation,
    embed_isometry,
    projective_distance,
    quadric_defect,
    random_euclid,
    random_so,
    random_so1,
    relative_quadric_defect,
)
from lagmin import fd

from helpers import curve_invariant_residuals, horizontal_project


@pytest.fixture(scope="module")
def thm1():
    return build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(12, 12))


@pytest.fixture(scope="module")
def thm1_jets(thm1):
    return gc.jet(thm1, thm1.s_values, thm1.x_grid)


@pytest.fixture(scope="module")
def thm1_fb(thm1, thm1_jets):
    return gc.frame_batch(thm1, thm1_jets)


@pytest.fixture(scope="module")
def thm1_sff(thm1, thm1_fb):
    return gc.second_fundamental_form(thm1, thm1_fb)


def _frames(imm, s=None, X=None):
    """The FrameBatch of ``imm`` on the product of s and X (its grid by default)."""
    s = imm.s_values if s is None else s
    X = imm.x_grid if X is None else X
    return gc.frame_batch(imm, gc.jet(imm, s, X))


def _sff(imm, s=None, X=None):
    return gc.second_fundamental_form(imm, _frames(imm, s, X))


def _chol_inv(fb):
    """The per-point frame T = L_G(x)^-1 Lambda(s) of a FrameBatch, the
    inverse of the factor L = Lambda^-1 L_G of g, as (S*M, D, D) rows."""
    T = np.moveaxis(fb.block_inv, 0, -1)[:, :, None]  # (D, D, 1, M)
    return grid_order(T * fb.scale[:, :, None])


def _stacked(pj: ProductJet):
    """(value, d1, d2) of a product jet as (S*M, ...) rows in ``grid_xi``
    order, broadcast straight from its fields alpha, delta and block (not
    through ``ProductJet.factors``): the stacked route the factored Gram is
    checked against."""
    alpha, delta, (b0, b1, b2) = pj.alpha, pj.delta, pj.block
    (S, C), (M, d) = alpha.shape[1:], b1.shape[:2]
    D = 1 + d

    def in_s(k):  # alpha^(k) beta + delta^(k), (S, M, C)
        z = alpha[k][:, None] * b0
        return z if delta is None else z + delta[k][:, None]

    d1 = np.empty((S, M, D, C), dtype=complex)
    d1[:, :, 0] = in_s(1)
    d1[:, :, 1:] = alpha[0][:, None, None] * b1
    d2 = np.empty((S, M, D, D, C), dtype=complex)
    d2[:, :, 0, 0] = in_s(2)
    d2[:, :, 0, 1:] = d2[:, :, 1:, 0] = alpha[1][:, None, None] * b1
    d2[:, :, 1:, 1:] = alpha[0][:, None, None, None] * b2
    return in_s(0).reshape(-1, C), d1.reshape(-1, D, C), d2.reshape(-1, D, D, C)


def _stacked_jet(imm, s, X):
    return _stacked(imm.jet_factors(s, X))


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


def _sheared(imm: SampledImmersion, k: float) -> SampledImmersion:
    """``imm`` in the sheared chart x -> x + k s e_last, hand-built without a
    product jet, so its jets are whole-lift differences."""

    def evaluate(s, X):
        X = np.array(np.atleast_2d(X), dtype=float)
        X[:, -1] += k * np.asarray(s, dtype=float)
        return imm.evaluate(s, X)

    xi = imm.grid_xi()
    samples = evaluate(xi[:, 0], xi[:, 1:]).reshape(imm.samples.shape)
    return SampledImmersion(
        spec=imm.spec, ambient=imm.ambient, chart=imm.chart, s_values=imm.s_values,
        x_grid=imm.x_grid, samples=samples, evaluate=evaluate, profile=imm.profile,
    )


class TestJets:
    def test_mixed_partial_symmetry_nested(self, thm1):
        # cross-check the symmetric cross stencil against nested first
        # differences taken in both orders
        xi = np.array([[0.3, 1.1]])
        h = 1e-3
        _, d1, d2 = _stacked_jet(thm1, [0.3], [[1.1]])

        def d_theta(Xi):
            return fd.first_partials(thm1.evaluate_xi, Xi, h)[:, 1, :]

        up = d_theta(xi + np.array([[h, 0.0]]))
        dn = d_theta(xi - np.array([[h, 0.0]]))
        nested = (up - dn) / (2 * h)
        scale = np.max(np.abs(d1))
        assert np.max(np.abs(d2[0, 0, 1] - nested[0])) <= 1e-5 * scale

    def test_first_derivative_order_four(self):
        # steps large enough that the truncation error, not roundoff, shows
        imm = build_immersion(ImmersionFamilySpec("tg_sphere", 2), grid=(4, 4))
        xi = np.array([[0.8, 1.3]])
        x = imm.chart.to_model(xi[:, 1:])
        exact = np.concatenate([math.cosh(0.8) * x, [[math.sinh(0.8)]]], axis=-1)
        errs = []
        for h in (0.1, 0.05):
            d1 = fd.first_partials(imm.evaluate_xi, xi, h)
            errs.append(np.max(np.abs(d1[0, 0] - exact[0])))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.05)

    def test_flat_factor_second_partials_analytic(self):
        # the horospherical lift is quadratic in x, so x-second-partials are
        # exactly the ambient formula e^s (0, delta, delta)
        imm = build_immersion(ImmersionFamilySpec("tg_horo", 3), grid=(4, 4))
        _, _, d2 = _stacked_jet(imm, [0.4], [[0.3, -0.2]])
        expect = math.exp(0.4) * np.array([0, 0, 1.0, 1.0], dtype=complex)
        assert np.max(np.abs(d2[0, 1, 1] - expect)) <= 1e-6
        assert np.max(np.abs(d2[0, 1, 2])) <= 1e-6

    def test_out_of_domain(self, thm1):
        with pytest.raises(gc.OutOfDomain):
            gc.jet(thm1, [thm1.profile.s_max], [[0.5]])


class TestMetric:
    def test_thm1_at_origin(self, thm1):
        g = gc.induced_metric(thm1, _frames(thm1, [0.0], [[0.7]]))
        expect = np.diag([1.0, math.sinh(1.0) ** 2])
        assert np.max(np.abs(g[0] - expect)) < 1e-8

    def test_thm3_warped_euclidean(self):
        imm = build_immersion(ImmersionFamilySpec("thm3", 3, 1.0), grid=(4, 4))
        g = gc.induced_metric(imm, _frames(imm, [0.6], [[0.2, -0.4]]))
        r = float(imm.profile.r_of(0.6))
        assert np.max(np.abs(g[0] - np.diag([1.0, r * r, r * r]))) < 1e-6 * r * r

    def test_tg_tube_unit_speed(self):
        imm = build_immersion(ImmersionFamilySpec("tg_tube", 2), grid=(4, 4))
        g = gc.induced_metric(imm, _frames(imm, [0.9], [[0.5]]))
        assert g[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_metric_residual_families(self, thm1, thm1_fb):
        assert gc.metric_residual(thm1, thm1_fb) <= 1e-6


class TestFrame:
    @pytest.mark.parametrize("D", range(1, 9))
    def test_lower_inverse_by_forward_substitution(self, D):
        rng = np.random.default_rng(D)
        A = rng.normal(size=(200, D, D))
        g = A @ A.swapaxes(1, 2) + 0.1 * np.eye(D)  # random SPD metrics
        L = np.linalg.cholesky(g)
        T = gc._lower_inverse(L)
        assert np.max(np.abs(L @ T - np.eye(D))) <= 1e-13
        ref = np.linalg.inv(L)
        rel = np.max(np.abs(T - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
        assert np.max(rel) <= 1e-13
        assert np.array_equal(np.triu(T, 1), np.zeros_like(T))

    @pytest.mark.parametrize("n", [2, 3])
    def test_off_diagonal_metric_end_to_end(self, n):
        # no family's chart metric has off-diagonal entries; the sheared
        # chart gives g_{0,last} above 10, so a wrong off-diagonal of the
        # frame shows in the curvature of an unchanged immersion
        imm = build_immersion(ImmersionFamilySpec("thm1", n, 1.0), grid=(9, 9),
                              s_window=(-1.5, 1.5))
        sheared = _sheared(imm, 0.7)
        fb = _frames(sheared)
        assert np.max(np.abs(gc.induced_metric(sheared, fb)[:, 0, -1])) >= 10.0
        sff = gc.second_fundamental_form(sheared, fb)
        assert gc.minimality_residual(sheared, sff) <= gc.TOLERANCES["minimal"]
        # |sigma|^2 of thm1 depends on s alone
        got, ref = grid_order(sff.sigma_sq), grid_order(_sff(imm).sigma_sq)
        assert np.max(np.abs(got - ref) / ref) <= 1e-4

    def test_degenerate_metric_raises(self, thm1):
        # a vanishing chart partial: g is singular, so there is no frame
        value, d1, d2 = _stacked_jet(thm1, thm1.s_values, thm1.x_grid)
        d1[:, 1] = 0.0
        jets = gc.JetBatch.from_partials(thm1.ambient.space, thm1.grid_xi(), value, d1, d2)
        fb = gc.frame_batch(thm1, jets)
        assert fb.block_chol is None and fb.block_inv is None
        with pytest.raises(gc.DegeneracyError):
            gc.induced_metric(thm1, fb)
        with pytest.raises(gc.DegeneracyError):
            gc.second_fundamental_form(thm1, fb)


class TestOneGeometryLayer:
    @pytest.mark.parametrize("spec", [
        ImmersionFamilySpec("thm1", 3, 1.0),
        ImmersionFamilySpec("thm2", 2, 1.0),
        ImmersionFamilySpec("thm5", 3, 0.6),
        ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"),
        ImmersionFamilySpec("prop6b", 3, seed_kind="clifford_cp"),
    ], ids=lambda spec: _spec_id(spec))
    def test_build_header_is_the_verify_residual(self, spec):
        # the header and verify pair the same partials with the same
        # model_spaces functions, so they agree bit for bit
        imm = build_immersion(spec, grid=(17, 16))
        assert imm.header["horizontal"] == gc.horizontality_residual(imm, _frames(imm))

    def test_frame_batch_takes_wide_windows(self):
        # far out the lift is cosh-sized: its absolute quadric defect passes
        # horizontal_project's 1e-10 while the relative one is roundoff, so
        # frame_batch checks no absolute precondition
        imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(33, 8),
                              s_window=(-8.0, 8.0))
        fb = _frames(imm)
        z, space = fb.jets.value, imm.ambient.space
        assert np.max(quadric_defect(space, z)) > 1e-10
        assert np.max(relative_quadric_defect(space, z)) <= 1e-15
        d1 = _stacked_jet(imm, imm.s_values, imm.x_grid)[1]
        with pytest.raises(PreconditionViolation):
            horizontal_project(space, z, d1[:, 0])
        assert gc.horizontality_residual(imm, fb) <= gc.TOLERANCES["horizontal"]
        assert gc.lagrangian_residual(imm, fb) <= gc.TOLERANCES["lagrangian"]


class TestLagrangian:
    def test_pointwise_reads_only_the_off_diagonal(self):
        # Omega is skew: a computed diagonal is roundoff and scores nothing,
        # while an off-diagonal entry scores |Omega_ij| / sqrt(g_ii g_jj)
        g = np.array([np.diag([4.0, 1.0, 9.0])] * 2)
        omega = np.array([np.diag([1e-3, -2e-3, 5e-4])] * 2)
        omega[1, 0, 2], omega[1, 2, 0] = 0.3, -0.3
        g, omega = g.transpose(1, 2, 0), omega.transpose(1, 2, 0)  # index axes first
        assert np.array_equal(gc._lagrangian_pointwise(g, omega), [0.0, 0.3 / 6.0])

    def test_real_lift_exactly_zero(self):
        imm = build_immersion(ImmersionFamilySpec("tg_tube", 2), grid=(6, 6))
        assert gc.lagrangian_residual(imm, _frames(imm)) <= 1e-12

    def test_families_small(self, thm1, thm1_fb):
        assert gc.lagrangian_residual(thm1, thm1_fb) <= 1e-6

    def test_complex_curve_is_not_lagrangian(self):
        imm = _complex_curve_immersion()
        fb = _frames(imm)
        assert gc.lagrangian_residual(imm, fb) >= 0.5
        with pytest.raises(gc.NotLagrangianError):
            gc.second_fundamental_form(imm, fb)


class TestSecondFundamentalForm:
    def test_thm1_closed_form(self, thm1, thm1_sff):
        res = gc.sff_residuals(thm1, thm1_sff)
        assert res["component_rel"] <= 1e-3
        assert res["zero_component"] <= 1e-3
        assert res["sigma_sq_rel"] <= 1e-3

    def test_component_signs(self, thm1):
        h = grid_order(_sff(thm1, [0.5], [[1.0]]).coeffs)
        n = 2
        r = float(thm1.profile.r_of(0.5))
        F = thm1.profile.family.phase_constant / math.sinh(r) ** (n + 1)
        assert h[0, 0, 0, 0] == pytest.approx(-(n - 1) * F, rel=1e-3)
        assert h[0, 0, 1, 1] == pytest.approx(F, rel=1e-3)
        assert h[0, 1, 1, 0] == pytest.approx(F, rel=1e-3)

    def test_totally_geodesic_zero(self):
        imm = build_immersion(ImmersionFamilySpec("tg_horo", 2), grid=(6, 6))
        sff = _sff(imm)
        assert np.max(np.abs(sff.coeffs)) <= 1e-5

    @pytest.mark.parametrize("fam,seed", [
        ("prop4a", "tg_sphere_cp"), ("prop4b", "tg_rh_ch"), ("prop4c", "tg_plane_c"),
    ])
    def test_geodesic_products_over_tg_seeds(self, fam, seed):
        # with totally geodesic seeds the full product map is totally geodesic
        imm = build_immersion(ImmersionFamilySpec(fam, 2, seed_kind=seed), grid=(6, 6))
        sff = _sff(imm)
        assert np.max(np.abs(sff.coeffs)) <= 1e-5

    def test_symmetry(self, thm1_sff):
        assert thm1_sff.symmetry_residual() <= 1e-4

    def test_sff_check_reads_the_zero_components(self, monkeypatch):
        # h_012 and its permutations vanish in the closed form; a defect
        # there, kept totally symmetric and off the trace, moves |sigma|^2
        # only at second order, so only the zero components show it
        imm = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(17, 16))
        extract = gc.second_fundamental_form

        def perturbed(imm, fb):
            sff = extract(imm, fb)
            F = gc.expected_sff_thm1(imm, sff.xi)[:, 0, 1, 1]
            h = grid_order(sff.coeffs).copy()
            for i, j, k in permutations((0, 1, 2)):
                h[:, i, j, k] += 1e-2 * F
            # back in grid layout, every point its own block
            H, sigma_sq = np.einsum("miik->mk", h) / 3, np.sum(h**2, axis=(1, 2, 3))
            return gc.SFFBatch(sff.xi, *map(gc._as_blocks, (h, H, sigma_sq)))

        monkeypatch.setattr(gc, "second_fundamental_form", perturbed)
        report = {c["name"]: c["pass"] for c in gc.run_checks(imm).checks}
        assert not report.pop("sff")
        assert all(report.values()), report

    def test_minimality_and_detuned_control(self, thm1, thm1_sff):
        assert gc.minimality_residual(thm1, thm1_sff) <= 5e-4
        bad = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True),
                              grid=(8, 8))
        assert gc.minimality_residual(bad, _sff(bad)) >= 1e-2

    @pytest.mark.parametrize("spec", [
        # closed-form complex lifts: the constant-profile cp family (its
        # splines are exact, no knot wiggle) and the flat product; real
        # totally geodesic lifts have identically zero J-components, so
        # they carry no convergence signal
        ImmersionFamilySpec("thm5", 2, math.atan(math.sqrt(2.0))),
        ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=1),
    ])
    def test_mean_curvature_converges_at_order_four(self, spec):
        imm = build_immersion(spec, grid=(5, 5))
        xi = imm.grid_xi()
        # steps large enough that the truncation error, not roundoff, shows
        hs = (4e-2, 2e-2, 1e-2)
        vals = []
        for h in hs:
            # whole-lift differences: the stencil order is what is under test
            jets = gc.JetBatch.from_partials(imm.ambient.space, xi,
                                             *fd.jet_partials(imm.evaluate_xi, xi, h))
            sff = gc.second_fundamental_form(imm, gc.frame_batch(imm, jets))
            vals.append(float(np.max(sff.mean_curvature_norm)))
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= 3.7


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
    ImmersionFamilySpec("prop6b", 3, seed_kind="tg_sphere_cp"),
    ImmersionFamilySpec("cn_product", 3, seed_kind="clifford_cp", c=1),
    ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=0),
]


def _spec_id(spec) -> str:
    return "-".join(filter(None, (spec.family, spec.seed_kind, "detuned" * spec.detuned)))


class TestProductJets:
    def test_every_family_tag_covered(self):
        assert {spec.family for spec in _EVERY_FAMILY} == set(FAMILY_TAGS)

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_matches_whole_lift_differences(self, spec):
        # each raw jet d_I z, composed from the product-rule factors
        # A(s) B(x) + Delta(s) that the factored Gram pairs and broadcast
        # from the jet's fields, against whole-lift differences
        imm = build_immersion(spec, grid=(11, 9))
        s = imm.s_values[np.abs(imm.s_values) <= 1.0]
        xi = product_xi(s, imm.x_grid)
        h = 1e-3
        pj = imm.jet_factors(s, imm.x_grid)
        whole, stacked = fd.jet_partials(imm.evaluate_xi, xi, h), _stacked(pj)
        scale = np.max(np.abs(whole[0]))
        # value to roundoff; 5-point first partials are O(h^4); the mixed
        # cross stencil is O(h^2) and the whole-lift stencil sees the
        # profile spline's knot wiggle (knots every 2h)
        tol = (1e-13, 1e-8, 1e-4)
        for idx in [()] + jet_rows(1 + imm.chart.dim):
            A, B, Delta = pj.factors(idx)
            row = A[:, None] * B if Delta is None else A[:, None] * B + Delta[:, None]
            at = (slice(None),) + idx
            for got in (row.reshape(len(xi), -1), stacked[len(idx)][at]):
                assert np.max(np.abs(got - whole[len(idx)][at])) <= tol[len(idx)] * scale

    def test_evaluate_takes_the_block_once_per_transverse_point(self):
        # a stacked grid repeats each transverse point at every s value: the
        # lift evaluates the block (the seed's jet) on the distinct points
        # only, and its values are the jet's value bit for bit
        seed = make_seed("clifford_cp", 3)
        jet, rows = seed.jet, []
        seed.jet = lambda X: rows.append(len(X)) or jet(X)
        imm = build_immersion(ImmersionFamilySpec("prop3a", 4, 1.0, seed_kind="clifford_cp"),
                              grid=(64, 64), seed=seed)
        rows.clear()
        xi = imm.grid_xi()
        assert imm.evaluate_xi(xi).tobytes() == imm.samples.tobytes()
        assert rows == [len(imm.x_grid)]

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_samples_evaluate_and_jet_value_bitwise(self, spec):
        # one factorization feeds all three, down to the sign of zero
        imm = build_immersion(spec, grid=(11, 9))
        xi = imm.grid_xi()
        flat = imm.samples.reshape(len(xi), -1)
        assert flat.tobytes() == imm.evaluate_xi(xi).tobytes()
        jet_value = imm.jet_factors(imm.s_values, imm.x_grid).value()
        assert flat.tobytes() == jet_value.tobytes()

    def test_hand_built_immersion_falls_back_to_differences(self):
        imm = _complex_curve_immersion()
        xi = imm.grid_xi()
        jets = gc.jet(imm, imm.s_values, imm.x_grid)
        partials = fd.jet_partials(imm.evaluate_xi, xi, fd.DEFAULT_FD_STEP)
        ref = gc.JetBatch.from_partials(imm.ambient.space, xi, *partials)
        assert np.array_equal(jets.gram, ref.gram)
        assert np.array_equal(jets.d1_norm, ref.d1_norm)
        # the base value the stored-sample consistency check reads
        assert np.array_equal(jets.value, imm.samples.reshape(len(xi), -1))

    def test_run_checks_is_one_geometry_pass(self, thm1, monkeypatch):
        calls = {"jet": 0, "sff": 0, "fd": 0, "evaluate_xi": 0, "lagrangian": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gc, "jet", counted("jet", gc.jet))
        monkeypatch.setattr(gc, "second_fundamental_form",
                            counted("sff", gc.second_fundamental_form))
        for name in ("jet_partials", "first_partials"):
            monkeypatch.setattr(fd, name, counted("fd", getattr(fd, name)))
        monkeypatch.setattr(gc, "_lagrangian_pointwise",
                            counted("lagrangian", gc._lagrangian_pointwise))
        monkeypatch.setattr(SampledImmersion, "evaluate_xi",
                            counted("evaluate_xi", SampledImmersion.evaluate_xi))
        report = gc.run_checks(thm1)
        assert report.verdict
        assert calls["jet"] == 1
        assert calls["sff"] == 1
        # the SFF guard and the lagrangian check read one per-point residual
        assert calls["lagrangian"] == 1
        # sample consistency reads the jet's value: no second lift evaluation
        assert calls["evaluate_xi"] == 0
        # the jets are exact: nothing is differenced
        assert calls["fd"] == 0

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_no_step_on_a_family_path(self, spec, monkeypatch):
        # build, checks and curvature field difference nothing; only the
        # check of a given seed's jets against its lift does
        import lagmin.immersions as im

        state = {"in_seed_check": False, "outside": 0}

        def fd_spy(fn):
            def wrapper(*args, **kwargs):
                state["outside"] += not state["in_seed_check"]
                return fn(*args, **kwargs)
            return wrapper

        def seed_check(fn):
            def wrapper(*args, **kwargs):
                state["in_seed_check"] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    state["in_seed_check"] = False
            return wrapper

        for name in ("jet_partials", "first_partials"):
            monkeypatch.setattr(fd, name, fd_spy(getattr(fd, name)))
        monkeypatch.setattr(im, "_validate_seed", seed_check(im._validate_seed))
        imm = build_immersion(spec, grid=(11, 9))
        gc.run_checks(imm)
        gc.curvature_field(imm)
        assert state["outside"] == 0


class TestFactoredGram:
    """The factored Gram of a product jet against the stacked route:
    ``herm_form`` of the partials of the same jet, broadcast from its
    fields (``_stacked``)."""

    @staticmethod
    def _both_routes(spec):
        imm = build_immersion(spec, grid=(11, 9))
        s, X = imm.s_values, imm.x_grid
        partials = _stacked_jet(imm, s, X)
        stacked = gc.JetBatch.from_partials(imm.ambient.space, product_xi(s, X), *partials)
        return imm, gc.jet(imm, s, X), stacked, partials

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_gram_matches_the_stacked_pairing(self, spec):
        imm, fact, stacked, (value, d1, d2) = self._both_routes(spec)
        D = d1.shape[1]
        jets = (value, d1, d2)
        norms = np.linalg.norm(np.stack([jets[len(idx)][(slice(None),) + idx]
                                         for idx in jet_rows(D)], axis=1), axis=-1)
        col_norms = np.linalg.norm(np.concatenate([value[:, None], d1], axis=1), axis=-1)
        # each (u, v) within 8 ulp of |u| |v|, its Cauchy-Schwarz scale
        scale = norms[:, :, None] * col_norms[:, None, :]
        ulp = np.finfo(float).eps * scale
        got, ref = grid_order(fact.gram), grid_order(stacked.gram)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 8 * ulp)
        got, ref = grid_order(fact.d1_norm), grid_order(stacked.d1_norm)
        assert np.all(np.abs(got - ref) <= 8 * ulp[:, :D, 0] / col_norms[:, :1])
        assert fact.value.tobytes() == value.tobytes()

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_frame_and_sff_match_the_stacked_route(self, spec):
        imm, fact, stacked, (_, d1, _) = self._both_routes(spec)
        fa, fs = gc.frame_batch(imm, fact), gc.frame_batch(imm, stacked)
        # g and Omega to roundoff of |d_i z| |d_j z|, the scale their
        # indefinite pairings cancel from
        nd = np.linalg.norm(d1, axis=-1)
        ulp = np.finfo(float).eps * nd[:, :, None] * nd[:, None, :]
        for a, b in ((fa.metric, fs.metric), (fa.omega, fs.omega)):
            assert np.all(np.abs(grid_order(a) - grid_order(b)) <= 8 * ulp)
        Ta, Ts = _chol_inv(fa), _chol_inv(fs)
        t_scale = np.max(np.abs(Ts), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(Ta - Ts) <= 1e-12 * t_scale)
        sa, ss = gc.second_fundamental_form(imm, fa), gc.second_fundamental_form(imm, fs)
        ha, hs = grid_order(sa.coeffs), grid_order(ss.coeffs)
        h_scale = np.maximum(np.max(np.abs(hs), axis=(1, 2, 3), keepdims=True), 1.0)
        assert np.all(np.abs(ha - hs) <= 1e-12 * h_scale)

    @pytest.mark.parametrize("spec", [
        ImmersionFamilySpec("thm1", 3, 1.0),
        ImmersionFamilySpec("thm3", 3, 1.0),
        ImmersionFamilySpec("thm5", 3, 0.6),
    ], ids=_spec_id)
    def test_a_vertical_phase_in_frame_and_sff(self, spec):
        # e^{i theta(s)} Z lifts the same immersion, but not horizontally:
        # c_0 = (d_s z, z) = i theta' t.  The frame removes it exactly; the
        # SFF extraction, exact for horizontal lifts, picks up the
        # connection term Im (i theta_j d_i z + i theta_i d_j z, d_l z) =
        # theta_j g_il + theta_i g_jl, i.e. u_b delta_ak + u_a delta_bk with
        # u = T theta' e_0 in the frame
        imm = build_immersion(spec, grid=(11, 9))
        s, X = imm.s_values, imm.x_grid
        pj = imm.jet_factors(s, X)
        speed = 0.5 + 0.1 * s
        E = _phase_jet(0.5 * s + 0.05 * s**2, speed, np.full_like(s, 0.1))[..., None]
        turned = ProductJet(_mul_jet(E, pj.alpha),
                            None if pj.delta is None else _mul_jet(E, pj.delta), pj.block)
        space, xi = imm.ambient.space, product_xi(s, X)
        fa = gc.frame_batch(imm, gc.JetBatch(xi, pj.value(), *pj.gram(space)))
        jt = gc.JetBatch(xi, turned.value(), *turned.gram(space))
        ft = gc.frame_batch(imm, jt)
        assert np.min(np.abs(ft.vertical[0])) >= 0.2
        nd = grid_order(jt.d1_norm)
        ulp = np.finfo(float).eps * nd[:, :, None] * nd[:, None, :]
        assert np.all(np.abs(grid_order(ft.metric) - grid_order(fa.metric)) <= 16 * ulp)
        assert np.all(np.abs(grid_order(ft.omega) - grid_order(fa.omega)) <= 16 * ulp)
        sa, st = gc.second_fundamental_form(imm, fa), gc.second_fundamental_form(imm, ft)
        u = _chol_inv(fa)[:, :, 0] * np.repeat(speed, len(X))[:, None]
        eye = np.eye(u.shape[1])
        shift = u[:, None, :, None] * eye[:, None] + u[:, :, None, None] * eye
        ha, ht = grid_order(sa.coeffs), grid_order(st.coeffs)
        h_scale = np.maximum(np.max(np.abs(ht), axis=(1, 2, 3), keepdims=True), 1.0)
        assert np.all(np.abs(ht - ha - shift) <= 1e-12 * h_scale)

    def test_hand_built_immersion_takes_the_stacked_route(self):
        # a built immersion handed over without its product jet pairs its
        # whole-lift differences, and the frame and the SFF agree with the
        # factored route up to the difference of the two stencils
        imm = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(9, 9),
                              s_window=(-1.5, 1.5))
        hand = _sheared(imm, 0.0)
        assert hand.jet_factors is None
        fh, fi = _frames(hand), _frames(imm)
        gh, gi = gc.induced_metric(hand, fh), gc.induced_metric(imm, fi)
        assert np.max(np.abs(gh - gi) / gi.max()) <= 1e-8
        sh, si = gc.second_fundamental_form(hand, fh), gc.second_fundamental_form(imm, fi)
        hh, hi = grid_order(sh.coeffs), grid_order(si.coeffs)
        assert np.max(np.abs(hh - hi)) <= 1e-4 * np.max(np.abs(hi))


def _per_point_reference(imm, fb):
    """(T, h, H, |sigma|^2, sqrt(det g)) of a FrameBatch by the per-point
    route, as (S*M, ...) rows: ``np.linalg.cholesky`` of every point's
    metric, its inverse T, and the normal parts of the second partials
    contracted with T point by point."""
    space, D = imm.ambient.space, fb.jets.dim
    gram, g, omega = grid_order(fb.jets.gram), grid_order(fb.metric), grid_order(fb.omega)
    L = np.linalg.cholesky(g)
    T = np.linalg.inv(L)
    w = gram[:, D:]
    p = w[..., 1:]
    if space is not None:
        c = gram[:, :D, 0]
        p = p - w[..., :1] * (np.conj(c) / space.quadric_target)[:, None]
    normal = p.imag + p.real @ (T.swapaxes(1, 2) @ T @ omega)
    row = {idx: q for q, idx in enumerate(jet_rows(D)[D:])}
    h = np.stack([normal[:, row[min(i, j), max(i, j)]] for i in range(D) for j in range(D)],
                 axis=1)
    h = np.einsum("nkl,nijl->nijk", T, h.reshape(-1, D, D, D))
    h = np.einsum("nbj,nijk->nibk", T, h)
    h = np.einsum("nai,nibk->nabk", T, h)
    sqrt_det = np.prod(np.diagonal(L, axis1=1, axis2=2), axis=-1)
    return T, h, np.einsum("niik->nk", h) / D, np.sum(h**2, axis=(1, 2, 3)), sqrt_det


class TestFactoredFrame:
    """The frame factored over the product grid, T = L_G(x)^-1 Lambda(s),
    one Cholesky per block point, against the per-point Cholesky route."""

    @staticmethod
    def _assert_per_point(imm, fb, tol=1e-11):
        T, h, H, sigma_sq, _ = _per_point_reference(imm, fb)
        t_scale = np.max(np.abs(T), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(_chol_inv(fb) - T) <= tol * t_scale)
        sff = gc.second_fundamental_form(imm, fb)
        h_scale = np.maximum(np.max(np.abs(h), axis=(1, 2, 3)), 1.0)
        assert np.all(np.abs(grid_order(sff.coeffs) - h) <= tol * h_scale[:, None, None, None])
        assert np.all(np.abs(grid_order(sff.mean_curvature) - H) <= tol * h_scale[:, None])
        assert np.all(np.abs(grid_order(sff.sigma_sq) - sigma_sq) <= tol * h_scale**2)

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_matches_the_per_point_cholesky(self, spec):
        imm = build_immersion(spec, grid=(11, 9))
        fb = _frames(imm)
        S, M, D = len(imm.s_values), len(imm.x_grid), fb.jets.dim
        assert fb.block_chol.shape == (M, D, D) and fb.scale.shape == (D, S)
        self._assert_per_point(imm, fb)
        sqrt_det = _per_point_reference(imm, fb)[-1]
        got = gc.curvature_field(imm)["sqrt_det_g"].ravel()
        assert np.all(np.abs(got - sqrt_det) <= 1e-11 * sqrt_det)

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_one_cholesky_over_the_block_points(self, spec, monkeypatch):
        # checks and curvature field factor the M block metrics G(x),
        # never the S*M metrics of the grid
        imm = build_immersion(spec, grid=(11, 9))
        cholesky, batches = np.linalg.cholesky, []

        def spy(a, *args, **kwargs):
            batches.append(np.shape(a)[:-2])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        gc.run_checks(imm)
        gc.curvature_field(imm)
        assert batches == [(len(imm.x_grid),)] * 2

    @pytest.mark.parametrize("k", [0.0, 0.7])
    def test_hand_built_immersions_take_the_per_point_frame(self, k):
        # whole-lift differences are stacked rows, every point its own
        # block (Lambda = 1, G = g); the sheared chart's metric does not
        # separate at all (g_{0,last} above 10)
        imm = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(9, 9),
                              s_window=(-1.5, 1.5))
        sheared = _sheared(imm, k)
        fb = _frames(sheared)
        N, D = len(sheared.grid_xi()), fb.jets.dim
        assert fb.block_chol.shape == (N, D, D)
        assert np.array_equal(fb.scale, np.ones((D, 1)))
        self._assert_per_point(sheared, fb)

    @pytest.mark.parametrize("twist,blocks", [(1e-12, "M"), (1e-6, "S*M")])
    def test_a_metric_that_does_not_separate_is_framed_per_point(self, twist, blocks):
        # a product batch whose g_{0,last} gets a term varying with s and x
        # misses the separable form by about ``twist``: below the bound the
        # frame stays factored, above it every point is its own block;
        # either way it is the per-point frame
        imm = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(11, 9))
        jets = gc.jet(imm, imm.s_values, imm.x_grid)
        S, M, D = len(imm.s_values), len(imm.x_grid), jets.dim
        gram = jets.gram.copy()
        g = _frames(imm).metric
        ramp = np.outer(np.arange(S), np.arange(M)) / (S * M)
        bump = twist * np.sqrt(g[0, 0] * g[-1, -1]) * ramp
        gram[0, D] += bump
        gram[D - 1, 1] += bump
        fb = gc.frame_batch(imm, gc.JetBatch(jets.xi, jets.value, gram, jets.d1_norm))
        assert len(fb.block_chol) == {"M": M, "S*M": S * M}[blocks]
        self._assert_per_point(imm, fb)

    def test_a_seed_with_differenced_jets(self):
        # only the block's jets are differenced: the product alpha(s) beta(x)
        # is exact, so the metric still separates to roundoff (about 2e-12)
        # and the frame is factored, matching the per-point route
        clifford = make_seed("clifford_cp", 2)
        seed = SeedLagrangian(
            "clifford_cp", 2, "cp", clifford.chart,
            lambda X: fd.jet_partials(lambda Y: clifford.jet(Y)[0], np.atleast_2d(X),
                                      fd.DEFAULT_FD_STEP))
        imm = build_immersion(ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"),
                              grid=(11, 9), seed=seed)
        fb = _frames(imm)
        assert len(fb.block_chol) == len(imm.x_grid)
        self._assert_per_point(imm, fb)

    def test_sff_residuals_read_any_block_layout(self, thm1, thm1_sff):
        # the closed form is taken per distinct s and broadcast over the
        # grid layout; the same SFF as stacked points scores the same, and
        # so does the point-by-point comparison against expected_sff_thm1
        sff = thm1_sff
        h = grid_order(sff.coeffs)
        points = gc.SFFBatch(sff.xi, *map(gc._as_blocks, (h, grid_order(sff.mean_curvature),
                                                          grid_order(sff.sigma_sq))))
        got = gc.sff_residuals(thm1, sff)
        assert got == gc.sff_residuals(thm1, points)
        expected = gc.expected_sff_thm1(thm1, sff.xi)
        scale = np.max(np.abs(expected), axis=(1, 2, 3), keepdims=True)
        nonzero = np.abs(expected) > 1e-12 * scale
        rel = np.abs(h - expected) / np.where(nonzero, np.abs(expected), 1.0)
        assert got["component_rel"] == np.max(np.where(nonzero, rel, 0.0))
        assert got["zero_component"] == np.max(np.where(nonzero, 0.0, np.abs(h) / scale))


class TestSymmetryResidual:
    @staticmethod
    def _permutation_loop(h):
        worst = np.zeros(h.shape[0])
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            axes = (0,) + tuple(1 + p for p in perm)
            worst = np.maximum(worst, np.max(np.abs(h - h.transpose(axes)), axis=(1, 2, 3)))
        scale = np.maximum(np.max(np.abs(h), axis=(1, 2, 3)), 1.0)
        return float(np.max(worst / scale))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbits_match_the_permutation_loop_on_real_sff(self, n):
        sff = _sff(build_immersion(ImmersionFamilySpec("thm1", n, 1.0), grid=(17, 16)))
        got = sff.symmetry_residual()
        ref = self._permutation_loop(grid_order(sff.coeffs))
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_orbits_match_the_permutation_loop_on_random_arrays(self, D):
        rng = np.random.default_rng(D)
        for _ in range(20):
            h = rng.normal(size=(7, D, D, D)) * 10.0 ** rng.uniform(-3, 3)
            h = h + h.transpose(0, 2, 3, 1) + h.transpose(0, 3, 1, 2)  # cyclic, not symmetric
            sff = gc.SFFBatch(np.zeros((7, 1 + D)), gc._as_blocks(h), np.zeros((D, 1, 7)),
                              np.zeros((1, 7)))
            assert (np.float64(sff.symmetry_residual()).tobytes()
                    == np.float64(self._permutation_loop(h)).tobytes())


class TestDomainRegressions:
    """Default-setting thm1 builds that failed the sff check on correct
    geometry before the jets became product-rule jets."""

    @pytest.mark.parametrize("n,rho", [(3, 0.3), (3, 2.0), (4, 1.0), (5, 1.0)])
    def test_thm1_passes_every_check(self, n, rho):
        report = gc.run_checks(build_immersion(ImmersionFamilySpec("thm1", n, rho)))
        assert report.verdict, [c for c in report.checks if not c["pass"]]

    @pytest.mark.parametrize("rho", [0.2, 1.0, 3.0])
    def test_thm2_n8_passes_every_check(self, rho):
        # with the block differenced, symmetry read 1.18e-4 here at every
        # rho: stencil roundoff, growing as 1/h^2
        report = gc.run_checks(build_immersion(ImmersionFamilySpec("thm2", 8, rho),
                                               grid=(17, 16)))
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
        assert gc.invariance_residual(thm1, "so_n") <= 1e-8

    def test_mismatched_group(self, thm1):
        assert gc.invariance_residual(thm1, "so1_n") >= 0.1

    @pytest.mark.parametrize("fam,grp", [
        ("thm3", "so_n"), ("thm3", "so1_n"), ("thm1", "euclid_n"),
    ])
    def test_group_of_another_dimension(self, fam, grp):
        # SO(3) and SO^1(3) move R^3, the thm3 model is R^2; SO(2) x R^2
        # moves R^2, the thm1 model is S^2 in R^3
        imm = build_immersion(ImmersionFamilySpec(fam, 3, 1.0), grid=(4, 4))
        with pytest.raises(InvalidArgument, match="does not act on this model manifold"):
            gc.invariance_residual(imm, grp)

    def test_seeded_family_has_no_model_action(self):
        imm = build_immersion(
            ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"), grid=(4, 4))
        with pytest.raises(InvalidArgument):
            gc.invariance_residual(imm, "so_n")

    @pytest.mark.parametrize("fam,grp", [
        ("tg_sphere", "so_n"), ("tg_tube", "so1_n"), ("tg_horo", "euclid_n"),
    ])
    def test_totally_geodesic_families(self, fam, grp):
        imm = build_immersion(ImmersionFamilySpec(fam, 3), grid=(6, 6))
        assert gc.invariance_residual(imm, grp) <= 1e-8

    @pytest.mark.parametrize("fam,grp", [
        ("thm1", "so_n"), ("thm2", "so1_n"), ("thm3", "euclid_n"), ("thm1", "so1_n"),
    ])
    def test_matches_pairwise_loop_bitwise(self, fam, grp):
        # the same 12 points and group elements from seed 42, compared one
        # pair at a time
        imm = build_immersion(ImmersionFamilySpec(fam, 3, 1.0), grid=(8, 9))
        k, n, space = 12, 3, imm.ambient.space
        rng = np.random.default_rng(42)
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
        assert gc.invariance_residual(imm, grp) == worst


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
        assert curve_invariant_residuals(curve)["horizontal"] <= 1e-10
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

    def test_empty_selection(self, thm1):
        with pytest.raises(InvalidArgument, match="no checks selected"):
            gc.run_checks(thm1, checks=())

    def test_selected_checks_only(self, thm1):
        report = gc.run_checks(thm1, checks=("minimal",))
        assert [c["name"] for c in report.checks] == ["minimal"]
        assert report.verdict

    @pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=_spec_id)
    def test_report_checks_of_every_family(self, spec):
        report = gc.run_checks(build_immersion(spec, grid=(11, 9)))
        got = [(c["name"], c["tol"]) for c in report.checks]
        assert got == _REPORT_CHECKS[_spec_id(spec)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prop6b_over_the_tg_seed_is_totally_geodesic(self, n):
        # the real geodesic of S^3 over the totally geodesic RP^{n-1}
        imm = build_immersion(ImmersionFamilySpec("prop6b", n, seed_kind="tg_sphere_cp"))
        report = gc.run_checks(imm, ("minimal", "sff"))
        assert [(c["name"], c["tol"], c["residual"]) for c in report.checks] == [
            ("minimal", 1e-5, 0.0), ("sff", 1e-5, 0.0)]


# (name, tol) of every report check, per _EVERY_FAMILY spec
_LAG, _HOR, _SYM = ("lagrangian", 1e-6), ("horizontal", 1e-6), ("symmetry", 1e-4)
_MIN, _MIN_TG = ("minimal", 5e-4), ("minimal", 1e-5)
_MET, _INV, _SFF_TG = ("metric", 1e-6), ("invariance", 1e-8), ("sff", 1e-5)
_REPORT_CHECKS = {
    "thm1": [_LAG, _HOR, _MIN, _MET, ("sff", 1e-3), _INV, _SYM],
    "thm1-detuned": [_LAG, _HOR, _MIN, _INV, _SYM],
    "thm2": [_LAG, _HOR, _MIN, _MET, _INV, _SYM],
    "thm3": [_LAG, _HOR, _MIN, _MET, _INV, _SYM],
    "thm5": [_LAG, _HOR, _MIN, _MET, _INV, _SYM],
    "tg_sphere": [_LAG, _HOR, _MIN_TG, _MET, _SFF_TG, _INV, _SYM],
    "tg_tube": [_LAG, _HOR, _MIN_TG, _MET, _SFF_TG, _INV, _SYM],
    "tg_horo": [_LAG, _HOR, _MIN_TG, _MET, _SFF_TG, _INV, _SYM],
    "prop3a-clifford_cp": [_LAG, _HOR, _MIN, _SYM],
    "prop3b-tg_rh_ch": [_LAG, _HOR, _MIN, _SYM],
    "prop3c-tg_plane_c": [_LAG, _HOR, _MIN, _SYM],
    "prop4a-tg_sphere_cp": [_LAG, _HOR, _MIN_TG, _SFF_TG, _SYM],
    "prop4b-tg_rh_ch": [_LAG, _HOR, _MIN_TG, _SFF_TG, _SYM],
    "prop4c-tg_plane_c": [_LAG, _HOR, _MIN_TG, _SFF_TG, _SYM],
    "prop6a-clifford_cp": [_LAG, _HOR, _MIN, _SYM],
    "prop6b-clifford_cp": [_LAG, _HOR, _MIN, _SYM],
    "prop6b-tg_sphere_cp": [_LAG, _HOR, _MIN_TG, _SFF_TG, _SYM],
    "cn_product-clifford_cp": [_LAG, _HOR, _MIN, _SYM],
    "cn_product-tg_sphere_cp": [_LAG, _HOR, _MIN, _SYM],
}
