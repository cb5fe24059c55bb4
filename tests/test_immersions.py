import json
import math

import numpy as np
import pytest

from lagmin import fd
from lagmin.immersions import (
    SEED_KINDS,
    ImmersionFamilySpec,
    InvalidArgument,
    SeedLagrangian,
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
from lagmin.profiles import FINE_ODE_TOL

from helpers import curve_invariant_residuals


def _differenced(value):
    """A hand-built seed's jet: central differences of its value (M, C)."""
    return lambda X: fd.jet_partials(value, np.atleast_2d(np.asarray(X, dtype=float)),
                                     fd.DEFAULT_FD_STEP)


def _differenced_potential(f):
    """The same for a potential, whose value has shape (M,)."""
    jet = _differenced(lambda X: f(X)[:, None])
    return lambda X: tuple(m[..., 0] for m in jet(X))


@pytest.fixture(scope="module")
def thm1_n2():
    return build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(16, 16))


class TestSpecValidation:
    def test_every_family_tag_has_a_row(self):
        # specs and the command line accept the tags of lagmin.domain; each
        # must name one row of the family table, in order
        from lagmin import immersions
        assert tuple(immersions._FAMILIES) == immersions.FAMILY_TAGS

    def test_requires_rho(self):
        with pytest.raises(InvalidArgument):
            ImmersionFamilySpec("thm1", 2)

    def test_requires_seed(self):
        with pytest.raises(InvalidArgument):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0), grid=(4, 4))

    def test_seed_target_mismatch(self):
        seed = make_seed("tg_plane_c", 1)
        with pytest.raises(InvalidArgument, match="target"):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0, seed_kind="tg_plane_c"),
                            grid=(4, 4), seed=seed)

    def test_seed_dimension_mismatch(self):
        seed = make_seed("tg_sphere_cp", 2)
        with pytest.raises(InvalidArgument, match="dimension"):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0, seed_kind="tg_sphere_cp"),
                            grid=(4, 4), seed=seed)

    def test_seed_kind_must_match_the_spec(self):
        # the file records spec.seed_kind, so it must name the seed object
        seed = make_seed("tg_sphere_cp", 2)
        with pytest.raises(InvalidArgument, match="'tg_sphere_cp' but the spec's seed_kind"
                                                  " is 'clifford_cp'"):
            build_immersion(ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"),
                            grid=(4, 4), seed=seed)

    def test_seed_object_needs_a_seed_kind(self):
        seed = make_seed("tg_sphere_cp", 1)
        with pytest.raises(InvalidArgument, match="seed_kind is None"):
            build_immersion(ImmersionFamilySpec("prop3a", 2, 1.0), grid=(4, 4), seed=seed)

    def test_seed_object_matching_the_spec_round_trips(self):
        from lagmin import serialization as ser

        spec = ImmersionFamilySpec("prop3a", 2, 1.0, seed_kind="tg_sphere_cp")
        imm = build_immersion(spec, grid=(4, 4), seed=make_seed("tg_sphere_cp", 1))
        back = ser.immersion_from_dict(json.loads(ser.dumps(ser.immersion_to_dict(imm))))
        assert back.spec == spec
        assert np.array_equal(back.samples, imm.samples)

    def test_model_families_take_no_seed(self):
        # they are built over their own totally geodesic seed
        for fam, rho in (("thm1", 1.0), ("tg_sphere", None)):
            with pytest.raises(InvalidArgument, match="takes no seed"):
                ImmersionFamilySpec(fam, 2, rho, seed_kind="nonsense")
            with pytest.raises(InvalidArgument, match="does not take a seed"):
                build_immersion(ImmersionFamilySpec(fam, 2, rho), grid=(4, 4),
                                seed=make_seed("tg_sphere_cp", 1))

    @pytest.mark.parametrize("fam,seed", [
        ("tg_sphere", None), ("tg_tube", None), ("tg_horo", None),
        ("prop4a", "tg_sphere_cp"), ("prop4b", "tg_rh_ch"), ("prop4c", "tg_plane_c"),
        ("prop6b", "tg_sphere_cp"), ("cn_product", "tg_sphere_cp"),
    ])
    def test_unsolved_families_take_no_rho(self, fam, seed):
        # nothing reads it, so a file must not record one
        with pytest.raises(InvalidArgument, match="takes no rho"):
            ImmersionFamilySpec(fam, 2, 0.7, seed_kind=seed)

    def test_detuned_only_thm1(self):
        with pytest.raises(InvalidArgument):
            ImmersionFamilySpec("thm2", 2, 1.0, detuned=True)

    def test_bad_custom_seed_rejected(self):
        from lagmin.immersions import SeedLagrangian, box_chart

        # potential with the wrong real part fails the quadric condition
        bad = SeedLagrangian(
            "custom", 1, "c", box_chart(1),
            jet=_differenced(lambda X: np.atleast_2d(np.asarray(X)).astype(complex)),
            potential_jet=_differenced_potential(
                lambda X: (np.sum(np.atleast_2d(np.asarray(X)) ** 2, axis=-1) + 0.1)
                .astype(complex)),
        )
        with pytest.raises(InvalidArgument, match="Re f"):
            build_immersion(ImmersionFamilySpec("prop3c", 2, 1.0, seed_kind="custom"),
                            grid=(4, 4), seed=bad)

        # a lift off the unit sphere fails the norm invariant
        bad2 = SeedLagrangian(
            "custom", 1, "cp", box_chart(1),
            jet=_differenced(lambda X: 1.1 * np.exp(1j * np.atleast_2d(np.asarray(X)))
                             .repeat(2, axis=-1)),
        )
        with pytest.raises(InvalidArgument, match="quadric"):
            build_immersion(ImmersionFamilySpec("prop4a", 2, seed_kind="custom"),
                            grid=(4, 4), seed=bad2)

    @pytest.mark.parametrize("kind,fam", [("clifford_cp", "prop3a"), ("tg_rh_ch", "prop3b"),
                                          ("tg_plane_c", "prop3c")])
    def test_seed_with_a_wrong_jet_rejected(self, kind, fam):
        # a seed is outside input: its jets must be the derivatives of its lift
        good = make_seed(kind, 2)

        def jet(X):
            value, d1, d2 = good.jet(X)
            return value, 1.01 * d1, d2

        spec = ImmersionFamilySpec(fam, 3, 1.0, seed_kind=kind)
        assert build_immersion(spec, grid=(4, 4), seed=good).seed is good
        bad = make_seed(kind, 2)
        bad.jet = jet
        with pytest.raises(InvalidArgument, match="seed jet disagrees"):
            build_immersion(spec, grid=(4, 4), seed=bad)

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
        for spec in (ImmersionFamilySpec("thm1", 2, 1.0), ImmersionFamilySpec("tg_tube", 2)):
            for window in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
                with pytest.raises(InvalidArgument, match="s window"):
                    build_immersion(spec, grid=(4, 4), s_window=window)

    def test_profile_must_match_the_spec(self, thm1_n2):
        from lagmin.immersions import assemble_immersion

        thm1, grid = thm1_n2.spec, (thm1_n2.s_values, thm1_n2.x_grid)
        thm2 = build_immersion(ImmersionFamilySpec("thm2", 2, 1.0), grid=(4, 4))
        thm1_n3 = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(4, 4))
        thm1_rho2 = build_immersion(ImmersionFamilySpec("thm1", 2, 2.0), grid=(4, 4))
        with pytest.raises(InvalidArgument, match="needs its ch_sphere profile"):
            assemble_immersion(thm1, None, *grid)
        for other in (thm2, thm1_n3, thm1_rho2):
            with pytest.raises(InvalidArgument, match="needs the ch_sphere profile"):
                assemble_immersion(thm1, other.profile, *grid)
        with pytest.raises(InvalidArgument, match="no profile to solve"):
            assemble_immersion(ImmersionFamilySpec("tg_sphere", 2), thm1_n2.profile, *grid)
        # the matching profile assembles the same lift
        again = assemble_immersion(thm1, thm1_n2.profile, *grid)
        assert np.array_equal(again.samples, thm1_n2.samples)


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
        ImmersionFamilySpec("tg_horo", 3),
        ImmersionFamilySpec("prop4c", 2, seed_kind="tg_plane_c"),
    ])
    def test_horospherical_lift_matches_displayed_formula(self, spec):
        # e^{iF} (r eta, (1 + r^2 (f - 1 - 2iG))/2r, (1 + r^2 (f + 1 - 2iG))/2r)
        imm = build_immersion(spec, grid=(16, 9))
        s, X = imm.s_values, imm.x_grid[None]
        if spec.kind.geodesic:  # the a = 0 member of the ch_horo row
            r, F, G = np.exp(s)[:, None, None], 0.0, 0.0
        else:
            r = imm.profile.r_of(s)[:, None, None]
            F, G = imm.phases.a_of_s(s)[:, None, None], imm.phases.b_of_s(s)[:, None, None]
        f = np.sum(X**2, axis=-1, keepdims=True)
        w = f - 1.0 - 2j * G
        p, q = (1 + r * r * w) / (2 * r), (1 + r * r * (w + 2)) / (2 * r)
        expect = np.exp(1j * F) * np.concatenate([r * X, p, q], axis=-1)
        scale = np.max(np.abs(expect), axis=-1)
        assert np.max(np.max(np.abs(imm.samples - expect), axis=-1) / scale) <= 1e-14

    @pytest.mark.parametrize("spec", [
        ImmersionFamilySpec("tg_sphere", 3),
        ImmersionFamilySpec("prop4a", 2, seed_kind="tg_sphere_cp"),
        ImmersionFamilySpec("tg_tube", 3),
        ImmersionFamilySpec("prop4b", 2, seed_kind="tg_rh_ch"),
        ImmersionFamilySpec("prop6b", 3, seed_kind="tg_sphere_cp"),
    ])
    def test_geodesic_lift_matches_displayed_formula(self, spec):
        # (sinh s B, cosh s), (sinh s, cosh s B) and upstairs (sin s B, cos s),
        # over blocks whose lift B is the chart's model point
        imm = build_immersion(spec, grid=(16, 9))
        s = imm.s_values[:, None, None]
        B = imm.chart.to_model(imm.x_grid)[None]
        ones = np.ones((1, len(imm.x_grid), 1))
        if spec.kind.layout == "tube":
            expect = np.concatenate([np.sinh(s) * ones, np.cosh(s) * B], axis=-1)
        elif spec.kind.ambient == "cp":
            expect = np.concatenate([np.sin(s) * B, np.cos(s) * ones], axis=-1)
        else:
            expect = np.concatenate([np.sinh(s) * B, np.cosh(s) * ones], axis=-1)
        scale = np.max(np.abs(expect), axis=-1)
        assert np.max(np.max(np.abs(imm.samples - expect), axis=-1) / scale) <= 1e-15

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
        lift = seed.jet(X)[0]
        assert np.max(np.abs(np.sum(np.abs(lift) ** 2, axis=-1) - 1.0)) < 1e-14

    def test_tg_plane_potential(self):
        seed = make_seed("tg_plane_c", 2)
        X = np.array([[0.3, -0.8], [1.1, 0.2]])
        f = seed.potential_jet(X)[0]
        assert np.max(np.abs(f.real - np.sum(X**2, axis=-1))) == 0.0
        assert np.max(np.abs(f.imag)) == 0.0

    def test_clifford_norm_split(self):
        seed = make_seed("clifford_cp", 2)
        lift = seed.jet(np.array([[0.7, 2.1]]))[0]
        assert np.sum(np.abs(lift[0, :2]) ** 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert np.abs(lift[0, 2]) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_clifford_requires_dim2(self):
        with pytest.raises(InvalidArgument):
            make_seed("clifford_cp", 1)

    def test_custom_not_built_here(self):
        with pytest.raises(InvalidArgument):
            make_seed("custom", 2)

    @pytest.mark.parametrize("kind,dim", [
        (kind, dim) for kind in SEED_KINDS for dim in range(1, 5)
        if dim >= 2 or kind != "clifford_cp"])
    def test_jets_against_differences_of_their_values(self, kind, dim):
        # the closed-form jets (and tg_plane_c's potential jet) against
        # 5-point stencils of their own values: d1 is O(h^4), the mixed
        # cross stencil of d2 O(h^2)
        seed = make_seed(kind, dim)
        X = _chart_points(seed, 0)
        jets = [seed.jet]
        if seed.potential_jet is not None:
            jets.append(lambda Y: tuple(m[..., None] for m in seed.potential_jet(Y)))
        for jet in jets:
            value, d1, d2 = jet(X)
            ref = fd.jet_partials(lambda Y: jet(Y)[0], X, fd.DEFAULT_FD_STEP)
            assert np.array_equal(ref[0], value)
            scale = max(np.max(np.abs(value)), 1.0)
            assert np.max(np.abs(d1 - ref[1])) <= 1e-9 * scale
            assert np.max(np.abs(d2 - ref[2])) <= 1e-6 * scale

    def test_jet_values_are_the_chart_maps(self):
        # the jets replace the chart code: the values are the model points
        for kind, dim in (("tg_sphere_cp", 3), ("tg_rh_ch", 1), ("tg_rh_ch", 3)):
            seed = make_seed(kind, dim)
            X = _chart_points(seed, 1)
            assert seed.jet(X)[0].tobytes() == seed.chart.to_model(X).astype(complex).tobytes()

    @pytest.mark.parametrize("kind,dim", [
        ("tg_sphere_cp", 2), ("tg_rh_ch", 2), ("tg_plane_c", 2), ("clifford_cp", 2),
    ])
    def test_seed_residuals(self, kind, dim):
        seed = make_seed(kind, dim)
        rng = np.random.default_rng(0)
        X = seed.chart.lo + (seed.chart.hi - seed.chart.lo) * rng.uniform(0.1, 0.9, size=(12, dim))
        res = seed_residuals(seed, X)
        assert res["jet"] <= 1e-6
        if seed.target == "c":
            assert res["re_f"] <= 1e-10
            assert res["potential"] <= 1e-5
        else:
            assert res["norm"] <= 1e-10


def _chart_points(seed, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return seed.chart.lo + (seed.chart.hi - seed.chart.lo) * rng.uniform(
        0.1, 0.9, size=(12, seed.dim))


# each model family, and its seeded twin over the same layout's totally
# geodesic seed
_TWINS = [
    ("thm1", "prop3a", 1.0, "tg_sphere_cp"),
    ("thm2", "prop3b", 1.0, "tg_rh_ch"),
    ("thm3", "prop3c", 1.0, "tg_plane_c"),
    ("thm5", "prop6a", 0.6, "tg_sphere_cp"),
    ("tg_sphere", "prop4a", None, "tg_sphere_cp"),
    ("tg_tube", "prop4b", None, "tg_rh_ch"),
    ("tg_horo", "prop4c", None, "tg_plane_c"),
]


class TestComposedFamilies:
    @pytest.mark.parametrize("model,twin,rho,seed", _TWINS,
                             ids=[f"{m}-{t}" for m, t, *_ in _TWINS])
    @pytest.mark.parametrize("n", [2, 3])
    def test_model_family_is_its_seeded_twin(self, model, twin, rho, seed, n):
        # a model family is its seeded twin over the tg seed, bit for bit
        a = build_immersion(ImmersionFamilySpec(model, n, rho), grid=(12, 16))
        b = build_immersion(ImmersionFamilySpec(twin, n, rho, seed_kind=seed), grid=(12, 16))
        assert a.seed is None and b.seed.kind == seed
        assert a.chart.names == b.chart.names
        assert a.x_grid.tobytes() == b.x_grid.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.header == b.header
        ja = a.jet_factors(a.s_values, a.x_grid)
        jb = b.jet_factors(a.s_values, a.x_grid)
        assert (ja.delta is None) == (jb.delta is None)
        fields = [(ja.alpha, jb.alpha), *zip(ja.block, jb.block)]
        if ja.delta is not None:
            fields.append((ja.delta, jb.delta))
        for u, v in fields:
            assert u.tobytes() == v.tobytes()

    def test_one_block_jet_per_build(self):
        # the samples and the header come from one product jet on the grid:
        # the seed's jet runs once on the M grid points (the seed check
        # samples 18 of the 36 points, a different size)
        clifford, sizes = make_seed("clifford_cp", 2), []

        def jet(X):
            sizes.append(len(X))
            return clifford.jet(X)

        seed = SeedLagrangian("clifford_cp", 2, "cp", clifford.chart, jet)
        imm = build_immersion(ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"),
                              grid=(17, 36), seed=seed)
        M = len(imm.x_grid)
        assert M == 36 and 18 in sizes
        assert sizes.count(M) == 1
        assert imm.header["horizontal"] <= 1e-6

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
        # the dephased lifts are the umbilical geodesic sphere of radius r(s)
        rec = slice_at(thm1_n2, s)
        assert rec.dephase_residual <= 1e-14

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
        res = curve_invariant_residuals(curve)
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
                              s_window=(-2.0, 2.0), ode_tol=FINE_ODE_TOL)
        X = np.zeros((len(s), n - 1))
        assert np.array_equal(imm.chart.to_model(X[:1]), np.eye(1, n))
        lift = imm.evaluate(s, X)
        gamma = curve(n, rho, s).gamma
        assert np.array_equal(gamma, lift[:, [0, -1]])
        assert np.max(np.abs(lift[:, 1:-1])) == 0.0

    def test_wavy_curve_invariants(self):
        s = np.linspace(-2, 2, 201)
        res = curve_invariant_residuals(wavy_control_curve(s))
        assert res["norm"] <= 1e-10
        assert res["horizontal"] <= 1e-8

    def test_geodesic_curve(self):
        s = np.linspace(0.3, 2.0, 101)
        curve = real_geodesic_curve(s)
        assert curve_invariant_residuals(curve)["horizontal"] == 0.0


class TestDetunedControl:
    def test_detuned_still_legendrian(self):
        imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True),
                              grid=(8, 8))
        assert imm.header["horizontal"] <= 1e-6
        assert imm.header["quadric"] <= 1e-8
