import numpy as np
import pytest

from lagmin.model_spaces import (
    HermitianSpace,
    InvalidArgument,
    IsometryElement,
    PreconditionViolation,
    ProjectivePoint,
    embed_isometry,
    herm_form,
    legendrian_residual,
    normalize_phase,
    product_gram,
    projective_distance,
    quadric_defect,
    random_euclid,
    random_so,
    random_so1,
    relative_quadric_defect,
    umbilical_embed,
    validate_model_point,
)

from helpers import horizontal_project

RNG = np.random.default_rng(42)


def _rand_vec(space, rng=RNG):
    d = space.ambient_dim
    return rng.normal(size=d) + 1j * rng.normal(size=d)


@pytest.fixture
def ch2():
    return HermitianSpace(2, "hyperbolic")


class TestHermForm:
    def test_signature_examples(self, ch2):
        e_last = np.array([0, 0, 1.0], dtype=complex)
        e_first = np.array([1.0, 0, 0], dtype=complex)
        assert herm_form(ch2, e_last, e_last) == -1
        assert herm_form(ch2, e_first, e_first) == 1

    def test_point_on_h31(self):
        space = HermitianSpace(1, "hyperbolic")
        z = np.array([1.0, np.sqrt(2.0)], dtype=complex)
        assert abs(herm_form(space, z, z) + 1.0) < 1e-15
        assert quadric_defect(space, z) <= 1e-12

    def test_sesquilinear_and_conjugate_symmetric(self, ch2):
        for _ in range(100):
            z, w, v = (_rand_vec(ch2) for _ in range(3))
            a = RNG.normal() + 1j * RNG.normal()
            assert abs(herm_form(ch2, a * z + v, w)
                       - (a * herm_form(ch2, z, w) + herm_form(ch2, v, w))) < 1e-12
            assert abs(herm_form(ch2, z, a * w)
                       - np.conj(a) * herm_form(ch2, z, w)) < 1e-12
            assert abs(herm_form(ch2, w, z) - np.conj(herm_form(ch2, z, w))) < 1e-12

    def test_dimension_mismatch(self, ch2):
        with pytest.raises(InvalidArgument):
            herm_form(ch2, np.zeros(4, dtype=complex), np.zeros(4, dtype=complex))

    def test_spherical_is_positive(self):
        cp2 = HermitianSpace(2, "spherical")
        z = _rand_vec(cp2)
        assert herm_form(cp2, z, z).real > 0

    def test_flat_form(self):
        # space None: every sign +1 on any number of coordinates, with the
        # leading axes broadcast
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 1, 3)) + 1j * rng.normal(size=(4, 1, 3))
        w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        got = herm_form(None, z, w)
        assert got.shape == (4, 2)
        assert np.array_equal(got, herm_form(HermitianSpace(2, "spherical"), z, w))
        ref = np.array([[sum(a * np.conj(b) for a, b in zip(zk[0], wl)) for wl in w] for zk in z])
        assert np.max(np.abs(got - ref)) <= 1e-14
        one = np.array([1.0 + 2.0j])
        assert herm_form(None, one, one) == 5.0


class TestHermGram:
    """The Hermitian Gram of stacked vectors by ``product_gram``, each
    vector a curve factor times the block 1 at one point, against the
    einsum form ``herm_form``."""

    @pytest.mark.parametrize("signature", [None, "hyperbolic", "spherical"])
    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    @pytest.mark.parametrize("A", [1, 4, 64])
    @pytest.mark.parametrize("B", [1, 3])
    def test_matches_herm_form(self, signature, m, A, B):
        rng = np.random.default_rng(1000 * m + 10 * A + B)
        P = 5  # stacked points
        # z as a swapaxes view (not contiguous), w contiguous, mixed scales
        z = (rng.normal(size=(P, m, A)) + 1j * rng.normal(size=(P, m, A))).swapaxes(-1, -2)
        z = z * 10.0 ** rng.uniform(-3, 3, size=(P, A, 1))
        w = rng.normal(size=(P, B, m)) + 1j * rng.normal(size=(P, B, m))
        space = None if signature is None else HermitianSpace(m - 1, signature)
        ref = herm_form(space, z[:, :, None, :], w[:, None, :, :])
        # z_a and w_b as A + B factors on the P points, the pairs (z_a, w_b)
        factors = np.concatenate([z, w], axis=1).swapaxes(0, 1)
        u, v = np.repeat(np.arange(A), B), np.tile(A + np.arange(B), A)
        G = product_gram(space, factors, np.ones((A + B, 1, m)), None, u, v)  # (A B, P, 1)
        G = G[..., 0].T.reshape(P, A, B)
        re, im = G.real, G.imag
        scale = np.abs(z) @ np.abs(w).swapaxes(-1, -2)  # sum_i |z_i| |w_i|
        ulp = np.finfo(float).eps * scale
        assert np.all(np.abs(re - ref.real) <= 4 * ulp)
        assert np.all(np.abs(im - ref.imag) <= 4 * ulp)


class TestProductGram:
    @pytest.mark.parametrize("signature", [None, "hyperbolic", "spherical"])
    @pytest.mark.parametrize("with_delta", [False, True])
    def test_against_herm_gram_of_the_composed_vectors(self, signature, with_delta):
        rng = np.random.default_rng(3)
        R, S, M, m = 4, 5, 6, 3

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        A, B = cplx(R, S, m), cplx(R, M, m)
        delta = cplx(R, S, m) if with_delta else None
        w = A[:, :, None] * B[:, None]  # (R, S, M, m)
        if with_delta:
            w = w + delta[:, :, None]
        w = w.transpose(1, 2, 0, 3).reshape(S * M, R, m)  # s slowest
        space = None if signature is None else HermitianSpace(m - 1, signature)
        u, v = np.repeat(np.arange(R), R), np.tile(np.arange(R), R)
        got = product_gram(space, A, B, delta, u, v)  # (R R, S, M)
        assert got.shape == (R * R, S, M)
        got = got.reshape(R * R, S * M).T.reshape(S * M, R, R)
        ref = herm_form(space, w[:, :, None], w[:, None])
        # within a few ulp of the factor terms' magnitudes
        terms = np.abs(A)[:, :, None] * np.abs(B)[:, None]
        if with_delta:
            terms = terms + np.abs(delta)[:, :, None]
        terms = terms.transpose(1, 2, 0, 3).reshape(S * M, R, m)
        ulp = np.finfo(float).eps * (terms @ terms.swapaxes(-1, -2))
        assert np.all(np.abs(got - ref) <= 16 * ulp)


class TestQuadric:
    def test_membership(self, ch2):
        assert quadric_defect(ch2, np.array([0, 0, 1.0], dtype=complex)) == 0.0
        assert quadric_defect(ch2, np.array([1.0, 0, 0], dtype=complex)) == 2.0

    def test_horosphere_lift_is_on_quadric(self, ch2):
        for _ in range(20):
            x = RNG.normal(size=1)
            h = float(x @ x) / 2.0
            z = np.array([x[0], h, h + 1.0], dtype=complex)
            assert quadric_defect(ch2, z) <= 1e-12


class TestProjective:
    def test_unit_phase_equal(self, ch2):
        z = np.array([0.3, 0.1j, 1.2], dtype=complex)
        assert projective_distance(ch2, z, 1j * z) <= 1e-12
        assert projective_distance(ch2, z, -z) <= 1e-12

    def test_distinct_points(self, ch2):
        p = np.array([0, 0, 1.0], dtype=complex)
        q = np.array([np.sinh(1.0), 0, np.cosh(1.0)], dtype=complex)
        assert projective_distance(ch2, p, q) > 0.1

    def test_normalize_phase_deterministic(self):
        z = np.array([0.2 + 0.1j, -1.3j, 0.4], dtype=complex)
        w = normalize_phase(z)
        k = np.argmax(np.abs(w))
        assert w[k].imag == pytest.approx(0.0, abs=1e-16)
        assert w[k].real >= 0
        # invariant under a further phase
        w2 = normalize_phase(np.exp(0.7j) * z)
        assert np.max(np.abs(w - w2)) < 1e-14

    def test_projective_point_renormalizes(self, ch2):
        rep = np.array([0, 0, 1.0 + 3e-8], dtype=complex)
        p = ProjectivePoint(ch2, rep)
        assert abs(herm_form(ch2, p.rep, p.rep) + 1.0) < 1e-14
        with pytest.raises(InvalidArgument):
            ProjectivePoint(ch2, np.array([0, 0, 1.1], dtype=complex))

    def test_projective_point_equality(self, ch2):
        rep = np.array([0.5, 0.2j, np.sqrt(1.29 + 1e-0)], dtype=complex)
        rep = rep / np.sqrt(-herm_form(ch2, rep, rep).real)
        assert ProjectivePoint(ch2, rep) == ProjectivePoint(ch2, np.exp(2.1j) * rep)


class TestHorizontalProject:
    def test_fixes_horizontal(self, ch2):
        z = np.array([0, 0, 1.0], dtype=complex)
        v = np.array([0.3 + 0.2j, -0.1j, 0], dtype=complex)
        assert abs(herm_form(ch2, v, z)) < 1e-15
        assert np.max(np.abs(horizontal_project(ch2, z, v) - v)) < 1e-15

    def test_annihilates_fiber(self, ch2):
        z = np.array([0.4, 0.3, np.sqrt(1.25)], dtype=complex)
        out = horizontal_project(ch2, z, 1j * z)
        assert np.max(np.abs(out)) < 1e-14

    def test_idempotent_and_horizontal(self):
        space = HermitianSpace(1, "hyperbolic")
        z = np.array([1.0, np.sqrt(2.0)], dtype=complex)
        for _ in range(25):
            v = _rand_vec(space)
            h = horizontal_project(space, z, v)
            assert abs(herm_form(space, h, z)) < 1e-12
            assert np.max(np.abs(horizontal_project(space, z, h) - h)) < 1e-12

    def test_requires_quadric_base(self, ch2):
        with pytest.raises(PreconditionViolation):
            horizontal_project(ch2, np.array([1.0, 0, 0], dtype=complex),
                               np.zeros(3, dtype=complex))


def _quadric_points(space, P, rng):
    """P random points of the space's quadric, shape (P, n+1)."""
    z = rng.normal(size=(P, space.ambient_dim)) + 1j * rng.normal(size=(P, space.ambient_dim))
    if space.signature == "spherical":
        return z / np.linalg.norm(z, axis=-1, keepdims=True)
    # the last coordinate makes (z, z) = -1
    spacelike = np.sum(np.abs(z[:, :-1]) ** 2, axis=-1)
    z[:, -1] *= np.sqrt(1.0 + spacelike) / np.abs(z[:, -1])
    return z


class TestHorizontalSplit:
    @pytest.mark.parametrize("signature", ["hyperbolic", "spherical"])
    def test_stacked_split_against_the_einsum_form(self, signature):
        rng = np.random.default_rng(7)
        space = HermitianSpace(3, signature)
        z = _quadric_points(space, 20, rng)
        v = rng.normal(size=(20, 5, 4)) + 1j * rng.normal(size=(20, 5, 4))
        h = horizontal_project(space, z[:, None, :], v)
        assert h.shape == v.shape
        # every part is horizontal, and v = h + (v, z) z / (z, z)
        c = herm_form(space, v, z[:, None, :])
        assert np.max(np.abs(herm_form(space, h, z[:, None, :]))) <= 1e-12
        back = h + (c / space.quadric_target)[..., None] * z[:, None, :]
        assert np.max(np.abs(back - v)) <= 1e-13
        # one vector at a time gives the same parts
        for k in (0, 3):
            assert np.max(np.abs(horizontal_project(space, z[k], v[k, 2]) - h[k, 2])) <= 1e-14

    def test_legendrian_residual_scale(self, ch2):
        z = np.array([[0.0, 0.0, 1.0]], dtype=complex)
        v = np.array([[[0.0, 0.0, 2.0], [1e-3, 0.0, 0.0]]], dtype=complex)
        c = herm_form(ch2, v, z[:, None, :])
        # |(v, z)| / max(|v| |z|, 1): a vertical vector scores 1, a small
        # horizontal one 0
        assert np.array_equal(legendrian_residual(z, np.linalg.norm(v, axis=-1), c), [[1.0, 0.0]])

    def test_relative_quadric_defect(self, ch2):
        z = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 10.0], [0.0, 0.0, 0.5]], dtype=complex)
        # |(z,z) + 1| over max(|z|^2, 1)
        assert np.array_equal(relative_quadric_defect(ch2, z), [0.0, 99.0 / 100.0, 0.75])
        assert np.array_equal(relative_quadric_defect(ch2, z) * [1.0, 100.0, 1.0],
                              quadric_defect(ch2, z))


class TestEmbedIsometry:
    def test_identity(self):
        el = embed_isometry("so_n", np.eye(3), 3)
        assert np.max(np.abs(el.matrix - np.eye(4))) == 0.0

    def test_euclid_displayed_matrix(self):
        el = embed_isometry("euclid_n", (np.array([[1.0]]), np.array([1.0])), 2)
        expected = np.array([
            [1.0, 1.0, 1.0],
            [-1.0, 0.5, -0.5],
            [1.0, 0.5, 1.5],
        ])
        assert np.max(np.abs(el.matrix - expected)) < 1e-15

    @pytest.mark.parametrize("group,n", [("so_n", 2), ("so_n", 4), ("so1_n", 3), ("euclid_n", 3)])
    def test_form_preservation_random(self, group, n):
        rng = np.random.default_rng(7)
        space = HermitianSpace(n, "hyperbolic")
        S = space.signature_matrix()
        for _ in range(20):
            if group == "so_n":
                params = random_so(rng, n)
            elif group == "so1_n":
                params = random_so1(rng, n)
            else:
                params = random_euclid(rng, n)
            m = embed_isometry(group, params, n).matrix
            assert np.max(np.abs(np.conj(m).T @ S @ m - S)) < 1e-10

    def test_preserves_herm_form(self):
        rng = np.random.default_rng(3)
        space = HermitianSpace(3, "hyperbolic")
        m = embed_isometry("euclid_n", random_euclid(rng, 3), 3).matrix
        for _ in range(100):
            z, w = _rand_vec(space, rng), _rand_vec(space, rng)
            assert abs(herm_form(space, z @ m, w @ m) - herm_form(space, z, w)) < 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidArgument):
            embed_isometry("so_n", np.diag([2.0, 1.0]), 2)


class TestUmbilical:
    def test_horosphere_origin(self):
        out = umbilical_embed("horosphere", np.zeros(2))
        assert np.max(np.abs(out - np.array([0, 0, 0, 1.0]))) == 0.0

    def test_geodesic_sphere_display(self):
        x = np.array([1.0, 0, 0])
        out = umbilical_embed("geodesic_sphere", x, r=1.0)
        expected = np.array([np.sinh(1.0), 0, 0, np.cosh(1.0)])
        assert np.max(np.abs(out - expected)) < 1e-15

    @pytest.mark.parametrize("kind", ["geodesic_sphere", "tube", "horosphere"])
    def test_images_on_quadric(self, kind):
        rng = np.random.default_rng(11)
        n = 3
        space = HermitianSpace(n, "hyperbolic")
        for _ in range(20):
            if kind == "geodesic_sphere":
                x = rng.normal(size=n)
                x = x / np.linalg.norm(x)
                out = umbilical_embed(kind, x, r=0.8)
            elif kind == "tube":
                y = rng.normal(size=n - 1) * 0.7
                x = np.r_[y, np.sqrt(1.0 + y @ y)]
                out = umbilical_embed(kind, x, r=0.8)
            else:
                out = umbilical_embed(kind, rng.normal(size=n - 1))
            assert quadric_defect(space, out.astype(complex)) <= 1e-12
            assert np.max(np.abs(np.imag(out.astype(complex)))) == 0.0

    def test_kind_point_mismatch(self):
        with pytest.raises(InvalidArgument):
            umbilical_embed("geodesic_sphere", np.array([2.0, 0.0]), r=1.0)
        with pytest.raises(InvalidArgument):
            umbilical_embed("tube", np.array([1.0, 0.0]), r=1.0)


class TestModelPoints:
    def test_sphere(self):
        validate_model_point("sphere", np.array([0.6, 0.8]))
        with pytest.raises(InvalidArgument):
            validate_model_point("sphere", np.array([0.6, 0.9]))

    def test_hyperbolic_sheet(self):
        validate_model_point("hyperbolic", np.array([0.0, 1.0]))
        with pytest.raises(InvalidArgument):
            validate_model_point("hyperbolic", np.array([0.0, -1.0]))

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            validate_model_point("torus", np.zeros(2))


class TestIsometryElement:
    def test_rejects_bad_matrix(self):
        space = HermitianSpace(2, "hyperbolic")
        with pytest.raises(InvalidArgument):
            IsometryElement(space, np.eye(3) * 1.5)


def _one_pair_distance(z, w):
    """The former one-pair projective_distance, kept as the bitwise reference."""
    k = int(np.argmax(np.abs(w)))
    if abs(z[k]) == 0.0:
        aligned = z
    else:
        phase = w[k] / z[k]
        phase = phase / abs(phase)
        aligned = z * phase
    scale = max(float(np.max(np.abs(z))), float(np.max(np.abs(w))), 1.0)
    return float(np.max(np.abs(aligned - w))) / scale


class TestProjectiveDistanceRows:
    def test_rows_match_one_pair_calls_bitwise(self):
        rng = np.random.default_rng(7)
        space = HermitianSpace(3, "hyperbolic")
        for trial in range(40):
            z = (rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))) * rng.uniform(0.1, 30)
            w = z * np.exp(1j * rng.uniform(0, 6.3)) + 10.0 ** rng.integers(-16, 0) * (
                rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
            z[2, np.argmax(np.abs(w[2]))] = 0.0  # no phase to align with
            rows = projective_distance(space, z, w)
            assert rows.shape == (9,)
            for i in range(9):
                assert rows[i] == projective_distance(space, z[i], w[i]) == _one_pair_distance(z[i], w[i])

    def test_stacked_leading_axes(self):
        rng = np.random.default_rng(8)
        space = HermitianSpace(2, "spherical")
        z = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        out = projective_distance(space, z, z * 1j)
        assert out.shape == (2, 3)
        assert np.max(out) < 1e-15


class TestExpm:
    """The numpy expm against a 30-digit reference and scipy, on the very
    generators random_so and random_so1 draw in the invariance check."""

    @staticmethod
    def _drawn_generators(monkeypatch, n):
        import lagmin.model_spaces as ms

        drawn = []
        monkeypatch.setattr(ms, "expm", lambda X: drawn.append(X) or np.eye(len(X)))
        rng = np.random.default_rng(42)  # run_checks' seed and draw order
        rng.integers(0, 4096, size=12)
        for _ in range(12):
            ms.random_so(rng, n)
        rng = np.random.default_rng(42)
        rng.integers(0, 4096, size=12)
        for _ in range(12):
            ms.random_so1(rng, n)
        monkeypatch.undo()
        return drawn

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_reference_and_scipy(self, monkeypatch, n):
        import mpmath
        from scipy.linalg import expm as scipy_expm

        from lagmin.model_spaces import expm

        for X in self._drawn_generators(monkeypatch, n):
            with mpmath.workdps(30):
                exact = np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=float)
            scale = np.max(np.abs(exact))
            ours, theirs = expm(X), scipy_expm(X)
            assert np.max(np.abs(ours - exact)) <= 2e-15 * scale
            # scipy's own error reaches 4e-14 on one n = 5 rotation generator
            assert np.max(np.abs(ours - theirs)) <= np.max(np.abs(theirs - exact)) + 1e-15 * scale

    def test_group_elements(self):
        rng = np.random.default_rng(3)
        A = random_so(rng, 5)
        assert np.max(np.abs(A @ A.T - np.eye(5))) < 1e-14
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-13)
        B = random_so1(rng, 4)
        S = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.max(np.abs(B @ S @ B.T - S)) < 1e-13
