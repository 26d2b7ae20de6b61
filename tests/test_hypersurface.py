"""The hypersurface family: shape operator, curvature formulas, flow, scans."""

import math

import numpy as np
import pytest

from solvgeom.hypersurface import (
    E12,
    E13,
    E23,
    H0,
    H1,
    GroupElement,
    HypersurfaceModel,
    Regime,
    TangentVector,
    _abelian_diagonals,
    _plane_terms,
    ambient_curvature,
    build_hypersurface_algebra,
    classify,
    flow_point,
    gauss_sectional,
    leaf_conjugate,
    mean_curvature,
    nonpositivity_scan,
    reference_plane,
    reference_plane_curvature,
    ricci_closed,
    ricci_extremes,
    ricci_gauss_many,
    ricci_polynomial,
    second_fundamental_form,
    second_fundamental_matrix,
    shape_spectrum,
    volume_distortion,
    zero_curvature_search,
)
from solvgeom.matrices import inner_solvable

HALF_SQRT3 = math.sqrt(3.0) / 2.0

ANGLES = [0.0, 0.2, math.pi / 6, math.pi / 4, math.pi / 3, 1.3, math.pi / 2]


def unit_tangent(seed, n=1):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 7))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [TangentVector.from_coeffs(row) for row in v]


class TestModel:
    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 2 + 0.1, math.nan])
    def test_angle_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            HypersurfaceModel.from_angle(alpha)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_frame_orthonormal(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        g = np.array(
            [[inner_solvable(a, b) for b in model.basis] for a in model.basis]
        )
        assert np.max(np.abs(g - np.eye(7))) <= 1e-14
        assert inner_solvable(model.axis, model.normal) == pytest.approx(0.0, abs=1e-14)
        assert inner_solvable(model.normal, model.normal) == pytest.approx(1.0, abs=1e-14)

    def test_axis_normal_at_zero(self):
        model = HypersurfaceModel.from_angle(0.0)
        assert model.axis.allclose(H0)
        assert model.normal.allclose(-1.0 * H1)

    def test_axis_normal_at_right_angle(self):
        model = HypersurfaceModel.from_angle(math.pi / 2)
        assert model.axis.allclose(H1)
        assert model.normal.allclose(H0)


class TestTangentVector:
    def test_coeff_roundtrip(self):
        v = TangentVector(a=1 - 2j, b=0.5j, c=3.0, t=-1.25)
        assert TangentVector.from_coeffs(v.coeffs()) == v

    def test_from_coeffs_shape_checked(self):
        with pytest.raises(ValueError, match="7"):
            TangentVector.from_coeffs(np.zeros(6))

    def test_matrix_embedding(self):
        model = HypersurfaceModel.from_angle(0.3)
        v = TangentVector(a=2j, b=1.0, c=-1j, t=0.5)
        m = v.matrix(model)
        expected = (
            2j * E12.entries + E23.entries - 1j * E13.entries
            + 0.5 * model.axis.entries
        )
        assert np.max(np.abs(m.entries - expected)) <= 1e-15

    def test_norm_matches_inner(self):
        model = HypersurfaceModel.from_angle(1.0)
        v = TangentVector(a=1 + 1j, b=-2.0, c=0.5j, t=0.7)
        m = v.matrix(model)
        assert v.norm_sq() == pytest.approx(inner_solvable(m, m), abs=1e-13)


class TestSecondFundamentalForm:
    @pytest.mark.parametrize("alpha", ANGLES)
    def test_diagonal_values(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        s, c = math.sin(alpha), math.cos(alpha)
        vv = TangentVector(a=1)
        ww = TangentVector(b=1)
        zz = TangentVector(c=1)
        hh = TangentVector(t=1)
        assert second_fundamental_form(model, vv, vv) == pytest.approx(
            HALF_SQRT3 * c - s / 2, abs=1e-13
        )
        assert second_fundamental_form(model, ww, ww) == pytest.approx(
            -HALF_SQRT3 * c - s / 2, abs=1e-13
        )
        assert second_fundamental_form(model, zz, zz) == pytest.approx(-s, abs=1e-13)
        assert second_fundamental_form(model, hh, hh) == pytest.approx(0.0, abs=1e-13)
        assert second_fundamental_form(model, vv, ww) == pytest.approx(0.0, abs=1e-13)

    def test_value_at_pi_sixth(self):
        model = HypersurfaceModel.from_angle(math.pi / 6)
        v = TangentVector(a=1)
        assert second_fundamental_form(model, v, v) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_matrix_is_diagonal(self, alpha):
        m = second_fundamental_matrix(HypersurfaceModel.from_angle(alpha))
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-13

    def test_symmetric_bilinear(self):
        model = HypersurfaceModel.from_angle(0.9)
        x, y = unit_tangent(3, 2)
        assert second_fundamental_form(model, x, y) == pytest.approx(
            second_fundamental_form(model, y, x), abs=1e-14
        )

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_spectrum_and_mean(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        s, c = math.sin(alpha), math.cos(alpha)
        expected = np.sort(
            [HALF_SQRT3 * c - s / 2, HALF_SQRT3 * c - s / 2,
             -HALF_SQRT3 * c - s / 2, -HALF_SQRT3 * c - s / 2, -s, -s, 0.0]
        )
        assert np.max(np.abs(shape_spectrum(model) - expected)) <= 1e-13
        assert mean_curvature(model) == pytest.approx(-4.0 * s, abs=1e-13)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_largest_eigenvalue_closed_form(self, alpha):
        top = shape_spectrum(HypersurfaceModel.from_angle(alpha))[-1]
        assert top == pytest.approx(
            max(0.0, math.cos(alpha + math.pi / 6)), abs=1e-13
        )

    def test_trace_identity_on_grid(self):
        for alpha in np.linspace(0.0, math.pi / 2, 100):
            model = HypersurfaceModel.from_angle(alpha)
            mean = mean_curvature(model)
            assert abs(sum(shape_spectrum(model)) - mean) <= 1e-12
            assert abs(mean + 4.0 * math.sin(alpha)) <= 1e-12


class TestCurvature:
    def test_degenerate_plane_rejected(self):
        model = HypersurfaceModel.from_angle(0.5)
        v = TangentVector(a=1)
        with pytest.raises(ValueError, match="degenerate"):
            gauss_sectional(model, v, TangentVector(a=2))

    def test_small_plane_accepted(self):
        # the degenerate-plane test is relative to |X1|^2 |X2|^2
        model = HypersurfaceModel.from_angle(0.5)
        unit = gauss_sectional(model, TangentVector(a=1), TangentVector(b=1))
        small = gauss_sectional(model, TangentVector(a=1e-7), TangentVector(b=1))
        assert small == pytest.approx(unit, rel=1e-9)

    def test_nearly_parallel_large_plane_rejected(self):
        model = HypersurfaceModel.from_angle(0.5)
        x = TangentVector(a=1e3)
        y = TangentVector(a=1e3, b=1e-4)  # 1e-7 rad from x
        with pytest.raises(ValueError, match="degenerate"):
            gauss_sectional(model, x, y)

    def test_ambient_curvature_validates_membership(self):
        from solvgeom.matrices import SquareComplexMatrix

        low = SquareComplexMatrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="solvable"):
            ambient_curvature(low, E12)

    def test_ambient_plane_frozen_value(self):
        # K(E12, H0) = -1/4: the restricted-root plane of the half root
        num = ambient_curvature(E12, H0)
        den = inner_solvable(E12, E12) * inner_solvable(H0, H0)
        assert num / den == pytest.approx(-0.25, abs=1e-14)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_ricci_closed_requires_unit(self, alpha):
        with pytest.raises(ValueError, match="unit"):
            ricci_closed(alpha, TangentVector(a=2))

    def test_ricci_closed_frozen_directions(self):
        third = math.pi / 3
        for alpha in ANGLES:
            s = math.sin(alpha)
            assert ricci_closed(alpha, TangentVector(a=1)) == pytest.approx(
                -3 + 4 * s * math.sin(alpha - third), abs=1e-13
            )
            assert ricci_closed(alpha, TangentVector(b=1)) == pytest.approx(
                -3 + 4 * s * math.sin(alpha + third), abs=1e-13
            )
            assert ricci_closed(alpha, TangentVector(c=1j)) == pytest.approx(
                -3 + 4 * s * s, abs=1e-13
            )
            assert ricci_closed(alpha, TangentVector(t=1)) == pytest.approx(
                -3.0, abs=1e-13
            )

    def test_ricci_gauss_is_quadratic_form(self):
        model = HypersurfaceModel.from_angle(0.8)
        (x,) = unit_tangent(5)
        scaled = TangentVector(a=2 * x.a, b=2 * x.b, c=2 * x.c, t=2 * x.t)
        assert ricci_gauss_many(model, scaled.coeffs()) == pytest.approx(
            4.0 * ricci_gauss_many(model, x.coeffs()), abs=1e-12
        )

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_polynomial_matches_gauss(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        rng = np.random.default_rng(12)
        for _ in range(10):
            v = TangentVector.from_coeffs(rng.standard_normal(7))
            assert ricci_polynomial(alpha, v) == pytest.approx(
                ricci_gauss_many(model, v.coeffs()), abs=1e-12
            )

    def test_extremes_frozen(self):
        assert ricci_extremes(0.0) == (-3.0, -3.0)
        lo, hi = ricci_extremes(math.pi / 6)
        assert lo == pytest.approx(-4.0, abs=1e-14)
        assert hi == pytest.approx(-1.0, abs=1e-14)
        lo, hi = ricci_extremes(math.pi / 3)
        assert lo == pytest.approx(-3.0, abs=1e-14)
        assert hi == pytest.approx(0.0, abs=1e-9)
        lo, hi = ricci_extremes(math.pi / 2)
        assert lo == pytest.approx(-3.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_extremes_bound_samples(self, alpha):
        lo, hi = ricci_extremes(alpha)
        for x in unit_tangent(20, 50):
            val = ricci_closed(alpha, x)
            assert lo - 1e-10 <= val <= hi + 1e-10

    def test_extremes_attained(self):
        # the minimum on (0, pi/3) undercuts the axis value -3
        lo, _ = ricci_extremes(math.pi / 6)
        assert lo < -3.0
        assert ricci_closed(math.pi / 6, TangentVector(a=1)) == pytest.approx(
            lo, abs=1e-13
        )

    def test_max_strictly_increasing_with_single_root(self):
        grid = np.append(np.arange(0.0, math.pi / 2, 1e-3), math.pi / 2)
        tops = np.array([ricci_extremes(a)[1] for a in grid])
        assert np.all(np.diff(tops) > 0.0)
        assert np.count_nonzero(np.diff(np.sign(tops))) == 1
        lo, hi = 0.0, math.pi / 2
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if ricci_extremes(mid)[1] < 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - math.pi / 3) <= 1e-6


class TestReferencePlane:
    def test_orthonormal(self):
        x1, x2 = reference_plane()
        assert x1.norm_sq() == pytest.approx(1.0, abs=1e-14)
        assert x2.norm_sq() == pytest.approx(1.0, abs=1e-14)
        assert float(x1.coeffs() @ x2.coeffs()) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_curvature_closed_form(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        x1, x2 = reference_plane()
        assert gauss_sectional(model, x1, x2) == pytest.approx(
            reference_plane_curvature(alpha), abs=1e-12
        )

    def test_positive_away_from_zero(self):
        assert reference_plane_curvature(0.0) == pytest.approx(0.0, abs=1e-15)
        for alpha in np.linspace(0.01, math.pi / 2, 25):
            assert reference_plane_curvature(alpha) > 0.0

    def test_value_at_pi_quarter(self):
        assert reference_plane_curvature(math.pi / 4) == pytest.approx(
            2.0 / (3.0 * math.sqrt(3.0)) + 1.0 / 18.0, abs=1e-14
        )


class TestClassify:
    def test_flags_at_zero(self):
        rep = classify(0.0, samples=50)
        assert rep.is_minimal and rep.is_einstein and not rep.is_horosphere_range
        assert rep.regime is Regime.NEGATIVE_RICCI
        assert rep.mean_curvature == pytest.approx(0.0, abs=1e-14)
        assert rep.cheeger == pytest.approx(4.0, abs=1e-12)

    def test_flags_mid_range(self):
        rep = classify(math.pi / 6, samples=50)
        assert not rep.is_minimal and not rep.is_einstein
        assert not rep.is_horosphere_range
        assert rep.regime is Regime.NEGATIVE_RICCI
        assert rep.ricci_max < 0.0

    def test_flags_at_boundary(self):
        rep = classify(math.pi / 3, samples=50)
        assert rep.regime is Regime.RICCI_NULL_DIRECTION
        assert rep.is_horosphere_range
        assert rep.ricci_max == pytest.approx(0.0, abs=1e-9)

    def test_flags_past_boundary(self):
        rep = classify(1.3, samples=50)
        assert rep.regime is Regime.MIXED_RICCI
        assert rep.is_horosphere_range
        assert rep.ricci_max > 0.0

    def test_cross_residual_small(self):
        rep = classify(0.9, samples=300, seed=4)
        assert rep.cross_pipeline_residual <= 1e-10

    def test_zero_samples(self):
        rep = classify(0.5, samples=0)
        assert rep.cross_pipeline_residual == 0.0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            classify(0.5, samples=-1)

    def test_row_columns(self):
        row = classify(0.25, samples=10).as_row()
        assert list(row) == [
            "alpha", "mean_curvature", "cheeger", "ricci_min", "ricci_max",
            "k_sigma", "regime", "minimal", "einstein", "horosphere_range",
            "cross_residual",
        ]

    def test_deterministic_for_seed(self):
        a = classify(0.7, samples=100, seed=9)
        b = classify(0.7, samples=100, seed=9)
        assert a == b


class TestFlowAndFoliation:
    def test_matrix_is_unit_determinant_triangular(self):
        q = GroupElement(x=1 + 1j, y=2j, z=-0.5, t=0.4, alpha=0.6, s=0.2)
        m = q.matrix()
        assert abs(m[1, 0]) == 0.0 and abs(m[2, 0]) == 0.0 and abs(m[2, 1]) == 0.0
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_flow_is_one_parameter_group(self):
        q = GroupElement(x=1j, y=0.5, z=2.0, t=-0.3, alpha=0.8)
        assert flow_point(flow_point(q, 0.4), 0.6) == flow_point(q, 1.0)
        assert flow_point(q, 0.0) == q

    def test_leaf_conjugate_frozen_example(self):
        q = GroupElement(x=1.0, alpha=0.0)
        moved = leaf_conjugate(q, 1.0)
        assert moved.x == pytest.approx(math.exp(math.sqrt(3.0) / 2.0), abs=1e-14)
        assert moved.y == 0.0 and moved.z == 0.0 and moved.t == 0.0

    def test_leaf_conjugate_identity_at_zero_time(self):
        q = GroupElement(x=1j, y=2.0, z=-1j, t=0.9, alpha=1.1)
        assert leaf_conjugate(q, 0.0) == q

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_conjugation_matrix_identity(self, alpha):
        rng = np.random.default_rng(6)
        _, normal = _abelian_diagonals(alpha)
        for _ in range(5):
            coords = rng.standard_normal(8)
            q = GroupElement(
                x=complex(coords[0], coords[1]), y=complex(coords[2], coords[3]),
                z=complex(coords[4], coords[5]), t=coords[6], alpha=alpha,
            )
            s = float(coords[7])
            exp_t = np.diag(np.exp(s * normal))
            lhs = exp_t @ leaf_conjugate(q, s).matrix()
            rhs = q.matrix() @ exp_t
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_flow_point_matrix(self):
        q = GroupElement(x=1 - 1j, y=0.25j, z=3.0, t=0.5, alpha=0.9)
        _, normal = _abelian_diagonals(0.9)
        expected = q.matrix() @ np.diag(np.exp(0.7 * normal))
        assert np.max(np.abs(flow_point(q, 0.7).matrix() - expected)) <= 1e-12

    def test_volume_distortion_exact_at_zero(self):
        for s in np.linspace(-5.0, 5.0, 20):
            assert volume_distortion(0.0, s) == 1.0

    def test_volume_distortion_frozen(self):
        assert volume_distortion(math.pi / 2, 1.0) == pytest.approx(
            math.exp(-4.0), rel=1e-15
        )

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_volume_matches_coordinate_scalings(self, alpha):
        # unipotent coordinates are complex, so each scaling counts twice
        q = GroupElement(x=1.0, y=1.0, z=1.0, alpha=alpha)
        s = 0.73
        moved = leaf_conjugate(q, s)
        product = (abs(moved.x) * abs(moved.y) * abs(moved.z)) ** 2
        assert product == pytest.approx(volume_distortion(alpha, s), rel=1e-12)


class TestScans:
    def test_reference_plane_always_sampled(self):
        scan = nonpositivity_scan(0.9, samples=0)
        assert scan.max_curvature == pytest.approx(
            reference_plane_curvature(0.9), abs=1e-12
        )

    def test_positive_plane_found(self):
        scan = nonpositivity_scan(math.pi / 4, samples=2000, seed=1)
        assert scan.max_curvature >= reference_plane_curvature(math.pi / 4) - 1e-12
        x1, x2 = scan.max_plane
        model = HypersurfaceModel.from_angle(math.pi / 4)
        assert gauss_sectional(model, x1, x2) == pytest.approx(
            scan.max_curvature, abs=1e-10
        )

    def test_nonpositive_at_zero(self):
        scan = nonpositivity_scan(0.0, samples=20000, seed=2)
        assert scan.max_curvature <= 1e-10
        assert scan.samples == 20000

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            nonpositivity_scan(0.3, samples=-5)

    def test_zero_plane_search(self):
        val, (x1, x2) = zero_curvature_search(0.0, samples=1500, seed=3)
        assert val <= 1e-6
        model = HypersurfaceModel.from_angle(0.0)
        assert abs(gauss_sectional(model, x1, x2)) == pytest.approx(val, abs=1e-12)

    def test_gauss_numerator_zero_for_parallel(self):
        model = HypersurfaceModel.from_angle(0.4)
        v = TangentVector(a=1, t=0.5)
        num, _ = _plane_terms(model, v.coeffs(), v.coeffs())
        assert num == pytest.approx(0.0, abs=1e-13)


class TestAlgebraConstruction:
    @pytest.mark.parametrize("alpha", ANGLES)
    def test_dim_labels_gram(self, alpha):
        alg = build_hypersurface_algebra(alpha)
        assert alg.dim == 7
        assert alg.labels == ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H")
        assert np.max(np.abs(alg.gram - np.eye(7))) <= 1e-14

    def test_bracket_constants(self):
        alg = build_hypersurface_algebra(0.25)
        c = alg.structure
        s, co = math.sin(0.25), math.cos(0.25)
        assert c[0, 2, 4] == pytest.approx(1.0, abs=1e-12)
        assert c[0, 3, 5] == pytest.approx(1.0, abs=1e-12)
        assert c[1, 3, 4] == pytest.approx(-1.0, abs=1e-12)
        assert c[6, 0, 0] == pytest.approx(
            co / 2 + HALF_SQRT3 * s, abs=1e-12
        )
        assert c[6, 2, 2] == pytest.approx(
            co / 2 - HALF_SQRT3 * s, abs=1e-12
        )
        assert c[6, 4, 4] == pytest.approx(co, abs=1e-12)
