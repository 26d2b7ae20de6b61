"""The hypersurface family: shape operator, curvature formulas, flow, scans."""

import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvgeom.hypersurface import (
    AMBIENT_BASIS,
    E12,
    E13,
    E23,
    H0,
    H1,
    HypersurfaceModel,
    Regime,
    TangentVector,
    _SCAN_BLOCK,
    _abelian_diagonals,
    _conjugates,
    _GaussFamily,
    _ambient_curvature_tensor,
    _at,
    _gauss_family,
    _gram_schmidt,
    _model_at,
    _plane_blocks,
    _sectional_rows,
    ambient_curvature,
    build_hypersurface_algebra,
    classify,
    foliation_residual_many,
    gauss_sectional,
    mean_curvature,
    nonpositivity_scan,
    reference_plane,
    reference_plane_curvature,
    ricci_closed_many,
    ricci_extremes,
    ricci_gauss_many,
    ricci_polynomial,
    shape_spectrum,
    volume_distortion,
    zero_curvature_search,
)
from solvgeom import hypersurface
from solvgeom.engine import MetricLieAlgebra
from solvgeom.matrices import bracket, hermitian_part, inner_solvable

HALF_SQRT3 = math.sqrt(3.0) / 2.0

ANGLES = [0.0, 0.2, math.pi / 6, math.pi / 4, math.pi / 3, 1.3, math.pi / 2]


def gauss(alpha, member):
    """The Gauss family's ``member`` at ``alpha``, as every Gauss query reads it."""
    return _at(alpha, getattr(_gauss_family(), member))


def _plane_terms(operator, u, v):
    """The row-major reference for ``_sectional_rows``: w R w and w . w of the
    wedges w = u ^ v of rows u, v (..., 7), one row of w per plane."""
    i, j = np.triu_indices(7, 1)
    w = u[..., i] * v[..., j] - u[..., j] * v[..., i]
    dot = lambda a, b: np.einsum("...i,...i->...", a, b)
    return dot(w @ operator, w), dot(w, w)


def plane_abs_curvature(operator, w):
    """|K| of the planes spanned by the halves u, v of rows w (m, 14), inf where
    degenerate."""
    return np.abs(_sectional_rows(operator, w[:, :7], w[:, 7:], math.inf))


def unit_tangent(seed, n=1):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 7))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [TangentVector.from_coeffs(row) for row in v]


class Point(NamedTuple):
    """A point of the ambient group, the foliation tests' reference: unipotent
    entries x, y, z, the coefficient t of the axis H(alpha) and s of the unit
    normal T(alpha) in its diagonal exp(t H + s T)."""

    x: complex = 0j
    y: complex = 0j
    z: complex = 0j
    t: float = 0.0
    alpha: float = 0.0
    s: float = 0.0

    @property
    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=complex)

    def matrix(self) -> np.ndarray:
        """The upper triangular matrix, read off the model's frame matrices."""
        model = HypersurfaceModel(self.alpha)
        d = np.exp(self.t * np.diag(model.axis).real + self.s * np.diag(model.normal).real)
        m = np.diag(d).astype(complex)
        m[[0, 1, 0], [1, 2, 2]] = self.xyz * d[[1, 2, 2]]
        return m

    def conjugate(self, s) -> "Point":
        """The leaf conjugate of the point: its entries through ``_conjugates``."""
        return self._replace(**dict(zip("xyz", _conjugates(self.alpha, self.xyz, s))))


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
        assert np.max(np.abs(model.axis - H0)) <= 1e-12
        assert np.max(np.abs(model.normal + H1)) <= 1e-12

    def test_axis_normal_at_right_angle(self):
        model = HypersurfaceModel.from_angle(math.pi / 2)
        assert np.max(np.abs(model.axis - H1)) <= 1e-12
        assert np.max(np.abs(model.normal - H0)) <= 1e-12

    @pytest.mark.parametrize("attr, shape", [("axis", (3, 3)), ("normal", (3, 3)),
                                             ("basis", (7, 3, 3))])
    def test_frame_arrays_have_their_shapes(self, attr, shape):
        array = getattr(HypersurfaceModel.from_angle(0.3), attr)
        assert array.shape == shape and array.dtype == complex

    def test_basis_is_the_nilpotent_part_then_the_axis(self):
        model = HypersurfaceModel.from_angle(0.3)
        assert np.array_equal(model.basis[:6], AMBIENT_BASIS[:6])
        assert np.array_equal(model.basis[6], model.axis)

    def test_model_hashes_by_identity(self):
        model = HypersurfaceModel.from_angle(0.3)
        assert hash(model) == hash(model)
        assert {model: 1}[HypersurfaceModel.from_angle(0.3)] == 1
        assert model != HypersurfaceModel(model.alpha)

    def test_algebra_cached(self):
        model = HypersurfaceModel.from_angle(0.4)
        assert model.algebra is model.algebra
        assert model.algebra.labels == ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H")

    def test_one_shared_model_per_angle(self):
        # -0.0 == 0.0 with one hash: asked first, it must still give alpha 0.0
        _model_at.cache_clear()
        model = HypersurfaceModel.from_angle(-0.0)
        assert repr(model.alpha) == "0.0"
        assert HypersurfaceModel.from_angle(0.0) is model
        assert HypersurfaceModel.from_angle(0) is model
        assert HypersurfaceModel.from_angle(np.float64(0.0)) is model
        assert build_hypersurface_algebra(0.0) is model.algebra
        assert HypersurfaceModel.from_angle(0.5) is not model

    def test_model_memo_is_small(self):
        # verify reads two angles; a few models must not grow with a sweep
        assert 2 <= _model_at.cache_info().maxsize <= 8
        for alpha in np.linspace(0.0, math.pi / 2, 50):
            HypersurfaceModel.from_angle(alpha)
        assert _model_at.cache_info().currsize == _model_at.cache_info().maxsize

    @pytest.mark.parametrize("attr", ["axis", "normal", "basis", *_GaussFamily._fields])
    def test_shared_arrays_are_read_only(self, attr):
        # a shared model's frame, and each member of the one Gauss family
        family = attr in _GaussFamily._fields
        array = getattr(_gauss_family() if family else HypersurfaceModel.from_angle(0.3), attr)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0

    def test_alpha_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(HypersurfaceModel)] == ["alpha"]

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_frame_is_derived_from_alpha_bit_for_bit(self, alpha):
        # the expressions the frame was built from when it was passed in
        model, c, s = HypersurfaceModel(alpha), math.cos(alpha), math.sin(alpha)
        axis, normal = c * H0 + s * H1, s * H0 + (-c) * H1
        assert np.array_equal(model.axis, axis)
        assert np.array_equal(model.normal, normal)
        assert np.array_equal(model.basis, np.concatenate([AMBIENT_BASIS[:6], axis[None]]))
        h0, h1 = np.diag(H0).real, np.diag(H1).real
        for got, want, own in zip(_abelian_diagonals(alpha),
                                  (c * h0 + s * h1, s * h0 - c * h1),
                                  (model.axis, model.normal)):
            assert got.dtype == float and np.array_equal(got, np.diag(own).real)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 2 + 0.1, math.nan])
    def test_direct_constructor_validates_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            HypersurfaceModel(alpha)

    def test_direct_constructor_normalises_negative_zero(self):
        assert repr(HypersurfaceModel(-0.0).alpha) == "0.0"

    def test_direct_model_pipelines_agree(self):
        # an unshared model: the Gauss tensor at its alpha and its Koszul
        # algebra both follow from alpha, so they describe the same hypersurface
        model = HypersurfaceModel(0.7)
        assert model is not HypersurfaceModel.from_angle(0.7)
        koszul = model.algebra._riemann @ model.algebra.gram
        assert np.max(np.abs(gauss(model.alpha, "tensor") - koszul)) <= 1e-12


class TestTangentVector:
    def test_coeff_roundtrip(self):
        v = TangentVector(a=1 - 2j, b=0.5j, c=3.0, t=-1.25)
        assert TangentVector.from_coeffs(v.coeffs()) == v

    def test_from_coeffs_shape_checked(self):
        with pytest.raises(ValueError, match="7"):
            TangentVector.from_coeffs(np.zeros(6))

    def test_matrix_embedding(self):
        # coeffs() are the coordinates over the rows of model.basis
        model = HypersurfaceModel.from_angle(0.3)
        v = TangentVector(a=2j, b=1.0, c=-1j, t=0.5)
        m = np.tensordot(v.coeffs(), model.basis, axes=1)
        expected = 2j * E12 + E23 - 1j * E13 + 0.5 * model.axis
        assert np.max(np.abs(m - expected)) <= 1e-15

    def test_norm_matches_inner(self):
        model = HypersurfaceModel.from_angle(1.0)
        x = TangentVector(a=1 + 1j, b=-2.0, c=0.5j, t=0.7).coeffs()
        m = np.tensordot(x, model.basis, axes=1)
        assert x @ x == pytest.approx(inner_solvable(m, m), abs=1e-13)


class TestSecondFundamentalForm:
    # II(x, y) = x @ gauss(alpha, "shape") @ y on coefficient vectors

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_diagonal_values(self, alpha):
        s = gauss(alpha, "shape")
        sa, ca = math.sin(alpha), math.cos(alpha)
        vv, ww, zz, hh = np.eye(7)[[0, 2, 4, 6]]  # E12, E23, E13, H
        assert vv @ s @ vv == pytest.approx(HALF_SQRT3 * ca - sa / 2, abs=1e-13)
        assert ww @ s @ ww == pytest.approx(-HALF_SQRT3 * ca - sa / 2, abs=1e-13)
        assert zz @ s @ zz == pytest.approx(-sa, abs=1e-13)
        assert hh @ s @ hh == pytest.approx(0.0, abs=1e-13)
        assert vv @ s @ ww == pytest.approx(0.0, abs=1e-13)

    def test_value_at_pi_sixth(self):
        s = gauss(math.pi / 6, "shape")
        v = TangentVector(a=1).coeffs()
        assert v @ s @ v == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_matrix_is_diagonal(self, alpha):
        m = gauss(alpha, "shape")
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-13

    def test_symmetric_bilinear(self):
        s = gauss(0.9, "shape")
        x, y = (v.coeffs() for v in unit_tangent(3, 2))
        assert x @ s @ y == pytest.approx(y @ s @ x, abs=1e-14)

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
        low = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
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
            ricci_closed_many(alpha, TangentVector(a=2).coeffs())

    def test_ricci_closed_frozen_directions(self):
        third = math.pi / 3
        # the unit directions E12, E23, i E13 and H, one row each
        rows = np.array([TangentVector(a=1).coeffs(), TangentVector(b=1).coeffs(),
                         TangentVector(c=1j).coeffs(), TangentVector(t=1).coeffs()])
        for alpha in ANGLES:
            s = math.sin(alpha)
            want = [-3 + 4 * s * math.sin(alpha - third), -3 + 4 * s * math.sin(alpha + third),
                    -3 + 4 * s * s, -3.0]
            assert ricci_closed_many(alpha, rows) == pytest.approx(want, abs=1e-13)

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
        vals = ricci_closed_many(alpha, [x.coeffs() for x in unit_tangent(20, 50)])
        assert np.all((lo - 1e-10 <= vals) & (vals <= hi + 1e-10))

    def test_extremes_attained(self):
        # the minimum on (0, pi/3) undercuts the axis value -3
        lo, _ = ricci_extremes(math.pi / 6)
        assert lo < -3.0
        assert ricci_closed_many(math.pi / 6, TangentVector(a=1).coeffs()) == pytest.approx(
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
        x1, x2 = (x.coeffs() for x in reference_plane())
        assert x1 @ x1 == pytest.approx(1.0, abs=1e-14)
        assert x2 @ x2 == pytest.approx(1.0, abs=1e-14)
        assert x1 @ x2 == pytest.approx(0.0, abs=1e-14)

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


def direct_gauss(alpha):
    """The Gauss equation at one angle, evaluated on the basis matrices: II
    from the brackets of the basis with the normal, R from four tensordots
    of the ambient tensor with the frame.  The reference for the alpha-family;
    returns II, R, the operator on Lambda^2 R^7 and the Ricci form."""
    c, s = math.cos(alpha), math.sin(alpha)
    basis = np.concatenate([AMBIENT_BASIS[:6], (c * H0 + s * H1)[None]])
    p = hermitian_part(basis)
    q = hermitian_part(bracket(basis, s * H0 + (-c) * H1))
    m = 2.0 * np.real(np.einsum("iab,jab->ij", p, np.conj(q)))
    shape = 0.5 * (m + m.T)
    frame = np.eye(7, 8)
    frame[6, 6:] = c, s
    t = _ambient_curvature_tensor()
    for _ in range(4):
        t = np.tensordot(t, frame, axes=([0], [1]))
    tensor = t + np.einsum("il,jk->ijkl", shape, shape) - np.einsum("ik,jl->ijkl", shape, shape)
    i, j = np.triu_indices(7, 1)
    operator = tensor[i[:, None], j[:, None], j[None, :], i[None, :]]
    return shape, tensor, operator, np.einsum("ijki->jk", tensor)


class TestGaussFamily:
    def test_family_is_the_direct_gauss_equation(self):
        i, j = np.triu_indices(7, 1)
        u, v = (x.coeffs() for x in reference_plane())
        w = u[i] * v[j] - u[j] * v[i]
        # 101 angles, with 0, pi/3 and pi/2
        for alpha in [*np.linspace(0.0, math.pi / 2, 100), math.pi / 3]:
            shape, tensor, operator, ricci = direct_gauss(alpha)
            assert np.max(np.abs(gauss(alpha, "shape") - shape)) <= 1e-15
            assert np.max(np.abs(gauss(alpha, "tensor") - tensor)) <= 1e-15
            assert np.max(np.abs(gauss(alpha, "operator") - operator)) <= 1e-15
            # each entry sums seven of R and reaches |4|: 1e-15 of the largest
            assert np.max(np.abs(gauss(alpha, "ricci") - ricci)) <= 1e-15 * np.max(np.abs(ricci))
            k_sigma = _at(alpha, _gauss_family().k_sigma)
            assert abs(k_sigma - w @ operator @ w / (w @ w)) <= 1e-15

    def test_minimal_leaf_has_mean_curvature_exactly_zero(self):
        trace = np.trace(gauss(0.0, "shape"))
        assert trace == 0.0 and not np.signbit(trace)
        assert repr(classify(0.0, samples=0).mean_curvature) == "0.0"

    def test_family_is_built_on_the_first_gauss_query(self):
        # not at import, and not by the ambient engine queries
        code = ("import contextlib, io\n"
                "from solvgeom import cli, hypersurface as h\n"
                "built = h._gauss_family.cache_info\n"
                "assert built().currsize == 0\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['algebra', 'einstein', '--ambient']) == 0\n"
                "assert built().currsize == 0\n"
                "h.ricci_gauss_many(h.HypersurfaceModel.from_angle(0.3), [1.0] * 7)\n"
                "assert built().currsize == 1\n")
        src = os.path.dirname(os.path.dirname(hypersurface.__file__))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              timeout=60, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_gauss_pipeline_reads_no_koszul_structure_constants(self, monkeypatch):
        def no_algebra(self, *args, **kwargs):
            raise AssertionError("a MetricLieAlgebra was built")

        monkeypatch.setattr(MetricLieAlgebra, "__init__", no_algebra)
        # a fresh angle, and the family and the ambient tensor built again
        for cached in (_model_at, _gauss_family, _ambient_curvature_tensor):
            cached.cache_clear()
        alpha = 0.4321
        model = HypersurfaceModel.from_angle(alpha)
        with pytest.raises(AssertionError, match="MetricLieAlgebra"):
            model.algebra  # the Koszul side is cut off
        assert gauss(alpha, "tensor").shape == (7, 7, 7, 7)
        assert gauss(alpha, "operator").shape == (21, 21)
        rows = np.eye(7)
        assert np.max(np.abs(ricci_gauss_many(model, rows) - ricci_closed_many(alpha, rows))) <= 1e-14
        assert gauss_sectional(model, *reference_plane()) == pytest.approx(
            reference_plane_curvature(alpha), abs=1e-14)
        assert shape_spectrum(model)[-1] == pytest.approx(math.cos(alpha + math.pi / 6), abs=1e-14)
        assert nonpositivity_scan(alpha, 100, seed=1).samples == 100
        assert zero_curvature_search(alpha, seed=1)[0] <= 1e-14


class TestClassify:
    def test_flags_at_zero(self):
        rep = classify(0.0, samples=50)
        assert rep.minimal and rep.einstein and not rep.horosphere_range
        assert rep.regime is Regime.NEGATIVE_RICCI
        assert rep.mean_curvature == pytest.approx(0.0, abs=1e-14)
        assert rep.cheeger == pytest.approx(4.0, abs=1e-12)

    def test_flags_mid_range(self):
        rep = classify(math.pi / 6, samples=50)
        assert not rep.minimal and not rep.einstein
        assert not rep.horosphere_range
        assert rep.regime is Regime.NEGATIVE_RICCI
        assert rep.ricci_max < 0.0

    def test_flags_at_boundary(self):
        rep = classify(math.pi / 3, samples=50)
        assert rep.regime is Regime.RICCI_NULL_DIRECTION
        assert rep.horosphere_range
        assert rep.ricci_max == pytest.approx(0.0, abs=1e-9)

    def test_flags_past_boundary(self):
        rep = classify(1.3, samples=50)
        assert rep.regime is Regime.MIXED_RICCI
        assert rep.horosphere_range
        assert rep.ricci_max > 0.0

    def test_cross_residual_small(self):
        rep = classify(0.9, samples=300, seed=4)
        assert rep.cross_residual <= 1e-10

    def test_zero_samples(self):
        rep = classify(0.5, samples=0)
        assert rep.cross_residual == 0.0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            classify(0.5, samples=-1)

    def test_numpy_integer_samples(self):
        assert classify(0.5, samples=np.int64(20), seed=3) == classify(0.5, samples=20, seed=3)

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

    def test_one_model_per_angle(self, monkeypatch):
        calls = []
        from_angle = HypersurfaceModel.from_angle.__func__

        def counted(cls, alpha):
            calls.append(alpha)
            return from_angle(cls, alpha)

        monkeypatch.setattr(HypersurfaceModel, "from_angle", classmethod(counted))
        classify(0.6, samples=10)
        assert calls == [0.6]


class TestFlowAndFoliation:
    def test_matrix_is_unit_determinant_triangular(self):
        q = Point(x=1 + 1j, y=2j, z=-0.5, t=0.4, alpha=0.6, s=0.2)
        m = q.matrix()
        assert abs(m[1, 0]) == 0.0 and abs(m[2, 0]) == 0.0 and abs(m[2, 1]) == 0.0
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_leaf_conjugate_frozen_example(self):
        q = Point(x=1.0, alpha=0.0)
        moved = q.conjugate(1.0)
        assert moved.x == pytest.approx(math.exp(math.sqrt(3.0) / 2.0), abs=1e-14)
        assert moved.y == 0.0 and moved.z == 0.0 and moved.t == 0.0

    def test_leaf_conjugate_identity_at_zero_time(self):
        q = Point(x=1j, y=2.0, z=-1j, t=0.9, alpha=1.1)
        assert q.conjugate(0.0) == q

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_conjugation_matrix_identity(self, alpha):
        rng = np.random.default_rng(6)
        _, normal = _abelian_diagonals(alpha)
        for _ in range(5):
            coords = rng.standard_normal(8)
            q = Point(
                x=complex(coords[0], coords[1]), y=complex(coords[2], coords[3]),
                z=complex(coords[4], coords[5]), t=coords[6], alpha=alpha,
            )
            s = float(coords[7])
            exp_t = np.diag(np.exp(s * normal))
            lhs = exp_t @ q.conjugate(s).matrix()
            rhs = q.matrix() @ exp_t
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize(
        "q, s, residual",
        [
            (Point(x=1 + 2j, t=0.5, alpha=0.0), 1.0, 1.246522693507508e-16),
            (Point(x=1 - 1j, y=0.3j, z=2.0, t=-0.4, alpha=0.9), 0.7,
             1.0191941131775893e-16),
            (Point(x=0.5 + 1j, y=-2 + 0.25j, z=1.5 - 3j, t=1.25, alpha=1.2, s=0.3),
             -1.5, 1.33749073440503e-16),
        ],
        ids=["x-at-alpha-0", "xyz-at-alpha-0.9", "off-leaf-alpha-1.2"],
    )
    def test_foliation_residual_pinned(self, q, s, residual):
        # exact round-off values: `foliation` and `verify` print them
        assert foliation_residual_many(q.alpha, [[q.x, q.y, q.z]], q.t, s, q.s)[0] == residual

    def test_residual_is_relative_to_the_products(self):
        # the products reach e^506 here; the absolute residual read 6.1e206
        q = Point(x=1.0, alpha=0.5)
        assert foliation_residual_many(q.alpha, [[q.x, q.y, q.z]], q.t, 1000.0)[0] <= 1e-12

    def test_overflowing_flow_time_is_named(self):
        q = Point(x=1.0, alpha=0.5)
        with pytest.raises(ValueError, match=r"^flow time s = 10000\.0 overflows"):
            q.conjugate(10000.0)
        flow = r"^flow time s = {} overflows the float range$"
        with pytest.raises(ValueError, match=flow.format(r"-10000\.0")):
            foliation_residual_many(0.5, [[1.0, 0, 0], [1.0, 0, 0]], 0.0, [1.0, -10000.0])
        with pytest.raises(ValueError, match=flow.format(r"10000\.0")):
            foliation_residual_many(q.alpha, [[q.x, q.y, q.z]], q.t, 10000.0)
        # past pi/3 every entry difference of T is negative: only exp(s T) overflows
        with pytest.raises(ValueError, match=flow.format(r"2000\.0")):
            foliation_residual_many(1.5, [[1.0, 0, 0]], 0.0, 2000.0)
        with pytest.raises(ValueError, match=r"^the point at t = 2000\.0, s = 0\.0 overflows "
                                             r"the float range$"):
            foliation_residual_many(0.0, [[1.0, 0, 0]], 2000.0, 1.0)  # q itself overflows
        with pytest.raises(ValueError, match=r"^flow time s = -1000\.0 overflows"):
            volume_distortion(0.5, -1000.0)

    @pytest.mark.parametrize("q, s, name", [
        (Point(x=1e308, alpha=0.0), "1.0", "x"),
        (Point(y=1e308j, alpha=0.0), "-1.0", "y"),
        (Point(x=1.0, z=-1e308, alpha=math.pi / 2), "-1.0", "z"),
    ])
    def test_overflowing_leaf_conjugate_names_the_coordinate(self, q, s, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^coordinate {name} overflows the float range "
                                                 rf"at flow time s = {s}$"):
                q.conjugate(float(s))

    # (point, flow time, the residual's message, the leaf conjugate's message or
    # None where the conjugate stays finite), one case per stage of the kernel
    STAGES = [
        # the entry differences of s T overflow, not exp(s T)
        pytest.param(Point(x=1.0, alpha=0.0), 1000.0,
                     "flow time s = 1000.0 overflows the float range",
                     "flow time s = 1000.0 overflows the float range", id="s-differences"),
        # past pi/3 every entry difference of T is negative: only exp(s T) overflows
        pytest.param(Point(x=1.0, alpha=1.5), 2000.0,
                     "flow time s = 2000.0 overflows the float range", None, id="s-exp-sT"),
        # t before x; the leaf conjugate does not read t
        pytest.param(Point(x=1e308, t=2000.0, alpha=0.0), 1.0,
                     "the point at t = 2000.0, s = 0.0 overflows the float range",
                     "coordinate x overflows the float range at flow time s = 1.0", id="t"),
        pytest.param(Point(x=1.0, alpha=0.5, s=2000.0), 1.0,
                     "the point at t = 0.0, s = 2000.0 overflows the float range", None,
                     id="off-leaf"),
        *(pytest.param(q, s, message, message, id=name) for q, s, name, message in [
            (Point(x=1e308, alpha=0.0), 1.0, "x",
             "coordinate x overflows the float range at flow time s = 1.0"),
            (Point(y=1e308j, alpha=0.0), -1.0, "y",
             "coordinate y overflows the float range at flow time s = -1.0"),
            (Point(x=1.0, z=-1e308, alpha=math.pi / 2), -1.0, "z",
             "coordinate z overflows the float range at flow time s = -1.0"),
        ]),
        # every factor is finite, but q exp(s T) is not
        pytest.param(Point(x=1e300, t=-1000.0, alpha=math.pi / 2), 0.0,
                     "the foliation identity at flow time s = 0.0 overflows the float range",
                     None, id="products"),
        # the origin: both products are 0, but their diagonals e d are not finite
        pytest.param(Point(t=1000.0, alpha=0.0), -800.0,
                     "the foliation identity at flow time s = -800.0 overflows the float range",
                     None, id="products-diagonal"),
    ]

    @pytest.mark.parametrize("q, s, residual_message, conjugate_message", STAGES)
    def test_each_stage_names_its_argument(self, q, s, residual_message, conjugate_message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match=f"^{re.escape(residual_message)}$"):
                foliation_residual_many(q.alpha, [[q.x, q.y, q.z]], q.t, s, q.s)
            if conjugate_message is None:
                moved = q.conjugate(s)
                assert all(math.isfinite(abs(v)) for v in (moved.x, moved.y, moved.z))
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(conjugate_message)}$"):
                    q.conjugate(s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_foliation_residual_refuses_a_non_finite_input_by_name(self, bad):
        ok = [0.5, 0.5]
        xyz = [[1.0, 0, 0], [1.0, 2.0, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^flow time s = {bad!r} is not finite$"):
                foliation_residual_many(0.3, xyz, ok, [0.5, bad])
            with pytest.raises(ValueError, match=f"^the point at t = {bad!r}, s = 0.5 is not "
                                                 "finite$"):
                foliation_residual_many(0.3, xyz, [0.5, bad], ok, ok)
            with pytest.raises(ValueError, match=f"^the point at t = 0.5, s = {bad!r} is not "
                                                 "finite$"):
                foliation_residual_many(0.3, xyz, ok, ok, [bad, 0.5])
            with pytest.raises(ValueError, match="^coordinate y is not finite$"):
                foliation_residual_many(0.3, [[1.0, 0, 0], [1.0, bad, 0]], ok, ok)
            # the flow time first, then the point, then the coordinates, each
            # before an overflow of any stage
            with pytest.raises(ValueError, match=f"^flow time s = {bad!r} is not finite$"):
                foliation_residual_many(0.3, [[bad, 0, 0]], bad, [2000.0, bad])

    def test_the_first_faulty_row_is_named(self):
        xyz = [[1.0, 0, 0], [1.5e308, 0, 0], [1.0, 0, 0], [0, 1.5e308, 0]]
        with pytest.raises(ValueError, match=r"^flow time s = -1000\.0 overflows"):
            foliation_residual_many(0.0, xyz, 0.0, [0.5, 0.5, -1000.0, 1000.0])
        with pytest.raises(ValueError, match=r"^the point at t = -2000\.0, s = 0\.0 overflows"):
            foliation_residual_many(0.0, xyz, [0.0, 0.0, -2000.0, 2000.0], 0.5)
        with pytest.raises(ValueError, match=r"^coordinate x overflows .* s = 0\.5$"):
            foliation_residual_many(0.0, xyz, 0.0, [0.0, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError, match=r"^coordinate y overflows .* s = -0\.5$"):
            foliation_residual_many(0.0, xyz, 0.0, [0.0, 0.0, 0.5, -0.5])
        assert foliation_residual_many(0.3, np.zeros((0, 3)), 0.0, 1.0).shape == (0,)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 3, 1.2, math.pi / 2])
    def test_kernel_matches_the_unstaged_formulas(self, alpha):
        # the conjugate and the residual as separate formulas, without the stages
        axis, normal = _abelian_diagonals(alpha)
        i, j = [0, 1, 0], [1, 2, 2]
        rng = np.random.default_rng(23)
        coords = rng.standard_normal((300, 9)) * rng.choice([1e-3, 1.0, 30.0], size=(300, 1))
        coords[rng.random(coords.shape) < 0.05] = -0.0
        xyz = coords[:, :6].view(complex)
        t, s, q_s = coords[:, 6], coords[:, 7], coords[:, 8]
        for off_leaf in (0.0, q_s):
            tt, ss, qq = (np.asarray(a, dtype=float)[..., None] for a in (t, s, off_leaf))
            tau = ss * normal
            conj = xyz * np.vectorize(math.exp, otypes=[float])(tau[..., j] - tau[..., i])
            e, d = np.exp(tau), np.exp(tt * axis + qq * normal)
            lhs, rhs = e[..., i] * (conj * d[..., j]), (xyz * d[..., j]) * e[..., j]
            scale = np.maximum(np.max(e * d, axis=-1),
                               np.max(np.abs(np.concatenate([lhs, rhs], axis=-1)), axis=-1))
            expected = np.max(np.abs(lhs - rhs), axis=-1) / scale
            got = foliation_residual_many(alpha, xyz, t, s, off_leaf)
            assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()
        for r in range(300):
            q = Point(*(complex(v) for v in xyz[r]), t=t[r], alpha=alpha, s=q_s[r])
            tau = float(s[r]) * normal
            factors = (math.exp(tau[1] - tau[0]), math.exp(tau[2] - tau[1]),
                       math.exp(tau[2] - tau[0]))
            expected = np.array([v * f for v, f in zip((q.x, q.y, q.z), factors)])
            got = _conjugates(alpha, q.xyz, s[r])
            assert got.tobytes() == expected.tobytes()  # the signs of zeros included

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.9, math.pi / 2])
    def test_stacked_residuals_match_the_scalar_residual(self, alpha):
        rng = np.random.default_rng(21)
        coords = rng.standard_normal((40, 9))
        xyz = coords[:, :6].view(complex)
        t, q_s, s = coords[:, 6], coords[:, 7], coords[:, 8]
        got = foliation_residual_many(alpha, xyz, t, s, q_s)
        assert got.shape == (40,)
        _, normal = _abelian_diagonals(alpha)
        for r in range(40):
            q = Point(x=xyz[r, 0], y=xyz[r, 1], z=xyz[r, 2], t=t[r], alpha=alpha, s=q_s[r])
            assert got[r] == foliation_residual_many(alpha, [[q.x, q.y, q.z]], q.t, s[r], q.s)[0]
            # the identity as matrices, evaluated one point at a time
            exp_t = np.diag(np.exp(float(s[r]) * normal))
            lhs = exp_t @ q.conjugate(s[r]).matrix()
            rhs = q.matrix() @ exp_t
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            assert got[r] == np.max(np.abs(lhs - rhs)) / scale

    def test_flow_point_matrix(self):
        # q exp(s T) is q with s added to its normal coordinate: a one-parameter group
        q = Point(x=1 - 1j, y=0.25j, z=3.0, t=0.5, alpha=0.9)
        _, normal = _abelian_diagonals(0.9)
        flow = lambda s: np.diag(np.exp(s * normal))
        for s, product in ((0.7, flow(0.7)), (1.0, flow(0.4) @ flow(0.6))):
            assert np.max(np.abs(q._replace(s=s).matrix() - q.matrix() @ product)) <= 1e-12

    def test_volume_distortion_exact_at_zero(self):
        for s in np.linspace(-5.0, 5.0, 20):
            assert volume_distortion(0.0, s) == 1.0

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_volume_distortion_refuses_a_non_finite_time(self, s):
        with pytest.raises(ValueError, match=f"^flow time s = {s!r} is not finite$"):
            volume_distortion(0.5, s)

    @pytest.mark.parametrize("s", [-2.0, 0.37, 3.0])
    def test_volume_distortion_is_the_trace_over_the_basis_matrices(self, s):
        # tr ad T as the model's basis matrices give it, bit for bit
        for alpha in np.linspace(0.0, math.pi / 2, 101):
            model = HypersurfaceModel(alpha)
            tr_ad = float(np.real(np.vdot(model.basis, bracket(model.normal, model.basis))))
            assert volume_distortion(alpha, s) == math.exp(-s * tr_ad)

    def test_volume_distortion_frozen(self):
        assert volume_distortion(math.pi / 2, 1.0) == pytest.approx(
            math.exp(-4.0), rel=1e-15
        )

    @pytest.mark.parametrize("s", [-2.0, 0.37, 3.0])
    def test_first_variation_of_volume_is_the_mean_curvature(self, s):
        # log(volume factor) / s = H ties the foliation to the Gauss pipeline
        for alpha in np.linspace(0.0, math.pi / 2, 101):
            got = math.log(volume_distortion(alpha, s)) / s
            assert abs(got - mean_curvature(HypersurfaceModel.from_angle(alpha))) <= 1e-14

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_volume_matches_coordinate_scalings(self, alpha):
        # unipotent coordinates are complex, so each scaling counts twice
        q = Point(x=1.0, y=1.0, z=1.0, alpha=alpha)
        s = 0.73
        moved = q.conjugate(s)
        product = (abs(moved.x) * abs(moved.y) * abs(moved.z)) ** 2
        assert product == pytest.approx(volume_distortion(alpha, s), rel=1e-12)


# zero_curvature_search(alpha, seed=seed): value and plane, exactly
ZERO_SEARCH_PINS = [
    (0.0, 1, 4.625927484214175e-18, (
        [1.1050996845566528e-08, 0.0, 0.8164965809277259, 0.0, 0.5773502691896256, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.8164965809277259, 0.0, 0.5773502691896256, 1.1050996845566528e-08])),
    (0.2, 8, 5.551115123125784e-17, (
        [0.3354771809341982, 0.0, 0.7691792426877033, 0.0, 0.5438918584524082, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.7691792426877033, 0.0, 0.5438918584524082, 0.3354771809341982])),
    (0.7, 3, 2.4980018054066017e-16, (
        [0.5275827291983827, 0.0, 0.6936168317121426, 0.0, 0.4904611652487843, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.6936168317121426, 0.0, 0.4904611652487843, 0.5275827291983827])),
    (math.pi / 3, 4, 1.1796119636642288e-16, (
        [0.5537362756024521, 0.0, 0.6798902544195032, 0.0, 0.4807550093626778, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.6798902544195032, 0.0, 0.4807550093626778, 0.5537362756024521])),
    (1.2, 6, 1.1102230246251563e-16, (
        [0.5453699972375375, 0.0, 0.6843836965295265, 0.0, 0.4839323527495444, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.6843836965295265, 0.0, 0.4839323527495444, 0.5453699972375375])),
    (math.pi / 2, 2, 9.714451465470122e-17, (
        [0.40558686153158, 0.0, 0.7463240126347996, 0.0, 0.5277307702964213, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.7463240126347996, 0.0, 0.5277307702964213, 0.40558686153158])),
]


class ScriptedNormals:
    """Stands in for np.random.Generator: standard_normal hands out the
    given arrays in order, raises an exception given in their place, and
    records the shapes asked for and the thread that asked."""

    def __init__(self, draws):
        self.draws, self.shapes, self.threads = list(draws), [], []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        self.threads.append(threading.get_ident())
        out = self.draws.pop(0)
        if isinstance(out, Exception):
            raise out
        out = np.array(out, dtype=float)
        assert out.shape == shape
        return out


def _scan_max(alpha, samples, seed, want):
    # run in a forked child: exit code 0 only if the scan repeats the parent's
    assert nonpositivity_scan(alpha, samples, seed).max_curvature == want


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

    @pytest.mark.parametrize("samples", [True, False, np.bool_(True), 2.5, 3.0, "3", None])
    def test_samples_must_be_an_integer(self, samples, monkeypatch):
        def no_draw(seed):
            raise AssertionError("a draw was made")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        before = threading.active_count()
        for query in (nonpositivity_scan, classify):
            with pytest.raises(TypeError,
                               match=f"^samples must be an integer, got {re.escape(repr(samples))}$"):
                query(0.3, samples=samples)
        assert threading.active_count() == before

    def test_numpy_integer_samples_scan_as_int(self):
        scan = nonpositivity_scan(0.3, samples=np.int64(2 * _SCAN_BLOCK), seed=4)
        assert type(scan.samples) is int and scan.samples == 2 * _SCAN_BLOCK
        assert scan == nonpositivity_scan(0.3, samples=2 * _SCAN_BLOCK, seed=4)

    def test_no_query_starts_a_thread(self):
        before = threading.active_count()
        for samples in (0, 1, 20000):
            nonpositivity_scan(0.7, samples, seed=1)
            assert threading.active_count() == before
        zero_curvature_search(0.7, seed=1)
        assert threading.active_count() == before
        # nor does a stream that is open, or closed after its first block
        stream = _plane_blocks(np.random.default_rng(2), 5 * _SCAN_BLOCK, gauss(0.7, "operator"))
        next(stream)
        assert threading.active_count() == before
        stream.close()
        assert threading.active_count() == before

    def test_draw_error_reaches_the_caller(self):
        operator = gauss(0.7, "operator")
        gen = np.random.default_rng(3)
        block = lambda: gen.standard_normal((_SCAN_BLOCK, 2, 7))
        stream = ScriptedNormals([block(), block(), LookupError("no block 2 here")])
        before = threading.active_count()
        got = []
        with pytest.raises(LookupError, match="^no block 2 here$"):
            for u, v, k in _plane_blocks(stream, 4 * _SCAN_BLOCK, operator):
                got.append(k)
        assert len(got) == 2 and len(stream.shapes) == 3
        assert threading.active_count() == before

    def test_scripted_stream_draws_each_block_when_asked(self):
        operator = gauss(0.7, "operator")
        sizes = [_SCAN_BLOCK, _SCAN_BLOCK, _SCAN_BLOCK, 5]
        gen = np.random.default_rng(6)
        draws = [gen.standard_normal((m, 2, 7)) for m in sizes]
        stream = ScriptedNormals(draws)
        got = []
        for b, (u, v, k) in enumerate(_plane_blocks(stream, sum(sizes), operator)):
            # block b is drawn, and no block after it
            assert len(stream.shapes) == b + 1
            got.append((u, v, k))
        assert stream.shapes == [(m, 2, 7) for m in sizes]  # no draw after the last block
        # every draw is made once, in block order, on the caller's thread
        assert stream.threads == [threading.get_ident()] * len(sizes)
        for (u, v, k), planes in zip(got, draws):
            assert np.array_equal(u, planes[:, 0]) and np.array_equal(v, planes[:, 1])
            assert np.array_equal(k, _sectional_rows(operator, planes[:, 0], planes[:, 1],
                                                     -math.inf))

    def test_stream_state_does_not_grow_with_its_length(self):
        operator = gauss(0.7, "operator")
        peaks = []
        for n in (4 * _SCAN_BLOCK, 10**8):
            stream = _plane_blocks(np.random.default_rng(1), n, operator)
            tracemalloc.start()
            try:
                next(stream)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                stream.close()
        # nothing kept per block: 130,209 blocks cost what 4 do
        assert peaks[1] <= peaks[0] + 1e5

    def test_a_stream_left_open_does_not_hold_the_interpreter_at_exit(self):
        code = ("import numpy as np\n"
                "from solvgeom.hypersurface import _at, _gauss_family, _plane_blocks\n"
                "stream = _plane_blocks(np.random.default_rng(1), 5000,\n"
                "                       _at(0.7, _gauss_family().operator))\n"
                "next(stream)\n")
        src = os.path.dirname(os.path.dirname(hypersurface.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_scan_in_a_forked_child(self):
        for seed in range(3):
            want = nonpositivity_scan(0.7, 5000, seed).max_curvature
        child = multiprocessing.get_context("fork").Process(
            target=_scan_max, args=(0.7, 5000, 2, want))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_zero_plane_search(self):
        val, (x1, x2) = zero_curvature_search(0.0, seed=3)
        assert val <= 1e-14
        model = HypersurfaceModel.from_angle(0.0)
        assert abs(gauss_sectional(model, x1, x2)) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize(
        "samples",
        [0, 1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 2047, 2048, 5000, 20037, 45000],
    )
    def test_blocked_scan_matches_one_shot_contraction(self, samples):
        alpha, seed = 0.3, 4
        scan = nonpositivity_scan(alpha, samples, seed)
        # the same raw draw made in one piece, plane r its row r, and
        # contracted in one piece
        model = HypersurfaceModel.from_angle(alpha)
        u, v = np.random.default_rng(seed).standard_normal((samples, 2, 7)).transpose(1, 0, 2)
        k = np.divide(*_plane_terms(gauss(alpha, "operator"), u, v))
        s1, s2 = reference_plane()
        k_ref = gauss_sectional(model, s1, s2)
        ref = (s1.coeffs(), s2.coeffs())
        if samples and k.max() >= k_ref:
            i = int(np.argmax(k))
            want_max, want_max_plane = k[i], _gram_schmidt(u[i], v[i])
        else:
            want_max, want_max_plane = k_ref, ref
        assert scan.samples == samples
        assert scan.max_curvature == want_max
        assert np.array_equal(scan.max_plane[0].coeffs(), want_max_plane[0])
        assert np.array_equal(scan.max_plane[1].coeffs(), want_max_plane[1])

    @pytest.mark.parametrize("alpha, seed", [(0.0, 2), (0.7, 5), (1.2, 7), (math.pi / 2, 9)])
    def test_scan_planes_are_orthonormal_with_their_curvature(self, alpha, seed):
        scan = nonpositivity_scan(alpha, 5000, seed)
        model = HypersurfaceModel.from_angle(alpha)
        # |K| of any plane is at most the largest |eigenvalue| of the operator
        k_bound = np.max(np.abs(np.linalg.eigvalsh(gauss(alpha, "operator"))))
        x1, x2 = scan.max_plane
        u, v = x1.coeffs(), x2.coeffs()
        gram = np.array([[u @ u, u @ v], [v @ u, v @ v]])
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-15
        assert abs(gauss_sectional(model, x1, x2) - scan.max_curvature) <= 1e-14 * k_bound

    def test_scan_memory_does_not_grow_with_samples(self):
        nonpositivity_scan(0.3, samples=10)  # build the cached ambient tensor
        for samples in (20000, 65000):
            tracemalloc.start()
            try:
                nonpositivity_scan(0.3, samples=samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block's draw at a time, its wedges and their K
            assert peak <= 1.0e6

    def test_scan_high_water_mark(self):
        # one block's draw in hand, its wedges and their K; the extreme so far
        # is a copied row
        nonpositivity_scan(0.7, samples=10)
        tracemalloc.start()
        try:
            nonpositivity_scan(0.7, samples=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    @pytest.mark.parametrize(
        "alpha, seed", [(0.0, 1), (0.2, 8), (0.7, 3), (math.pi / 3, 4), (1.2, 6), (1.5, 2)]
    )
    def test_zero_search_contract(self, alpha, seed):
        val, (x1, x2) = zero_curvature_search(alpha, seed=seed)
        assert val <= 1e-14
        model = HypersurfaceModel.from_angle(alpha)
        assert abs(gauss_sectional(model, x1, x2)) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("alpha, seed, value, plane", ZERO_SEARCH_PINS,
                             ids=[f"{p[0]:.4g}-seed{p[1]}" for p in ZERO_SEARCH_PINS])
    def test_zero_search_pinned(self, alpha, seed, value, plane):
        # exact values: any change to the path or to the bisection shows here
        val, (x1, x2) = zero_curvature_search(alpha, seed=seed)
        assert val == value
        assert x1.coeffs().tolist() == plane[0]
        assert x2.coeffs().tolist() == plane[1]
        # each pin is a flat plane by the Koszul pipeline too
        koszul = build_hypersurface_algebra(alpha).sectional(*plane)
        assert value <= 1e-14 and abs(abs(koszul) - value) <= 1e-12

    @pytest.mark.parametrize("alpha", [*np.linspace(0.0, math.pi / 2, 101), 1e-9, 1e-6, 1e-3])
    def test_zero_search_bisects_between_two_exact_planes(self, alpha):
        # sigma_0 = span{E12, H} and the reference plane sigma_1 bracket a sign change
        model, algebra = HypersurfaceModel.from_angle(alpha), build_hypersurface_algebra(alpha)
        k0 = gauss_sectional(model, TangentVector(a=1.0), TangentVector(t=1.0))
        k1 = gauss_sectional(model, *reference_plane())
        assert abs(k0 + math.sin(alpha + math.pi / 6) ** 2) <= 1e-14
        assert abs(k1 - reference_plane_curvature(alpha)) <= 1e-14
        assert k0 < 0.0 <= k1
        val, (x1, x2) = zero_curvature_search(alpha)
        u, v = x1.coeffs(), x2.coeffs()
        assert np.max(np.abs(np.array([[u @ u, u @ v], [v @ u, v @ v]]) - np.eye(2))) <= 1e-15
        assert val <= 1e-14 and abs(gauss_sectional(model, x1, x2)) == val
        assert abs(abs(algebra.sectional(u, v)) - val) <= 1e-14
        for seed in (0, 1, 2):  # the plane does not depend on the seed
            assert zero_curvature_search(alpha, seed=seed) == (val, (x1, x2))

    @pytest.mark.parametrize("seed, error, message", [
        *((s, TypeError, f"seed must be an integer, got {re.escape(repr(s))}")
          for s in (True, False, np.bool_(True), 1.5, 3.0, "3", None)),
        (-1, ValueError, "seed must be nonnegative, got -1"),
        (np.int64(-7), ValueError, "seed must be nonnegative, got -7"),
    ])
    def test_bad_seed_is_refused_by_name(self, seed, error, message, monkeypatch):
        def no_draw(seed):
            raise AssertionError("a draw was made")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for query in (lambda: classify(0.3, 10, seed), lambda: nonpositivity_scan(0.3, 10, seed),
                      lambda: zero_curvature_search(0.3, seed)):
            with pytest.raises(error, match=f"^{message}$"):
                query()

    def test_degenerate_rows_are_never_scan_extremes(self, monkeypatch):
        model, operator = HypersurfaceModel.from_angle(0.7), gauss(0.7, "operator")
        # a plane of |K| below 1e-14; a v within 1e-9 of the line of its x1 spans
        # no plane
        _, (x1, x2) = zero_curvature_search(0.7, seed=3)
        x1, x2 = x1.coeffs(), x2.coeffs()
        gen = np.random.default_rng(13)
        u, v = gen.standard_normal((2, 3, 7))
        u[2] = x1
        v[1], v[2] = 2.0 * u[1], x1 + 1e-9 * x2  # exactly parallel; sin^2 about 1e-18
        draws = [np.stack([u, v], axis=1)]
        stream = ScriptedNormals(draws)
        [(got_u, got_v, k)] = _plane_blocks(stream, 3, operator)
        assert stream.shapes == [(3, 2, 7)]  # no draw after the last block
        assert np.array_equal(got_u, u) and np.array_equal(got_v, v)
        k_good = gauss_sectional(model, TangentVector.from_coeffs(u[0]),
                                 TangentVector.from_coeffs(v[0]))
        assert k[0] == pytest.approx(k_good, abs=1e-14) and k[1] == k[2] == -math.inf
        ref = reference_plane()
        k_ref = gauss_sectional(model, *ref)

        # the scan reports row 0 or the reference plane, whichever is extreme
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedNormals(draws))
        scan = nonpositivity_scan(0.7, 3)
        assert scan.max_curvature == max(k[0], k_ref)
        want = [x.coeffs() for x in ref] if k_ref > k[0] else _gram_schmidt(u[0], v[0])
        assert all(np.array_equal(x.coeffs(), y) for x, y in zip(scan.max_plane, want))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["plane", "zero_u", "parallel"]),
                st.lists(st.floats(-10, 10), min_size=14, max_size=14),
                st.floats(-10, 10),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_row_wise_abs_curvature_matches_scalar(self, rows):
        operator = gauss(0.4, "operator")
        w = np.zeros((len(rows), 14))
        for r, (kind, coords, lam) in enumerate(rows):
            u, v = np.array(coords[:7]), np.array(coords[7:])
            if kind == "zero_u":
                u = np.zeros(7)
            elif kind == "parallel":
                v = lam * u
            w[r] = np.concatenate([u, v])
        got = plane_abs_curvature(operator, w)
        for r, (kind, _, _) in enumerate(rows):
            # the scalar evaluation, one plane at a time, on an orthonormal basis
            u, v = w[r, :7], w[r, 7:]
            if kind != "plane" or (u @ u) * (v @ v) == 0.0:
                assert got[r] == math.inf
                continue
            u = u / np.linalg.norm(u)
            v_perp = v - (u @ v) * u
            sin = np.linalg.norm(v_perp) / np.linalg.norm(v)
            if sin < 0.5e-6:  # Gram determinant below 1e-12 |u|^2 |v|^2
                assert got[r] == math.inf
            elif sin > 2e-6:
                num, den = _plane_terms(operator, u, v_perp / np.linalg.norm(v_perp))
                # round-off in the wedge grows like 1 / sin
                tol = 1e-12 * (1.0 + 1.0 / sin)
                assert got[r] == pytest.approx(abs(float(num) / float(den)), rel=1e-12, abs=tol)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2])
    def test_abs_curvature_ignores_the_basis_of_the_plane(self, alpha):
        operator = gauss(alpha, "operator")
        pairs = _gram_schmidt(*np.random.default_rng(5).standard_normal((2, 200, 7)))
        w = np.concatenate(pairs, axis=1)
        base = plane_abs_curvature(operator, w)
        assert np.all(np.isfinite(base))
        for scale in (4.0, 0.125):  # exact in binary
            scaled = w.copy()
            scaled[:, :7] *= scale
            assert np.array_equal(plane_abs_curvature(operator, scaled), base)
        for scale, lam in ((3.7, 0.0), (1e-3, 0.0), (1e3, 0.0), (1.0, 0.3), (1.0, -2.5),
                           (1.0, 10.0), (2.9, 1.7)):
            moved = w.copy()
            moved[:, 7:] += lam * moved[:, :7]
            moved[:, :7] *= scale
            got = plane_abs_curvature(operator, moved)
            assert np.max(np.abs(got - base)) <= 1e-14 * (1.0 + abs(lam))

    def test_abs_curvature_is_inf_exactly_on_degenerate_rows(self):
        # Gram determinant / (|u|^2 |v|^2) = sin^2 of the angle; the bound is 1e-12
        model = HypersurfaceModel.from_angle(0.4)
        u, e = np.eye(7)[0] * 3.0, np.eye(7)[2]
        rows = [(0 * u, e), (u, 0 * e), (u, -2.0 * u), (u, u + 1e-7 * e), (u, u + 1e-5 * e),
                (u, e)]
        got = plane_abs_curvature(gauss(0.4, "operator"), np.array([np.concatenate(r) for r in rows]))
        assert list(got[:4]) == [math.inf] * 4
        want = abs(gauss_sectional(model, TangentVector.from_coeffs(u),
                                   TangentVector.from_coeffs(e)))
        assert got[4] == pytest.approx(want, rel=1e-9)
        assert got[5] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 6, math.pi / 3, 1.2, math.pi / 2])
    def test_operator_sectional_matches_koszul(self, alpha):
        model = HypersurfaceModel.from_angle(alpha)
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal((2, 500, 7))
        k = _sectional_rows(gauss(alpha, "operator"), u, v, math.nan)
        want = np.array([model.algebra.sectional(x, y) for x, y in zip(u, v)])
        assert np.max(np.abs(k - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 6, math.pi / 3, 1.2, math.pi / 2])
    def test_kernel_is_the_row_major_contraction_of_the_curvature_tensor(self, alpha):
        operator = gauss(alpha, "operator")
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((2, 500, 7))
        num, den = _plane_terms(operator, u, v)
        want = np.einsum("...i,...j,...k,...l,ijkl->...", u, v, v, u, gauss(alpha, "tensor"))
        assert np.max(np.abs(num - want)) <= 1e-14 * np.max(np.abs(want))
        gram = np.einsum("...i,...i->...", u, u) * np.einsum("...i,...i->...", v, v)
        assert np.allclose(den, gram - np.einsum("...i,...i->...", u, v) ** 2,
                           rtol=1e-14, atol=0)
        # bit for bit the row-major reference, for one row and for every block size
        one = _sectional_rows(operator, u[0], v[0], math.nan)
        assert one.shape == () and one == np.divide(*_plane_terms(operator, u[0], v[0]))
        for n in (1, 2, 3, 27, 28, 100, 500):
            got = _sectional_rows(operator, u[:n], v[:n], math.nan)
            assert np.array_equal(got, np.divide(*_plane_terms(operator, u[:n], v[:n])))

    @pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2])
    def test_bivector_form_is_the_curvature_operator(self, alpha):
        # the form on bivectors is the Gauss curvature operator R-hat
        form, tensor = gauss(alpha, "operator"), gauss(alpha, "tensor")
        assert form.shape == (21, 21)
        assert np.array_equal(form, form.T)
        assert not _gauss_family().operator.flags.writeable
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        for p, (i, j) in enumerate(pairs):
            for q, (l, k) in enumerate(pairs):
                assert form[p, q] == tensor[i, j, k, l]

    @pytest.mark.parametrize("fill", [-math.inf, math.inf, math.nan])
    def test_parallel_plane_gets_the_fill(self, fill):
        v = TangentVector(a=1, t=0.5).coeffs()
        rows = np.array([v, -3.0 * v, TangentVector(b=1).coeffs()])
        got = _sectional_rows(gauss(0.4, "operator"), np.array([v, v, v]), rows, fill)
        assert np.array_equal(got[:2], [fill, fill], equal_nan=True)
        assert np.isfinite(got[2])

    @pytest.mark.parametrize("fill", [-math.inf, math.inf, math.nan])
    def test_identity_operator_gives_unit_curvature(self, fill):
        # w I w = w . w to the bit: K = 1 on every spanning pair, the fill elsewhere
        u, v = np.random.default_rng(8).standard_normal((2, 300, 7))
        u[0] = 0.0
        v[1] = 0.0
        v[2] = -2.5 * u[2]
        v[3] = 1e-3 * u[3]
        got = _sectional_rows(np.eye(21), u, v, fill)
        assert np.array_equal(got[:4], [fill] * 4, equal_nan=True)
        assert np.all(got[4:] == 1.0)

    def test_random_symmetric_operator_is_contracted_row_by_row(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((21, 21))
        operator = a + a.T
        u, v = rng.standard_normal((2, 200, 7))
        i, j = np.triu_indices(7, 1)
        for n in (1, 27, 200):
            got = _sectional_rows(operator, u[:n], v[:n], math.nan)
            for r in range(n):
                w = u[r, i] * v[r, j] - u[r, j] * v[r, i]
                want = (w @ operator @ w) / (w @ w)
                assert got[r] == pytest.approx(want, rel=1e-13, abs=1e-13)


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
