"""Generic metric Lie algebra engine, tested on small classical examples.

The hyperbolic plane (one-dimensional extension [e1, e2] = e2) and the
bi-invariant 3-sphere (su(2) with the round metric) have textbook constant
curvatures, giving oracles that are independent of everything else in the
package.  The batched Damek-Ricci axiom 4 is also compared with J_z built
one z at a time on the hypersurface algebras, and the stacked draws of
axioms 4 and 5 with a per-vector loop, bit for bit.  Vectors are contracted
with the cached connection and curvature tensors directly.  The JSON loader
is compared with a plain per-entry restatement of itself: the same messages,
the same floats.  The Cholesky frame is checked by its defining properties
and against a per-row Gram-Schmidt loop; the curvature tensor against three
einsums over the connection, and the Ricci form against its trace.  The Koszul
functions run on a stack of leaves, slice for slice the tensors of each algebra, and
on exact fractions, where the alpha = 0 leaf's Ricci form is -3 I entry by entry.
"""

import contextlib
import io
import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvgeom import engine
from solvgeom.cli import main
from solvgeom.engine import (
    MAX_JSON_DIM,
    MetricLieAlgebra,
    dump_algebra_json,
    koszul_connection,
    koszul_curvature,
    load_algebra_json,
    ricci_trace,
)
from solvgeom.hypersurface import (
    AMBIENT_BASIS,
    E12,
    E13,
    E23,
    HypersurfaceModel,
    _model_at,
    ambient_algebra,
    build_hypersurface_algebra,
)


def hyperbolic_plane():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return MetricLieAlgebra(c, np.eye(2), labels=("e1", "e2"))


def round_sphere():
    # su(2), bi-invariant metric: K = 1/4 on every plane
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return MetricLieAlgebra(c, np.eye(3))


def heisenberg3():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return MetricLieAlgebra(c, np.eye(3))


def complex_hyperbolic_plane():
    # [v1, v2] = z, ad_a = 1/2 on v, 1 on z: the standard rank-one extension
    c = np.zeros((4, 4, 4))
    entries = [(0, 1, 2, 1.0), (3, 0, 0, 0.5), (3, 1, 1, 0.5), (3, 2, 2, 1.0)]
    for i, j, k, val in entries:
        c[i, j, k] = val
        c[j, i, k] = -val
    return MetricLieAlgebra(c, np.eye(4), labels=("v1", "v2", "z", "a"))


def skewed_complex_hyperbolic_plane():
    # the complex hyperbolic plane's brackets with a Gram matrix that couples
    # every pair of basis vectors
    g = np.array([
        [2.0, 0.3, 0.1, 0.2],
        [0.3, 1.5, 0.2, 0.1],
        [0.1, 0.2, 1.2, 0.3],
        [0.2, 0.1, 0.3, 1.0],
    ])
    return MetricLieAlgebra(complex_hyperbolic_plane().structure, g)


class TestValidation:
    def test_bad_structure_shape(self):
        with pytest.raises(ValueError, match="n\\*n\\*n"):
            MetricLieAlgebra(np.zeros((2, 2)), np.eye(2))

    def test_bad_gram_shape(self):
        with pytest.raises(ValueError, match="gram"):
            MetricLieAlgebra(np.zeros((2, 2, 2)), np.eye(3))

    def test_antisymmetry_checked(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="antisymmetric"):
            MetricLieAlgebra(c, np.eye(2))

    def test_jacobi_checked(self):
        # [e0,e1] = e0 and [e0,e2] = e1 break the cyclic identity
        c = np.zeros((3, 3, 3))
        for i, j, k, val in [(0, 1, 0, 1.0), (0, 2, 1, 1.0)]:
            c[i, j, k] = val
            c[j, i, k] = -val
        with pytest.raises(ValueError, match="Jacobi identity violated"):
            MetricLieAlgebra(c, np.eye(3))

    def test_gram_symmetry_checked(self):
        g = np.eye(2)
        g[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            MetricLieAlgebra(np.zeros((2, 2, 2)), g)

    def test_gram_definiteness_checked(self):
        with pytest.raises(ValueError, match="positive definite"):
            MetricLieAlgebra(np.zeros((2, 2, 2)), -np.eye(2))

    @pytest.mark.parametrize(
        "gram",
        [
            [[1e205, 3e205], [3e205, 9e205]],
            [[1e205, 3e205, 1, 0], [3e205, 9e205, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
            [[1e10, 0.0], [0.0, 1e-3]],
        ],
        ids=["rank_one_at_1e205", "rank_one_block_at_1e205", "condition_1e13"],
    )
    def test_ill_conditioned_gram_rejected(self, gram):
        # every computed eigenvalue clears the absolute floor; the first two
        # matrices are singular to working precision
        n = len(gram)
        with pytest.raises(ValueError, match=r"^gram matrix is too ill-conditioned \(eigenvalues"):
            MetricLieAlgebra(np.zeros((n, n, n)), gram)

    def test_well_conditioned_gram_of_any_scale_accepted(self):
        for scale in (1e-9, 1.0, 1e200):
            g = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
            assert np.array_equal(MetricLieAlgebra(np.zeros((2, 2, 2)), g).gram, g)

    def test_overflowing_connection_rejected(self):
        top = 1.7976931348623157e308
        c = np.zeros((2, 2, 2))
        c[0, 1, 0], c[1, 0, 0] = -6.6e15, 6.6e15
        alg = MetricLieAlgebra(c, [[top, -6.6e15], [-6.6e15, top]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Levi-Civita connection overflows"):
                alg.ricci_matrix()

    @pytest.mark.parametrize("structure, gram, name, got", [
        # both built before, reading "1" and True as 1.0: einstein_check answered (True, -1.0)
        (np.where(hyperbolic_plane().structure == 0, "0", "1"), np.eye(2),
         "the structure constants", "str '0'"),
        (np.zeros((2, 2, 2)), [[True, False], [False, True]], "the gram matrix", "bool True"),
        (np.zeros((2, 2, 2)), np.eye(2, dtype=bool), "the gram matrix", "bool True"),
        (np.zeros((2, 2, 2)), [[1.0, None], [None, 1.0]], "the gram matrix", "NoneType None"),
        (np.zeros((2, 2, 2)), [[1.0, 0.0], [0.0, 1 + 0j]], "the gram matrix",
         "complex (1+0j)"),
        ([[[0, 0], [0, 0]], [[0, 0]]], np.eye(2), "the structure constants",
         "list [[0, 0], [0, 0]]"),
    ], ids=["str-structure", "bool-gram", "bool-array-gram", "none-gram", "complex-gram",
            "ragged-structure"])
    def test_non_numeric_entries_named(self, structure, gram, name, got):
        with pytest.raises(ValueError, match=f"^{name} must hold only ints and floats, got "
                                             f"{re.escape(got)}$"):
            MetricLieAlgebra(structure, gram)

    def test_int_and_float_entries_keep_their_bits(self):
        c, g = complex_hyperbolic_plane().structure, skewed_complex_hyperbolic_plane().gram
        for structure, gram in ((c, g), (c.tolist(), g.tolist())):
            alg = MetricLieAlgebra(structure, gram)
            assert alg.structure.tobytes() == c.tobytes() and alg.gram.tobytes() == g.tobytes()
        ints = MetricLieAlgebra(np.zeros((2, 2, 2), dtype=int), [[2, np.int64(1)], [1, 3]])
        assert ints.gram.dtype == float and ints.gram.tolist() == [[2.0, 1.0], [1.0, 3.0]]

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            MetricLieAlgebra(np.zeros((2, 2, 2)), np.eye(2), labels=("a",))

    def test_vector_length_checked(self):
        alg = hyperbolic_plane()
        with pytest.raises(ValueError, match="length"):
            alg.inner(np.ones(3), np.ones(3))


class TestFromMatrixBasis:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="linearly independent"):
            MetricLieAlgebra.from_matrix_basis((E12, 2 * E12))

    def test_non_subalgebra_rejected(self):
        with pytest.raises(ValueError, match="not a subalgebra"):
            MetricLieAlgebra.from_matrix_basis((E12, E23))

    @pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_non_finite_basis_rejected_by_name(self, fill, capfd):
        # refused before any SVD: LAPACK would print to stderr on a non-finite matrix
        bad = E23.astype(complex)
        bad[1, 2] = fill
        with pytest.raises(ValueError, match=re.escape("basis[1] has a non-finite entry")):
            MetricLieAlgebra.from_matrix_basis((E12, bad, E13))
        assert capfd.readouterr() == ("", "")

    def test_heisenberg_structure_recovered(self):
        alg = MetricLieAlgebra.from_matrix_basis((E12, E23, E13), labels=("x", "y", "z"))
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 1.0
        expected[1, 0, 2] = -1.0
        assert np.max(np.abs(alg.structure - expected)) <= 1e-12
        assert np.max(np.abs(alg.gram - np.eye(3))) <= 1e-12
        assert alg.labels == ("x", "y", "z")

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.4, 1.0, math.pi / 2])
    def test_stack_and_list_give_the_same_algebra(self, alpha):
        basis = AMBIENT_BASIS if alpha is None else HypersurfaceModel.from_angle(alpha).basis
        from_stack = MetricLieAlgebra.from_matrix_basis(basis)
        from_list = MetricLieAlgebra.from_matrix_basis([np.array(m) for m in basis])
        assert np.array_equal(from_stack.structure, from_list.structure)
        assert np.array_equal(from_stack.gram, from_list.gram)
        if alpha is None:
            assert np.array_equal(from_stack.structure, ambient_algebra().structure)

    @pytest.mark.parametrize(
        "basis, shape",
        [
            ([], "(0,)"),
            (np.zeros((0, 3, 3)), "(0, 3, 3)"),
            (E12, "(3, 3)"),
            (np.zeros((2, 3, 2)), "(2, 3, 2)"),
            (np.zeros((1, 2, 3, 3)), "(1, 2, 3, 3)"),
            ([E12, np.zeros((2, 2))], "[(3, 3), (2, 2)]"),
        ],
        ids=["empty", "empty_stack", "one_matrix", "non_square", "four_axes", "ragged"],
    )
    def test_bad_shapes_rejected_by_name(self, basis, shape):
        with pytest.raises(ValueError, match=re.escape(shape)):
            MetricLieAlgebra.from_matrix_basis(basis)


class TestConnectionAndCurvature:
    def test_hyperbolic_connection_frozen(self):
        alg = hyperbolic_plane()
        e1, e2 = np.eye(2)
        gam = alg._connection  # gam[i, j] = nabla_{e_i} e_j
        assert np.allclose(gam[0, 0], 0.0, atol=1e-14)
        assert np.allclose(gam[0, 1], 0.0, atol=1e-14)
        assert np.allclose(gam[1, 0], -e2, atol=1e-14)
        assert np.allclose(gam[1, 1], e1, atol=1e-14)

    def test_connection_metric_compatibility(self):
        alg = complex_hyperbolic_plane()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 4))
            lhs = alg.inner(np.einsum("i,j,ijk->k", x, y, alg._connection), z)
            rhs = -alg.inner(y, np.einsum("i,j,ijk->k", x, z, alg._connection))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_connection_torsion_free(self):
        alg = complex_hyperbolic_plane()
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            gam = alg._connection
            # nabla_x y - nabla_y x - [x, y]
            torsion = np.einsum("i,j,ijk->k", x, y,
                                gam - gam.transpose(1, 0, 2) - alg.structure)
            assert np.max(np.abs(torsion)) <= 1e-12

    def test_hyperbolic_plane_curvature(self):
        alg = hyperbolic_plane()
        e1, e2 = np.eye(2)
        assert alg.sectional(e1, e2) == pytest.approx(-1.0, abs=1e-14)
        assert alg.ricci(np.array([0.6, 0.8])) == pytest.approx(-1.0, abs=1e-14)
        flat, const = alg.einstein_check(1e-10)
        assert flat and const == pytest.approx(-1.0, abs=1e-14)

    def test_round_sphere_curvature(self):
        alg = round_sphere()
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            assert alg.sectional(x, y) == pytest.approx(0.25, abs=1e-12)
        flat, const = alg.einstein_check(1e-10)
        assert flat and const == pytest.approx(0.5, abs=1e-12)

    def test_curvature_tensor_symmetries(self):
        alg = complex_hyperbolic_plane()
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, y, z, w = rng.standard_normal((4, 4))
            r = alg.curvature_inner(x, y, z, w)
            assert r == pytest.approx(-alg.curvature_inner(y, x, z, w), abs=1e-11)
            assert r == pytest.approx(-alg.curvature_inner(x, y, w, z), abs=1e-11)
            assert r == pytest.approx(alg.curvature_inner(z, w, x, y), abs=1e-11)
            rt = alg._riemann
            # R(x, y) z + R(y, z) x + R(z, x) y
            bianchi = np.einsum("i,j,k,ijkl->l", x, y, z,
                                rt + rt.transpose(1, 2, 0, 3) + rt.transpose(2, 0, 1, 3))
            assert np.max(np.abs(bianchi)) <= 1e-11

    def test_degenerate_plane_rejected(self):
        alg = round_sphere()
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            alg.sectional(v, 2.0 * v)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_einstein_tol_validated(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            hyperbolic_plane().einstein_check(tol)

    def test_einstein_mean_of_a_spectrum_whose_sum_overflows(self):
        # Ric = -6.05e307 I: each eigenvalue is finite, their sum is not
        c = np.zeros((3, 3, 3))
        c[0, 1, 1] = c[0, 2, 2] = 0.55e154
        c[1, 0, 1] = c[2, 0, 2] = -0.55e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MetricLieAlgebra(c, np.eye(3)).einstein_check(1e-8) == (True, -6.05e307)

    def test_einstein_mean_past_the_float_range_is_exact(self):
        # a spectrum whose mean, taken as sum(eig / n) or as mean(eig / n) * n,
        # misses the last bit of the mean of the unscaled values
        base = np.array([1.61, 1.316, 1.133, 1.113, 1.751])
        alg = hyperbolic_plane()
        vars(alg)["_ricci_spectrum"] = np.ldexp(base, 1023)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat, const = alg.einstein_check(1e-8)
        assert not flat and const == np.ldexp(np.mean(base), 1023)

    @pytest.mark.parametrize("spectrum", [[-1.6e308, 1.6e308, 1.6e308], [0.0, math.inf]])
    def test_einstein_spread_past_the_float_range_named(self, spectrum):
        alg = hyperbolic_plane()
        vars(alg)["_ricci_spectrum"] = np.array(spectrum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                alg.einstein_check(1e-8)
        assert str(info.value) == ("spread of the Ricci spectrum overflows the float range "
                                   "for this structure and gram matrix")

    def test_small_plane_accepted(self):
        # the degenerate-plane test is relative to |x|^2 |y|^2
        alg = round_sphere()
        e0, e1, _ = np.eye(3)
        assert alg.sectional(1e-7 * e0, e1) == pytest.approx(0.25, rel=1e-9)

    def test_nearly_parallel_large_plane_rejected(self):
        alg = round_sphere()
        e0, e1, _ = np.eye(3)
        with pytest.raises(ValueError, match="degenerate"):
            alg.sectional(1e3 * e0, 1e3 * e0 + 1e-4 * e1)  # 1e-7 rad apart

    @pytest.mark.parametrize("alg", [complex_hyperbolic_plane(),
                                     skewed_complex_hyperbolic_plane()])
    def test_ricci_of_a_stack_matches_each_row(self, alg):
        rows = np.random.default_rng(12).standard_normal((50, alg.dim))
        stacked = alg.ricci(rows)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (50,)
        assert stacked.tolist() == [alg.ricci(x) for x in rows]
        assert type(alg.ricci(rows[0])) is float

    @pytest.mark.parametrize(
        "attr",
        ["structure", "gram", "_gram_inv", "_frame", "_connection", "_curvature", "_riemann",
         "_ricci_form"],
    )
    def test_cached_tensors_are_read_only(self, attr):
        # hypersurface algebras are shared by every caller of one angle
        array = getattr(build_hypersurface_algebra(0.3), attr)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0

    def test_ricci_rejects_a_stack_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="length 4"):
            complex_hyperbolic_plane().ricci(np.ones((3, 5)))

    def test_ricci_on_skewed_gram_matches_frame_trace(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 1] = 1.0
        c[1, 0, 1] = -1.0
        g = np.array([[4.0, 1.0], [1.0, 2.0]])
        alg = MetricLieAlgebra(c, g)
        # rows of g^(-1/2) form a gram-orthonormal frame
        vals, vecs = np.linalg.eigh(g)
        frame = (vecs / np.sqrt(vals)) @ vecs.T
        assert np.max(np.abs(frame @ g @ frame.T - np.eye(2))) <= 1e-12
        x = np.array([0.3, -1.1])
        trace = sum(alg.curvature_inner(f, x, x, f) for f in frame)
        assert alg.ricci(x) == pytest.approx(trace, abs=1e-12)
        ric = np.array([[sum(alg.curvature_inner(f, a, b, f) for f in frame)
                         for b in frame] for a in frame])
        assert np.allclose(np.linalg.eigvalsh(alg.ricci_matrix()),
                           np.linalg.eigvalsh(ric), atol=1e-12, rtol=0)


# A valid algebra whose Cheeger constant's square exceeds the float range.
CHEEGER_OVERFLOW_DOC = {"dim": 2, "gram": [[1.88e-4, 0], [0, 1.65e-3]],
                        "structure": [[0, 1, 1, 4.42e152]]}


class TestTraceFormAndCheeger:
    def test_hyperbolic_plane_values(self):
        alg = hyperbolic_plane()
        assert np.allclose(alg.trace_form_vector(), [1.0, 0.0], atol=1e-14)
        assert alg.cheeger() == pytest.approx(1.0, abs=1e-14)

    def test_unimodular_gives_zero(self):
        assert round_sphere().cheeger() == pytest.approx(0.0, abs=1e-14)
        assert heisenberg3().cheeger() == pytest.approx(0.0, abs=1e-14)

    def test_trace_form_is_trace_of_ad(self):
        alg = complex_hyperbolic_plane()
        h = alg.trace_form_vector()
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(4)
            tr_ad = float(np.einsum("i,ijj->", x, alg.structure))
            assert alg.inner(h, x) == pytest.approx(tr_ad, abs=1e-12)

    def test_overflowing_cheeger_constant_named(self):
        # h = (tr ad e0 / g00, 0) is finite, but h g h is 4.42e152^2 / 1.88e-4 > 1.8e308
        alg = load_algebra_json(CHEEGER_OVERFLOW_DOC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert np.isfinite(alg.trace_form_vector()).all()
            with pytest.raises(ValueError, match="^Cheeger constant overflows the float range"):
                alg.cheeger()

    def test_overflowing_trace_form_vector_named(self, monkeypatch):
        # out of reach of a validated algebra (tau <= dim * 1.4e154 by the Jacobi check,
        # |g^-1| <= 1e10), so constants past the constructor's checks
        alg = MetricLieAlgebra(np.zeros((2, 2, 2)), np.diag([1e-9, 1.0]))
        c = np.zeros((2, 2, 2))
        c[0, 1, 1], c[1, 0, 1] = 1e300, -1e300
        monkeypatch.setattr(alg, "_structure", c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in (alg.trace_form_vector, alg.cheeger):
                with pytest.raises(ValueError, match="^trace form vector overflows"):
                    query()

    def test_monte_carlo_sampling_attains_bound(self):
        # In two dimensions 1e5 samples land within 1e-3 of the supremum,
        # so the dual-norm value is pinched from both sides.
        alg = hyperbolic_plane()
        tau = np.einsum("ijj->i", alg.structure)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((100000, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        sampled = float(np.max(u @ tau))
        assert sampled <= alg.cheeger() <= sampled + 1e-3


class TestJOperatorAndAxioms:
    def test_heisenberg_j_rotation(self):
        alg = heisenberg3()
        # J e0 = e1 and J e1 = -e0: the columns of J_z on v = span{e0, e1}
        jm = alg._j_matrices(np.eye(3)[2][None], [0, 1])
        assert np.allclose(jm, [[[0.0, -1.0], [1.0, 0.0]]], atol=1e-14)

    def test_complex_hyperbolic_plane_axioms(self):
        report = complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 3)
        assert report.overall
        assert report.axiom_2.passed
        for chk in (report.axiom_1, report.axiom_2, report.axiom_3,
                    report.axiom_4, report.axiom_5):
            assert chk.passed and chk.residual <= 1e-12
        assert isinstance(report.overall, bool)
        assert isinstance(report.axiom_4.residual, float)

    def test_axioms_fail_on_wrong_weights(self):
        # ad_a = 1 on v instead of 1/2
        c = np.zeros((4, 4, 4))
        for i, j, k, val in [(0, 1, 2, 1.0), (3, 0, 0, 1.0), (3, 1, 1, 1.0),
                             (3, 2, 2, 2.0)]:
            c[i, j, k] = val
            c[j, i, k] = -val
        report = MetricLieAlgebra(c, np.eye(4)).damek_ricci_check((0, 1), (2,), 3)
        assert not report.axiom_5.passed
        assert not report.overall

    def test_axiom_4_fails_on_a_centre_that_is_not_h_type(self):
        # [e0, e1] = e2 + e3 makes J_e2 = J_e3, so J_z^2 + |z|^2 = 2 z2 z3 on v: zero on
        # the frame of z, 1 at the unit z = (e2 + e3) / sqrt(2); the other axioms hold
        c = np.zeros((5, 5, 5))
        for i, j, k, val in [(0, 1, 2, 1.0), (0, 1, 3, 1.0), (4, 0, 0, 0.5), (4, 1, 1, 0.5),
                             (4, 2, 2, 1.0), (4, 3, 3, 1.0)]:
            c[i, j, k] = val
            c[j, i, k] = -val
        report = MetricLieAlgebra(c, np.eye(5)).damek_ricci_check((0, 1), (2, 3), 4)
        assert abs(report.axiom_4.residual - 1.0) <= 1e-12
        assert not report.axiom_4.passed and not report.overall
        assert all(getattr(report, f"axiom_{n}").passed for n in (1, 2, 3, 5))

    @pytest.mark.parametrize("make, split", [
        (lambda: build_hypersurface_algebra(0.0), ((0, 1, 2, 3), (4, 5), 6)),
        (lambda: quaternionic_hyperbolic_line(), ((0, 1, 2, 3), (4, 5, 6), 7)),
        (complex_hyperbolic_plane, ((0, 1), (2,), 3)),
    ], ids=["alpha0", "HH1", "CH2"])
    def test_axiom_4_reads_round_off_on_h_type_centres(self, make, split):
        assert make().damek_ricci_check(*split).axiom_4.residual <= 1e-15

    @pytest.mark.parametrize("nv, nz, seed, skew", [
        (2, 2, 0, False), (2, 3, 1, False), (4, 2, 2, False), (4, 3, 3, False),
        (4, 2, 4, True), (4, 3, 5, True),
    ])
    def test_polarisation_set_bounds_axiom_4_on_every_unit_z(self, nv, nz, seed, skew):
        # on a centre that is not H-type, |J_z^2 + |z|^2| at any unit z is at most
        # (2 dim z - 1) times the residual on the frame and its pair sums; unskewed,
        # the frame is the basis of z, on which the axiom holds
        alg = two_step_algebra(nv, nz, seed)
        if skew:
            alg = skewed(alg, (nv, nz, 1))
        vi, zi = list(range(nv)), list(range(nv, nv + nz))
        r4 = alg.damek_ricci_check(vi, zi, nv + nz).axiom_4.residual
        w = np.random.default_rng(seed).standard_normal((4000, nz))
        zs = (w / np.linalg.norm(w, axis=1)[:, None]) @ alg._subspace_orthonormal(zi)
        jm = alg._j_matrices(zs, vi)
        zz = np.einsum("mk,kl,ml->m", zs, alg.gram, zs)
        worst = float(np.max(np.abs(jm @ jm + zz[:, None, None] * np.eye(nv))))
        assert r4 > 0.1
        assert worst <= (2 * nz - 1) * r4 * (1.0 + 1e-12)

    def test_partition_validated(self):
        with pytest.raises(ValueError, match="partition"):
            complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 2)

    @pytest.mark.parametrize("v_indices, z_indices, a_index, fault", [
        ((0, 1), (2,), 2, "a_index holds 2, as does z_indices"),
        ((0, 1), (2,), 4, "a_index holds 4"),
        ((0, 0), (2,), 3, "v_indices holds 0 twice"),
        ((0,), (2,), 3, "none of them holds 1"),
    ])
    def test_partition_fault_names_the_parameter_and_index(self, v_indices, z_indices,
                                                            a_index, fault):
        names = "v_indices, z_indices and a_index"
        with pytest.raises(ValueError) as info:
            complex_hyperbolic_plane().damek_ricci_check(v_indices, z_indices, a_index)
        assert str(info.value) == f"{names} must partition the basis indices 0 to 3: {fault}"

    @pytest.mark.parametrize(
        "v_indices, z_indices, empty",
        [((0, 1, 2), (), "z_indices"), ((), (0, 1, 2), "v_indices")],
        ids=["empty_z", "empty_v"],
    )
    def test_empty_block_rejected(self, v_indices, z_indices, empty):
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            complex_hyperbolic_plane().damek_ricci_check(v_indices, z_indices, 3)

    @pytest.mark.parametrize(
        "make, split",
        [
            (lambda: build_hypersurface_algebra(0.0), ((0, 1, 2, 3), (4, 5), 6)),
            (lambda: build_hypersurface_algebra(0.3), ((0, 1, 2, 3), (4, 5), 6)),
            (lambda: build_hypersurface_algebra(math.pi / 2), ((0, 1, 2, 3), (4, 5), 6)),
            (complex_hyperbolic_plane, ((0, 1), (2,), 3)),
            (skewed_complex_hyperbolic_plane, ((0, 1), (2,), 3)),
        ],
        ids=["alpha0", "alpha0.3", "alpha_pi/2", "CH2", "CH2_skewed_gram"],
    )
    def test_axiom_4_matches_per_z_j_operator(self, make, split):
        alg = make()
        vi, zi, a_index = split
        report = alg.damek_ricci_check(vi, zi, a_index)
        g = alg.gram
        vi = list(vi)
        worst = 0.0
        for z in polarisation_set(alg, zi):
            jm = alg._j_matrices(z[None], vi)[0]
            # the defining identity <J_z e_q, e_p> = <z, [e_q, e_p]> on v
            for col, q in enumerate(vi):
                ju = np.zeros(alg.dim)
                ju[vi] = jm[:, col]
                for p in vi:
                    assert alg.inner(ju, np.eye(alg.dim)[p]) == pytest.approx(
                        alg.inner(z, alg.structure[q, p]), abs=1e-12
                    )
            worst = max(worst, float(np.max(np.abs(jm @ jm + (z @ g @ z) * np.eye(len(vi))))))
        assert abs(report.axiom_4.residual - worst) <= 1e-14


def polarisation_set(alg, zi):
    """The test vectors of z, one at a time: a Gram-orthonormal frame f, then
    (f_a + f_b) / sqrt(2) for each pair a < b."""
    f = alg._subspace_orthonormal(zi)
    return list(f) + [(f[a] + f[b]) / math.sqrt(2.0)
                      for a, b in itertools.combinations(range(len(zi)), 2)]


def two_step_algebra(nv, nz, seed):
    """v + z + R A with [v, v] in z, ad A = 1/2 on v and 1 on z, Gram I, and each
    J_{e_k} a random complex structure of v: J_z^2 = -|z|^2 holds on the basis of z,
    but J_{e_k} and J_{e_l} do not anticommute, so it fails between them."""
    rng = np.random.default_rng(seed)
    d = nv + nz + 1
    rot = np.kron(np.eye(nv // 2), [[0.0, -1.0], [1.0, 0.0]])
    c = np.zeros((d, d, d))
    for k in range(nz):
        o = np.linalg.qr(rng.standard_normal((nv, nv)))[0]
        c[:nv, :nv, nv + k] = 0.5 * (o @ rot @ o.T).T  # <J e_q, e_p> = c[q, p, k]
    c[d - 1, range(d - 1), range(d - 1)] = [0.5] * nv + [1.0] * nz
    return MetricLieAlgebra(c - c.swapaxes(0, 1), np.eye(d))


def quaternionic_hyperbolic_line():
    # v = H, z = Im H acting by left multiplication, ad_a = 1/2 on v, 1 on z
    # L e_q = sign e_p for the left multiplications L_i, L_j, L_k on (1, i, j, k)
    tables = [[(1, 1), (0, -1), (3, 1), (2, -1)],
              [(2, 1), (3, -1), (0, -1), (1, 1)],
              [(3, 1), (2, 1), (1, -1), (0, -1)]]
    left = np.zeros((3, 4, 4))
    for m, table in enumerate(tables):
        for q, (p, sign) in enumerate(table):
            left[m, p, q] = sign
    c = np.zeros((8, 8, 8))
    c[:4, :4, 4:7] = 0.5 * left.transpose(2, 1, 0)
    c[7, range(7), range(7)] = [0.5] * 4 + [1.0] * 3
    return MetricLieAlgebra(c - c.swapaxes(0, 1), np.eye(8))


def skewed(alg, sizes):
    """``alg`` in a random basis that keeps the v, z, A blocks of ``sizes``,
    so that the z frame, its pair sums and the Gram norms all round."""
    rng = np.random.default_rng(9)
    p = np.zeros((alg.dim, alg.dim))
    start = 0
    for n in sizes:
        p[start:start + n, start:start + n] = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        start += n
    c = np.einsum("ai,bj,ijk,kc->abc", p, p, alg.structure, np.linalg.inv(p))
    return MetricLieAlgebra(0.5 * (c - c.swapaxes(0, 1)), p @ alg.gram @ p.T)


def per_vector_axioms_4_and_5(alg, vi, zi, a_index):
    """Axioms 4 and 5 with one test vector and one bracket at a time."""
    g = alg.gram
    zs = np.stack(polarisation_set(alg, zi))
    jm = alg._j_matrices(zs, list(vi))
    zz = np.einsum("mk,kl,ml->m", zs, g, zs)
    r4 = float(np.max(np.abs(jm @ jm + zz[:, None, None] * np.eye(len(vi)))))
    r5 = 0.0
    for i, weight in [(i, 0.5) for i in vi] + [(i, 1.0) for i in zi]:
        dev = alg.structure[a_index, i] - weight * np.eye(alg.dim)[i]  # [A, e_i] - w e_i
        r5 = max(r5, float(np.sqrt(max(dev @ g @ dev, 0.0))))
    return r4, r5


class TestStackedAxioms:
    def test_seed_is_not_a_parameter(self):
        # axiom 4 reads a fixed finite set of vectors of z, drawn from no seed
        with pytest.raises(TypeError, match="seed"):
            complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 3, seed=0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf])
    def test_tol_validated(self, tol):
        # the --tol rule: finite and nonnegative
        with pytest.raises(ValueError, match="^tolerance must be finite and nonnegative"):
            complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 3, tol=tol)
        complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 3, tol=0.0)  # 0 is allowed

    def test_quaternionic_hyperbolic_line_is_damek_ricci(self):
        assert quaternionic_hyperbolic_line().damek_ricci_check(
            (0, 1, 2, 3), (4, 5, 6), 7).overall

    @pytest.mark.parametrize(
        "make, split",
        [
            (lambda: build_hypersurface_algebra(0.0), ((0, 1, 2, 3), (4, 5), 6)),
            (lambda: skewed(build_hypersurface_algebra(0.0), (4, 2, 1)),
             ((0, 1, 2, 3), (4, 5), 6)),
            (skewed_complex_hyperbolic_plane, ((0, 1), (2,), 3)),
            (quaternionic_hyperbolic_line, ((0, 1, 2, 3), (4, 5, 6), 7)),
            (lambda: skewed(quaternionic_hyperbolic_line(), (4, 3, 1)),
             ((0, 1, 2, 3), (4, 5, 6), 7)),
        ],
        ids=["alpha0", "alpha0_skewed_basis", "CH2_skewed_gram", "HH1", "HH1_skewed_basis"],
    )
    def test_stacked_check_equals_the_per_vector_loop(self, make, split):
        alg = make()
        report = alg.damek_ricci_check(*split)
        r4, r5 = per_vector_axioms_4_and_5(alg, *split)
        assert (report.axiom_4.residual, report.axiom_5.residual) == (r4, r5)


class TestJsonInterchange:
    def test_roundtrip(self, tmp_path):
        alg = complex_hyperbolic_plane()
        path = tmp_path / "algebra.json"
        doc = dump_algebra_json(alg)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        loaded = load_algebra_json(path)
        assert np.max(np.abs(loaded.structure - alg.structure)) == 0.0
        assert np.max(np.abs(loaded.gram - alg.gram)) == 0.0
        assert loaded.labels == alg.labels
        assert doc["dim"] == 4

    def test_load_from_dict(self):
        doc = {
            "dim": 2,
            "gram": [[1.0, 0.0], [0.0, 1.0]],
            "structure": [[0, 1, 1, 1.0]],
        }
        alg = load_algebra_json(doc)
        assert alg.dim == 2
        assert alg.structure[0, 1, 1] == 1.0
        assert alg.structure[1, 0, 1] == -1.0

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "JSON object"),
            ({"gram": []}, "dim"),
            ({"dim": 0, "gram": [], "structure": []}, "positive"),
            ({"dim": 2, "structure": []}, "gram"),
            ({"dim": 2, "gram": [[1, 0]], "structure": []}, "gram"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]]}, "structure"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 1, 1]]},
             "i, j, k, value"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0.5, 1, 1, 1.0]]},
             "integers"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 5, 1, 1.0]]},
             "out of range"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[1, 0, 1, 1.0]]},
             "i < j"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]],
              "structure": [[0, 1, 1, 1.0], [0, 1, 1, 2.0]]}, "duplicate"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]],
              "labels": ["a"], "structure": []}, "labels"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]],
              "structure": [[0, 1, 1, float("nan")]]}, "structure constants are not all finite"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 1, 1, None]]},
             "value must be a number"),
            ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, True, 1, 1]]},
             "integers"),
            ({"dim": 2, "gram": [[float("nan"), 0], [0, 1]], "structure": []},
             "gram matrix entries are not all finite"),
            # numpy would read these as numbers; a null as nan
            *[({"dim": 2, "gram": gram, "structure": []},
               r"^'gram' must be a 2\*2 matrix of numbers$")
              for gram in ([["1", "0"], ["0", "1"]], [[True, 0], [0, 1]], [[1.0, 0], [0, None]],
                           [[["1"]]])],
            ({"dim": 2, "gram": [1, 0], "structure": []}, r"^'gram' must be a 2\*2 matrix$"),
            ({"dim": 2.7, "gram": [[1, 0], [0, 1]], "structure": []}, "integer"),
            ({"dim": True, "gram": [[1]], "structure": []}, "integer"),
            ({"dim": "2", "gram": [[1, 0], [0, 1]], "structure": []}, "integer"),
            # rejected by the bound alone, before any n*n*n allocation
            ({"dim": MAX_JSON_DIM + 1, "gram": [], "structure": []},
             f"at most {MAX_JSON_DIM}"),
            # the Jacobi products overflow: a nan residual must not pass
            ({"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              "structure": [[0, 1, 2, 1e200], [1, 2, 0, 1e200]]}, "Jacobi identity"),
        ],
    )
    def test_format_errors(self, doc, message):
        with pytest.raises(ValueError, match=message):
            load_algebra_json(doc)

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 2, ', "is not valid JSON: Expecting property name enclosed in double "
                        "quotes: line 1 column 12 (char 11)"),
        ('{"dim": 1' + "0" * 5000 + "}", "holds an integer with too many digits to read"),
        ("[" * 100000, "is nested too deeply to read"),
    ], ids=["truncated", "5000-digits", "deep"])
    def test_unreadable_stream_is_named(self, text, message):
        with pytest.raises(ValueError, match=f"^the algebra document {re.escape(message)}$"):
            load_algebra_json(io.StringIO(text))
        with pytest.raises(ValueError, match="^the algebra document is not UTF-8 text "
                                             r"\(invalid start byte at byte 1\)$"):
            load_algebra_json(io.BytesIO(b"{\xff}"))

    def test_dim_ceiling_accepted(self):
        doc = {"dim": MAX_JSON_DIM, "gram": np.eye(MAX_JSON_DIM).tolist(), "structure": []}
        assert load_algebra_json(doc).dim == MAX_JSON_DIM

    def test_invariants_still_checked(self):
        doc = {
            "dim": 3,
            "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "structure": [[0, 1, 0, 1.0], [0, 2, 1, 1.0]],
        }
        with pytest.raises(ValueError, match="Jacobi identity violated"):
            load_algebra_json(doc)


HUGE = 10**400  # a JSON integer beyond the float range


def _huge_message(entry):
    return f"structure value is an integer too large for a float, got {entry!r}"


class TestStructureEntryPrecedence:
    """The first bad entry in document order is named, by the first rule it
    breaks: shape, index type, value type, range, i < j, duplicate."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[0, 1, 0, 1.0], [2, 1, 0, 1.0], [0, 5, 1, 1.0]],
             "structure entries must have i < j, got [2, 1, 0, 1.0]"),
            ([[0, 1, 0, 1.0], [0, 5, 1, "x"], [1, 0, 0, 1.0]],
             "structure value must be a number, got [0, 5, 1, 'x']"),
            ([[0, 1, 0, 1.0], [0, 1, 0, 2.0], [1, 0, 0, None]],
             "duplicate structure entry for indices (0, 1, 0)"),
            ([[1, 1, 3, 1.0], [0, 1]], "structure index out of range in [1, 1, 3, 1.0]"),
            ([[0, 1, 0, 1.0], [1, 0, 0, 1.0], [1, 0, 0, 2.0]],
             "structure entries must have i < j, got [1, 0, 0, 1.0]"),
            ([[0, 2, 1, 1.0], [0, 2, 1, 1.0, 5], [0, 2, 1, 1.0]],
             "structure entries must be [i, j, k, value], got [0, 2, 1, 1.0, 5]"),
            ([[0, 1, 0, HUGE], [5, 0, 0, 1.0]], _huge_message([0, 1, 0, HUGE])),
            ([[0, 1, 0, 1.0], [5, 1, 0, -HUGE]], _huge_message([5, 1, 0, -HUGE])),
            ([[0, 1, 2, 1.0], [True, 1, 2, 1.0], [0, 9, 0, 1.0]],
             "structure indices must be integers, got [True, 1, 2, 1.0]"),
            ([[0, 1, 2, 1.0], [0, 1, 2.0, 1.0]],
             "structure indices must be integers, got [0, 1, 2.0, 1.0]"),
            ([[0, 1, 2, 1], [0, 2, 1, False]],
             "structure value must be a number, got [0, 2, 1, False]"),
            # (0, 0, 3) and (0, 1, 0) share a linear key when n = 3
            ([[0, 1, 0, 1.0], [0, 0, 3, 1.0]], "structure index out of range in [0, 0, 3, 1.0]"),
            ([[0, 0, 3, 1.0], [0, 1, 0, 1.0]], "structure index out of range in [0, 0, 3, 1.0]"),
            # indices beyond every integer width, after an earlier fault or alone
            ([[0, 1, 0, 1.0], [0, 1, 0, 1.0], [0, 2**64, 0, 1.0]],
             "duplicate structure entry for indices (0, 1, 0)"),
            ([[0, 1, 0, 1.0], [0, -HUGE, 0, 1.0]],
             f"structure index out of range in [0, {-HUGE}, 0, 1.0]"),
            ([(0, 1, 0, 1.0)], "structure entries must be [i, j, k, value], got (0, 1, 0, 1.0)"),
            ([[0, 1, 0, 1.0], None], "structure entries must be [i, j, k, value], got None"),
        ],
        ids=["order-before-range", "value-before-range", "duplicate-before-value",
             "range-before-order", "order-before-duplicate", "shape-later", "huge-value",
             "huge-negative-value", "bool-index", "float-index", "bool-value",
             "range-not-key-duplicate", "range-before-key-duplicate",
             "duplicate-before-wide-index", "huge-index", "tuple-entry", "none-entry"],
    )
    def test_first_bad_entry_named(self, entries, message):
        doc = {"dim": 3, "gram": np.eye(3).tolist(), "structure": entries}
        with pytest.raises(ValueError) as info:
            load_algebra_json(doc)
        assert str(info.value) == message

    def test_huge_integer_gram_named(self):
        doc = {"dim": 2, "gram": [[HUGE, 0], [0, 1]], "structure": []}
        with pytest.raises(ValueError, match=r"^an integer in 'gram' is too large for a float$"):
            load_algebra_json(doc)

    @pytest.mark.parametrize("structure, gram, name", [
        (np.zeros((1, 1, 1)), [[HUGE]], "the gram matrix"),
        ([[[HUGE]]], [[1.0]], "the structure constants"),
    ])
    def test_huge_integer_constructor_arguments_named(self, structure, gram, name):
        with pytest.raises(ValueError, match=f"^an integer in {name} is too large for a float$"):
            MetricLieAlgebra(structure, gram)


def _reference_structure(doc):
    """The structure array the loader fills, or the message it raises: the
    per-entry loop, with the float-range rule in the value-type slot."""
    n = doc["dim"]
    c = np.zeros((n, n, n))
    seen = set()
    for entry in doc["structure"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            return f"structure entries must be [i, j, k, value], got {entry!r}"
        i, j, k, val = entry
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in (i, j, k)):
            return f"structure indices must be integers, got {entry!r}"
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            return f"structure value must be a number, got {entry!r}"
        try:
            float(val)
        except OverflowError:
            return _huge_message(entry)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            return f"structure index out of range in {entry!r}"
        if i >= j:
            return f"structure entries must have i < j, got {entry!r}"
        if (i, j, k) in seen:
            return f"duplicate structure entry for indices ({i}, {j}, {k})"
        seen.add((i, j, k))
        c[i, j, k] = float(val)
        c[j, i, k] = -float(val)
    return c


class _Captured:
    """Stands in for MetricLieAlgebra: keeps the arrays the loader passes."""

    def __init__(self, structure, gram, labels=None):
        self.structure = structure


@st.composite
def structure_documents(draw):
    """Documents of dim 1-4 with up to 12 entries: mostly good ones, with up
    to two bad entries of every kind the loader names, and repeats of
    earlier entries."""
    n = draw(st.integers(1, 4))
    number = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3), st.sampled_from([0.0, -0.0]))
    odd_index = st.sampled_from(
        [-1, n, n + 1, 2**63, -(2**64), HUGE, True, False, 0.0, 1.5, "0", None])
    index = st.integers(0, 3).flatmap(lambda kind: odd_index if kind == 0 else st.integers(0, n - 1))
    odd_value = st.sampled_from(
        [HUGE, -HUGE, 2**1024, 2**1024 - 2**970, 2**1024 - 2**970 - 1, 2**1023, 2**64 + 1,
         True, "1", None, float("nan"), float("inf")])
    slots = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    four = st.tuples(index, index, index, st.one_of(number, odd_value)).map(list)
    valued = st.tuples(st.sampled_from(slots or [(0, 0, 0)]), odd_value).map(
        lambda e: [*e[0], e[1]])
    bad = st.integers(0, 5).flatmap(lambda kind: four if kind < 3 else valued if kind < 5 else
                                    st.one_of(st.lists(number, max_size=6).filter(
                                        lambda e: len(e) != 4), st.sampled_from(
                                        [None, "entry", 3, (0, 1, 0, 1.0), {"i": 0}])))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=12)) if slots else []
    entries = [[*slot, draw(number)] for slot in chosen]
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), draw(bad))
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        source = draw(st.sampled_from(entries))
        copy = [*source[:3], draw(number)] if isinstance(source, list) else source
        entries.insert(draw(st.integers(0, len(entries))), copy)
    return {"dim": n, "gram": np.eye(n).tolist(), "structure": entries[:12]}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=structure_documents())
def test_loader_matches_the_per_entry_loop(doc):
    expected = _reference_structure(doc)
    with mock.patch.object(engine, "MetricLieAlgebra", _Captured):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                load_algebra_json(doc)
            assert str(info.value) == expected
        else:
            got = load_algebra_json(doc).structure
            assert np.array_equal(got, expected, equal_nan=True)
            assert got.tobytes() == expected.tobytes()


def _reference_frame(g, indices):
    """Modified Gram-Schmidt over the coordinate vectors, one row at a time."""
    rows = []
    for i in indices:
        v = np.zeros(len(g))
        v[i] = 1.0
        for u in rows:
            v = v - (u @ g @ v) * u
        v = v / np.sqrt(v @ g @ v)
        rows.append(v)
    return np.stack(rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_subspace_frame_matches_the_per_row_loop(n):
    # the frame is defined by its properties; the loop gives the same one up to round-off
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.standard_normal((n, n))
        g = a @ a.T + 0.1 * np.eye(n)
        alg = MetricLieAlgebra(np.zeros((n, n, n)), 0.5 * (g + g.T))
        f = alg._frame  # the Ricci matrix's frame, read off the cached inverse: upper triangular
        assert not np.any(np.tril(f, -1)) and np.all(np.diag(f) > 0)
        assert np.max(np.abs(f @ alg.gram @ f.T - np.eye(n))) <= 1e-13
        subsets = [range(n)] + [rng.permutation(n)[:rng.integers(1, n + 1)] for _ in range(3)]
        for indices in subsets:
            idx = list(indices)
            frame = alg._subspace_orthonormal(indices)
            assert frame.shape == (len(idx), n)
            assert not np.any(np.delete(frame, idx, axis=1))  # zero outside the indices
            block = frame[:, idx]  # columns in index order
            assert not np.any(np.triu(block, 1)) and np.all(np.diag(block) > 0)
            assert np.max(np.abs(frame @ alg.gram @ frame.T - np.eye(len(idx)))) <= 1e-14
            reference = _reference_frame(alg.gram, indices)
            assert np.max(np.abs(frame - reference)) <= 1e-13 * np.max(np.abs(reference))


def _rebased_ambient(seed):
    """The ambient algebra in a random basis p: c' = p p c p^-1, g' = p g p^T."""
    amb = ambient_algebra()
    p = np.eye(8) + 0.3 * np.random.default_rng(seed).standard_normal((8, 8))
    c = np.einsum("ai,bj,ijk,kc->abc", p, p, amb.structure, np.linalg.inv(p))
    return MetricLieAlgebra(0.5 * (c - c.swapaxes(0, 1)), p @ amb.gram @ p.T)


RICCI_CASES = (
    [("ambient", ambient_algebra)]
    + [(f"alpha{a:.4f}", lambda a=a: build_hypersurface_algebra(a))
       for a in np.linspace(0.0, math.pi / 2, 21)]
    + [(f.__name__, f) for f in (hyperbolic_plane, round_sphere, heisenberg3,
                                 complex_hyperbolic_plane, skewed_complex_hyperbolic_plane,
                                 quaternionic_hyperbolic_line)]
    + [(f"ambient_rebased{seed}", lambda seed=seed: _rebased_ambient(seed)) for seed in range(5)]
)


def three_einsum_riemann(c, gam, sign=-1.0):
    """R[i, j, k, :] of the Koszul formula as three einsums over the connection;
    with sign 1 and |c|, |gam|, the sum of the magnitudes of its terms."""
    return (np.einsum("jkm,iml->ijkl", gam, gam) + sign * np.einsum("ikm,jml->ijkl", gam, gam)
            + sign * np.einsum("ijm,mkl->ijkl", c, gam))


# R overflows off its trace: the Ricci form is finite, the curvature tensor is not
OFF_TRACE_OVERFLOW_DOC = {"dim": 3, "gram": [[1e6, 0, 0], [0, 1e-4, 0], [0, 0, 1]],
                          "structure": [[0, 1, 0, -1e148], [0, 1, 2, -1e152]]}


def counted_curvature(monkeypatch):
    """The algebras that build ``_curvature`` from now on, one entry per build."""
    calls = []
    curvature = MetricLieAlgebra.__dict__["_curvature"].func

    def counted(self):
        calls.append(self)
        return curvature(self)

    prop = cached_property(counted)
    prop.__set_name__(MetricLieAlgebra, "_curvature")
    monkeypatch.setattr(MetricLieAlgebra, "_curvature", prop)
    return calls


def counted_koszul_curvature(monkeypatch):
    """The structure constants that ``koszul_curvature`` runs on from now on, one per call."""
    calls = []

    def counted(c, gam):
        calls.append(c)
        return koszul_curvature(c, gam)

    monkeypatch.setattr(engine, "koszul_curvature", counted)
    return calls


class TestOneCurvatureTensor:
    """Each algebra builds one curvature tensor; the Ricci form is its trace."""

    @pytest.mark.parametrize("make", [m for _, m in RICCI_CASES],
                             ids=[name for name, _ in RICCI_CASES])
    def test_equals_the_trace_of_the_curvature_tensor(self, make):
        alg = make()
        r = alg._riemann
        trace = np.einsum("ijki->jk", r)
        expected = 0.5 * (trace + trace.T)
        assert np.max(np.abs(alg._ricci_form - expected)) <= 1e-14 * np.max(np.abs(r))

    @pytest.mark.parametrize("make", [m for _, m in RICCI_CASES],
                             ids=[name for name, _ in RICCI_CASES])
    def test_equals_the_three_einsum_tensor(self, make):
        # relative to its terms, not to R: on ambient_rebased3 they cancel to 1/1100 of
        # their size, and the two sums differ by 1.2e-14 max|R|
        alg = make()
        c, gam = alg.structure, alg._connection
        terms = three_einsum_riemann(np.abs(c), np.abs(gam), sign=1.0)
        difference = np.abs(alg._riemann - three_einsum_riemann(c, gam))
        assert np.max(difference) <= 1e-15 * np.max(terms)

    @pytest.mark.parametrize("make", [hyperbolic_plane, round_sphere, heisenberg3,
                                      complex_hyperbolic_plane, skewed_complex_hyperbolic_plane,
                                      quaternionic_hyperbolic_line, lambda: _rebased_ambient(0)],
                             ids=["H2", "S3", "Heis3", "CH2", "CH2_skewed_gram", "HH1",
                                  "ambient_rebased"])
    def test_queries_build_the_tensor_once(self, monkeypatch, make):
        calls = counted_curvature(monkeypatch)
        formula = counted_koszul_curvature(monkeypatch)
        alg = make()
        e = np.eye(alg.dim)
        alg.einstein_check(1e-8)
        alg.ricci(np.ones(alg.dim))
        alg.ricci_matrix()
        alg.sectional(e[0], e[1])
        alg.curvature_inner(e[0], e[1], e[1], e[0])
        alg.cheeger()
        assert calls == [alg]
        assert len(formula) == 1 and formula[0] is alg.structure
        assert "_ricci_spectrum" in vars(alg)  # einstein_check reads the cached spectrum

    def test_verify_builds_one_tensor_per_algebra(self, monkeypatch):
        ambient_algebra.cache_clear()  # fresh algebras, so that every build is counted
        _model_at.cache_clear()
        calls = counted_curvature(monkeypatch)
        formula = counted_koszul_curvature(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--alpha", "0.7", "--samples", "20"]) == 0
        # the leaf at 0.7 and the ambient algebra; the alpha = 0 leaf needs none
        assert calls == [build_hypersurface_algebra(0.7), ambient_algebra()]
        assert [id(c) for c in formula] == [id(alg.structure) for alg in calls]

    def test_ricci_form_of_a_tensor_that_overflows_off_its_trace(self):
        alg = load_algebra_json(OFF_TRACE_OVERFLOW_DOC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat, constant = alg.einstein_check(1e-8)
            assert not flat and constant == pytest.approx(-1.7333333333333329e+301, rel=1e-14)
            assert alg.ricci(np.eye(3)).tolist() == pytest.approx([-5.1e307, -5.1e297, 5e301],
                                                                  rel=1e-14)
            with pytest.raises(ValueError, match="^curvature tensor overflows the float range"):
                alg.sectional(np.eye(3)[0], np.eye(3)[1])

    def test_spectrum_is_cached_and_read_only(self):
        alg = skewed_complex_hyperbolic_plane()
        spectrum = alg._ricci_spectrum
        assert np.array_equal(spectrum, np.linalg.eigvalsh(alg.ricci_matrix()))
        assert alg._ricci_spectrum is spectrum
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 1.0


class TestKoszulFunctions:
    """The one Koszul formula, on a stack of algebras and on exact numbers."""

    def test_stack_of_leaves_matches_each_algebra_bit_for_bit(self):
        algs = [build_hypersurface_algebra(a) for a in np.linspace(0.0, math.pi / 2, 25)]
        c, g, g_inv = (np.stack([getattr(alg, name) for alg in algs])
                       for name in ("structure", "gram", "_gram_inv"))
        gam = koszul_connection(c, g, g_inv)
        r = koszul_curvature(c, gam)
        ric = ricci_trace(r)
        for k, alg in enumerate(algs):
            assert gam[k].tobytes() == alg._connection.tobytes()
            assert r[k].tobytes() == alg._curvature.tobytes()
            assert ric[k].tobytes() == alg._ricci_form.tobytes()
        # any number of leading axes: the stack as a 5 x 5 grid
        grid = koszul_curvature(c.reshape(5, 5, 7, 7, 7), gam.reshape(5, 5, 7, 7, 7))
        assert grid.tobytes() == r.tobytes()

    def test_alpha_zero_leaf_is_einstein_in_exact_arithmetic(self):
        alg = build_hypersurface_algebra(0.0)
        # the float constants are halves and the gram matrix is I, so each entry
        # becomes a Fraction without rounding
        assert np.array_equal(2 * alg.structure, np.round(2 * alg.structure))
        assert np.array_equal(alg.gram, np.eye(7))
        exact = np.vectorize(Fraction, otypes=[object])
        c, g = exact(alg.structure), exact(alg.gram)
        ric = ricci_trace(koszul_curvature(c, koszul_connection(c, g, g)))  # I is its own inverse
        assert all(type(x) is Fraction for x in ric.flat)
        assert ric.tolist() == (-3 * np.eye(7, dtype=int)).tolist()
