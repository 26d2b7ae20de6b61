"""Generic metric Lie algebra engine, tested on small classical examples.

The hyperbolic plane (one-dimensional extension [e1, e2] = e2) and the
bi-invariant 3-sphere (su(2) with the round metric) have textbook constant
curvatures, giving oracles that are independent of everything else in the
package.
"""

import json
import math

import numpy as np
import pytest

from solvgeom.engine import (
    MetricLieAlgebra,
    dump_algebra_json,
    load_algebra_json,
)
from solvgeom.matrices import SquareComplexMatrix, inner_ambient


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

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            MetricLieAlgebra(np.zeros((2, 2, 2)), np.eye(2), labels=("a",))

    def test_vector_length_checked(self):
        alg = hyperbolic_plane()
        with pytest.raises(ValueError, match="length"):
            alg.inner(np.ones(3), np.ones(3))


class TestFromMatrixBasis:
    def test_dependent_basis_rejected(self):
        e = SquareComplexMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="linearly independent"):
            MetricLieAlgebra.from_matrix_basis((e, 2 * e), inner=inner_ambient)

    def test_non_subalgebra_rejected(self):
        e12 = SquareComplexMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        e23 = SquareComplexMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(ValueError, match="not a subalgebra"):
            MetricLieAlgebra.from_matrix_basis((e12, e23), inner=inner_ambient)

    def test_heisenberg_structure_recovered(self):
        e12 = SquareComplexMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        e23 = SquareComplexMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        e13 = SquareComplexMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        alg = MetricLieAlgebra.from_matrix_basis(
            (e12, e23, e13), inner=inner_ambient, labels=("x", "y", "z")
        )
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 1.0
        expected[1, 0, 2] = -1.0
        assert np.max(np.abs(alg.structure - expected)) <= 1e-12
        assert np.max(np.abs(alg.gram - 2.0 * np.eye(3))) <= 1e-12
        assert alg.labels == ("x", "y", "z")


class TestConnectionAndCurvature:
    def test_hyperbolic_connection_frozen(self):
        alg = hyperbolic_plane()
        e1, e2 = np.eye(2)
        assert np.allclose(alg.covariant_derivative(e1, e1), 0.0, atol=1e-14)
        assert np.allclose(alg.covariant_derivative(e1, e2), 0.0, atol=1e-14)
        assert np.allclose(alg.covariant_derivative(e2, e1), -e2, atol=1e-14)
        assert np.allclose(alg.covariant_derivative(e2, e2), e1, atol=1e-14)

    def test_connection_metric_compatibility(self):
        alg = complex_hyperbolic_plane()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 4))
            lhs = alg.inner(alg.covariant_derivative(x, y), z)
            rhs = -alg.inner(y, alg.covariant_derivative(x, z))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_connection_torsion_free(self):
        alg = complex_hyperbolic_plane()
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            torsion = (
                alg.covariant_derivative(x, y)
                - alg.covariant_derivative(y, x)
                - alg.bracket_coeffs(x, y)
            )
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
            bianchi = (
                alg.curvature(x, y, z)
                + alg.curvature(y, z, x)
                + alg.curvature(z, x, y)
            )
            assert np.max(np.abs(bianchi)) <= 1e-11

    def test_degenerate_plane_rejected(self):
        alg = round_sphere()
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            alg.sectional(v, 2.0 * v)

    def test_einstein_tol_validated(self):
        with pytest.raises(ValueError, match="tolerance"):
            hyperbolic_plane().einstein_check(0.0)

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
        e = np.eye(3)
        assert np.allclose(alg.j_operator(e[2], e[0], (0, 1)), e[1], atol=1e-14)
        assert np.allclose(alg.j_operator(e[2], e[1], (0, 1)), -e[0], atol=1e-14)

    def test_j_operator_validation(self):
        alg = heisenberg3()
        e = np.eye(3)
        with pytest.raises(ValueError, match="distinct"):
            alg.j_operator(e[2], e[0], (0, 0))
        with pytest.raises(ValueError, match="supported on"):
            alg.j_operator(e[2], e[2], (0, 1))
        with pytest.raises(ValueError, match="supported off"):
            alg.j_operator(e[0], e[0], (0, 1))

    def test_complex_hyperbolic_plane_axioms(self):
        report = complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 3)
        assert report.overall
        assert report.is_two_step_nilpotent
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

    def test_partition_validated(self):
        with pytest.raises(ValueError, match="partition"):
            complex_hyperbolic_plane().damek_ricci_check((0, 1), (2,), 2)


class TestJsonInterchange:
    def test_roundtrip(self, tmp_path):
        alg = complex_hyperbolic_plane()
        path = tmp_path / "algebra.json"
        doc = dump_algebra_json(alg, path)
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
        ],
    )
    def test_format_errors(self, doc, message):
        with pytest.raises(ValueError, match=message):
            load_algebra_json(doc)

    def test_invariants_still_checked(self):
        doc = {
            "dim": 3,
            "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "structure": [[0, 1, 0, 1.0], [0, 2, 1, 1.0]],
        }
        with pytest.raises(ValueError, match="Jacobi identity violated"):
            load_algebra_json(doc)
