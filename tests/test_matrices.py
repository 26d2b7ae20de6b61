"""Matrix layer: arithmetic, the two inner products, and the Killing form
identities of the module docstring."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solvgeom.matrices import (
    bracket,
    hermitian_part,
    inner_ambient,
    inner_solvable,
    solvable_parts,
)
from solvgeom import hypersurface
from solvgeom.hypersurface import AMBIENT_BASIS, E12, E13, E23, H0, H1

V, W, Z0 = E12, E23, E13


def span(coeffs):
    """Real linear combination of the ambient orthonormal basis."""
    return np.tensordot(coeffs, AMBIENT_BASIS, axes=1)


def close(x, y, tol=1e-12):
    return x.shape == y.shape and np.max(np.abs(x - y)) <= tol


def max_abs(x):
    return np.max(np.abs(x))


def killing(x, y):
    """B(X, Y) = 12 Re tr(XY), the Killing form of sl(3,C) as a real algebra."""
    return 12.0 * float(np.real(np.trace(x @ y)))


def theta(x):
    """The Cartan involution -conj(X)^T."""
    return -np.conj(np.swapaxes(x, -1, -2))


coeff_vectors = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=8, max_size=8
)


class TestConstants:
    @pytest.mark.parametrize("name", ["E12", "E23", "E13", "H0", "H1", "AMBIENT_BASIS"])
    def test_read_only_complex_arrays(self, name):
        array = getattr(hypersurface, name)
        assert array.shape == ((8, 3, 3) if name == "AMBIENT_BASIS" else (3, 3))
        assert array.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 5.0

    def test_ambient_basis_holds_the_constants_in_order(self):
        expected = [E12, 1j * E12, E23, 1j * E23, E13, 1j * E13, H0, H1]
        assert np.array_equal(AMBIENT_BASIS, np.stack(expected))

    def test_basis_traceless(self):
        for m in AMBIENT_BASIS:
            assert abs(np.trace(m)) <= 1e-15

    def test_h1_trace_exactly_zero(self):
        # 1/(2 sqrt 3) doubles exactly in binary, so the cancellation is exact
        assert np.trace(H1) == 0.0

    def test_ambient_basis_orthonormal(self):
        g = np.array(
            [[inner_solvable(a, b) for b in AMBIENT_BASIS] for a in AMBIENT_BASIS]
        )
        assert np.max(np.abs(g - np.eye(8))) <= 1e-15


class TestBracketsAndInvolution:
    def test_root_vector_brackets(self):
        assert close(bracket(V, W), Z0)
        assert close(bracket(1j * V, W), 1j * Z0)
        assert close(bracket(V, 1j * W), 1j * Z0)
        assert close(bracket(1j * V, 1j * W), -Z0)
        assert max_abs(bracket(V, Z0)) <= 1e-15
        assert max_abs(bracket(W, Z0)) <= 1e-15

    def test_diagonal_adjoint_eigenvalues(self):
        assert close(bracket(H0, V), 0.5 * V)
        assert close(bracket(H0, W), 0.5 * W)
        assert close(bracket(H0, Z0), 1.0 * Z0)
        r = 1.0 / (2.0 * math.sqrt(3.0))
        assert close(bracket(H1, V), 3.0 * r * V)
        assert close(bracket(H1, W), -3.0 * r * W)
        assert max_abs(bracket(H1, Z0)) <= 1e-15

    @given(coeff_vectors, coeff_vectors)
    def test_involution_is_automorphism(self, u, v):
        x, y = span(u), span(v)
        assert close(theta(bracket(x, y)), bracket(theta(x), theta(y)), tol=1e-10)

    def test_stack_maps_equal_the_per_matrix_maps(self):
        # the maps act on the last two axes: a stack gives each matrix's result
        rng = np.random.default_rng(5)
        x = span(rng.standard_normal((4, 8)))
        y = span(rng.standard_normal((4, 8)))
        assert x.shape == y.shape == (4, 3, 3)
        for stacked, single in (
            (bracket(x, y), lambda k: bracket(x[k], y[k])),
            (bracket(x, H0), lambda k: bracket(x[k], H0)),
            (hermitian_part(x), lambda k: hermitian_part(x[k])),
        ):
            for k in range(len(x)):
                assert np.array_equal(stacked[k], single(k))

    def test_jacobi_identity_on_random_triples(self):
        rng = np.random.default_rng(17)
        x, y, z = np.einsum(
            "tnc,cij->tnij", rng.uniform(-2.0, 2.0, (3, 1000, 8)), AMBIENT_BASIS
        )

        def comm(a, b):
            return a @ b - b @ a

        cyclic = comm(comm(x, y), z) + comm(comm(y, z), x) + comm(comm(z, x), y)
        assert np.max(np.abs(cyclic)) <= 1e-10


class TestForms:
    def test_killing_frozen_values(self):
        # the basis constants under the normalisation of the module docstring
        assert killing(H0, H0) == pytest.approx(6.0, abs=1e-14)
        assert killing(H1, H1) == pytest.approx(6.0, abs=1e-14)
        assert killing(H0, H1) == pytest.approx(0.0, abs=1e-14)
        assert killing(V, theta(V)) == pytest.approx(-12.0, abs=1e-14)
        assert killing(V, V) == pytest.approx(0.0, abs=1e-14)

    @given(coeff_vectors, coeff_vectors, coeff_vectors)
    def test_killing_ad_invariance(self, u, v, w):
        x, y, z = span(u), span(v), span(w)
        lhs = killing(bracket(x, y), z)
        rhs = -killing(y, bracket(x, z))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_inner_ambient_frozen_values(self):
        assert inner_ambient(V, V) == pytest.approx(2.0, abs=1e-15)
        assert inner_ambient(H0, H0) == pytest.approx(1.0, abs=1e-15)
        assert inner_ambient(H1, H1) == pytest.approx(1.0, abs=1e-15)
        assert inner_ambient(V, W) == pytest.approx(0.0, abs=1e-15)

    @given(coeff_vectors, coeff_vectors)
    def test_inner_ambient_from_killing(self, u, v):
        # <X, Y> = -B(X, theta Y) / 6 with B(X, Y) = 12 Re tr(XY), theta Y = -conj(Y)^T
        x, y = span(u), span(v)
        assert inner_ambient(x, y) == pytest.approx(
            -12.0 * np.real(np.trace(x @ -np.conj(y).T)) / 6.0, abs=1e-9
        )

    @given(coeff_vectors, coeff_vectors)
    def test_inner_ambient_involution_invariance(self, u, v):
        x, y = span(u), span(v)
        assert inner_ambient(theta(x), theta(y)) == pytest.approx(
            inner_ambient(x, y), abs=1e-10
        )

    @given(coeff_vectors)
    def test_inner_ambient_positive(self, u):
        x = span(u)
        n = inner_ambient(x, x)
        assert n >= 0.0
        if max(abs(c) for c in u) > 1e-3:
            assert n > 0.0

    def test_hermitian_part_projects(self):
        m = np.array([[1j, 2], [3, -1j]])
        p = hermitian_part(m)
        assert close(p, p.conj().T)
        assert close(hermitian_part(p), p)

    @given(coeff_vectors, coeff_vectors)
    def test_inner_solvable_via_hermitian_part(self, u, v):
        x, y = span(u), span(v)
        assert inner_solvable(x, y) == pytest.approx(
            inner_ambient(hermitian_part(x), hermitian_part(y)), abs=1e-10
        )

    def test_inner_solvable_frozen_values(self):
        assert inner_solvable(Z0, Z0) == pytest.approx(1.0, abs=1e-15)
        assert inner_solvable(H0, H0) == pytest.approx(1.0, abs=1e-15)
        assert inner_solvable(V, 1j * V) == pytest.approx(0.0, abs=1e-15)


class TestSolvableParts:
    def test_decomposition(self):
        m = np.array([[1.0, 2j, 3], [0, -2.0, 1j], [0, 0, 1.0]])
        upper, diag = solvable_parts(m)
        assert np.allclose(diag, [1.0, -2.0, 1.0])
        assert upper[0, 1] == 2j and upper[1, 2] == 1j and upper[0, 2] == 3
        assert upper[0, 0] == 0

    def test_rejects_lower_entries(self):
        with pytest.raises(ValueError, match="lower"):
            solvable_parts(np.array([[0, 0], [1, 0]]))

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError, match="real"):
            solvable_parts(np.array([[1j, 0], [0, -1j]]))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError, match="trace"):
            solvable_parts(np.eye(3))

    @pytest.mark.parametrize(
        "entries, reason",
        [([[0, 0], [1, 0]], "lower"), ([[1j, 0], [0, -1j]], "real"), (np.eye(3), "trace")],
    )
    def test_stack_applies_the_membership_tests_to_each_matrix(self, entries, reason):
        stack = np.stack([np.zeros_like(entries, dtype=complex), entries])
        with pytest.raises(ValueError, match=reason):
            solvable_parts(stack)

    @given(st.lists(coeff_vectors, min_size=1, max_size=4))
    def test_parts_of_a_stack_are_the_stacked_parts(self, coeffs):
        mats = [span(u) for u in coeffs]
        upper, diag = solvable_parts(np.stack(mats))
        for k, m in enumerate(mats):
            u, d = solvable_parts(m)
            assert np.array_equal(upper[k], u) and np.array_equal(diag[k], d)

    @given(coeff_vectors, coeff_vectors)
    def test_bracket_closure(self, u, v):
        # [s, s] lies in the nilpotent part, so decomposition never fails
        out = bracket(span(u), span(v))
        upper, diag = solvable_parts(out, tol=1e-9)
        assert np.max(np.abs(diag)) <= 1e-9
