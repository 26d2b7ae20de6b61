"""Complex matrix values and the bilinear forms of the ambient model.

Everything downstream works with 3x3 complex matrices regarded as elements
of a real Lie algebra.  This module supplies the value type plus the handful
of maps that define the geometry:

    bracket(X, Y)          = XY - YX
    cartan_involution(X)   = -conj(X)^T
    killing_form(X, Y)     = 12 Re tr(XY)           (sl(3,C) normalisation)
    inner_ambient(X, Y)    = 2 Re tr(X conj(Y)^T)   = -(1/6) B(X, theta Y)
    hermitian_part(X)      = (X + conj(X)^T) / 2
    inner_solvable(X, Y)   = Re tr(U1 conj(U2)^T) + 2 tr(D1 D2)

where U/D are the strictly upper triangular and real diagonal parts of an
upper triangular traceless argument.  On the solvable algebra the two inner
products agree through the Hermitian-part map:

    inner_solvable(X, Y) == inner_ambient(hermitian_part(X), hermitian_part(Y))

``solvable_parts`` also splits a whole (..., n, n) stack of matrices at once.

Complex scalars are kept in Cartesian form throughout; nothing here touches
polar decompositions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SquareComplexMatrix",
    "MEMBERSHIP_TOL",
    "bracket",
    "cartan_involution",
    "killing_form",
    "inner_ambient",
    "hermitian_part",
    "solvable_parts",
    "inner_solvable",
    "sl_matrix",
]

# Absolute tolerance for membership checks (tracelessness, triangularity).
MEMBERSHIP_TOL = 1e-12


class SquareComplexMatrix:
    """Immutable square complex matrix with value semantics.

    The wrapped ndarray is marked read-only, so instances can be shared
    freely across threads.  Arithmetic returns new instances; the dimension
    is a runtime property rather than a type parameter.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SquareComplexMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def conjugate_transpose(self) -> "SquareComplexMatrix":
        return SquareComplexMatrix(self.entries.conj().T)

    def allclose(self, other: "SquareComplexMatrix", tol: float = 1e-12) -> bool:
        return self.dim == other.dim and bool(
            np.max(np.abs(self.entries - other.entries)) <= tol
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def __add__(self, other: "SquareComplexMatrix") -> "SquareComplexMatrix":
        _require_same_dim(self, other)
        return SquareComplexMatrix(self.entries + other.entries)

    def __sub__(self, other: "SquareComplexMatrix") -> "SquareComplexMatrix":
        _require_same_dim(self, other)
        return SquareComplexMatrix(self.entries - other.entries)

    def __neg__(self) -> "SquareComplexMatrix":
        return SquareComplexMatrix(-self.entries)

    def __mul__(self, scalar) -> "SquareComplexMatrix":
        return SquareComplexMatrix(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "SquareComplexMatrix") -> "SquareComplexMatrix":
        _require_same_dim(self, other)
        return SquareComplexMatrix(self.entries @ other.entries)

    def __repr__(self) -> str:
        return f"SquareComplexMatrix({self.entries.tolist()!r})"


def _require_same_dim(x: SquareComplexMatrix, y: SquareComplexMatrix) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def bracket(x: SquareComplexMatrix, y: SquareComplexMatrix) -> SquareComplexMatrix:
    """Matrix commutator [X, Y] = XY - YX."""
    _require_same_dim(x, y)
    return SquareComplexMatrix(x.entries @ y.entries - y.entries @ x.entries)


def cartan_involution(x: SquareComplexMatrix) -> SquareComplexMatrix:
    """theta(X) = -conj(X)^T; fixes the anti-Hermitian part, negates the rest."""
    return SquareComplexMatrix(-x.entries.conj().T)


def killing_form(x: SquareComplexMatrix, y: SquareComplexMatrix) -> float:
    """B(X, Y) = 12 Re tr(XY), the Killing form of sl(3,C) as a real algebra."""
    _require_same_dim(x, y)
    return 12.0 * float(np.real(np.trace(x.entries @ y.entries)))


def inner_ambient(x: SquareComplexMatrix, y: SquareComplexMatrix) -> float:
    """Positive definite inner product 2 Re tr(X conj(Y)^T).

    Equals -(1/6) B(X, theta Y), i.e. the Killing form twisted by the Cartan
    involution and rescaled so the root vectors E_ij come out with norm
    sqrt(2) and the unit diagonals below with norm 1.
    """
    _require_same_dim(x, y)
    return 2.0 * float(np.real(np.sum(x.entries * np.conj(y.entries))))


def hermitian_part(x: SquareComplexMatrix) -> SquareComplexMatrix:
    """Orthogonal projection (X + conj(X)^T)/2 onto the Hermitian matrices.

    Kills the fixed space of the Cartan involution, so it identifies the
    solvable algebra with the symmetric-space tangent space isometrically
    up to the inner product conventions above.
    """
    return SquareComplexMatrix(0.5 * (x.entries + x.entries.conj().T))


def solvable_parts(x, tol: float = MEMBERSHIP_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split an upper triangular traceless matrix into nilpotent and diagonal parts.

    Returns (strictly upper triangle, real diagonal vector).  Raises
    ValueError if the argument is not in the solvable algebra: a nonzero
    strictly lower triangular part, a non-real diagonal, or a trace beyond
    ``tol`` all disqualify it.  ``x`` may also be an (..., n, n) stack of
    matrices; the tests then cover every matrix and the parts are stacked.
    """
    e = x.entries if isinstance(x, SquareComplexMatrix) else np.asarray(x, complex)
    low = np.tril(e, -1)
    if np.max(np.abs(low)) > tol:
        raise ValueError(
            "matrix is not in the solvable algebra: nonzero strictly lower part"
        )
    d = np.diagonal(e, axis1=-2, axis2=-1)
    if np.max(np.abs(d.imag)) > tol:
        raise ValueError("matrix is not in the solvable algebra: diagonal is not real")
    if np.abs(d.real.sum(axis=-1)).max() > tol:
        raise ValueError("matrix is not in the solvable algebra: nonzero trace")
    return np.triu(e, 1), d.real.copy()


def inner_solvable(x: SquareComplexMatrix, y: SquareComplexMatrix) -> float:
    """Inner product on the solvable algebra, orthogonal sum of the two blocks.

    For X = U1 + D1 and Y = U2 + D2 (strict upper plus real diagonal):

        <X, Y> = Re tr(U1 conj(U2)^T) + 2 tr(D1 D2)

    This makes the matrix units E_ij orthonormal alongside the unit
    diagonal directions.  Both arguments must pass ``solvable_parts``.
    """
    _require_same_dim(x, y)
    u1, d1 = solvable_parts(x)
    u2, d2 = solvable_parts(y)
    return float(np.real(np.sum(u1 * np.conj(u2)))) + 2.0 * float(np.dot(d1, d2))


def sl_matrix(entries) -> SquareComplexMatrix:
    """Construct a traceless matrix, rejecting traces beyond MEMBERSHIP_TOL."""
    m = SquareComplexMatrix(entries)
    if abs(m.trace) > MEMBERSHIP_TOL:
        raise ValueError(f"matrix is not traceless: tr = {m.trace}")
    return m
