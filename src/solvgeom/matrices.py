"""The Lie bracket and bilinear forms of the ambient model on complex matrices.

Everything downstream works with complex matrices, plain ndarrays, regarded
as elements of a real Lie algebra.  This module supplies the handful of maps
that define the geometry:

    bracket(X, Y)          = XY - YX
    inner_ambient(X, Y)    = 2 Re tr(X conj(Y)^T)   = -(1/6) B(X, theta Y)
    hermitian_part(X)      = (X + conj(X)^T) / 2
    inner_solvable(X, Y)   = Re tr(U1 conj(U2)^T) + 2 tr(D1 D2)

where B(X, Y) = 12 Re tr(XY) is the Killing form, theta(X) = -conj(X)^T,
and U/D are the strictly upper triangular and real diagonal parts of an
upper triangular traceless argument.  On the solvable algebra the two inner
products agree through the Hermitian-part map:

    inner_solvable(X, Y) == inner_ambient(hermitian_part(X), hermitian_part(Y))

``bracket``, ``hermitian_part`` and ``solvable_parts`` act on the last two
axes, so they take (..., n, n) stacks and broadcast; the two inner products
are scalars of two matrices.

Complex scalars are kept in Cartesian form throughout; nothing here touches
polar decompositions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MEMBERSHIP_TOL",
    "bracket",
    "inner_ambient",
    "hermitian_part",
    "solvable_parts",
    "inner_solvable",
]

# Absolute tolerance for membership checks (tracelessness, triangularity).
MEMBERSHIP_TOL = 1e-12


def bracket(x, y) -> np.ndarray:
    """Matrix commutator [X, Y] = XY - YX."""
    return x @ y - y @ x


def inner_ambient(x, y) -> float:
    """Positive definite inner product 2 Re tr(X conj(Y)^T).

    Equals -(1/6) B(X, theta Y), i.e. the Killing form twisted by the Cartan
    involution and rescaled so the root vectors E_ij come out with norm
    sqrt(2) and the unit diagonals below with norm 1.
    """
    return 2.0 * float(np.real(np.sum(x * np.conj(y))))


def hermitian_part(x) -> np.ndarray:
    """Orthogonal projection (X + conj(X)^T)/2 onto the Hermitian matrices.

    Kills the fixed space of the Cartan involution, so it identifies the
    solvable algebra with the symmetric-space tangent space isometrically
    up to the inner product conventions above.
    """
    return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))


def solvable_parts(x, tol: float = MEMBERSHIP_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split an upper triangular traceless matrix into nilpotent and diagonal parts.

    Returns (strictly upper triangle, real diagonal vector).  Raises
    ValueError if the argument is not in the solvable algebra: a nonzero
    strictly lower triangular part, a non-real diagonal, or a trace beyond
    ``tol`` all disqualify it.  For an (..., n, n) stack of matrices the
    tests cover every matrix and the parts are stacked.
    """
    e = np.asarray(x, complex)
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


def inner_solvable(x, y) -> float:
    """Inner product on the solvable algebra, orthogonal sum of the two blocks.

    For X = U1 + D1 and Y = U2 + D2 (strict upper plus real diagonal):

        <X, Y> = Re tr(U1 conj(U2)^T) + 2 tr(D1 D2)

    This makes the matrix units E_ij orthonormal alongside the unit
    diagonal directions.  Both arguments must pass ``solvable_parts``.
    """
    u1, d1 = solvable_parts(x)
    u2, d2 = solvable_parts(y)
    return float(np.real(np.sum(u1 * np.conj(u2)))) + 2.0 * float(np.dot(d1, d2))

