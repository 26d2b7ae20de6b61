"""The solvable model of SL(3,C)/SU(3) and its homogeneous hypersurface family.

The ambient space is realised as the upper triangular group S = N A with the
left-invariant metric induced by ``inner_solvable``.  An orthonormal basis of
its Lie algebra is

    (E12, i E12, E23, i E23, E13, i E13, H0, H1)

with the matrix units E_jk, H0 = diag(1/2, 0, -1/2) and
H1 = diag(1, -2, 1) / (2 sqrt 3).  For each angle alpha in [0, pi/2] the unit
diagonal

    H(alpha) = cos(alpha) H0 + sin(alpha) H1

spans, together with the nilpotent part, a codimension-one subalgebra; the
corresponding subgroup orbit is a homogeneous hypersurface with unit normal
T(alpha) = sin(alpha) H0 - cos(alpha) H1.  alpha = 0 gives the minimal
Einstein member (a Damek-Ricci space) and alpha = pi/2 a horosphere.

Curvature of the hypersurface is computed two independent ways and compared
throughout the test suite:

* extrinsically, by the Gauss equation: each model caches the curvature
  tensor R_ijkl = <R(e_i, e_j) e_k, e_l> of its basis, the ambient term
  -<[[phi e_i, phi e_j], phi e_k], phi e_l> plus II_il II_jk - II_ik II_jl,
  and Ricci and sectional curvatures are contractions of it, and
* intrinsically, by handing the seven-dimensional subalgebra to the generic
  Koszul engine.

A closed form of the Ricci curvature, its extremes over the unit sphere, the
Cheeger constant and the shape spectrum make the family's regime changes at
alpha = pi/3 explicit.  The last section implements the unit-normal flow,
whose leaves foliate the ambient space by conjugate copies of the
hypersurface.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .engine import MetricLieAlgebra
from .matrices import (
    SquareComplexMatrix,
    bracket,
    hermitian_part,
    inner_ambient,
    inner_solvable,
    sl_matrix,
    solvable_parts,
)

__all__ = [
    "E12", "E23", "E13", "H0", "H1",
    "AMBIENT_BASIS", "AMBIENT_LABELS",
    "ambient_algebra", "ambient_curvature",
    "HypersurfaceModel", "TangentVector",
    "second_fundamental_form", "second_fundamental_matrix",
    "shape_spectrum", "mean_curvature",
    "gauss_sectional", "ricci_gauss_many", "ricci_closed", "ricci_closed_many",
    "ricci_polynomial", "ricci_extremes",
    "reference_plane", "reference_plane_curvature",
    "Regime", "CurvatureReport", "classify",
    "GroupElement", "flow_point", "leaf_conjugate", "foliation_residual",
    "volume_distortion",
    "build_hypersurface_algebra", "HYPERSURFACE_LABELS",
    "PlaneScan", "nonpositivity_scan", "zero_curvature_search",
    "random_unit_tangents", "random_orthonormal_pairs",
    "ALPHA_BOUNDARY_TOL", "HOROSPHERE_ONSET",
]

_SQRT3 = math.sqrt(3.0)

E12 = sl_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
E23 = sl_matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
E13 = sl_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
H0 = sl_matrix(np.diag([0.5, 0.0, -0.5]))
H1 = sl_matrix(np.diag([1.0 / (2.0 * _SQRT3), -1.0 / _SQRT3, 1.0 / (2.0 * _SQRT3)]))

AMBIENT_BASIS = (E12, 1j * E12, E23, 1j * E23, E13, 1j * E13, H0, H1)
AMBIENT_LABELS = ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H0", "H1")
HYPERSURFACE_LABELS = ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H")

# Tolerance for regime decisions made from alpha itself.
ALPHA_BOUNDARY_TOL = 1e-9
# The shape operator is negative semidefinite from here on.
HOROSPHERE_ONSET = math.pi / 3.0


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= math.pi / 2.0:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    return alpha


@lru_cache(maxsize=1)
def ambient_algebra() -> MetricLieAlgebra:
    """The eight-dimensional ambient algebra as a metric Lie algebra."""
    return MetricLieAlgebra.from_matrix_basis(AMBIENT_BASIS, labels=AMBIENT_LABELS)


def ambient_curvature(x1: SquareComplexMatrix, x2: SquareComplexMatrix) -> float:
    """<R(X1, X2) X2, X1> of the ambient space, unnormalised.

    Both arguments must lie in the solvable algebra.  The value is the
    nested-bracket expression of the Hermitian parts and is nonpositive.
    """
    solvable_parts(x1)
    solvable_parts(x2)
    p1, p2 = hermitian_part(x1), hermitian_part(x2)
    return -inner_ambient(bracket(bracket(p1, p2), p2), p1)


# -- the hypersurface family ---------------------------------------------------


@dataclass(frozen=True)
class HypersurfaceModel:
    """One member of the hypersurface family: angle, axis, normal, basis.

    ``axis`` is the unit diagonal H(alpha) completing the nilpotent part to
    the tangent algebra, ``normal`` the unit normal T(alpha), and ``basis``
    the orthonormal 7-tuple (E12, iE12, E23, iE23, E13, iE13, H).
    """

    alpha: float
    axis: SquareComplexMatrix
    normal: SquareComplexMatrix
    basis: tuple[SquareComplexMatrix, ...]

    @classmethod
    def from_angle(cls, alpha: float) -> "HypersurfaceModel":
        alpha = _validate_alpha(alpha)
        c, s = math.cos(alpha), math.sin(alpha)
        axis = c * H0 + s * H1
        normal = s * H0 + (-c) * H1
        basis = (E12, 1j * E12, E23, 1j * E23, E13, 1j * E13, axis)
        return cls(alpha=alpha, axis=axis, normal=normal, basis=basis)

    def __post_init__(self):
        checks = [
            abs(inner_solvable(self.axis, self.axis) - 1.0),
            abs(inner_solvable(self.normal, self.normal) - 1.0),
            abs(inner_solvable(self.axis, self.normal)),
        ]
        if max(checks) > 1e-14:
            raise ValueError("axis/normal frame is not orthonormal")

    @cached_property
    def basis_stack(self) -> np.ndarray:
        return np.stack([m.entries for m in self.basis])

    @cached_property
    def _phi_stack(self) -> np.ndarray:
        return _phi(self.basis_stack)

    @cached_property
    def _phi_normal_brackets(self) -> np.ndarray:
        t = self.normal.entries
        return _phi(self.basis_stack @ t - t @ self.basis_stack)

    @cached_property
    def _shape_matrix(self) -> np.ndarray:
        p, q = self._phi_stack, self._phi_normal_brackets
        m = 2.0 * np.real(np.einsum("iab,jab->ij", p, np.conj(q)))
        return 0.5 * (m + m.T)

    @cached_property
    def _ambient_tensor(self) -> np.ndarray:
        """The ambient curvature tensor restricted to ``basis``."""
        # rows: the basis over AMBIENT_BASIS; H = cos(alpha) H0 + sin(alpha) H1
        frame = np.eye(7, 8)
        frame[6, 6:] = math.cos(self.alpha), math.sin(self.alpha)
        t = _ambient_curvature_tensor()
        for _ in range(4):
            t = np.tensordot(t, frame, axes=([0], [1]))
        return t

    @cached_property
    def _curvature_tensor(self) -> np.ndarray:
        """R_ijkl = <R(e_i, e_j) e_k, e_l> by the Gauss equation:
        the ambient term plus II_il II_jk - II_ik II_jl."""
        s = self._shape_matrix
        return (
            self._ambient_tensor
            + np.einsum("il,jk->ijkl", s, s)
            - np.einsum("ik,jl->ijkl", s, s)
        )


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector a E12 + b E23 + c E13 + t H in complex coordinates."""

    a: complex = 0j
    b: complex = 0j
    c: complex = 0j
    t: float = 0.0

    def coeffs(self) -> np.ndarray:
        """Real coefficients over (E12, iE12, E23, iE23, E13, iE13, H)."""
        a, b, c = complex(self.a), complex(self.b), complex(self.c)
        return np.array([a.real, a.imag, b.real, b.imag, c.real, c.imag, self.t])

    @classmethod
    def from_coeffs(cls, v) -> "TangentVector":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise ValueError(f"expected 7 real coefficients, got shape {v.shape}")
        return cls(
            a=complex(v[0], v[1]), b=complex(v[2], v[3]), c=complex(v[4], v[5]),
            t=float(v[6]),
        )

    def norm_sq(self) -> float:
        return abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2 + self.t**2

    def matrix(self, model: HypersurfaceModel) -> SquareComplexMatrix:
        m = self.t * model.axis.entries.copy()
        m[0, 1] += self.a
        m[1, 2] += self.b
        m[0, 2] += self.c
        return SquareComplexMatrix(m)


# -- the curvature tensor ---------------------------------------------------------


def _phi(batch: np.ndarray) -> np.ndarray:
    return 0.5 * (batch + np.conj(np.swapaxes(batch, -1, -2)))


@lru_cache(maxsize=1)
def _ambient_curvature_tensor() -> np.ndarray:
    """<R(E_i, E_j) E_k, E_l> = -<[[phi E_i, phi E_j], phi E_k], phi E_l> over
    AMBIENT_BASIS; independent of alpha, read-only."""
    p = _phi(np.stack([m.entries for m in AMBIENT_BASIS]))
    n = len(p)
    b = p[:, None] @ p[None, :]
    b = b - np.swapaxes(b, 0, 1)
    nested = b[:, :, None] @ p - p @ b[:, :, None]
    flat = nested.reshape(n**3, 9) @ np.conj(p).reshape(n, 9).T
    out = -2.0 * np.real(flat).reshape(n, n, n, n)
    out.setflags(write=False)
    return out


def _plane_terms(
    model: HypersurfaceModel, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sectional numerators <R(u, v) v, u> and plane Gram determinants.

    ``u`` and ``v`` are (..., 7) coefficient arrays; both returns have the
    leading shape.  The ambient term is contracted as a 49x49 bivector form,
    the second fundamental form term as II(u, u) II(v, v) - II(u, v)^2.
    """
    q = (u[..., :, None] * v[..., None, :]).reshape(u.shape[:-1] + (49,))
    bivector = model._ambient_tensor.transpose(0, 1, 3, 2).reshape(49, 49)
    amb = np.einsum("...a,...a->...", q @ bivector, q)
    su, sv = u @ model._shape_matrix, v @ model._shape_matrix
    ii = np.sum(su * u, axis=-1) * np.sum(sv * v, axis=-1) - np.sum(su * v, axis=-1) ** 2
    den = np.sum(u * u, axis=-1) * np.sum(v * v, axis=-1) - np.sum(u * v, axis=-1) ** 2
    return amb + ii, den


# -- second fundamental form and curvature ---------------------------------------


def second_fundamental_form(
    model: HypersurfaceModel, x1: TangentVector, x2: TangentVector
) -> float:
    """II(X1, X2) = <nabla_X1 T, X2> with respect to the unit normal T."""
    return float(x1.coeffs() @ model._shape_matrix @ x2.coeffs())


def second_fundamental_matrix(model: HypersurfaceModel) -> np.ndarray:
    """Matrix of II over the orthonormal basis; diagonal for this family."""
    return model._shape_matrix.copy()


def shape_spectrum(model: HypersurfaceModel) -> np.ndarray:
    """Eigenvalues of the shape operator, ascending."""
    return np.linalg.eigvalsh(model._shape_matrix)


def mean_curvature(model: HypersurfaceModel) -> float:
    """Trace of the second fundamental form over the orthonormal basis."""
    return float(np.trace(model._shape_matrix))


def gauss_sectional(
    model: HypersurfaceModel, x1: TangentVector, x2: TangentVector
) -> float:
    """Sectional curvature of span{X1, X2}; raises on a degenerate plane,
    one whose Gram determinant is at most 1e-12 |X1|^2 |X2|^2."""
    u, v = x1.coeffs(), x2.coeffs()
    num, den = _plane_terms(model, u, v)
    if den <= 1e-12 * (u @ u) * (v @ v):
        raise ValueError(f"degenerate plane (gram determinant {float(den):.3e})")
    return float(num) / float(den)


def ricci_gauss_many(model: HypersurfaceModel, coeffs: np.ndarray) -> np.ndarray:
    """Ricci curvature x . Ric . x of each row of ``coeffs``, Ric_jk = R_ijk^i."""
    coeffs = np.asarray(coeffs, dtype=float)
    ric = np.einsum("ijki->jk", model._curvature_tensor)
    return np.sum((coeffs @ ric) * coeffs, axis=-1)


def ricci_closed_many(alpha: float, coeffs: np.ndarray) -> np.ndarray:
    """Closed-form Ricci curvature for unit rows of ``coeffs``."""
    alpha = _validate_alpha(alpha)
    coeffs = np.asarray(coeffs, dtype=float)
    sq = coeffs**2
    aa = sq[..., 0] + sq[..., 1]
    bb = sq[..., 2] + sq[..., 3]
    cc = sq[..., 4] + sq[..., 5]
    tt = sq[..., 6]
    bad = np.abs(aa + bb + cc + tt - 1.0) > 1e-10
    if np.any(bad):
        raise ValueError("closed-form Ricci curvature requires unit tangent vectors")
    s = math.sin(alpha)
    third = math.pi / 3.0
    return -3.0 + 4.0 * s * (
        math.sin(alpha - third) * aa + math.sin(alpha + third) * bb + s * cc
    )


def ricci_closed(alpha: float, x: TangentVector) -> float:
    """Closed-form Ricci curvature of a unit tangent vector."""
    return float(ricci_closed_many(alpha, x.coeffs()))


def ricci_polynomial(alpha: float, x: TangentVector) -> float:
    """Ricci curvature as the expanded quadratic polynomial in (a, b, c, t).

    Regression form kept verbatim from the computer-algebra expansion of the
    Gauss-equation sum; agrees with ``ricci_closed`` on unit vectors and with
    ``ricci_gauss_many`` everywhere.
    """
    alpha = _validate_alpha(alpha)
    s, c = math.sin(alpha), math.cos(alpha)
    aa, bb, cc = abs(x.a) ** 2, abs(x.b) ** 2, abs(x.c) ** 2
    tt = x.t**2
    return (
        -2.0 * _SQRT3 * s * c * (aa - bb)
        - 2.0 * (aa + bb + 2.0 * cc) * c * c
        - 3.0 * tt
        - aa
        - bb
        + cc
    )


def ricci_extremes(alpha: float) -> tuple[float, float]:
    """(min, max) of the Ricci curvature over the unit tangent sphere.

    The closed form is diagonal in (|a|^2, |b|^2, |c|^2, t^2), so the range
    is spanned by the coordinate directions; t = 1 contributes the value -3.
    The maximum is 4 sin(alpha) sin(alpha + pi/3) - 3 up to the sign change
    at alpha = pi/3 and 4 sin(alpha)^2 - 3 beyond it; the minimum dips below
    -3 exactly for 0 < alpha < pi/3, where the E12 direction is pinched.
    """
    alpha = _validate_alpha(alpha)
    s = math.sin(alpha)
    third = math.pi / 3.0
    sines = (math.sin(alpha - third), math.sin(alpha + third), s)
    lo = -3.0 + 4.0 * s * min(0.0, *sines)
    hi = -3.0 + 4.0 * s * max(0.0, *sines)
    return lo, hi


def reference_plane() -> tuple[TangentVector, TangentVector]:
    """The distinguished orthonormal plane whose curvature turns positive.

    Spanned by sqrt(2/3) E23 + sqrt(1/3) E13 and its partner rotated by i,
    it witnesses positive sectional curvature for every alpha > 0.
    """
    r2, r1 = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)
    return TangentVector(b=r2, c=r1), TangentVector(b=-1j * r2, c=1j * r1)


def reference_plane_curvature(alpha: float) -> float:
    """Closed form of the reference plane's sectional curvature."""
    alpha = _validate_alpha(alpha)
    s, c = math.sin(alpha), math.cos(alpha)
    return 4.0 / (3.0 * _SQRT3) * s * c + s * s / 9.0


# -- classification -----------------------------------------------------------


class Regime(enum.Enum):
    """Sign behaviour of the Ricci curvature across the family."""

    NEGATIVE_RICCI = "NegativeRicci"
    RICCI_NULL_DIRECTION = "RicciNullDirection"
    MIXED_RICCI = "MixedRicci"


@dataclass(frozen=True)
class CurvatureReport:
    """Per-angle summary of the hypersurface geometry.

    Raw values are carried alongside the boolean flags so callers can apply
    their own thresholds; the flags use ALPHA_BOUNDARY_TOL around the
    special angles and the computed mean curvature for minimality.
    """

    alpha: float
    mean_curvature: float
    cheeger: float
    shape_eigenvalues: tuple[float, ...]
    ricci_min: float
    ricci_max: float
    k_sigma: float
    regime: Regime
    is_minimal: bool
    is_einstein: bool
    is_horosphere_range: bool
    cross_pipeline_residual: float

    def as_row(self) -> dict:
        """Flat mapping in the sweep column order."""
        return {
            "alpha": self.alpha,
            "mean_curvature": self.mean_curvature,
            "cheeger": self.cheeger,
            "ricci_min": self.ricci_min,
            "ricci_max": self.ricci_max,
            "k_sigma": self.k_sigma,
            "regime": self.regime.value,
            "minimal": self.is_minimal,
            "einstein": self.is_einstein,
            "horosphere_range": self.is_horosphere_range,
            "cross_residual": self.cross_pipeline_residual,
        }


def classify(alpha: float, samples: int = 1000, seed: int = 0) -> CurvatureReport:
    """Compute the full curvature report for one angle.

    ``samples`` random unit tangent vectors feed the cross-pipeline
    residual, the largest disagreement between the Gauss-equation Ricci and
    its closed form.  Results are deterministic for a fixed seed.
    """
    alpha = _validate_alpha(alpha)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    model = HypersurfaceModel.from_angle(alpha)
    mean = mean_curvature(model)
    ch = build_hypersurface_algebra(alpha).cheeger()
    rmin, rmax = ricci_extremes(alpha)
    k_sigma = gauss_sectional(model, *reference_plane())
    if alpha < HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL:
        regime = Regime.NEGATIVE_RICCI
    elif alpha <= HOROSPHERE_ONSET + ALPHA_BOUNDARY_TOL:
        regime = Regime.RICCI_NULL_DIRECTION
    else:
        regime = Regime.MIXED_RICCI
    residual = 0.0
    if samples:
        rng = np.random.default_rng(seed)
        vecs = random_unit_tangents(rng, samples)
        residual = float(
            np.max(np.abs(ricci_gauss_many(model, vecs) - ricci_closed_many(alpha, vecs)))
        )
    return CurvatureReport(
        alpha=alpha,
        mean_curvature=mean,
        cheeger=ch,
        shape_eigenvalues=tuple(float(v) for v in shape_spectrum(model)),
        ricci_min=rmin,
        ricci_max=rmax,
        k_sigma=k_sigma,
        regime=regime,
        is_minimal=abs(mean) <= 1e-12,
        is_einstein=alpha <= ALPHA_BOUNDARY_TOL,
        is_horosphere_range=alpha >= HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL,
        cross_pipeline_residual=residual,
    )


# -- normal flow and foliation ---------------------------------------------------


def _abelian_diagonals(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entries of the axis H(alpha) and the normal T(alpha)."""
    alpha = _validate_alpha(alpha)
    c, s = math.cos(alpha), math.sin(alpha)
    h0, h1 = np.diag(H0.entries).real, np.diag(H1.entries).real
    return c * h0 + s * h1, s * h0 - c * h1


@dataclass(frozen=True)
class GroupElement:
    """Point of the ambient group in upper triangular coordinates.

    ``x, y, z`` are the unipotent entries, ``t`` the coefficient of the
    axis H(alpha) and ``s`` the coefficient of the unit normal T(alpha) in
    the abelian factor.  Points of the hypersurface itself have s = 0; the
    normal flow moves s.
    """

    x: complex = 0j
    y: complex = 0j
    z: complex = 0j
    t: float = 0.0
    alpha: float = 0.0
    s: float = 0.0

    def matrix(self) -> np.ndarray:
        axis, normal = _abelian_diagonals(self.alpha)
        d = np.exp(self.t * axis + self.s * normal)
        return np.array(
            [
                [d[0], self.x * d[1], self.z * d[2]],
                [0.0, d[1], self.y * d[2]],
                [0.0, 0.0, d[2]],
            ],
            dtype=complex,
        )


def flow_point(q: GroupElement, s: float) -> GroupElement:
    """q . exp(s T), the unit-normal flow; a one-parameter group in s."""
    return GroupElement(q.x, q.y, q.z, q.t, q.alpha, q.s + float(s))


def leaf_conjugate(q: GroupElement, s: float) -> GroupElement:
    """The point q' with exp(s T) q' = q exp(s T).

    Conjugating the unipotent part by the diagonal exp(s T) rescales the
    coordinates by exponentials of the entry differences; the abelian part
    is untouched.  Flowing the hypersurface for time s therefore lands on a
    group-conjugate copy, which is what makes the family a foliation.
    """
    _, normal = _abelian_diagonals(q.alpha)
    tau = float(s) * normal
    return GroupElement(
        x=q.x * math.exp(tau[1] - tau[0]),
        y=q.y * math.exp(tau[2] - tau[1]),
        z=q.z * math.exp(tau[2] - tau[0]),
        t=q.t,
        alpha=q.alpha,
        s=q.s,
    )


def foliation_residual(q: GroupElement, s: float) -> float:
    """Largest entry of exp(s T) q' - q exp(s T) for q' = leaf_conjugate(q, s)."""
    _, normal = _abelian_diagonals(q.alpha)
    exp_t = np.diag(np.exp(float(s) * normal))
    return float(np.max(np.abs(exp_t @ leaf_conjugate(q, s).matrix() - q.matrix() @ exp_t)))


def volume_distortion(alpha: float, s: float) -> float:
    """Leafwise volume factor exp(-4 s sin alpha) of the time-s flow."""
    return math.exp(-4.0 * float(s) * math.sin(alpha))


# -- the intrinsic pipeline -------------------------------------------------------


def build_hypersurface_algebra(alpha: float) -> MetricLieAlgebra:
    """The tangent algebra of the hypersurface as a metric Lie algebra."""
    model = HypersurfaceModel.from_angle(alpha)
    return MetricLieAlgebra.from_matrix_basis(model.basis, labels=HYPERSURFACE_LABELS)


# -- sampling and scans ------------------------------------------------------------


def random_unit_tangents(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 7) array of unit coefficient vectors, standard Gaussian direction."""
    v = rng.standard_normal((n, 7))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_orthonormal_pairs(
    rng: np.random.Generator, n: int, dim: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """n orthonormal pairs of coefficient vectors via Gram-Schmidt."""
    u = rng.standard_normal((n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.standard_normal((n, dim))
    v -= np.sum(u * v, axis=1, keepdims=True) * u
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    retry = norms[:, 0] < 1e-8
    while np.any(retry):
        v[retry] = rng.standard_normal((int(np.sum(retry)), dim))
        v[retry] -= np.sum(u[retry] * v[retry], axis=1, keepdims=True) * u[retry]
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        retry = norms[:, 0] < 1e-8
    return u, v / norms


@dataclass(frozen=True)
class PlaneScan:
    """Extremes of the sectional curvature over a sampled set of planes."""

    max_curvature: float
    max_plane: tuple[TangentVector, TangentVector]
    min_abs_curvature: float
    min_abs_plane: tuple[TangentVector, TangentVector]
    samples: int


def nonpositivity_scan(alpha: float, samples: int, seed: int = 0) -> PlaneScan:
    """Scan random tangent planes for the largest sectional curvature.

    The reference plane is always appended to the sample set as a
    deterministic witness, so for alpha > 0 the scan reports positive
    curvature no matter the seed.  Also tracks the plane of smallest |K|.
    """
    alpha = _validate_alpha(alpha)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    model = HypersurfaceModel.from_angle(alpha)
    rng = np.random.default_rng(seed)
    s1, s2 = reference_plane()
    best_max = -math.inf
    best_min = math.inf
    arg_max = arg_min = (s1.coeffs(), s2.coeffs())
    chunk = 20000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u, v = random_orthonormal_pairs(rng, m)
        num, den = _plane_terms(model, u, v)
        k = num / den
        i = int(np.argmax(k))
        if k[i] > best_max:
            best_max, arg_max = float(k[i]), (u[i].copy(), v[i].copy())
        j = int(np.argmin(np.abs(k)))
        if abs(k[j]) < best_min:
            best_min, arg_min = abs(float(k[j])), (u[j].copy(), v[j].copy())
        done += m
    k_ref = gauss_sectional(model, s1, s2)
    if k_ref > best_max:
        best_max, arg_max = k_ref, (s1.coeffs(), s2.coeffs())
    if abs(k_ref) < best_min:
        best_min, arg_min = abs(k_ref), (s1.coeffs(), s2.coeffs())
    pack = lambda pair: (
        TangentVector.from_coeffs(pair[0]),
        TangentVector.from_coeffs(pair[1]),
    )
    return PlaneScan(
        max_curvature=best_max,
        max_plane=pack(arg_max),
        min_abs_curvature=best_min,
        min_abs_plane=pack(arg_min),
        samples=samples,
    )


def _plane_abs_curvature(model: HypersurfaceModel, w: np.ndarray) -> float:
    """|K| of the plane spanned by the two halves of w, or inf if degenerate."""
    u, v = w[:7], w[7:]
    nu = np.linalg.norm(u)
    if nu < 1e-8:
        return math.inf
    u = u / nu
    v = v - (u @ v) * u
    nv = np.linalg.norm(v)
    if nv < 1e-8:
        return math.inf
    v = v / nv
    num, den = _plane_terms(model, u, v)
    return abs(float(num) / float(den))


def zero_curvature_search(
    alpha: float,
    samples: int = 4000,
    seed: int = 0,
    target: float = 1e-8,
    starts: int = 5,
    max_sweeps: int = 400,
) -> tuple[float, tuple[TangentVector, TangentVector]]:
    """Search for a plane of (near) zero sectional curvature.

    Samples random orthonormal planes, then runs derivative-free coordinate
    descent on the fourteen spanning coordinates of the best few starts,
    minimising |K| with a shrinking step.  Returns the smallest |K| found
    and the plane attaining it.
    """
    alpha = _validate_alpha(alpha)
    model = HypersurfaceModel.from_angle(alpha)
    rng = np.random.default_rng(seed)
    u, v = random_orthonormal_pairs(rng, samples)
    num, den = _plane_terms(model, u, v)
    order = np.argsort(np.abs(num / den))
    best_val = math.inf
    best_w = None
    for idx in order[:starts]:
        w = np.concatenate([u[idx], v[idx]])
        val = _plane_abs_curvature(model, w)
        step = 0.05
        sweeps = 0
        while step > 1e-10 and val > target and sweeps < max_sweeps:
            improved = False
            for i in range(14):
                for sign in (1.0, -1.0):
                    cand = w.copy()
                    cand[i] += sign * step
                    cval = _plane_abs_curvature(model, cand)
                    if cval < val:
                        w, val = cand, cval
                        improved = True
            if not improved:
                step *= 0.5
            sweeps += 1
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= target:
            break
    uu, vv = best_w[:7], best_w[7:]
    uu = uu / np.linalg.norm(uu)
    vv = vv - (uu @ vv) * uu
    vv = vv / np.linalg.norm(vv)
    return best_val, (TangentVector.from_coeffs(uu), TangentVector.from_coeffs(vv))
