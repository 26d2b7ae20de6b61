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

Every query of a member takes its angle alpha.  A model is the shared
Koszul basis and algebra of one angle, the algebra built on first use;
``HypersurfaceModel.from_angle`` memoises the last few models it built, so
every caller in a process shares one tangent algebra per angle.

Curvature of the hypersurface is computed two independent ways and compared
throughout the test suite:

* extrinsically, by the Gauss equation: the curvature tensor
  R_ijkl = <R(e_i, e_j) e_k, e_l> of the basis is the ambient term
  -<[[phi e_i, phi e_j], phi e_k], phi e_l> plus II_il II_jk - II_ik II_jl;
  Ricci curvatures contract it, and the sectional curvature of span{u, v}
  is w R w / w . w for its 21x21 operator R on the wedges w = u ^ v, and
* intrinsically, by handing the seven-dimensional subalgebra to the generic
  Koszul engine.

Only the basis row of H depends on alpha, and it and the normal T are
linear in (cos alpha, sin alpha).  So the Gauss side is one alpha-family,
``_gauss_family``, derived from the basis matrices once per process, on the
first Gauss query: II is linear and R quadratic in (cos alpha, sin alpha),
and so are the operator, the Ricci form and the reference plane's K.  Each
Gauss query reads the member it needs at its alpha (``_at``); none builds a model.

Since w R w / w . w does not change when u, v are replaced by another basis
of their plane, one kernel, ``_sectional_rows``, reads K off the 21x21 R and
the wedges of raw pairs for ``gauss_sectional``, ``zero_curvature_search``
and ``nonpositivity_scan``, which orthonormalises only the planes it returns.
The scan reads the stream ``_plane_blocks``: plane r is row r of one
standard-normal (n, 2, 7) draw, made and contracted 768 planes at a time, so
its memory does not grow with the samples.  A degenerate pair
(``DEGENERATE_PLANE_TOL``; about 1e-36 likely) keeps K = -inf, so it is
never a scan extreme.  ``zero_curvature_search`` samples nothing: it bisects
on the path between a plane of negative and one of nonnegative K.

A closed form of the Ricci curvature, its extremes over the unit sphere, the
Cheeger constant and the shape spectrum make the family's regime changes at
alpha = pi/3 explicit.  The last section implements the unit-normal flow,
whose leaves foliate the ambient space by conjugate copies of the
hypersurface.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .engine import DEGENERATE_PLANE_TOL, MetricLieAlgebra, _binary_scaled, _read_only
from .matrices import bracket, hermitian_part, inner_ambient, solvable_parts

__all__ = [
    "E12", "E23", "E13", "H0", "H1",
    "AMBIENT_BASIS", "AMBIENT_LABELS",
    "ambient_algebra", "ambient_curvature",
    "HypersurfaceModel", "TangentVector",
    "shape_spectrum", "mean_curvature",
    "gauss_sectional", "ricci_gauss_many",
    "ricci_polynomial", "ricci_extremes",
    "reference_plane", "reference_plane_curvature",
    "Regime", "CurvatureReport", "classify",
    "foliation_residual_many",
    "volume_distortion",
    "build_hypersurface_algebra", "HYPERSURFACE_LABELS",
    "PlaneScan", "nonpositivity_scan", "zero_curvature_search",
    "ALPHA_BOUNDARY_TOL", "HOROSPHERE_ONSET",
]

_SQRT3 = math.sqrt(3.0)

E12 = _read_only(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
E23 = _read_only(np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
E13 = _read_only(np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex))
H0 = _read_only(np.diag([0.5, 0.0, -0.5]).astype(complex))
H1 = _read_only(
    np.diag([1.0 / (2.0 * _SQRT3), -1.0 / _SQRT3, 1.0 / (2.0 * _SQRT3)]).astype(complex)
)

AMBIENT_BASIS = _read_only(np.stack([E12, 1j * E12, E23, 1j * E23, E13, 1j * E13, H0, H1]))
AMBIENT_LABELS = ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H0", "H1")
HYPERSURFACE_LABELS = ("E12", "iE12", "E23", "iE23", "E13", "iE13", "H")

# Tolerance for regime decisions made from alpha itself.
ALPHA_BOUNDARY_TOL = 1e-9
# The shape operator is negative semidefinite from here on.
HOROSPHERE_ONSET = math.pi / 3.0


def _validate_alpha(alpha: float) -> float:
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, np.integer, np.floating)):
        raise TypeError(f"alpha must be a real number, got {alpha!r}")
    alpha = float(alpha)
    if not 0.0 <= alpha <= math.pi / 2.0:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    return alpha + 0.0  # -0.0 becomes 0.0, so each angle has one memo key


@lru_cache(maxsize=1)
def ambient_algebra() -> MetricLieAlgebra:
    """The eight-dimensional ambient algebra as a metric Lie algebra."""
    return MetricLieAlgebra.from_matrix_basis(AMBIENT_BASIS, labels=AMBIENT_LABELS)


def ambient_curvature(x1: np.ndarray, x2: np.ndarray) -> float:
    """<R(X1, X2) X2, X1> of the ambient space, unnormalised.

    Both arguments must lie in the solvable algebra.  The value is the
    nested-bracket expression of the Hermitian parts and is nonpositive.
    """
    solvable_parts(x1)
    solvable_parts(x2)
    p1, p2 = hermitian_part(x1), hermitian_part(x2)
    return -inner_ambient(bracket(bracket(p1, p2), p2), p1)


# -- the hypersurface family ---------------------------------------------------


_H0_DIAGONAL, _H1_DIAGONAL = np.diag(H0).real, np.diag(H1).real


def _abelian_diagonals(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entries of the axis H(alpha) = c H0 + s H1 and the unit normal
    T(alpha) = s H0 - c H1, c = cos(alpha), s = sin(alpha), as a model's basis
    (its H row) and the normal flow read them."""
    alpha = _validate_alpha(alpha)
    c, s = math.cos(alpha), math.sin(alpha)
    return c * _H0_DIAGONAL + s * _H1_DIAGONAL, s * _H0_DIAGONAL - c * _H1_DIAGONAL


# eq=False: from_angle shares each model by identity, so equality and hash
# are by identity too.
@dataclass(frozen=True, eq=False)
class HypersurfaceModel:
    """The shared Koszul basis and algebra of the member at angle ``alpha``.

    ``basis`` is the read-only (7, 3, 3) complex stack of the orthonormal
    basis (E12, iE12, E23, iE23, E13, iE13, H), its H row derived from
    ``alpha``.  ``from_angle`` shares one model per angle;
    ``HypersurfaceModel(alpha)`` builds an unshared one.
    """

    alpha: float

    @classmethod
    def from_angle(cls, alpha: float) -> "HypersurfaceModel":
        """The model at ``alpha``, shared: see ``_model_at``."""
        return _model_at(cls, _validate_alpha(alpha))

    def __post_init__(self):
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))

    @cached_property
    def basis(self) -> np.ndarray:
        axis = np.diag(_abelian_diagonals(self.alpha)[0]).astype(complex)
        return _read_only(np.concatenate([AMBIENT_BASIS[:6], axis[None]]))

    @cached_property
    def algebra(self) -> MetricLieAlgebra:
        """The tangent algebra as a metric Lie algebra (the Koszul pipeline)."""
        return MetricLieAlgebra.from_matrix_basis(self.basis, labels=HYPERSURFACE_LABELS)


# Four models, a Koszul algebra each: a checks round builds verify's alpha and
# reuses the alpha = 0 leaf; a sweep builds one per angle and, in a plain run,
# never reuses one.
@lru_cache(maxsize=4)
def _model_at(cls: type, alpha: float) -> HypersurfaceModel:
    """The model at a validated ``alpha``, built once and then shared while
    it stays among the last four angles asked for."""
    return cls(alpha)


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


@lru_cache(maxsize=1)
def _ambient_curvature_tensor() -> np.ndarray:
    """<R(E_i, E_j) E_k, E_l> = -<[[phi E_i, phi E_j], phi E_k], phi E_l> over
    AMBIENT_BASIS; independent of alpha, read-only."""
    p = hermitian_part(AMBIENT_BASIS)
    n = len(p)
    nested = bracket(bracket(p[:, None], p[None, :])[:, :, None], p)
    flat = nested.reshape(n**3, 9) @ np.conj(p).reshape(n, 9).T
    return _read_only(-2.0 * np.real(flat).reshape(n, n, n, n))


# The pairs i < j indexing the bivector basis e_i ^ e_j of Lambda^2 R^7.
_PAIRS = np.triu_indices(7, 1)


class _GaussFamily(NamedTuple):
    """The Gauss pipeline as polynomials in c = cos(alpha), s = sin(alpha):
    member m of each array is the coefficient of monomial m of
    (1, c, s, c^2, c s, s^2), the first three for the linear ``shape``."""

    shape: np.ndarray  # (3, 7, 7), II_ij = <nabla_{e_i} T, e_j>, diagonal
    tensor: np.ndarray  # (6, 7, 7, 7, 7), R_ijkl = <R(e_i, e_j) e_k, e_l>
    operator: np.ndarray  # (6, 21, 21), R on the e_i ^ e_j, i < j: R_ijkl at (ij, lk)
    ricci: np.ndarray  # (6, 7, 7), Ric_jk = R_ijk^i
    k_sigma: np.ndarray  # (6,), K of the reference plane


@lru_cache(maxsize=1)
def _gauss_family() -> _GaussFamily:
    """The alpha-family of the Gauss pipeline, read-only, derived from the
    basis matrices without sampling an angle.

    Over AMBIENT_BASIS the frame is F = F_1 + c F_c + s F_s: the rows e_0..e_5
    in F_1, the row of H = c H0 + s H1 in F_c and F_s.  The ambient term is
    multilinear in F; a pair of R with H in both slots sums to R(H, H) = 0, so
    each pair carries 1, c or s.  II is linear in T = c (-H1) + s H0 and
    vanishes on H, since H is diagonal and [H, T] = 0.
    """
    product = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # of monomials p, q of (1, c, s)
    parts = np.zeros((3, 7, 8))  # F_1, F_c, F_s
    parts[0, :6, :6] = np.eye(6)
    parts[1, 6, 6] = parts[2, 6, 7] = 1.0
    pair_words = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]  # H in one slot at most
    tensor = np.zeros((6, 7, 7, 7, 7))
    for word in itertools.product(pair_words, pair_words):
        t = _ambient_curvature_tensor()
        for part in itertools.chain(*word):
            t = np.tensordot(t, parts[part], axes=([0], [1]))
        tensor[product[sum(word[0]), sum(word[1])]] += t

    nil = AMBIENT_BASIS[:6]
    phi = hermitian_part(nil)
    shape = np.zeros((3, 7, 7))
    for m, normal in ((1, -H1), (2, H0)):
        q = hermitian_part(bracket(nil, normal))
        ii = 2.0 * np.real(np.einsum("iab,jab->ij", phi, np.conj(q)))
        shape[m, :6, :6] = 0.5 * (ii + ii.T)
    for p, q in np.ndindex(3, 3):
        a, b = shape[p], shape[q]
        tensor[product[p, q]] += np.einsum("il,jk->ijkl", a, b) - np.einsum("ik,jl->ijkl", a, b)

    i, j = _PAIRS
    operator = tensor[:, i[:, None], j[:, None], j[None, :], i[None, :]]
    u, v = (x.coeffs() for x in reference_plane())
    w = u[i] * v[j] - u[j] * v[i]
    return _GaussFamily(*map(_read_only, (
        shape, tensor, operator, np.einsum("mijki->mjk", tensor), operator @ w @ w / (w @ w),
    )))


def _at(alpha: float, family: np.ndarray) -> np.ndarray:
    """The member of a Gauss family array at alpha, which it validates: the sum
    over its leading axis of each monomial times its coefficient.  The sum runs
    entry by entry in one order, so entries equal in the family are equal in
    the result: the operator stays symmetric and a gather of the tensor."""
    alpha = _validate_alpha(alpha)
    c, s = math.cos(alpha), math.sin(alpha)
    out = family[0].copy()
    for x, f in zip((c, s, c * c, c * s, s * s), family[1:]):
        out += x * f
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _sectional_rows(
    operator: np.ndarray, u: np.ndarray, v: np.ndarray, fill: float
) -> np.ndarray:
    """Sectional curvature K = w R w / w . w of the planes span{u, v} for rows
    u, v (..., 7), wedges w = u ^ v and R a symmetric 21x21 ``operator``, so
    that w R w = <R(u, v) v, u> and w . w = |u|^2 |v|^2 - (u . v)^2; shape
    (...,).  u, v need not be orthonormal.  ``fill`` where the plane is
    degenerate, w . w <= DEGENERATE_PLANE_TOL |u|^2 |v|^2, or not finite."""
    i, j = _PAIRS
    col_dot = lambda a, b: np.einsum("ij,ij->j", a, b)
    # one row per coordinate, so the pair gathers copy whole rows
    ut = np.reshape(u, (-1, 7)).T.copy()
    vt = np.reshape(v, (-1, 7)).T.copy()
    w, t = ut[i], ut[j]  # w = u ^ v in place, to keep a scan block's peak low
    w *= vt[j]
    t *= vt[i]
    w -= t
    den = col_dot(w, w)
    uv = col_dot(ut, vt)
    spans = den > DEGENERATE_PLANE_TOL * (den + uv * uv)  # |u|^2 |v|^2 by Lagrange
    # R is symmetric; R.T @ w is the BLAS product of the rows w @ R, so K is
    # the same to the bit for one row (gauss_sectional) as for a block of them
    k = np.divide(col_dot(operator.T @ w, w), den,
                  out=np.full(den.shape, fill), where=spans)
    return k.reshape(np.shape(u)[:-1])


# -- second fundamental form and curvature ---------------------------------------


def shape_spectrum(alpha: float) -> np.ndarray:
    """Eigenvalues of the shape operator, ascending."""
    return np.linalg.eigvalsh(_at(alpha, _gauss_family().shape))


def mean_curvature(alpha: float) -> float:
    """Trace of the second fundamental form over the orthonormal basis."""
    return float(np.trace(_at(alpha, _gauss_family().shape)))


def gauss_sectional(alpha: float, x1: TangentVector, x2: TangentVector) -> float:
    """Sectional curvature of span{X1, X2}; raises on a degenerate plane,
    one whose Gram determinant is at most DEGENERATE_PLANE_TOL |X1|^2 |X2|^2."""
    u, v = _binary_scaled(x1.coeffs()), _binary_scaled(x2.coeffs())
    with np.errstate(invalid="ignore"):  # inf - inf of a non-finite coefficient, refused below
        k = float(_sectional_rows(_at(alpha, _gauss_family().operator), u, v, math.nan))
    if math.isnan(k):
        raise ValueError(f"degenerate plane: gram determinant at most {DEGENERATE_PLANE_TOL:g}"
                         " |X1|^2 |X2|^2, or a coefficient not finite")
    return k


def ricci_gauss_many(alpha: float, coeffs: np.ndarray) -> np.ndarray:
    """Ricci curvature x . Ric . x of each row of ``coeffs``, Ric_jk = R_ijk^i."""
    coeffs = np.asarray(coeffs, dtype=float)
    return np.sum((coeffs @ _at(alpha, _gauss_family().ricci)) * coeffs, axis=-1)


def _ricci_sines(alpha: float) -> tuple[float, tuple[float, float, float]]:
    """s = sin(alpha) and the sines of the closed-form Ricci curvature
    -3 + 4 s (sin(alpha - pi/3) |a|^2 + sin(alpha + pi/3) |b|^2 + s |c|^2)."""
    s = math.sin(alpha)
    return s, (math.sin(alpha - math.pi / 3.0), math.sin(alpha + math.pi / 3.0), s)


def ricci_polynomial(alpha: float, x: TangentVector) -> float:
    """Ricci curvature as the expanded quadratic polynomial in (a, b, c, t).

    Regression form kept verbatim from the computer-algebra expansion of the
    Gauss-equation sum; agrees on unit vectors with the closed form of
    ``_ricci_sines`` and everywhere with ``ricci_gauss_many``.
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
    s, sines = _ricci_sines(_validate_alpha(alpha))
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
    """Per-angle summary of the hypersurface geometry; its fields, in order,
    are the sweep columns (``cli.SWEEP_COLUMNS``).

    Raw values are carried alongside the boolean flags so callers can apply
    their own thresholds; the flags use ALPHA_BOUNDARY_TOL around the
    special angles and the computed mean curvature for minimality.
    """

    alpha: float
    mean_curvature: float
    cheeger: float
    ricci_min: float
    ricci_max: float
    k_sigma: float
    regime: Regime
    minimal: bool
    einstein: bool
    horosphere_range: bool
    cross_residual: float

    def as_row(self) -> dict:
        """The sweep row: the fields in order, the regime as its value."""
        return {**vars(self), "regime": self.regime.value}


def _count(value, name: str) -> int:
    """``value`` of the argument ``name`` (a sample count or a seed) as an int;
    it must be an int (not a bool) or a numpy integer, at least 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


def classify(alpha: float) -> CurvatureReport:
    """The full curvature report for one angle, the sweep's row at ``alpha``.

    It samples nothing, so it takes no sample count and no seed: its
    cross-pipeline residual is the largest |Ric_Gauss(x) - Ric_closed(x)|
    over the whole unit tangent sphere.  Both sides are quadratic forms in x,
    the closed one diagonal, D = diag(-3 + 4 s k_a x2, -3 + 4 s k_b x2,
    -3 + 4 s k_c x2, -3) from ``_ricci_sines``, so the supremum is the spectral
    radius of the symmetric 7x7 difference of the Gauss Ricci form and D.
    D reads the closed form alone, so the two pipelines stay independent.
    """
    alpha = _validate_alpha(alpha)
    mean = mean_curvature(alpha)
    rmin, rmax = ricci_extremes(alpha)
    if alpha < HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL:
        regime = Regime.NEGATIVE_RICCI
    elif alpha <= HOROSPHERE_ONSET + ALPHA_BOUNDARY_TOL:
        regime = Regime.RICCI_NULL_DIRECTION
    else:
        regime = Regime.MIXED_RICCI
    s, (ka, kb, kc) = _ricci_sines(alpha)
    closed = np.diag(-3.0 + 4.0 * s * np.array([ka, ka, kb, kb, kc, kc, 0.0]))
    difference = _at(alpha, _gauss_family().ricci) - closed
    return CurvatureReport(
        alpha=alpha,
        mean_curvature=mean,
        cheeger=build_hypersurface_algebra(alpha).cheeger(),
        ricci_min=rmin,
        ricci_max=rmax,
        k_sigma=float(_at(alpha, _gauss_family().k_sigma)),
        regime=regime,
        minimal=abs(mean) <= 1e-12,
        einstein=alpha <= ALPHA_BOUNDARY_TOL,
        horosphere_range=alpha >= HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL,
        cross_residual=float(np.max(np.abs(np.linalg.eigvalsh(difference)))),
    )


# -- normal flow and foliation ---------------------------------------------------


_EXP_MAX = 709.782712893384  # the largest x of a finite exp(x); math.exp raises past it
# math.exp elementwise, inf past _EXP_MAX; np.exp differs from math.exp in the last bit
_math_exp = np.vectorize(lambda x: math.exp(x) if x <= _EXP_MAX else math.inf, otypes=[float])
_I, _J = [0, 1, 0], [1, 2, 2]  # x, y, z sit at the entries (i, j) of the matrices


def _refuse(bad: np.ndarray, message: str, **values) -> None:
    """ValueError(message) for the first row of ``bad`` with a fault, formatted
    with its first faulty coordinate ``name`` and its row of each of ``values``."""
    rows = np.atleast_2d(bad).any(axis=-1)
    if rows.any():
        r = int(np.argmax(rows))
        row = {k: float(np.broadcast_to(v, rows.shape + (1,))[r, 0]) for k, v in values.items()}
        raise ValueError(message.format(name="xyz"[np.argmax(np.atleast_2d(bad)[r])], **row))


def _conjugates(alpha: float, xyz: np.ndarray, s) -> np.ndarray:
    """The unipotent entries xyz exp(tau_j - tau_i), tau = s T, of the leaf conjugates q'
    with exp(s T) q' = q exp(s T), for rows xyz (m, 3) or one row; the abelian part is
    untouched.  So flowing the leaf for time s lands on a group-conjugate copy, which is
    what makes the family a foliation.  ValueError names the flow time, then the
    coordinate, at fault."""
    tau = s * _abelian_diagonals(alpha)[1]
    factors = _math_exp(tau[..., _J] - tau[..., _I])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        conj = xyz * factors
    _refuse(~np.isfinite(factors), "flow time s = {s!r} overflows the float range", s=s)
    _refuse(~np.isfinite(conj),
            "coordinate {name} overflows the float range at flow time s = {s!r}", s=s)
    return conj


def foliation_residual_many(alpha: float, xyz, t, s, q_s=0.0) -> np.ndarray:
    """Largest entry of exp(s T) q' - q exp(s T) for the leaf conjugate q' of q
    (``_conjugates``), relative to the largest entry of the two products, for the
    group points q with unipotent entries ``xyz`` (m, 3) and diagonal
    exp(t H + q_s T), the leaf having q_s = 0, and flow times ``s``; ``t``,
    ``q_s`` and ``s`` are each a scalar or (m,).  ValueError names the argument at
    fault in the first row not finite or overflowing, stage by stage: s, then t
    and q_s, then xyz are refused before any exponential."""
    axis, normal = _abelian_diagonals(alpha)
    xyz = np.asarray(xyz, dtype=complex)
    t, s, q_s = (np.asarray(a, dtype=float)[..., None] for a in (t, s, q_s))
    _refuse(~np.isfinite(s), "flow time s = {s!r} is not finite", s=s)
    _refuse(~(np.isfinite(t) & np.isfinite(q_s)),
            "the point at t = {t!r}, s = {q_s!r} is not finite", t=t, q_s=q_s)
    _refuse(~np.isfinite(xyz), "coordinate {name} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        e = np.exp(s * normal)  # the diagonal of exp(s T)
        d = np.exp(t * axis + q_s * normal)  # the diagonal of q and of q'
        _refuse(~np.isfinite(e), "flow time s = {s!r} overflows the float range", s=s)
        _refuse(~np.isfinite(d), "the point at t = {t!r}, s = {q_s!r} overflows the float range",
                t=t, q_s=q_s)
        conj = _conjugates(alpha, xyz, s)
        lhs = e[..., _I] * (conj * d[..., _J])  # exp(s T) q'
        rhs = (xyz * d[..., _J]) * e[..., _J]  # q exp(s T)
        # the diagonal e d of both products is positive, so scale is too
        scale = np.maximum(np.max(e * d, axis=-1),
                           np.max(np.abs(np.concatenate([lhs, rhs], axis=-1)), axis=-1))
        residual = np.max(np.abs(lhs - rhs), axis=-1) / scale
    _refuse(~np.isfinite(scale + residual)[..., None],  # finite just when both are
            "the foliation identity at flow time s = {s!r} overflows the float range", s=s)
    return residual


def volume_distortion(alpha: float, s: float) -> float:
    """Leafwise volume factor exp(-s tr ad T) of the time-s flow, which conjugates by
    exp(-s T); tr ad T sums T_i - T_j over the unipotent entries (i, j), each twice."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"flow time s = {s!r} is not finite")
    normal = _abelian_diagonals(alpha)[1]
    tr_ad = 2.0 * float(np.sum(normal[_I] - normal[_J]))
    try:
        return math.exp(-s * tr_ad)
    except OverflowError:
        raise ValueError(f"flow time s = {s!r} overflows the float range") from None


# -- the intrinsic pipeline -------------------------------------------------------


def build_hypersurface_algebra(alpha: float) -> MetricLieAlgebra:
    """The tangent algebra of the hypersurface as a metric Lie algebra."""
    return HypersurfaceModel.from_angle(alpha).algebra


# -- sampling and scans ------------------------------------------------------------


# Planes per block of the plane stream: one draw, its wedges and their K.
_SCAN_BLOCK = 768


def _plane_blocks(
    rng: np.random.Generator, n: int, operator: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """n random planes span{u, v} in blocks (u, v, k) of _SCAN_BLOCK rows: plane
    r is row r of one standard-normal (n, 2, 7) draw, made a block at a time
    (chunked draws repeat the one-shot draw bit for bit), and k its sectional
    curvature under the 21x21 ``operator``, -inf on a degenerate plane, which
    is thus never a scan extreme."""
    for c in range(0, n, _SCAN_BLOCK):
        u, v = rng.standard_normal((min(_SCAN_BLOCK, n - c), 2, 7)).transpose(1, 0, 2)
        yield u, v, _sectional_rows(operator, u, v, -math.inf)


def _gram_schmidt(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal pairs of Gram-Schmidt on the rows of u, v (..., 7)."""
    u = u / np.sqrt(_dot(u, u))[..., None]
    v = v - _dot(u, v)[..., None] * u
    return u, v / np.sqrt(_dot(v, v))[..., None]


@dataclass(frozen=True)
class PlaneScan:
    """The largest sectional curvature over a sampled set of planes, and its plane."""

    max_curvature: float
    max_plane: tuple[TangentVector, TangentVector]
    samples: int


def nonpositivity_scan(alpha: float, samples: int, seed: int = 0) -> PlaneScan:
    """Scan random tangent planes for the largest sectional curvature.

    The reference plane is always appended to the sample set as a
    deterministic witness, so for alpha > 0 the scan reports positive
    curvature no matter the seed.  ``zero_curvature_search`` constructs a flat
    plane.  Planes come from ``_plane_blocks`` a block at a time, so memory does
    not grow with ``samples``; K is read off the raw wedges, and only the plane
    returned is orthonormalised.  ``samples`` and ``seed`` must be
    ints (not bools) or numpy integers, at least 0.
    """
    operator = _at(alpha, _gauss_family().operator)
    samples = _count(samples, "samples")
    best, arg = -math.inf, None
    # the extreme's rows are copied, so that they keep no block alive
    for u, v, k in _plane_blocks(np.random.default_rng(_count(seed, "seed")), samples, operator):
        i = int(np.argmax(k))
        if k[i] > best:
            best, arg = float(k[i]), (u[i].copy(), v[i].copy())
    ref = tuple(x.coeffs() for x in reference_plane())
    k_ref = float(_sectional_rows(operator, *ref, math.nan))
    plane = ref if k_ref > best else _gram_schmidt(*arg)  # ties keep the sampled plane
    return PlaneScan(max_curvature=max(best, k_ref),
                     max_plane=tuple(TangentVector.from_coeffs(x) for x in plane),
                     samples=samples)


def zero_curvature_search(
    alpha: float, seed: int = 0
) -> tuple[float, tuple[TangentVector, TangentVector]]:
    """A plane of zero sectional curvature, on the path between two exact planes.

    sigma_0 = span{E12, H} has K = -sin^2(alpha + pi/6) < 0 and the reference
    plane sigma_1 = span{u_1, v_1} has K = reference_plane_curvature(alpha) >= 0.
    The two are orthogonal, so u = cos(theta/2) E12 + sin(theta/2) u_1 and
    v = cos(theta/2) H + sin(theta/2) v_1 are orthonormal for every theta, and
    K(theta) = x Q x for x = (1, cos theta, sin theta) and Q = A R A^T, where
    the rows of A are (w_0 + w_1)/2, (w_0 - w_1)/2 and (u_0 ^ v_1 + u_1 ^ v_0)/2
    for the wedges w_0, w_1 of the two planes.  Bisection on the sign of K
    over [0, pi], from K(0) < 0 <= K(pi), runs until the midpoint equals an
    end; the plane at the end with K >= 0 is returned, with its |K| read
    through ``_sectional_rows``.  The plane does not depend on ``seed``.  It
    must still be an int (not a bool) or a numpy integer, at least 0; it stays
    only because the benchmark worker passes ``seed=``, and the two go
    together (ROADMAP item 1).
    """
    operator = _at(alpha, _gauss_family().operator)
    _count(seed, "seed")
    i, j = _PAIRS
    wedge = lambda u, v: u[i] * v[j] - u[j] * v[i]
    u0, v0 = np.eye(7)[[0, 6]]  # E12 and H
    u1, v1 = (x.coeffs() for x in reference_plane())
    w0, w1 = wedge(u0, v0), wedge(u1, v1)
    a = 0.5 * np.stack([w0 + w1, w0 - w1, wedge(u0, v1) + wedge(u1, v0)])
    q = a @ operator @ a.T
    lo, hi = 0.0, math.pi  # K(lo) < 0 <= K(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        x = np.array([1.0, math.cos(mid), math.sin(mid)])
        lo, hi = (mid, hi) if x @ q @ x < 0.0 else (lo, mid)
    c, s = math.cos(0.5 * hi), math.sin(0.5 * hi)
    u, v = c * u0 + s * u1, c * v0 + s * v1
    value = abs(float(_sectional_rows(operator, u, v, math.nan)))
    return value, (TangentVector.from_coeffs(u), TangentVector.from_coeffs(v))
