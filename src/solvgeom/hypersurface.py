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

A model holds its angle, its read-only frame derived from alpha and its
Koszul tangent algebra, built on first use.  ``HypersurfaceModel.from_angle``
memoises the last few models it built, so every caller in a process shares
one model per angle, and with it one frame and one tangent algebra.

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
Gauss query reads the member it needs at its alpha (``_at``); no model caches one.

Since w R w / w . w does not change when u, v are replaced by another basis
of their plane, one kernel, ``_sectional_rows``, reads K off the 21x21 R and
the wedges of raw pairs for ``gauss_sectional`` and the sampled-plane queries
(``nonpositivity_scan``, ``zero_curvature_search``), which orthonormalise
only the planes they return or start Newton steps from.  Both read one stream,
``_plane_blocks``: plane r is row r of one standard-normal (n, 2, 7) draw,
made and contracted 768 planes at a time, so the scan's memory does not grow
with the samples.  A degenerate pair (``DEGENERATE_PLANE_TOL``; about 1e-36
likely) keeps K = -inf, so it is never a scan extreme nor a search start.

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
    "gauss_sectional", "ricci_gauss_many", "ricci_closed_many",
    "ricci_polynomial", "ricci_extremes",
    "reference_plane", "reference_plane_curvature",
    "Regime", "CurvatureReport", "classify",
    "GroupElement", "flow_point", "leaf_conjugate",
    "foliation_residual_many",
    "volume_distortion",
    "build_hypersurface_algebra", "HYPERSURFACE_LABELS",
    "PlaneScan", "nonpositivity_scan", "zero_curvature_search",
    "random_unit_tangents",
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


# eq=False: from_angle shares each model by identity, so equality and hash
# are by identity too.
@dataclass(frozen=True, eq=False)
class HypersurfaceModel:
    """One member of the hypersurface family, given by its angle ``alpha``.

    Its frame is derived from ``alpha`` and read-only: ``axis`` is the unit
    diagonal H(alpha) completing the nilpotent part to the tangent algebra
    and ``normal`` the unit normal T(alpha), both (3, 3) complex arrays;
    ``basis`` is the (7, 3, 3) stack of the orthonormal basis
    (E12, iE12, E23, iE23, E13, iE13, H).  ``from_angle`` shares one model
    per angle; ``HypersurfaceModel(alpha)`` builds an unshared one.
    """

    alpha: float

    @classmethod
    def from_angle(cls, alpha: float) -> "HypersurfaceModel":
        """The model at ``alpha``, shared: see ``_model_at``."""
        return _model_at(cls, _validate_alpha(alpha))

    def __post_init__(self):
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))

    @cached_property
    def axis(self) -> np.ndarray:
        return _read_only(math.cos(self.alpha) * H0 + math.sin(self.alpha) * H1)

    @cached_property
    def normal(self) -> np.ndarray:
        return _read_only(math.sin(self.alpha) * H0 + (-math.cos(self.alpha)) * H1)

    @cached_property
    def basis(self) -> np.ndarray:
        return _read_only(np.concatenate([AMBIENT_BASIS[:6], self.axis[None]]))

    @cached_property
    def algebra(self) -> MetricLieAlgebra:
        """The tangent algebra as a metric Lie algebra (the Koszul pipeline)."""
        return MetricLieAlgebra.from_matrix_basis(self.basis, labels=HYPERSURFACE_LABELS)


# Four models, a frame and a Koszul algebra each: verify reads two (its alpha
# and the alpha = 0 leaf), and a caller asking for two more still finds both.
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
    """The member of a Gauss family array at alpha: the sum over its leading
    axis of each monomial times its coefficient.  The sum runs entry by entry
    in one order, so entries equal in the family are equal in the result: the
    operator stays symmetric and a gather of the tensor."""
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


def shape_spectrum(model: HypersurfaceModel) -> np.ndarray:
    """Eigenvalues of the shape operator, ascending."""
    return np.linalg.eigvalsh(_at(model.alpha, _gauss_family().shape))


def mean_curvature(model: HypersurfaceModel) -> float:
    """Trace of the second fundamental form over the orthonormal basis."""
    return float(np.trace(_at(model.alpha, _gauss_family().shape)))


def gauss_sectional(
    model: HypersurfaceModel, x1: TangentVector, x2: TangentVector
) -> float:
    """Sectional curvature of span{X1, X2}; raises on a degenerate plane,
    one whose Gram determinant is at most DEGENERATE_PLANE_TOL |X1|^2 |X2|^2."""
    u, v = _binary_scaled(x1.coeffs()), _binary_scaled(x2.coeffs())
    with np.errstate(invalid="ignore"):  # inf - inf of a non-finite coefficient, refused below
        k = float(_sectional_rows(_at(model.alpha, _gauss_family().operator), u, v, math.nan))
    if math.isnan(k):
        raise ValueError(f"degenerate plane: gram determinant at most {DEGENERATE_PLANE_TOL:g}"
                         " |X1|^2 |X2|^2, or a coefficient not finite")
    return k


def ricci_gauss_many(model: HypersurfaceModel, coeffs: np.ndarray) -> np.ndarray:
    """Ricci curvature x . Ric . x of each row of ``coeffs``, Ric_jk = R_ijk^i."""
    coeffs = np.asarray(coeffs, dtype=float)
    return np.sum((coeffs @ _at(model.alpha, _gauss_family().ricci)) * coeffs, axis=-1)


def _ricci_sines(alpha: float) -> tuple[float, tuple[float, float, float]]:
    """s = sin(alpha) and the sines of the closed-form Ricci curvature
    -3 + 4 s (sin(alpha - pi/3) |a|^2 + sin(alpha + pi/3) |b|^2 + s |c|^2)."""
    s = math.sin(alpha)
    return s, (math.sin(alpha - math.pi / 3.0), math.sin(alpha + math.pi / 3.0), s)


def ricci_closed_many(alpha: float, coeffs: np.ndarray) -> np.ndarray:
    """Closed-form Ricci curvature for unit rows of ``coeffs``."""
    alpha = _validate_alpha(alpha)
    coeffs = np.asarray(coeffs, dtype=float)
    sq = coeffs**2
    aa = sq[..., 0] + sq[..., 1]
    bb = sq[..., 2] + sq[..., 3]
    cc = sq[..., 4] + sq[..., 5]
    tt = sq[..., 6]
    if np.any(np.abs(aa + bb + cc + tt - 1.0) > 1e-10):
        raise ValueError("closed-form Ricci curvature requires unit tangent vectors")
    s, (ka, kb, kc) = _ricci_sines(alpha)
    return -3.0 + 4.0 * s * (ka * aa + kb * bb + kc * cc)


def ricci_polynomial(alpha: float, x: TangentVector) -> float:
    """Ricci curvature as the expanded quadratic polynomial in (a, b, c, t).

    Regression form kept verbatim from the computer-algebra expansion of the
    Gauss-equation sum; agrees with ``ricci_closed_many`` on unit vectors and
    with ``ricci_gauss_many`` everywhere.
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


def classify(alpha: float, samples: int = 1000, seed: int = 0) -> CurvatureReport:
    """Compute the full curvature report for one angle.

    ``samples`` random unit tangent vectors feed the cross-pipeline
    residual, the largest disagreement between the Gauss-equation Ricci and
    its closed form.  Results are deterministic for a fixed seed.
    ``samples`` and ``seed`` must be ints (not bools) or numpy integers, at
    least 0.
    """
    alpha = _validate_alpha(alpha)
    samples = _count(samples, "samples")
    vecs = random_unit_tangents(np.random.default_rng(_count(seed, "seed")), samples)
    return _report(HypersurfaceModel.from_angle(alpha), vecs)


def _report(model: HypersurfaceModel, vecs: np.ndarray) -> CurvatureReport:
    """The curvature report of ``model``, its cross-pipeline residual taken
    over the unit rows of ``vecs`` (n, 7), and 0 for n = 0."""
    alpha = model.alpha
    mean = mean_curvature(model)
    rmin, rmax = ricci_extremes(alpha)
    if alpha < HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL:
        regime = Regime.NEGATIVE_RICCI
    elif alpha <= HOROSPHERE_ONSET + ALPHA_BOUNDARY_TOL:
        regime = Regime.RICCI_NULL_DIRECTION
    else:
        regime = Regime.MIXED_RICCI
    residual = np.abs(ricci_gauss_many(model, vecs) - ricci_closed_many(alpha, vecs))
    return CurvatureReport(
        alpha=alpha,
        mean_curvature=mean,
        cheeger=model.algebra.cheeger(),
        ricci_min=rmin,
        ricci_max=rmax,
        k_sigma=float(_at(alpha, _gauss_family().k_sigma)),
        regime=regime,
        minimal=abs(mean) <= 1e-12,
        einstein=alpha <= ALPHA_BOUNDARY_TOL,
        horosphere_range=alpha >= HOROSPHERE_ONSET - ALPHA_BOUNDARY_TOL,
        cross_residual=float(np.max(residual, initial=0.0)),
    )


# -- normal flow and foliation ---------------------------------------------------


def _abelian_diagonals(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entries of the axis H(alpha) and the normal T(alpha)."""
    model = HypersurfaceModel.from_angle(alpha)
    return np.diag(model.axis).real, np.diag(model.normal).real


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
        """The upper triangular matrix; ValueError if it is not finite."""
        _refuse_non_finite(np.array([self.x, self.y, self.z]), t=self.t, q_s=self.s)
        axis, normal = _abelian_diagonals(self.alpha)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            d = np.exp(self.t * axis + self.s * normal)
            m = np.diag(d).astype(complex)
            m[_I, _J] = np.array([self.x, self.y, self.z]) * d[_J]
        if not np.all(np.isfinite(m)):
            raise ValueError(f"the point at t = {self.t!r}, s = {self.s!r} overflows the float range")
        return m


def flow_point(q: GroupElement, s: float) -> GroupElement:
    """q . exp(s T), the unit-normal flow; a one-parameter group in s."""
    return GroupElement(q.x, q.y, q.z, q.t, q.alpha, q.s + float(s))


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


def _refuse_non_finite(xyz=(), s=0.0, t=0.0, q_s=0.0) -> None:
    """ValueError, before any exponential, naming the first row whose flow time s,
    then point coordinates t, q_s, then unipotent coordinates xyz are not finite."""
    _refuse(~np.isfinite(s), "flow time s = {s!r} is not finite", s=s)
    _refuse(~(np.isfinite(t) & np.isfinite(q_s)),
            "the point at t = {t!r}, s = {q_s!r} is not finite", t=t, q_s=q_s)
    _refuse(~np.isfinite(xyz), "coordinate {name} is not finite")


def _conjugates(alpha: float, xyz: np.ndarray, s) -> np.ndarray:
    """xyz exp(tau_j - tau_i), tau = s T: the unipotent entries of the leaf conjugates of
    rows (m, 3) or one row; ValueError names the flow time, then the coordinate, at fault."""
    tau = s * _abelian_diagonals(alpha)[1]
    factors = _math_exp(tau[..., _J] - tau[..., _I])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        conj = xyz * factors
    _refuse(~np.isfinite(factors), "flow time s = {s!r} overflows the float range", s=s)
    _refuse(~np.isfinite(conj),
            "coordinate {name} overflows the float range at flow time s = {s!r}", s=s)
    return conj


def leaf_conjugate(q: GroupElement, s: float) -> GroupElement:
    """The point q' with exp(s T) q' = q exp(s T).

    Conjugating the unipotent part by the diagonal exp(s T) rescales the
    coordinates by exponentials of the entry differences; the abelian part
    is untouched.  Flowing the hypersurface for time s therefore lands on a
    group-conjugate copy, which is what makes the family a foliation.
    """
    xyz, s = np.array([q.x, q.y, q.z], dtype=complex), float(s)
    _refuse_non_finite(xyz, s)
    xyz = _conjugates(q.alpha, xyz, s)
    return GroupElement(*map(complex, xyz), t=q.t, alpha=q.alpha, s=q.s)


def foliation_residual_many(alpha: float, xyz, t, s, q_s=0.0) -> np.ndarray:
    """Largest entry of exp(s T) q' - q exp(s T) for q' = leaf_conjugate(q, s),
    relative to the largest entry of the two products, for the points q with
    unipotent entries ``xyz`` (m, 3), axis and normal coordinates ``t`` and
    ``q_s`` and flow times ``s``, each a scalar or (m,).  ValueError names the
    argument at fault in the first row not finite or overflowing, stage by stage."""
    axis, normal = _abelian_diagonals(alpha)
    xyz = np.asarray(xyz, dtype=complex)
    t, s, q_s = (np.asarray(a, dtype=float)[..., None] for a in (t, s, q_s))
    _refuse_non_finite(xyz, s, t, q_s)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        e = np.exp(s * normal)  # the diagonal of exp(s T)
        d = np.exp(t * axis + q_s * normal)  # the diagonal of q and of q'
        _refuse(~np.isfinite(e), "flow time s = {s!r} overflows the float range", s=s)
        _refuse(~np.isfinite(d), "the point at t = {t!r}, s = {q_s!r} overflows the float range",
                t=t, q_s=q_s)
        conj = _conjugates(alpha, xyz, s)  # leaf_conjugate's entries
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
    """Leafwise volume factor exp(-s tr ad T) of the time-s flow, which conjugates by exp(-s T)."""
    _refuse_non_finite(s=float(s))
    model = HypersurfaceModel.from_angle(alpha)
    tr_ad = float(np.real(np.vdot(model.basis, bracket(model.normal, model.basis))))
    try:
        return math.exp(-float(s) * tr_ad)
    except OverflowError:
        raise ValueError(f"flow time s = {s!r} overflows the float range") from None


# -- the intrinsic pipeline -------------------------------------------------------


def build_hypersurface_algebra(alpha: float) -> MetricLieAlgebra:
    """The tangent algebra of the hypersurface as a metric Lie algebra."""
    return HypersurfaceModel.from_angle(alpha).algebra


# -- sampling and scans ------------------------------------------------------------


def random_unit_tangents(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 7) array of unit coefficient vectors, standard Gaussian direction."""
    v = rng.standard_normal((n, 7))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Planes per block of the plane stream: one draw, its wedges and their K.
_SCAN_BLOCK = 768


def _plane_blocks(
    rng: np.random.Generator, n: int, operator: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """n random planes span{u, v} in blocks (u, v, k) of _SCAN_BLOCK rows: plane
    r is row r of one standard-normal (n, 2, 7) draw, made a block at a time
    (chunked draws repeat the one-shot draw bit for bit), and k its sectional
    curvature under the 21x21 ``operator``, -inf on a degenerate plane, which
    is thus never a scan extreme nor a search start."""
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
    Planes come from ``_plane_blocks`` a block at a time, so memory does not
    grow with ``samples``; K is read off the raw wedges, and only the two
    planes returned are orthonormalised.  ``samples`` and ``seed`` must be
    ints (not bools) or numpy integers, at least 0.
    """
    alpha = _validate_alpha(alpha)
    samples = _count(samples, "samples")
    operator = _at(alpha, _gauss_family().operator)
    best_max, best_min = -math.inf, math.inf
    arg_max = arg_min = None
    # the extremes' rows are copied, so that they keep no block alive
    for u, v, k in _plane_blocks(np.random.default_rng(_count(seed, "seed")), samples, operator):
        i = int(np.argmax(k))
        if k[i] > best_max:
            best_max, arg_max = float(k[i]), (u[i].copy(), v[i].copy())
        j = int(np.argmin(np.abs(k)))
        if abs(k[j]) < best_min:
            best_min, arg_min = abs(float(k[j])), (u[j].copy(), v[j].copy())
    ref = tuple(x.coeffs() for x in reference_plane())
    k_ref = float(_sectional_rows(operator, *ref, math.nan))
    pack = lambda pair: tuple(TangentVector.from_coeffs(x) for x in pair)
    return PlaneScan(
        max_curvature=max(best_max, k_ref),  # ties keep the sampled plane
        max_plane=pack(ref if k_ref > best_max else _gram_schmidt(*arg_max)),
        min_abs_curvature=min(best_min, abs(k_ref)),
        min_abs_plane=pack(ref if abs(k_ref) < best_min else _gram_schmidt(*arg_min)),
        samples=samples,
    )


_ZERO_SAMPLES = 4000
_ZERO_STARTS = 5
_ZERO_STEPS = 100
_ZERO_TARGET = 1e-8


def _sectional_gradient(
    operator: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The gradient (dK/du, dK/dv) of K = w R w / w . w at an orthonormal pair
    u, v (7,).  With N = w R w and A the antisymmetric 7x7 matrix holding
    (R w)_p at each pair p = (i, j) of _PAIRS, dN/du = 2 A v and dN/dv = -2 A u;
    K does not change under a change of basis of its plane, so its gradient is
    their part orthogonal to span{u, v}, where w . w moves too."""
    i, j = _PAIRS
    a = np.zeros((7, 7))
    a[i, j] = (u[i] * v[j] - u[j] * v[i]) @ operator
    a -= a.T
    g = 2.0 * np.stack([a @ v, -(a @ u)])
    plane = np.stack([u, v])
    g -= (g @ plane.T) @ plane
    return g[0], g[1]


def zero_curvature_search(
    alpha: float, seed: int = 0
) -> tuple[float, tuple[TangentVector, TangentVector]]:
    """Search for a plane of (near) zero sectional curvature.

    Samples _ZERO_SAMPLES random planes from ``_plane_blocks`` and takes the
    _ZERO_STARTS of smallest |K|, orthonormalised, in that order.  From each
    it takes Newton steps on K along its gradient on the planes
    (``_sectional_gradient``): (u, v) moves by -K g / |g|^2 and is
    orthonormalised again.  A start stops at |K| <= _ZERO_TARGET, which also
    ends the search, after _ZERO_STEPS evaluations, or where K is not a
    number or g is 0 or not finite.  Returns the smallest |K| found and the
    orthonormal plane attaining it, K read through ``_sectional_rows``.
    ``seed`` must be an int (not a bool) or a numpy integer, at least 0.
    """
    alpha = _validate_alpha(alpha)
    operator = _at(alpha, _gauss_family().operator)
    blocks = _plane_blocks(np.random.default_rng(_count(seed, "seed")), _ZERO_SAMPLES, operator)
    u, v, k = (np.concatenate(x) for x in zip(*blocks))
    order = np.argsort(np.abs(k))[:_ZERO_STARTS]
    best_val, best = math.inf, None
    for u, v in zip(*_gram_schmidt(u[order], v[order])):
        for _ in range(_ZERO_STEPS):
            k = float(_sectional_rows(operator, u, v, math.nan))
            if abs(k) < best_val:
                best_val, best = abs(k), (u, v)
            if not abs(k) > _ZERO_TARGET:  # reached, or a degenerate plane
                break
            g_u, g_v = _sectional_gradient(operator, u, v)
            gg = float(g_u @ g_u + g_v @ g_v)
            if not 0.0 < gg < math.inf:  # g is 0 or not finite
                break
            u, v = _gram_schmidt(u - k / gg * g_u, v - k / gg * g_v)
        if best_val <= _ZERO_TARGET:
            break
    return best_val, tuple(map(TangentVector.from_coeffs, best))
