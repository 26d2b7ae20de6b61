"""Curvature engine for metric Lie algebras given by structure constants.

A left-invariant metric on a Lie group is the same data as an inner product
on its Lie algebra, so all curvature quantities reduce to finite linear
algebra on the structure constants c[i][j][k], where

    [e_i, e_j] = sum_k c[i][j][k] e_k.

The engine computes the Levi-Civita connection from the Koszul formula

    <nabla_X Y, Z> = ( <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> ) / 2,

the curvature tensor R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, built once per algebra from two matrix products, and from those
sectional curvature, Ricci curvature and an Einstein test; the Ricci form is the
metric-free trace of that one tensor, Ric(Y, Z) = tr(X -> R(X, Y) Z) (Milnor,
Adv. Math. 21, 1976); a cached Gram inverse serves the connection and the Ricci frame.
The formula is written once, as koszul_connection, koszul_curvature and ricci_trace:
they broadcast over leading axes, so one algebra, a stack of them and object arrays of
exact numbers (Fractions, say) run the same code, and they leave overflow to the caller.
It also exposes two extras used by the hypersurface model:

* trace_form_vector: the metric dual of X -> tr(ad X), i.e. the solution h
  of gram . h = tau with tau_i = tr(ad e_i).
* cheeger: ||h||, the maximum of tr(ad X) over the unit sphere.  For a
  solvable (more generally amenable unimodular-quotient) group this equals
  the Cheeger isoperimetric constant of the corresponding left-invariant
  metric; for other groups the number is still the dual norm of the trace
  form but carries no isoperimetric meaning.

Coefficient vectors are plain 1-D float arrays in the algebra's basis.
All tolerances are absolute, except that a plane is degenerate relative to
its spanning vectors (DEGENERATE_PLANE_TOL, the one rule of both curvature
pipelines) and a Gram matrix relative to its largest eigenvalue.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import bracket, inner_solvable

__all__ = [
    "MetricLieAlgebra",
    "AxiomCheck",
    "DamekRicciReport",
    "load_algebra_json",
    "dump_algebra_json",
    "jacobi_residual",
    "ANTISYMMETRY_TOL",
    "JACOBI_TOL",
    "GRAM_EIGENVALUE_FLOOR",
    "GRAM_CONDITION_FLOOR",
    "CLOSURE_TOL",
    "DAMEK_RICCI_TOL",
    "DEGENERATE_PLANE_TOL",
    "MAX_JSON_DIM",
]

ANTISYMMETRY_TOL = 1e-12
JACOBI_TOL = 1e-10
GRAM_EIGENVALUE_FLOOR = 1e-10
# Smallest Gram eigenvalue relative to the largest.  Computed eigenvalues are
# accurate to about 1e-16 of the largest, so this bound keeps a wide margin.
GRAM_CONDITION_FLOOR = 1e-12
CLOSURE_TOL = 1e-9
DAMEK_RICCI_TOL = 1e-10
# span{x, y} is degenerate when its Gram determinant |x|^2 |y|^2 - <x, y>^2 is
# at most this times |x|^2 |y|^2: when x and y are at most 1e-6 rad apart.
DEGENERATE_PLANE_TOL = 1e-12
# Largest 'dim' a JSON document may declare: each n^4 array, a product of _compose
# (one in the Jacobi check, two in the curvature tensor) or a sum of them, stays at 8 MB.
MAX_JSON_DIM = 32


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one structural axiom: pass flag plus worst residual."""

    passed: bool
    residual: float


@dataclass(frozen=True)
class DamekRicciReport:
    """Results of the five Damek-Ricci axioms for a split v + z + R A.

    axiom_1:  A is unit and orthogonal to the nilpotent part
    axiom_2:  [v,v] subset z, [v,z] = [z,z] = 0   (two-step nilpotency)
    axiom_3:  v orthogonal to z
    axiom_4:  J_Z^2 = -|Z|^2 id on v for Z in z   (Heisenberg type)
    axiom_5:  ad A acts as 1/2 on v and as 1 on z
    """

    axiom_1: AxiomCheck
    axiom_2: AxiomCheck
    axiom_3: AxiomCheck
    axiom_4: AxiomCheck
    axiom_5: AxiomCheck
    overall: bool


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _binary_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that puts its largest |entry| in [0.5, 1): exact short
    of subnormals, so a sectional curvature keeps its bits and no Gram term of a tiny
    or huge x under- or overflows.  Zero and non-finite x pass unchanged."""
    return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])


def _finite(name: str, a: np.ndarray) -> np.ndarray:
    """``a`` made read-only; ValueError naming it if an entry overflowed."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} overflows the float range for this structure and gram matrix")
    return _read_only(a)


def _float_array(name: str, a) -> np.ndarray:
    """``a`` as a float array; ValueError naming ``name`` at its first entry that is not
    an int or a float (a bool, a string, None, a complex or another object), or at an
    int too large for a float.  A float or integer ndarray is read as it is."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "fiu"):
        for x in np.asarray(a, dtype=object).flat:
            if isinstance(x, (bool, np.bool_)) or not isinstance(
                    x, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must hold only ints and floats, got "
                                 f"{type(x).__name__} {x!r}")
    try:
        return np.array(a, dtype=float)
    except OverflowError:
        raise ValueError(f"an integer in {name} is too large for a float") from None


def _check_partition(dim: int, blocks) -> None:
    """ValueError unless the index lists of ``blocks``, (name, indices) pairs,
    partition range(dim); it names the list and the index at fault."""
    *names, last = [name for name, _ in blocks]
    fault = f"{', '.join(names)} and {last} must partition the basis indices 0 to {dim - 1}"
    owner = {}
    for name, indices in blocks:
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"{fault}: {name} holds {i}")
            if i in owner:
                again = " twice" if owner[i] == name else f", as does {owner[i]}"
                raise ValueError(f"{fault}: {name} holds {i}{again}")
            owner[i] = name
    if len(owner) < dim:
        raise ValueError(f"{fault}: none of them holds {min(set(range(dim)) - owner.keys())}")


def _compose(a, b):
    """(a b)[..., i, j, k, l] = sum_m a[..., i, j, m] b[..., m, k, l], one matrix product."""
    ab = a.reshape(a.shape[:-3] + (-1, a.shape[-1])) @ b.reshape(b.shape[:-3] + (b.shape[-3], -1))
    return ab.reshape(ab.shape[:-2] + a.shape[-3:-1] + b.shape[-2:])


def koszul_connection(c, g, g_inv):
    """Gamma[..., i, j, :] = coefficients of nabla_{e_i} e_j."""
    cg = c @ g[..., None, :, :]  # cg[i, j, l] = <[e_i, e_j], e_l>
    return (cg - (s := cg.swapaxes(-1, -2)).swapaxes(-2, -3) - s) @ g_inv[..., None, :, :] / 2


def koszul_curvature(c, gam):
    """R[..., i, j, k, :] = coefficients of R(e_i, e_j) e_k."""
    t = _compose(gam, gam.swapaxes(-3, -2)).swapaxes(-3, -2)  # t[a, c, b] = nabla_c nabla_a e_b
    return t.swapaxes(-4, -3) - t - _compose(c, gam)  # nabla_[i, j] e_k


def ricci_trace(r):
    """Ric[..., j, k] = sum_i R_ijk^i, symmetrised."""
    ric = np.einsum("...ijki->...jk", r)
    return (ric + ric.swapaxes(-1, -2)) / 2


def jacobi_residual(structure) -> float:
    """Largest entry of [[e_i, e_j], e_k] + cyclic over all basis triples (nan on overflow)."""
    c = np.asarray(structure, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        cyc = _compose(c, c)
        return float(np.max(np.abs(cyc + cyc.transpose(1, 2, 0, 3) + cyc.transpose(2, 0, 1, 3))))


class MetricLieAlgebra:
    """Finite-dimensional real Lie algebra with an inner product.

    Instances are immutable; derived tensors (connection, curvature) are
    cached lazily on first use, read-only like the structure constants.  Construction validates antisymmetry of the
    structure constants, the Jacobi identity, and positive definiteness of
    the Gram matrix, raising ValueError naming the first violated invariant
    (a nan residual, from an overflow, fails its check).
    """

    def __init__(self, structure, gram, labels=None):
        c = _float_array("the structure constants", structure)
        g = _float_array("the gram matrix", gram)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be an n*n*n array, got {c.shape}")
        n = c.shape[0]
        if g.shape != (n, n):
            raise ValueError(f"gram matrix must be {n}*{n}, got {g.shape}")
        if not np.isfinite(c).all():
            raise ValueError("structure constants are not all finite")
        if not np.isfinite(g).all():
            raise ValueError("gram matrix entries are not all finite")
        anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))
        if not anti <= ANTISYMMETRY_TOL:
            raise ValueError(f"structure constants are not antisymmetric (residual {anti:.3e})")
        jres = jacobi_residual(c)
        if not jres <= JACOBI_TOL:
            raise ValueError(f"Jacobi identity violated (residual {jres:.3e})")
        sym = float(np.max(np.abs(g - g.T)))
        if not sym <= ANTISYMMETRY_TOL:
            raise ValueError(f"gram matrix is not symmetric (residual {sym:.3e})")
        eig = np.linalg.eigvalsh(g)
        lo, hi = float(eig[0]), float(eig[-1])
        if lo <= GRAM_EIGENVALUE_FLOOR:
            raise ValueError(f"gram matrix is not positive definite (min eigenvalue {lo:.3e})")
        if lo <= GRAM_CONDITION_FLOOR * hi:
            raise ValueError(f"gram matrix is too ill-conditioned (eigenvalues {lo:.3e} to "
                             f"{hi:.3e}, a ratio below {GRAM_CONDITION_FLOOR:g})")
        self._structure = _read_only(c)
        self._gram = _read_only(g)
        self._labels = tuple(labels) if labels is not None else None
        if self._labels is not None and len(self._labels) != n:
            raise ValueError(f"expected {n} labels, got {len(self._labels)}")

    # -- basic data ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._structure.shape[0]

    @property
    def structure(self) -> np.ndarray:
        return self._structure

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    @property
    def labels(self):
        return self._labels

    @classmethod
    def from_matrix_basis(cls, basis, labels=None) -> "MetricLieAlgebra":
        """Extract structure constants and Gram matrix from a matrix basis.

        ``basis`` is an (n, d, d) stack of complex matrices, or a sequence
        of n (d, d) arrays.  Each pairwise commutator is expanded over the
        basis by real least squares; a residual above CLOSURE_TOL means the
        span is not a subalgebra and raises ValueError.  The Gram matrix is
        that of ``inner_solvable``, so every basis matrix must be finite and
        lie in the solvable algebra.
        """
        try:
            basis = np.asarray(basis, dtype=complex)
        except ValueError:
            shapes = [np.shape(m) for m in basis]
            raise ValueError(f"basis matrices have mixed shapes {shapes}") from None
        if basis.ndim != 3 or not basis.shape[0] or basis.shape[1] != basis.shape[2]:
            raise ValueError(
                f"expected a nonempty (n, d, d) stack of square matrices, got shape {basis.shape}"
            )
        n = len(basis)
        bad = ~np.isfinite(basis).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"basis[{int(np.argmax(bad))}] has a non-finite entry")

        def flat(stack: np.ndarray) -> np.ndarray:
            v = stack.reshape(len(stack), -1)
            return np.concatenate([v.real, v.imag], axis=1).T

        span = flat(basis)
        iu, ju = np.triu_indices(n, 1)
        targets = flat(bracket(basis[iu], basis[ju]))
        coeffs, _, rank, _ = np.linalg.lstsq(span, targets, rcond=None)
        if rank < n:
            raise ValueError("basis is not linearly independent")
        residuals = np.linalg.norm(span @ coeffs - targets, axis=0)
        for i, j, res in zip(iu, ju, residuals):
            if res > CLOSURE_TOL:
                raise ValueError(
                    f"not a subalgebra: [basis[{i}], basis[{j}]] leaves the span "
                    f"(residual {res:.3e})"
                )
        c = np.zeros((n, n, n))
        c[iu, ju] = coeffs.T
        c[ju, iu] = -coeffs.T
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = inner_solvable(basis[i], basis[j])
        return cls(c, g, labels=labels)

    # -- cached tensors ------------------------------------------------------

    @cached_property
    def _gram_inv(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self._gram))

    @cached_property
    def _frame(self) -> np.ndarray:
        """Rows F with F g F^T = I: the transposed Cholesky factor of ``_gram_inv``."""
        return _read_only(np.linalg.cholesky(self._gram_inv).T)

    @cached_property
    def _connection(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            gam = koszul_connection(self._structure, self._gram, self._gram_inv)
        return _finite("Levi-Civita connection", gam)

    @cached_property
    def _curvature(self) -> np.ndarray:
        """R[i, j, k, :] = coefficients of R(e_i, e_j) e_k, unchecked: the Ricci form checks its trace."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _read_only(koszul_curvature(self._structure, self._connection))

    @cached_property
    def _riemann(self) -> np.ndarray:
        return _finite("curvature tensor", self._curvature)

    @cached_property
    def _ricci_form(self) -> np.ndarray:
        """Ric[j, k] = sum_i R_ijk^i, symmetrised; refused if an entry of the form overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite("Ricci form", ricci_trace(self._curvature))

    @cached_property
    def _ricci_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``ricci_matrix()``."""
        return _read_only(np.linalg.eigvalsh(self.ricci_matrix()))

    # -- vector helpers ------------------------------------------------------

    def _vec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a coefficient vector of length {self.dim}, got shape {v.shape}")
        return v

    def inner(self, x, y) -> float:
        return float(self._vec(x) @ self._gram @ self._vec(y))

    # -- connection and curvature --------------------------------------------

    def curvature_inner(self, x, y, z, w) -> float:
        """<R(x, y) z, w>."""
        rz = np.einsum("i,j,k,ijkl->l", self._vec(x), self._vec(y), self._vec(z), self._riemann)
        return float(rz @ self._gram @ self._vec(w))

    def sectional(self, x, y) -> float:
        """Sectional curvature of span{x, y}; raises on a degenerate plane,
        one whose Gram determinant is at most DEGENERATE_PLANE_TOL |x|^2 |y|^2
        or not a number."""
        x, y = _binary_scaled(self._vec(x)), _binary_scaled(self._vec(y))
        with np.errstate(invalid="ignore"):  # inf * 0 of a non-finite entry, refused below
            xx, yy = self.inner(x, x), self.inner(y, y)
            den = xx * yy - self.inner(x, y) ** 2
        if not den > DEGENERATE_PLANE_TOL * xx * yy:
            raise ValueError(f"degenerate plane (gram determinant {den:.3e})")
        return self.curvature_inner(x, y, y, x) / den

    def ricci(self, x):
        """Ricci curvature Ric(x, x), the trace of y -> R(y, x) x.

        A vector gives a float; an (m, dim) stack of vectors gives the array
        of its m values, each bit for bit the float its row would give.
        """
        v = np.asarray(x, dtype=float)
        rows = v if v.ndim == 2 and v.shape[1] == self.dim else self._vec(x)[None]
        # one batched matmul per row: every row sums in the same order
        ric = (rows[:, None, :] @ self._ricci_form @ rows[:, :, None])[:, 0, 0]
        return ric if rows is v else float(ric[0])

    def ricci_matrix(self) -> np.ndarray:
        """Matrix of the Ricci form in the gram-orthonormal basis ``_frame``."""
        with np.errstate(over="ignore", invalid="ignore"):
            ric = self._frame @ self._ricci_form @ self._frame.T
        return _finite("Ricci form in a gram-orthonormal basis", ric)

    def einstein_check(self, tol: float) -> tuple[bool, float]:
        """(is Einstein within tol, mean Ricci eigenvalue)."""
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tol}")
        eig = self._ricci_spectrum
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            mean = np.mean(eig)
            if not np.isfinite(mean):  # the sum overflowed; 2^k > n keeps sum(eig / 2^k) finite
                k = eig.size.bit_length()
                mean = np.ldexp(np.mean(np.ldexp(eig, -k)), k)
            dev = np.max(np.abs(eig - mean))
        _finite("spread of the Ricci spectrum", dev)
        return float(dev) <= tol, float(mean)

    # -- trace form and isoperimetry ------------------------------------------

    def trace_form_vector(self) -> np.ndarray:
        """Metric dual of the linear functional X -> tr(ad X), read-only; refused by
        name if it overflows."""
        tau = np.einsum("ijj->i", self._structure)
        return _finite("trace form vector", np.linalg.solve(self._gram, tau))

    def cheeger(self) -> float:
        """max of tr(ad X) over unit X, computed as the trace form's norm; refused by
        name if its square overflows.

        Valid as an isoperimetric constant only for solvable instances; see
        the module docstring.
        """
        h = self.trace_form_vector()
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            norm = np.sqrt(max(h @ self._gram @ h, 0.0))
        return float(_finite("Cheeger constant", norm))

    # -- Damek-Ricci structure --------------------------------------------------

    def _j_matrices(self, zs, vi) -> np.ndarray:
        """(m, |v|, |v|) matrices of J_z on the v block, one per row of ``zs``:
        <J_z u, u'> = <z, [u, u']> for u, u' in v.  So g_vv J_z = sum_k (g z)_k C_k for
        C_k[p, q] = c[q, p, k]: one solve gives every g_vv^-1 C_k, one product every J_z."""
        g, c, nv = self._gram, self._structure, len(vi)
        j_k = np.linalg.solve(g[np.ix_(vi, vi)], c[vi][:, vi].transpose(1, 0, 2).reshape(nv, -1))
        return ((zs @ g) @ j_k.reshape(nv * nv, -1).T).reshape(len(zs), nv, nv)

    def damek_ricci_check(
        self,
        v_indices,
        z_indices,
        a_index: int,
        tol: float = DAMEK_RICCI_TOL,
    ) -> DamekRicciReport:
        """Check the five Damek-Ricci axioms for the split v + z + R A.

        Axiom 4, J_z^2 = -|z|^2 id, is tested on a Gram-orthonormal frame f of z and
        on every (f_i + f_j) / sqrt(2), i < j, with J_z built for all from one solve.
        J_z^2 + |z|^2 id is quadratic in z, so by polarisation it vanishes on all of z
        exactly when it vanishes on these unit vectors: the residual is at most its
        supremum over unit z, which is at most (2 dim z - 1) times the residual.
        Both blocks must be nonempty.
        """
        vi, zi = list(v_indices), list(z_indices)
        _check_partition(self.dim, (("v_indices", vi), ("z_indices", zi), ("a_index", [a_index])))
        if not vi:
            raise ValueError("v_indices is empty: the v block needs at least one index")
        if not zi:
            raise ValueError("z_indices is empty: the z block needs at least one index")
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
        g, c = self._gram, self._structure
        ni = vi + zi

        r1 = max(abs(np.sqrt(g[a_index, a_index]) - 1.0), *np.abs(g[a_index, ni]))
        axiom_1 = AxiomCheck(bool(r1 <= tol), float(r1))

        vv = c[np.ix_(vi, vi)]
        vv[..., zi] = 0.0
        r2 = float(max(np.max(np.abs(vv)), np.max(np.abs(c[np.ix_(ni, zi)]))))
        axiom_2 = AxiomCheck(bool(r2 <= tol), r2)

        r3 = np.max(np.abs(g[np.ix_(vi, zi)]))
        axiom_3 = AxiomCheck(bool(r3 <= tol), float(r3))

        f = self._subspace_orthonormal(zi)
        i, j = np.triu_indices(len(zi), 1)
        zs = np.concatenate([f, (f[i] + f[j]) / np.sqrt(2.0)])
        jm = self._j_matrices(zs, vi)
        zz = np.einsum("mk,kl,ml->m", zs, g, zs)
        r4 = float(np.max(np.abs(jm @ jm + zz[:, None, None] * np.eye(len(vi)))))
        axiom_4 = AxiomCheck(bool(r4 <= tol), float(r4))

        # ad A e_i - e_i / 2 on v and ad A e_i - e_i on z, one row per index
        dev = c[a_index, ni]
        dev[np.arange(len(ni)), ni] -= np.repeat([0.5, 1.0], [len(vi), len(zi)])
        r5 = float(np.sqrt(np.max((dev[:, None] @ g @ dev[..., None])[:, 0, 0], initial=0.0)))
        axiom_5 = AxiomCheck(bool(r5 <= tol), r5)

        checks = (axiom_1, axiom_2, axiom_3, axiom_4, axiom_5)
        return DamekRicciReport(*checks, overall=all(ch.passed for ch in checks))

    def _subspace_orthonormal(self, idx) -> np.ndarray:
        """Gram-orthonormal rows spanning the coordinate subspace of the indices ``idx``:
        on those coordinates the inverse Cholesky factor of their Gram block, the unique
        lower-triangular frame with positive diagonal (that of Gram-Schmidt)."""
        frame = np.zeros((len(idx), self.dim))
        frame[:, idx] = np.tril(np.linalg.inv(np.linalg.cholesky(self._gram[np.ix_(idx, idx)])))
        return frame


# -- JSON interchange -------------------------------------------------------


def _all_numbers(x) -> bool:
    """True when every item of the nested lists ``x`` is an int (not a bool) or a float."""
    while isinstance(x, list) and x and all(type(y) is list for y in x):
        x = [z for y in x for z in y]
    return all(isinstance(y, float) or type(y) is int for y in (x if isinstance(x, list) else [x]))


def _structure_entries(entries: list, n: int):
    """((i, j, k), value) arrays of the structure entries, checked as ``load_algebra_json`` says."""
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {4}:
        i, j, k, val = zip(*entries)
        if (set(map(type, i + j + k)) == {int} and set(map(type, val)) == {float}
                and set(i + j + k) <= set(range(n))):
            i, j, k = idx = np.array(i + j + k, dtype=np.intp).reshape(3, -1)
            if (i < j).all() and np.bincount((i * n + j) * n + k).max() < 2:
                return idx, np.array(val)
    seen = set()  # not plain: read one entry at a time, to name the first fault
    for e in entries:
        if not (isinstance(e, list) and len(e) == 4):
            raise ValueError(f"structure entries must be [i, j, k, value], got {e!r}")
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in e[:3]):
            raise ValueError(f"structure indices must be integers, got {e!r}")
        if isinstance(e[3], bool) or not isinstance(e[3], (int, float)):
            raise ValueError(f"structure value must be a number, got {e!r}")
        if isinstance(e[3], int) and abs(e[3]) >= 2**1024 - 2**970:  # float() overflows
            raise ValueError(f"structure value is an integer too large for a float, got {e!r}")
        i, j, k = key = tuple(e[:3])
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"structure index out of range in {e!r}")
        if i >= j:
            raise ValueError(f"structure entries must have i < j, got {e!r}")
        if key in seen:
            raise ValueError(f"duplicate structure entry for indices ({i}, {j}, {k})")
        seen.add(key)
    idx = np.array([e[:3] for e in entries], dtype=np.intp).reshape(-1, 3).T
    return idx, np.array([e[3] for e in entries], dtype=float)


def load_algebra_json(source) -> MetricLieAlgebra:
    """Build a MetricLieAlgebra from its JSON description.

    Expected document:  {"dim": n, "labels": [...], "gram": n*n,
    "structure": [[i, j, k, value], ...]} with sparse entries restricted to
    i < j and an integer n in [1, MAX_JSON_DIM]; antisymmetry is filled in.
    ValueError names the first violated invariant: a file (or "the algebra
    document", a stream) that is not UTF-8 JSON, then the format, where the
    first bad structure entry in document order is named by the first rule it
    breaks (shape, index type, value type, range, i < j, repeat), a Gram entry
    must be an int (not a bool) or a float, and an integer value or Gram entry
    must fit a float; then come the algebra invariants.
    """
    doc = source
    if (stream := hasattr(source, "read")) or isinstance(source, (str, os.PathLike)):
        where = "the algebra document" if stream else repr(os.fspath(source))
        try:
            with contextlib.nullcontext(source) if stream else open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except ValueError:  # int() refuses a literal beyond the interpreter's digit limit
            raise ValueError(f"{where} holds an integer with too many digits to read") from None
        except RecursionError:
            raise ValueError(f"{where} is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be a JSON object")
    n = doc.get("dim")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"missing or invalid 'dim': expected an integer, got {n!r}")
    if not 0 < n <= MAX_JSON_DIM:
        raise ValueError(f"'dim' must be positive and at most {MAX_JSON_DIM}, got {n}")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != n
        or not all(isinstance(s, str) for s in labels)
    ):
        raise ValueError(f"'labels' must be a list of {n} strings")
    if "gram" not in doc:
        raise ValueError("missing 'gram'")
    try:
        if not _all_numbers(doc["gram"]):  # numpy would read strings and booleans as numbers
            raise ValueError
        gram = np.array(doc["gram"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"'gram' must be a {n}*{n} matrix of numbers") from None
    except OverflowError:
        raise ValueError("an integer in 'gram' is too large for a float") from None
    if gram.shape != (n, n):
        raise ValueError(f"'gram' must be a {n}*{n} matrix")
    entries = doc.get("structure")
    if not isinstance(entries, list):
        raise ValueError("missing or invalid 'structure'")
    (i, j, k), val = _structure_entries(entries, n)
    c = np.zeros((n, n, n))
    c[i, j, k], c[j, i, k] = val, -val
    return MetricLieAlgebra(c, gram, labels=labels)


def dump_algebra_json(alg: MetricLieAlgebra) -> dict:
    """The JSON interchange document of an algebra (sparse, i < j)."""
    c = alg.structure
    entries = [[int(i), int(j), int(k), float(c[i, j, k])]
               for i, j, k in np.argwhere(c != 0.0) if i < j]
    labels = {"labels": list(alg.labels)} if alg.labels is not None else {}
    return {"dim": alg.dim, **labels, "structure": entries,
            "gram": [[float(x) for x in row] for row in alg.gram]}
