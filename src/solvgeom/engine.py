"""Curvature engine for metric Lie algebras given by structure constants.

A left-invariant metric on a Lie group is the same data as an inner product
on its Lie algebra, so all curvature quantities reduce to finite linear
algebra on the structure constants c[i][j][k], where

    [e_i, e_j] = sum_k c[i][j][k] e_k.

The engine computes the Levi-Civita connection from the Koszul formula

    <nabla_X Y, Z> = ( <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> ) / 2,

the curvature tensor R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, and from those sectional curvature, Ricci curvature and an
Einstein test; the Ricci form is the metric-free trace
Ric(Y, Z) = tr(X -> R(X, Y) Z) (Milnor, Adv. Math. 21, 1976) of the cached
curvature tensor.  It also exposes two extras used by the hypersurface model:

* trace_form_vector: the metric dual of X -> tr(ad X), i.e. the solution h
  of gram . h = tau with tau_i = tr(ad e_i).
* cheeger: ||h||, the maximum of tr(ad X) over the unit sphere.  For a
  solvable (more generally amenable unimodular-quotient) group this equals
  the Cheeger isoperimetric constant of the corresponding left-invariant
  metric; for other groups the number is still the dual norm of the trace
  form but carries no isoperimetric meaning.

Coefficient vectors are plain 1-D float arrays in the algebra's basis.
All tolerances are absolute, except that a plane is degenerate relative to
the lengths of its spanning vectors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import SquareComplexMatrix, bracket, inner_solvable

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
    "CLOSURE_TOL",
    "DAMEK_RICCI_TOL",
]

ANTISYMMETRY_TOL = 1e-12
JACOBI_TOL = 1e-10
GRAM_EIGENVALUE_FLOOR = 1e-10
CLOSURE_TOL = 1e-9
DAMEK_RICCI_TOL = 1e-10


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
    j_squared_residual: float
    is_two_step_nilpotent: bool
    overall: bool


def jacobi_residual(structure) -> float:
    """Largest entry of [[e_i, e_j], e_k] + cyclic over all basis triples."""
    c = np.asarray(structure, dtype=float)
    cyc = np.einsum("ijm,mkl->ijkl", c, c)
    return float(np.max(np.abs(cyc + cyc.transpose(1, 2, 0, 3) + cyc.transpose(2, 0, 1, 3))))


class MetricLieAlgebra:
    """Finite-dimensional real Lie algebra with an inner product.

    Instances are immutable; derived tensors (connection, curvature) are
    cached lazily on first use.  Construction validates antisymmetry of the
    structure constants, the Jacobi identity, and positive definiteness of
    the Gram matrix, raising ValueError naming the first violated invariant.
    """

    def __init__(self, structure, gram, labels=None):
        c = np.array(structure, dtype=float)
        g = np.array(gram, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be an n*n*n array, got {c.shape}")
        n = c.shape[0]
        if g.shape != (n, n):
            raise ValueError(f"gram matrix must be {n}*{n}, got {g.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants are not all finite")
        if not np.all(np.isfinite(g)):
            raise ValueError("gram matrix entries are not all finite")
        anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))
        if anti > ANTISYMMETRY_TOL:
            raise ValueError(f"structure constants are not antisymmetric (residual {anti:.3e})")
        jres = jacobi_residual(c)
        if jres > JACOBI_TOL:
            raise ValueError(f"Jacobi identity violated (residual {jres:.3e})")
        sym = float(np.max(np.abs(g - g.T)))
        if sym > ANTISYMMETRY_TOL:
            raise ValueError(f"gram matrix is not symmetric (residual {sym:.3e})")
        lo = float(np.min(np.linalg.eigvalsh(g)))
        if lo <= GRAM_EIGENVALUE_FLOOR:
            raise ValueError(f"gram matrix is not positive definite (min eigenvalue {lo:.3e})")
        c.setflags(write=False)
        g.setflags(write=False)
        self._structure = c
        self._gram = g
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
    def from_matrix_basis(
        cls,
        basis,
        inner=inner_solvable,
        labels=None,
        closure_tol: float = CLOSURE_TOL,
    ) -> "MetricLieAlgebra":
        """Extract structure constants and Gram matrix from a matrix basis.

        Each pairwise commutator is expanded over the basis by real least
        squares; a residual above ``closure_tol`` means the span is not a
        subalgebra and raises ValueError.  ``inner`` is the inner product
        used for the Gram matrix (defaults to the solvable-model one).
        """
        basis = list(basis)
        n = len(basis)
        if n == 0:
            raise ValueError("empty basis")
        d = basis[0].dim
        if any(m.dim != d for m in basis):
            raise ValueError("basis matrices have mixed dimensions")

        def flat(m: SquareComplexMatrix) -> np.ndarray:
            v = m.entries.ravel()
            return np.concatenate([v.real, v.imag])

        span = np.stack([flat(m) for m in basis], axis=1)
        if np.linalg.matrix_rank(span) < n:
            raise ValueError("basis is not linearly independent")

        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        targets = np.stack([flat(bracket(basis[i], basis[j])) for i, j in pairs], axis=1)
        coeffs, *_ = np.linalg.lstsq(span, targets, rcond=None)
        residuals = np.linalg.norm(span @ coeffs - targets, axis=0)
        for (i, j), res in zip(pairs, residuals):
            if res > closure_tol:
                raise ValueError(
                    f"not a subalgebra: [basis[{i}], basis[{j}]] leaves the span "
                    f"(residual {res:.3e})"
                )
        c = np.zeros((n, n, n))
        for (i, j), col in zip(pairs, coeffs.T):
            c[i, j] = col
            c[j, i] = -col
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = inner(basis[i], basis[j])
        return cls(c, g, labels=labels)

    # -- cached tensors ------------------------------------------------------

    @cached_property
    def _gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self._gram)

    @cached_property
    def _connection(self) -> np.ndarray:
        """Gamma[i, j, :] = coefficients of nabla_{e_i} e_j (Koszul formula)."""
        c, g = self._structure, self._gram
        w = (
            np.einsum("ijm,ml->ijl", c, g)
            - np.einsum("jlm,mi->ijl", c, g)
            - np.einsum("ilm,mj->ijl", c, g)
        )
        return 0.5 * np.einsum("ijl,lk->ijk", w, self._gram_inv)

    @cached_property
    def _riemann(self) -> np.ndarray:
        """R[i, j, k, :] = coefficients of R(e_i, e_j) e_k."""
        c, gam = self._structure, self._connection
        return (
            np.einsum("jkm,iml->ijkl", gam, gam)
            - np.einsum("ikm,jml->ijkl", gam, gam)
            - np.einsum("ijm,mkl->ijkl", c, gam)
        )

    @cached_property
    def _ricci_form(self) -> np.ndarray:
        """Ric[j, k] = sum_i R_ijk^i, the metric-free trace, symmetrised."""
        ric = np.einsum("ijki->jk", self._riemann)
        return 0.5 * (ric + ric.T)

    # -- vector helpers ------------------------------------------------------

    def _vec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a coefficient vector of length {self.dim}, got shape {v.shape}")
        return v

    def inner(self, x, y) -> float:
        return float(self._vec(x) @ self._gram @ self._vec(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def bracket_coeffs(self, x, y) -> np.ndarray:
        return np.einsum("i,j,ijk->k", self._vec(x), self._vec(y), self._structure)

    # -- connection and curvature --------------------------------------------

    def covariant_derivative(self, x, y) -> np.ndarray:
        """Coefficients of nabla_x y for left-invariant fields."""
        return np.einsum("i,j,ijk->k", self._vec(x), self._vec(y), self._connection)

    def curvature(self, x, y, z) -> np.ndarray:
        """Coefficients of R(x, y) z."""
        return np.einsum(
            "i,j,k,ijkl->l", self._vec(x), self._vec(y), self._vec(z), self._riemann
        )

    def curvature_inner(self, x, y, z, w) -> float:
        """<R(x, y) z, w>."""
        return float(self.curvature(x, y, z) @ self._gram @ self._vec(w))

    def sectional(self, x, y) -> float:
        """Sectional curvature of span{x, y}; raises on a degenerate plane,
        one whose Gram determinant is at most 1e-12 |x|^2 |y|^2."""
        x, y = self._vec(x), self._vec(y)
        xx, yy = self.inner(x, x), self.inner(y, y)
        den = xx * yy - self.inner(x, y) ** 2
        if den <= 1e-12 * xx * yy:
            raise ValueError(f"degenerate plane (gram determinant {den:.3e})")
        return self.curvature_inner(x, y, y, x) / den

    def ricci(self, x) -> float:
        """Ricci curvature Ric(x, x), the trace of y -> R(y, x) x."""
        x = self._vec(x)
        return float(x @ self._ricci_form @ x)

    def ricci_matrix(self) -> np.ndarray:
        """Matrix of the Ricci form in a gram-orthonormal basis."""
        frame = self._subspace_orthonormal(range(self.dim))
        return frame @ self._ricci_form @ frame.T

    def einstein_check(self, tol: float) -> tuple[bool, float]:
        """(is Einstein within tol, mean Ricci eigenvalue)."""
        if tol <= 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        eig = np.linalg.eigvalsh(self.ricci_matrix())
        mean = float(np.mean(eig))
        dev = float(np.max(np.abs(eig - mean)))
        return dev <= tol, mean

    # -- trace form and isoperimetry ------------------------------------------

    def trace_form_vector(self) -> np.ndarray:
        """Metric dual of the linear functional X -> tr(ad X)."""
        tau = np.einsum("ijj->i", self._structure)
        return np.linalg.solve(self._gram, tau)

    def cheeger(self) -> float:
        """max of tr(ad X) over unit X, computed as the trace form's norm.

        Valid as an isoperimetric constant only for solvable instances; see
        the module docstring.
        """
        h = self.trace_form_vector()
        return float(np.sqrt(max(h @ self._gram @ h, 0.0)))

    # -- Damek-Ricci structure --------------------------------------------------

    def j_operator(self, z, u, v_indices) -> np.ndarray:
        """J_Z u defined by <J_Z u, u'> = <z, [u, u']> for u' in the v block.

        ``u`` must be supported on ``v_indices`` and ``z`` off them; the
        result is a full-length coefficient vector supported on v.
        """
        z, u = self._vec(z), self._vec(u)
        vi = list(v_indices)
        if sorted(set(vi)) != sorted(vi) or any(i < 0 or i >= self.dim for i in vi):
            raise ValueError("v_indices must be distinct indices into the basis")
        mask = np.zeros(self.dim, dtype=bool)
        mask[vi] = True
        if np.max(np.abs(u[~mask]), initial=0.0) > 1e-12:
            raise ValueError("u is not supported on the v indices")
        if np.max(np.abs(z[mask]), initial=0.0) > 1e-12:
            raise ValueError("z must be supported off the v indices")
        gz = self._gram @ z
        rhs = np.array([u @ (self._structure[:, p, :] @ gz) for p in vi])
        sol = np.linalg.solve(self._gram[np.ix_(vi, vi)], rhs)
        out = np.zeros(self.dim)
        out[vi] = sol
        return out

    def _j_matrix(self, z, vi) -> np.ndarray:
        """Matrix of J_z on the v block, columns in v coordinates."""
        cols = []
        for p in vi:
            u = np.zeros(self.dim)
            u[p] = 1.0
            cols.append(self.j_operator(z, u, vi)[vi])
        return np.stack(cols, axis=1)

    def damek_ricci_check(
        self,
        v_indices,
        z_indices,
        a_index: int,
        n_random: int = 100,
        seed: int = 0,
        tol: float = DAMEK_RICCI_TOL,
    ) -> DamekRicciReport:
        """Check the five Damek-Ricci axioms for the split v + z + R A."""
        vi, zi = list(v_indices), list(z_indices)
        claimed = sorted(vi + zi + [a_index])
        if claimed != list(range(self.dim)):
            raise ValueError(
                "v_indices, z_indices and a_index must partition the basis indices"
            )
        g, c = self._gram, self._structure
        a = np.zeros(self.dim)
        a[a_index] = 1.0
        ni = vi + zi

        r1 = abs(self.norm(a) - 1.0)
        for i in ni:
            r1 = max(r1, abs(g[a_index, i]))
        axiom_1 = AxiomCheck(bool(r1 <= tol), float(r1))

        r2 = 0.0
        for i in vi:
            for j in vi:
                out = c[i, j].copy()
                out[zi] = 0.0
                r2 = max(r2, float(np.max(np.abs(out))))
        for i in vi + zi:
            for j in zi:
                r2 = max(r2, float(np.max(np.abs(c[i, j]))))
        axiom_2 = AxiomCheck(bool(r2 <= tol), float(r2))

        r3 = max(
            (abs(g[i, j]) for i in vi for j in zi), default=0.0
        )
        axiom_3 = AxiomCheck(bool(r3 <= tol), float(r3))

        z_frame = self._subspace_orthonormal(zi)
        rng = np.random.default_rng(seed)
        test_zs = [row for row in z_frame]
        for _ in range(n_random):
            w = rng.standard_normal(len(zi)) @ z_frame
            nw = np.sqrt(w @ g @ w)
            if nw > 1e-12:
                test_zs.append(w / nw)
        r4 = 0.0
        ident = np.eye(len(vi))
        for zvec in test_zs:
            jm = self._j_matrix(zvec, vi)
            zz = float(zvec @ g @ zvec)
            r4 = max(r4, float(np.max(np.abs(jm @ jm + zz * ident))))
        axiom_4 = AxiomCheck(bool(r4 <= tol), float(r4))

        r5 = 0.0
        for i in vi:
            e = np.zeros(self.dim)
            e[i] = 1.0
            r5 = max(r5, self.norm(self.bracket_coeffs(a, e) - 0.5 * e))
        for i in zi:
            e = np.zeros(self.dim)
            e[i] = 1.0
            r5 = max(r5, self.norm(self.bracket_coeffs(a, e) - e))
        axiom_5 = AxiomCheck(bool(r5 <= tol), float(r5))

        checks = (axiom_1, axiom_2, axiom_3, axiom_4, axiom_5)
        return DamekRicciReport(
            *checks,
            j_squared_residual=float(r4),
            is_two_step_nilpotent=axiom_2.passed,
            overall=all(ch.passed for ch in checks),
        )

    def _subspace_orthonormal(self, indices) -> np.ndarray:
        """Gram-orthonormal rows spanning the given coordinate subspace."""
        g = self._gram
        rows = []
        for i in indices:
            v = np.zeros(self.dim)
            v[i] = 1.0
            for u in rows:
                v = v - (u @ g @ v) * u
            v = v / np.sqrt(v @ g @ v)
            rows.append(v)
        return np.stack(rows)


# -- JSON interchange -------------------------------------------------------


def load_algebra_json(source) -> MetricLieAlgebra:
    """Build a MetricLieAlgebra from its JSON description.

    Expected document:  {"dim": n, "labels": [...], "gram": n*n,
    "structure": [[i, j, k, value], ...]} with sparse entries restricted to
    i < j; antisymmetry is filled in.  ValueError names the first violated
    invariant (format first, then the algebra invariants).
    """
    if hasattr(source, "read"):
        doc = json.load(source)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be a JSON object")
    try:
        n = int(doc["dim"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("missing or invalid 'dim'") from None
    if n <= 0:
        raise ValueError(f"'dim' must be positive, got {n}")
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
        gram = np.array(doc["gram"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"'gram' must be a {n}*{n} matrix of numbers") from None
    if gram.shape != (n, n):
        raise ValueError(f"'gram' must be a {n}*{n} matrix")
    entries = doc.get("structure")
    if not isinstance(entries, list):
        raise ValueError("missing or invalid 'structure'")
    c = np.zeros((n, n, n))
    seen = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"structure entries must be [i, j, k, value], got {entry!r}")
        i, j, k, val = entry
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in (i, j, k)):
            raise ValueError(f"structure indices must be integers, got {entry!r}")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"structure value must be a number, got {entry!r}")
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"structure index out of range in {entry!r}")
        if i >= j:
            raise ValueError(f"structure entries must have i < j, got {entry!r}")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate structure entry for indices ({i}, {j}, {k})")
        seen.add((i, j, k))
        c[i, j, k] = float(val)
        c[j, i, k] = -float(val)
    return MetricLieAlgebra(c, gram, labels=labels)


def dump_algebra_json(alg: MetricLieAlgebra, path=None) -> dict:
    """Serialize an algebra to the JSON interchange form (sparse, i < j).

    Returns the document; if ``path`` is given the document is also written
    there with deterministic formatting.
    """
    n = alg.dim
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = alg.structure[i, j, k]
                if v != 0.0:
                    entries.append([i, j, k, float(v)])
    doc = {
        "dim": n,
        "labels": list(alg.labels) if alg.labels is not None else None,
        "structure": entries,
        "gram": [[float(x) for x in row] for row in alg.gram],
    }
    if doc["labels"] is None:
        del doc["labels"]
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return doc
