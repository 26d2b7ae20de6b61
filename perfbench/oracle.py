"""Correctness oracle for benchmark ops, written from the paper's closed forms.

Nothing here imports solvgeom: the closed forms, the basis matrices and the
structure constants are restated from PAPER.md so that a change to the
program cannot also change what it is checked against.  The one exception
is the zero-curvature plane, which has no closed form: the worker re-checks
it through the Koszul engine, a pipeline independent of the Gauss-equation
search that found it.

Every check returns the worst absolute deviation it saw (for the accuracy
record) and raises ``OracleError`` when a tolerance is broken.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-9                 # closed-form agreement, absolute (values are O(1))
CROSS_RESIDUAL_TOL = 1e-8  # the CLI's own default --tol
REGIME_GUARD = 1e-6        # rows this close to pi/3 may report any regime
SQRT3 = math.sqrt(3.0)
THIRD = math.pi / 3.0

SWEEP_COLUMNS = (
    "alpha", "mean_curvature", "cheeger", "ricci_min", "ricci_max",
    "k_sigma", "regime", "minimal", "einstein", "horosphere_range",
    "cross_residual",
)


class OracleError(Exception):
    """An op's output disagrees with the closed forms."""


def _close(name: str, got: float, want: float, tol: float = TOL) -> float:
    dev = abs(float(got) - float(want))
    if not dev <= tol:  # also catches NaN
        raise OracleError(f"{name}: got {got!r}, closed form {want!r} (deviation {dev:.3e})")
    return dev


# -- closed forms (PAPER.md) ---------------------------------------------------


def ricci_coefficients(alpha: float) -> tuple[float, float, float, float]:
    """Ricci of unit X = -3 + 4 sin a (k_a|x_a|^2 + k_b|x_b|^2 + k_c|x_c|^2 + 0 t^2)."""
    s = math.sin(alpha)
    return math.sin(alpha - THIRD), math.sin(alpha + THIRD), s, 0.0


def ricci_extremes(alpha: float) -> tuple[float, float]:
    coeffs = ricci_coefficients(alpha)
    s = math.sin(alpha)
    return -3.0 + 4.0 * s * min(coeffs), -3.0 + 4.0 * s * max(coeffs)


def ricci_eigenvalues(alpha: float) -> np.ndarray:
    """Ricci eigenvalues over (E12, iE12, E23, iE23, E13, iE13, H)."""
    ka, kb, kc, kt = ricci_coefficients(alpha)
    s = math.sin(alpha)
    per_axis = [ka, ka, kb, kb, kc, kc, kt]
    return np.array([-3.0 + 4.0 * s * k for k in per_axis])


def k_sigma(alpha: float) -> float:
    s, c = math.sin(alpha), math.cos(alpha)
    return 4.0 / (3.0 * SQRT3) * s * c + s * s / 9.0


# -- algebras from their matrix bases -------------------------------------------


def _unit(j: int, k: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[j, k] = 1.0
    return m


_H0 = np.diag([0.5, 0.0, -0.5]).astype(complex)
_H1 = (np.diag([1.0, -2.0, 1.0]) / (2.0 * SQRT3)).astype(complex)
_UPPER = np.triu(np.ones((3, 3), dtype=bool), 1)


def _basis(alpha: float | None) -> np.ndarray:
    """Orthonormal basis (E12, iE12, E23, iE23, E13, iE13, ...) as matrices.

    ``alpha`` None gives the ambient basis ending in H0, H1; otherwise the
    hypersurface basis ending in H(alpha) = cos a H0 + sin a H1.
    """
    e12, e23, e13 = _unit(0, 1), _unit(1, 2), _unit(0, 2)
    nil = [e12, 1j * e12, e23, 1j * e23, e13, 1j * e13]
    if alpha is None:
        diag = [_H0, _H1]
    else:
        diag = [math.cos(alpha) * _H0 + math.sin(alpha) * _H1]
    return np.stack(nil + diag)


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Re tr(U1 U2^*) + 2 tr(D1 D2) on upper triangular traceless matrices."""
    return float(np.real(np.sum(x[_UPPER] * np.conj(y[_UPPER])))
                 + 2.0 * np.sum(np.real(np.diagonal(x)) * np.real(np.diagonal(y))))


def structure_constants(alpha: float | None) -> np.ndarray:
    """c[i, j, k] of [e_i, e_j] = sum_k c[i, j, k] e_k in the orthonormal basis."""
    b = _basis(alpha)
    n = len(b)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            br = b[i] @ b[j] - b[j] @ b[i]
            c[i, j] = [_inner(br, b[k]) for k in range(n)]
    return c


def rebased_algebra(alpha: float | None, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """Algebra JSON document in a random well-conditioned basis, and the change.

    The new basis is f_a = sum_i P[a, i] e_i with P = Q1 diag(d) Q2, Q1 and
    Q2 random orthogonal and d in [0.7, 1.4], so cond(P) <= 2.  The metric
    is the same (isometric re-basing): the Gram matrix becomes P P^T.
    """
    c = structure_constants(alpha)
    n = c.shape[0]
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = q1 @ np.diag(rng.uniform(0.7, 1.4, n)) @ q2
    c_new = np.einsum("ai,bj,ijk,kc->abc", p, p, c, np.linalg.inv(p))
    gram = p @ p.T
    gram = 0.5 * (gram + gram.T)
    doc = {
        "dim": n,
        "structure": [
            [a, b, k, float(c_new[a, b, k])]
            for a in range(n) for b in range(a + 1, n) for k in range(n)
        ],
        "gram": gram.tolist(),
    }
    return doc, p


def ricci_form(alpha: float | None, x: np.ndarray) -> float:
    """Ric(X, X) for X with orthonormal-basis coordinates x (not unit)."""
    norm_sq = float(x @ x)
    if alpha is None:
        return -3.0 * norm_sq
    ka, kb, kc, _ = ricci_coefficients(alpha)
    sq = x**2
    return -3.0 * norm_sq + 4.0 * math.sin(alpha) * (
        ka * (sq[0] + sq[1]) + kb * (sq[2] + sq[3]) + kc * (sq[4] + sq[5])
    )


def einstein_constant(alpha: float | None) -> float:
    return -3.0 if alpha is None else float(np.mean(ricci_eigenvalues(alpha)))


# -- per-op checks ---------------------------------------------------------------


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if text not in ("true", "false"):
        raise OracleError(f"expected true/false, got {text!r}")
    return text == "true"


def check_sweep(out: str, fmt: str, start: float, end: float, steps: int) -> dict:
    """Check every sweep row against the closed forms.

    Returns {"oracle": worst closed-form deviation, "cross_residual": worst
    cross-pipeline residual the program reported}.
    """
    if fmt == "csv":
        lines = out.splitlines()
        if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
            raise OracleError("sweep CSV header differs from the documented columns")
        rows = list(csv.DictReader(io.StringIO(out)))
    else:
        rows = json.loads(out)
        if any(list(row) != list(SWEEP_COLUMNS) for row in rows):
            raise OracleError("sweep JSON keys differ from the documented columns")
    if len(rows) != steps:
        raise OracleError(f"expected {steps} sweep rows, got {len(rows)}")
    grid = np.linspace(start, end, steps) if steps > 1 else np.array([start])
    worst = worst_cross = 0.0
    for want_alpha, row in zip(grid, rows):
        a = float(row["alpha"])
        s, c = math.sin(a), math.cos(a)
        lo, hi = ricci_extremes(a)
        worst = max(
            worst,
            _close("alpha", a, want_alpha),
            _close(f"mean_curvature at alpha={a}", row["mean_curvature"], -4.0 * s),
            _close(f"cheeger at alpha={a}", row["cheeger"], 4.0 * c),
            _close(f"k_sigma at alpha={a}", row["k_sigma"], k_sigma(a)),
            _close(f"ricci_min at alpha={a}", row["ricci_min"], lo),
            _close(f"ricci_max at alpha={a}", row["ricci_max"], hi),
        )
        if abs(a - THIRD) > REGIME_GUARD:
            below = a < THIRD
            want = "NegativeRicci" if below else "MixedRicci"
            if row["regime"] != want:
                raise OracleError(f"regime at alpha={a}: got {row['regime']!r}, want {want!r}")
            if _parse_bool(row["horosphere_range"]) == below:
                raise OracleError(f"horosphere_range flag wrong at alpha={a}")
        if a > REGIME_GUARD and (_parse_bool(row["minimal"]) or _parse_bool(row["einstein"])):
            raise OracleError(f"alpha={a} > 0 reported minimal or Einstein")
        res = float(row["cross_residual"])
        if not 0.0 <= res <= CROSS_RESIDUAL_TOL:
            raise OracleError(f"cross_residual {res!r} at alpha={a} exceeds {CROSS_RESIDUAL_TOL}")
        worst_cross = max(worst_cross, res)
    return {"oracle": worst, "cross_residual": worst_cross}


def check_verify(out: str) -> dict:
    """Every check line reads PASS; returns the worst reported residual."""
    lines = out.splitlines()
    if not lines or lines[-1] != "all checks passed":
        raise OracleError(f"verify did not pass: {lines[-1] if lines else 'no output'!r}")
    worst = 0.0
    checks = lines[:-1]
    if len(checks) != 12:
        raise OracleError(f"verify printed {len(checks)} checks, expected 12")
    for line in checks:
        name, _, verdict = line.rpartition(": ")
        if not verdict.startswith("PASS (residual ") or not verdict.endswith(")"):
            raise OracleError(f"verify check {name!r} did not pass: {verdict!r}")
        worst = max(worst, float(verdict[len("PASS (residual "):-1]))
    return {"verify_residual": worst}


def check_einstein(out: str, alpha: float | None, dim: int) -> dict:
    """Einstein constant equals the mean closed-form Ricci eigenvalue."""
    doc = json.loads(out)
    if doc["dim"] != dim:
        raise OracleError(f"dim {doc['dim']} != {dim}")
    want = einstein_constant(alpha)
    dev = _close("Einstein constant", doc["constant"], want)
    eig = ricci_eigenvalues(0.0 if alpha is None else alpha)
    spread = 0.0 if alpha is None else float(np.max(np.abs(eig - np.mean(eig))))
    # The flag is only checked where round-off cannot move the spread across tol.
    if spread <= doc["tol"] / 2 or spread >= 2 * doc["tol"]:
        if doc["einstein"] != (spread <= doc["tol"]):
            raise OracleError(f"einstein flag {doc['einstein']} but Ricci spread {spread:.3e}")
    return {"oracle": dev}


def check_ricci(out: str, alpha: float | None, p: np.ndarray, vec: np.ndarray) -> dict:
    """Ric(v, v) equals the paper's quadratic form of the re-based vector."""
    doc = json.loads(out)
    want = ricci_form(alpha, p.T @ vec)
    dev = _close("Ricci of re-based vector", doc["ricci"], want, TOL * max(1.0, abs(want)))
    return {"oracle": dev}


def check_dr(out: str) -> dict:
    doc = json.loads(out)
    if doc["overall"] is not True:
        raise OracleError("dr-check at alpha=0 did not report overall true")
    worst = max(doc[f"axiom_{i}"]["residual"] for i in range(1, 6))
    return {"oracle": float(worst)}


def check_scan(max_curvature: float, samples: int, want_samples: int, alpha: float) -> dict:
    """Scan maximum is at least k_sigma, and at most ~0 at alpha = 0."""
    if samples != want_samples:
        raise OracleError(f"scan reports {samples} samples, asked for {want_samples}")
    ks = k_sigma(alpha)
    if not max_curvature >= ks - TOL:
        raise OracleError(f"scan maximum {max_curvature!r} below k_sigma {ks!r} at alpha={alpha}")
    if alpha == 0.0 and not max_curvature <= 1e-12:
        raise OracleError(f"scan maximum {max_curvature!r} positive at alpha=0")
    return {"oracle": max(0.0, ks - max_curvature)}


def check_zero_plane(value: float, koszul: float, target: float) -> dict:
    """The returned plane is flat to ``target`` through the Koszul engine too."""
    dev = _close("Koszul |K| of the returned plane", abs(koszul), value)
    if not abs(koszul) <= target + TOL:
        raise OracleError(f"returned plane has Koszul |K| = {abs(koszul):.3e} > {target}")
    return {"oracle": dev}
