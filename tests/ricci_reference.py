"""Sampled references for the Ricci curvature, kept for the tests.

The sweep certifies its cross-pipeline residual on the whole unit sphere and
samples nothing; these helpers are the sampled form it replaced, which the
tests still compare the Gauss pipeline and the sweep against.
"""

import numpy as np

from solvgeom.hypersurface import _ricci_sines, _validate_alpha


def random_unit_tangents(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 7) array of unit coefficient vectors, standard Gaussian direction."""
    v = rng.standard_normal((n, 7))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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
