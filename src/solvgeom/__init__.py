"""Left-invariant geometry of a rank-two solvable model and its hypersurfaces.

The package has three layers: ``matrices`` holds the Lie bracket and the
bilinear forms on complex matrices, plain ndarrays taken one at a time or
as stacks; ``engine`` computes connection and curvature tensors of an
arbitrary metric Lie algebra from structure constants; and
``hypersurface`` specialises both to the homogeneous hypersurface family
of the model, where every curvature quantity has an independent closed
form to test against.  ``cli`` exposes the sweep, verify, foliation and
algebra subcommands.
"""

from .engine import (
    AxiomCheck,
    DamekRicciReport,
    MetricLieAlgebra,
    dump_algebra_json,
    load_algebra_json,
)
from .hypersurface import (
    AMBIENT_BASIS,
    AMBIENT_LABELS,
    E12,
    E13,
    E23,
    H0,
    H1,
    HYPERSURFACE_LABELS,
    CurvatureReport,
    HypersurfaceModel,
    PlaneScan,
    Regime,
    TangentVector,
    ambient_algebra,
    ambient_curvature,
    build_hypersurface_algebra,
    classify,
    gauss_sectional,
    mean_curvature,
    nonpositivity_scan,
    reference_plane,
    reference_plane_curvature,
    ricci_extremes,
    ricci_polynomial,
    shape_spectrum,
    volume_distortion,
    zero_curvature_search,
)
from .matrices import (
    bracket,
    hermitian_part,
    inner_ambient,
    inner_solvable,
    solvable_parts,
)

__version__ = "0.1.0"

__all__ = [
    "bracket", "inner_ambient", "inner_solvable", "hermitian_part", "solvable_parts",
    "MetricLieAlgebra", "AxiomCheck", "DamekRicciReport",
    "load_algebra_json", "dump_algebra_json",
    "E12", "E23", "E13", "H0", "H1",
    "AMBIENT_BASIS", "AMBIENT_LABELS", "HYPERSURFACE_LABELS",
    "ambient_algebra", "ambient_curvature",
    "HypersurfaceModel", "TangentVector", "Regime", "CurvatureReport",
    "PlaneScan",
    "shape_spectrum", "mean_curvature",
    "gauss_sectional", "ricci_polynomial", "ricci_extremes",
    "reference_plane", "reference_plane_curvature", "classify",
    "volume_distortion",
    "build_hypersurface_algebra",
    "nonpositivity_scan", "zero_curvature_search",
    "__version__",
]
