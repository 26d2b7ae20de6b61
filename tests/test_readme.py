"""The README's Library example runs as written, and says what it computes."""

import math
import re
from pathlib import Path

from solvgeom import CurvatureReport, HypersurfaceModel, reference_plane_curvature

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert match, "the Library section does not open with a python block"
    return match.group(1)


def test_library_example_runs():
    names = {}
    exec(compile(_library_example(), str(README), "exec"), names)
    report, k, alg = names["report"], names["k"], names["alg"]
    assert isinstance(report, CurvatureReport) and report.alpha == math.pi / 4
    assert k > 0.0 and abs(k - reference_plane_curvature(math.pi / 4)) <= 1e-14
    # "alg above is HypersurfaceModel.from_angle(math.pi / 4).algebra"
    assert alg is HypersurfaceModel.from_angle(math.pi / 4).algebra
    assert alg.cheeger() == report.cheeger
