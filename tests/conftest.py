import json
import math

import numpy as np
import pytest

from solvgeom import ambient_algebra, build_hypersurface_algebra, dump_algebra_json


@pytest.fixture(scope="session")
def grid():
    return np.linspace(0.0, math.pi / 2.0, 100)


@pytest.fixture(scope="session")
def ambient():
    return ambient_algebra()


@pytest.fixture(scope="session")
def algebra_files(tmp_path_factory):
    """Example algebra JSON files, regenerated from the basis each run."""
    root = tmp_path_factory.mktemp("algebras")
    s8 = root / "s8.json"
    s7 = root / "s7_alpha0.json"
    for path, alg in ((s8, ambient_algebra()), (s7, build_hypersurface_algebra(0.0))):
        path.write_text(json.dumps(dump_algebra_json(alg), indent=1) + "\n", encoding="utf-8")
    return {"s8": s8, "s7_alpha0": s7}
