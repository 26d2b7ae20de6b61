"""Every name the benchmark reads still exists in solvgeom.

``perfbench/tracer.py`` wraps functions named as ``module:Class.attr``
strings, and ``perfbench/worker.py`` calls the package through
``self.sg.<name>``; a renamed or deleted function would only surface when a
benchmark run fails.  Both are read from the source with ``ast``, so nothing
under ``perfbench/`` is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import solvgeom

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def _targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


def _is_self_sg(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "sg"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _worker_paths() -> list:
    """Each ``self.sg.a.b`` chain of worker.py as the path ``a.b``."""
    paths = set()
    for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8"))):
        chain = []
        while isinstance(node, ast.Attribute) and not _is_self_sg(node):
            chain.append(node.attr)
            node = node.value
        if chain and _is_self_sg(node):
            paths.add(".".join(reversed(chain)))
    # a prefix such as 'cli' of 'cli.main' is checked as part of the longer path
    return sorted(p for p in paths if not any(q.startswith(p + ".") for q in paths))


@pytest.mark.parametrize("span, where", sorted(_targets().items()))
def test_target_resolves(span, where):
    mod_name, _, path = where.partition(":")
    owner = importlib.import_module(f"solvgeom.{mod_name}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{where} is not defined where the tracer looks"
    assert callable(getattr(owner, attr))


def test_worker_reads_some_names():
    assert {"cli.main", "nonpositivity_scan", "zero_curvature_search",
            "build_hypersurface_algebra"} <= set(_worker_paths())


@pytest.mark.parametrize("path", _worker_paths())
def test_worker_name_resolves(path):
    importlib.import_module("solvgeom.cli")  # worker.py imports it before the run
    owner = solvgeom
    for part in path.split("."):
        assert hasattr(owner, part), f"solvgeom.{path}, which worker.py reads, does not resolve"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.7])
def test_zero_search_planes_are_what_the_worker_judges(alpha):
    # worker.py recomputes K of the returned plane through the Koszul engine
    value, (u, v) = solvgeom.zero_curvature_search(alpha, seed=3)
    koszul = solvgeom.build_hypersurface_algebra(alpha).sectional(u.coeffs(), v.coeffs())
    assert abs(abs(koszul) - value) <= 1e-12
