"""Every name the benchmark tracer wraps still exists in solvgeom.

``perfbench/tracer.py`` wraps functions named as ``module:Class.attr``
strings; a renamed or deleted function would only surface when a traced
benchmark run fails.  The table is read from the source with ``ast``, so
nothing under ``perfbench/`` is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


@pytest.mark.parametrize("span, where", sorted(_targets().items()))
def test_target_resolves(span, where):
    mod_name, _, path = where.partition(":")
    owner = importlib.import_module(f"solvgeom.{mod_name}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{where} is not defined where the tracer looks"
    assert callable(getattr(owner, attr))
