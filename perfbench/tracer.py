"""Span tracing around solvgeom's public functions, installed from outside.

The program itself carries no instrumentation, so the traced run replaces
each traced function with a wrapper at every name that binds it: the
defining module, every solvgeom module that imported it by name, the
package namespace, and function default arguments (``from_matrix_basis``
binds ``inner=inner_solvable`` when it is defined).  Spans are kept in
memory while the ops run and summarised once at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from types import FunctionType

import numpy as np

# Span name -> "module:Class.attr" or "module:function" inside solvgeom.
TARGETS = {
    "matrices.bracket": "matrices:bracket",
    "matrices.inner_solvable": "matrices:inner_solvable",
    "engine.from_matrix_basis": "engine:MetricLieAlgebra.from_matrix_basis",
    "engine.cheeger": "engine:MetricLieAlgebra.cheeger",
    "engine.ricci_matrix": "engine:MetricLieAlgebra.ricci_matrix",
    "engine.einstein_check": "engine:MetricLieAlgebra.einstein_check",
    "engine.damek_ricci_check": "engine:MetricLieAlgebra.damek_ricci_check",
    "engine.ricci": "engine:MetricLieAlgebra.ricci",
    "engine.sectional": "engine:MetricLieAlgebra.sectional",
    "engine.curvature_inner": "engine:MetricLieAlgebra.curvature_inner",
    "engine.load_algebra_json": "engine:load_algebra_json",
    "hypersurface.from_angle": "hypersurface:HypersurfaceModel.from_angle",
    "hypersurface.build_hypersurface_algebra": "hypersurface:build_hypersurface_algebra",
    "hypersurface.classify": "hypersurface:classify",
    "hypersurface.gauss_sectional": "hypersurface:gauss_sectional",
    "hypersurface.ricci_gauss_many": "hypersurface:ricci_gauss_many",
    "hypersurface.ambient_curvature": "hypersurface:ambient_curvature",
    "hypersurface.nonpositivity_scan": "hypersurface:nonpositivity_scan",
    "hypersurface.zero_curvature_search": "hypersurface:zero_curvature_search",
    "cli.main": "cli:main",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counted per call: span name -> (stat name, function of the call's arguments).
WORK = {
    "hypersurface.ricci_gauss_many": (
        "rows", lambda a, k: int(np.atleast_2d(_arg(a, k, 1, "coeffs")).shape[0])),
    "hypersurface.nonpositivity_scan": (
        "planes", lambda a, k: int(_arg(a, k, 1, "samples"))),
}

OP = "op"


class Tracer:
    """Records spans (name, start, end, parent, work) while enabled.

    Every span descends, through ``parent``, from the root span of the
    benchmark op that caused it.

    Spans live in flat typed arrays rather than one object each, so a long
    traced run (hundreds of thousands of spans) does not load the garbage
    collector with one tracked object per span.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = [OP, *TARGETS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("q")
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str, work: int) -> int:
        idx = len(self.name)
        self.name.append(self._name_id[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span."""
        idx = self._open(OP, 0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            except ValueError:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever solvgeom refers to it."""
        replaced = {}  # id(original function) -> (original, wrapper)
        for name, where in TARGETS.items():
            mod_name, _, path = where.partition(":")
            owner = importlib.import_module(f"solvgeom.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = self.wrap(name, raw.__func__)
                replaced[id(raw.__func__)] = (raw.__func__, wrapped)
                setattr(owner, attr, classmethod(wrapped))
            else:
                wrapped = self.wrap(name, raw)
                replaced[id(raw)] = (raw, wrapped)
                setattr(owner, attr, wrapped)

        def swap(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "solvgeom" or name.startswith("solvgeom."))]
        functions = [orig for orig, _ in replaced.values()]
        for mod in modules:
            functions.extend(_functions(mod))
            for attr, value in list(vars(mod).items()):
                if swap(value) is not value:
                    setattr(mod, attr, swap(value))
        for fn in functions:
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(d) for d in fn.__defaults__)

    def _spans(self):
        names = self.names
        for i in range(len(self.name)):
            yield i, names[self.name[i]], self.end[i] - self.start[i], self.parent[i]

    def summary(self) -> dict:
        """Per-span totals: calls, busy seconds, self seconds, work, errors."""
        stats: dict[str, dict] = {}
        child_time = [0.0] * len(self.name)
        for _i, _name, dur, parent in self._spans():
            if parent >= 0:
                child_time[parent] += dur
        for i, name, dur, _parent in self._spans():
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child_time[i]
            st["work"] += self.work[i]
        for name, count in self.errors.items():
            stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            stats[name]["errors"] = count
        return stats

    def covered_seconds(self, names) -> float:
        """Time inside spans named in ``names`` that have no such ancestor."""
        names = set(names)
        inside = [False] * len(self.name)
        total = 0.0
        for i, name, dur, parent in self._spans():
            outer = parent >= 0 and inside[parent]
            inside[i] = outer or name in names
            if name in names and not outer:
                total += dur
        return total


def _functions(mod):
    """Plain functions defined in a module, including methods of its classes."""
    for value in vars(mod).values():
        if isinstance(value, FunctionType):
            yield value
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            for member in vars(value).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, FunctionType):
                    yield member
