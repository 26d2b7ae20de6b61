"""A fixed reference kernel that tracks the host's speed while ops run.

The benchmark shares a few cores of a busy host, whose speed drifts by tens
of percent over seconds to minutes.  The worker runs this kernel between
ops, about every ``EVERY_S`` of op time, and run.py divides each op's wall
time by the kernel's time measured next to it.  The kernel never touches
solvgeom, so a change to the program moves the ratio and a change in host
speed mostly cancels out of it.

Host contention slows some kinds of work more than others, so there are
three kernels and each workload is scaled by the one closest to its own work
(``workloads.REFERENCE``).  ``stacked`` takes nested commutators of stacked
3x3 matrices, as the Gauss batch kernel does.  ``batched`` mixes a Python-level loop, batched
einsums over 7-dimensional tensors, a mid-size matrix product and calls on
small arrays; it takes about 15 ms on a 2-vCPU Xeon VM.  ``small`` builds
8x8 matrices one entry at a time, takes their commutators and traces and
fills a dict, as per-angle algebra construction does; it takes about 8 ms.
The unit ``ref`` is one run of the workload's kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.1       # op time between two reference samples

_rng = np.random.default_rng(0)
_TENSOR = _rng.standard_normal((7, 7, 7))
_ROWS = _rng.standard_normal((400, 7))
_SQUARE = _rng.standard_normal((120, 120))
_MATRICES = [_rng.standard_normal((8, 8)) for _ in range(8)]
_SHIFTED = _MATRICES[0] + 8.0 * np.eye(8)
_STACK_A = _rng.standard_normal((14000, 3, 3))
_STACK_B = _rng.standard_normal((14000, 3, 3))


def batched() -> float:
    """One fixed unit of batched numpy work; returns a checksum."""
    acc = 0.0
    for i in range(10000):
        acc += (i * 1.0001) % 7.3
    for _ in range(30):
        out = np.einsum("ijk,nj,nk->ni", _TENSOR, _ROWS, _ROWS)
        acc += float(out.sum()) + float(np.linalg.norm(out, axis=1)[0])
    for _ in range(10):
        acc += float((_SQUARE @ _SQUARE)[0, 0])
    x = np.zeros(7)
    for _ in range(750):
        x = np.sin(x + 0.1) * 0.5
    return acc + float(x[0])


def small() -> float:
    """One fixed unit of small-matrix work; returns a checksum."""
    acc = 0.0
    for _ in range(12):
        for i in range(8):
            m = np.zeros((8, 8))
            m[i, (i + 1) % 8] = 1.0
            m[i, i] = 0.5
            for b in _MATRICES:
                acc += float(np.trace(m @ b - b @ m))
        acc += float(np.linalg.solve(_SHIFTED, np.ones(8))[0])
    table: dict[tuple[int, int], float] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + 0.5 * i
    return acc + len(table)


def stacked() -> float:
    """Nested commutators of 14000 stacked 3x3 matrices; returns a checksum."""
    acc = 0.0
    for _ in range(2):
        b = _STACK_A @ _STACK_B - _STACK_B @ _STACK_A
        nested = b @ _STACK_B - _STACK_B @ b
        acc += float(np.einsum("nij,nji->n", nested, _STACK_A).sum())
    return acc


KERNELS = {"batched": batched, "small": small, "stacked": stacked}


class Sampler:
    """Samples the reference kernel between ops, about every EVERY_S of op time."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._due = 0.0

    def warm(self) -> None:
        for _ in range(2):
            self.kernel()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def after_op(self, op_s: float) -> None:
        self._due += op_s
        if self._due >= EVERY_S:
            self._due = 0.0
            self.sample()


def scale(starts: list[float], seconds: list[float],
          samples: list[tuple[float, float]]) -> list[float]:
    """Each op's time in ``ref`` units: its seconds over the mean of the two
    reference samples taken before it and the two taken after it."""
    times = [t for t, _ in samples]
    durs = [d for _, d in samples]
    out = []
    for start, dur in zip(starts, seconds):
        i = bisect.bisect(times, start)
        near = durs[max(0, i - 2):i + 2]
        out.append(dur / statistics.fmean(near))
    return out
