"""The benchmark's workloads: op streams and input files made from a seed.

An op is a plain dict.  ``cli`` ops carry the argv handed to
``solvgeom.cli.main``; ``scan`` and ``zero`` ops name a library call.  The
``check`` entry says how the oracle judges the op's output.  Why each
workload exists is recorded in design.json.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

HALF_PI = math.pi / 2.0
NAMES = ("sweep-dense", "sweep-grid", "checks")

# Ops per unit: a timed phase ends on a whole unit, so every run of a
# workload has the same op mixture (csv/json pairs; two checks rounds, one
# with a hypersurface file and one with an ambient file).
UNIT = {"sweep-dense": 1, "sweep-grid": 2, "checks": 14}

# Reference kernel (reference.py) that op times are scaled by, the one
# closest to the workload's dominant work.  With the mixed batched kernel,
# sweep-grid's scaled p50 spread 0.10 over ten seeds and sweep-dense's 0.14.
REFERENCE = {"sweep-dense": "stacked", "sweep-grid": "small", "checks": "batched"}

FILE_POOL = 8        # re-based algebra files per run, hypersurface and ambient alternating
SCAN_SAMPLES = 20000
ZERO_TARGET = 1e-8   # zero_curvature_search's default target


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload), stream])


def write_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the algebra files a workload reads; return their descriptions."""
    if workload != "checks":
        return []
    rng = _rng(workload, seed, 0)
    files = []
    for i in range(FILE_POOL):
        alpha = None if i % 2 else float(rng.uniform(0.1, HALF_PI))
        doc, p = oracle.rebased_algebra(alpha, rng)
        path = os.path.join(workdir, f"algebra{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        files.append({"path": path, "alpha": alpha, "dim": doc["dim"], "p": p.tolist()})
    return files


def _interval(rng: np.random.Generator, lo_width: float, hi_width: float) -> tuple[float, float]:
    width = float(rng.uniform(lo_width, hi_width))
    start = float(rng.uniform(0.0, HALF_PI - width))
    return start, min(start + width, HALF_PI)


def _sweep(start: float, end: float, steps: int, samples: int, seed: int, fmt: str) -> dict:
    argv = ["sweep", "--alpha-start", repr(start), "--alpha-end", repr(end),
            "--steps", str(steps), "--samples", str(samples), "--seed", str(seed),
            "--format", fmt]
    return {"kind": "cli", "argv": argv,
            "check": {"type": "sweep", "fmt": fmt, "start": start, "end": end, "steps": steps}}


def op_stream(workload: str, seed: int, files: list[dict]):
    """Endless, deterministic op sequence of a workload."""
    rng = _rng(workload, seed, 1)
    i = 0
    while True:
        if workload == "sweep-dense":
            start, end = _interval(rng, 0.005, 0.05)
            yield _sweep(start, end, 2, 2000, int(rng.integers(2**31)), "csv")
        elif workload == "sweep-grid":
            start, end = _interval(rng, 0.1, HALF_PI)
            yield _sweep(start, end, 25, 4, int(rng.integers(2**31)), ("csv", "json")[i % 2])
        else:
            yield from _checks_round(rng, files[i % len(files)], zero_angle_scan=i % 2 == 1)
        i += 1


def _checks_round(rng: np.random.Generator, file: dict, zero_angle_scan: bool):
    # The round opens with the one op whose cost no seed changes, so the
    # warm-up op (and with it setup_s) is the same for every seed.
    yield {"kind": "cli", "argv": ["algebra", "einstein", "--ambient"],
           "check": {"type": "einstein", "alpha": None, "dim": 8}}
    alpha = float(rng.uniform(0.0, HALF_PI))
    yield {"kind": "cli", "argv": ["verify", "--alpha", repr(alpha), "--samples", "200"],
           "check": {"type": "verify"}}
    yield {"kind": "cli",
           "argv": ["algebra", "dr-check", "--alpha", "0", "--v-indices", "0,1,2,3",
                    "--z-indices", "4,5", "--a-index", "6"],
           "check": {"type": "dr"}}
    yield {"kind": "cli", "argv": ["algebra", "einstein", "--file", file["path"]],
           "check": {"type": "einstein", "alpha": file["alpha"], "dim": file["dim"]}}
    vec = rng.standard_normal(file["dim"])
    yield {"kind": "cli",
           # "--vector=..." keeps argparse from reading a leading minus as an option.
           "argv": ["algebra", "ricci", "--file", file["path"],
                    "--vector=" + ",".join(repr(float(x)) for x in vec)],
           "check": {"type": "ricci", "alpha": file["alpha"], "p": file["p"],
                     "vector": vec.tolist()}}
    scan_alpha = 0.0 if zero_angle_scan else float(rng.uniform(0.0, HALF_PI))
    yield {"kind": "scan", "alpha": scan_alpha, "samples": SCAN_SAMPLES,
           "seed": int(rng.integers(2**31)), "check": {"type": "scan"}}
    yield {"kind": "zero", "alpha": float(rng.uniform(0.0, HALF_PI)),
           "seed": int(rng.integers(2**31)), "check": {"type": "zero"}}
