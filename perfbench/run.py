"""solvgeom benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there.  Each workload runs in fresh child interpreters with BLAS and
OpenMP pinned to one thread.  Set-up time is measured on several fresh
interpreters and reported as their median.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json.  Op timings are given in ``ref``
units, each op's wall time over the time of a fixed reference kernel run
beside it (reference.py), because the shared host's speed drifts by tens of
percent; the wall-clock figures are printed in the ``info`` line.
``--trace 1`` makes a separate run that alternates untraced and traced units
of the same ops and prints the per-layer metrics.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Rationale, predictions and the
layer-to-metric map are in design.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")  # generated inputs, removed after each run
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8          # fresh interpreters timed for setup_s; the measured child is one more
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_OPS = 10         # ops that must lie beyond the reported tail percentile
DEADLINE_S = 170.0        # the whole invocation, children included
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- child processes ----------------------------------------------------------


def launch(mode: str, workload: str, seed: int, seconds: float, inputs: str,
           deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker; return (set-up seconds, ready line, result line or None).

    A timer kills the worker at ``deadline``; the worker is always waited for.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--src", SRC, "--inputs", inputs]
    env = dict(os.environ, **THREAD_ENV)
    expired = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), expire)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if expired.is_set():
        raise BenchError(f"{workload} worker ({mode}) overran the time limit")
    if proc.returncode != 0 or not line:
        raise BenchError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(line), json.loads(lines[-1]) if lines else None


# -- metrics --------------------------------------------------------------------


def tail(latencies_ms: list[float], ceiling: float) -> tuple[float, float]:
    """Highest ladder percentile up to ``ceiling`` with MIN_TAIL_OPS ops beyond it.

    ``ceiling`` is fixed per workload in design.json, so runs of a workload
    report the same percentile; a slower program falls back down the ladder
    rather than report a percentile with fewer than ten ops beyond it.
    """
    ordered = sorted(latencies_ms)
    for pct in (p for p in TAIL_LADDER if p <= ceiling):
        value = _percentile(ordered, pct)
        if sum(1 for x in ordered if x > value) >= MIN_TAIL_OPS:
            return pct, value
    return 50.0, statistics.median(ordered)


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(result: dict, setups: list[float], ceiling: float) -> tuple[dict, dict]:
    """Timings in ``ref`` units (reference.py); the wall-clock figures go to info."""
    lat = [1e3 * s for s in result["latencies_s"]]
    scaled = reference.scale(result["starts_s"], result["latencies_s"], result["reference"])
    pct, tail_ref = tail(scaled, ceiling)
    ref_ms = [1e3 * d for _, d in result["reference"]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1e3 * len(scaled) / sum(scaled),
        "op_p50_ref": statistics.median(scaled),
        "op_tail_ref": tail_ref,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "success_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    info = {"timed_ops": len(lat), "tail_percentile": pct,
            "fail_ratio": result["failed"] / result["attempted"],
            "setup_samples_s": setups,
            "wall_clock": {"ops_per_s": len(lat) / result["wall_s"],
                           "op_p50_ms": statistics.median(lat),
                           "op_tail_ms": _percentile(sorted(lat), pct)},
            "reference": {"samples": len(ref_ms), "median_ms": statistics.median(ref_ms),
                          "min_ms": min(ref_ms), "max_ms": max(ref_ms)}}
    return values, info


def per_layer(workload: str, result: dict, import_ms: list[float],
              design: dict) -> tuple[dict, dict]:
    traced = result["traced"]
    ops, stats = traced["ops"], traced["stats"]
    op_s = stats[tracing.OP]["s"]
    values = {
        "setup.import_ms": statistics.median(import_ms),
        "trace.overhead_ratio": (len(result["latencies_s"]) / result["wall_s"])
                                / (ops / traced["wall_s"]),
        "cli.output_bytes": traced["output_bytes"] / ops,
    }
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    for span in tracing.TARGETS:
        st = stats.get(span, empty)
        work_name = tracing.WORK.get(span, (None,))[0]
        values[f"{span}.calls"] = st["calls"] / ops
        values[f"{span}.ms"] = 1e3 * st["s"] / ops
        values[f"{span}.self_ms"] = 1e3 * st["self_s"] / ops
        values[f"{span}.errors"] = st.get("errors", 0) / ops
        if work_name:
            values[f"{span}.{work_name}"] = st["work"] / ops
            values[f"{span}.{work_name}_per_s"] = st["work"] / st["s"] if st["s"] else 0.0
    missed = []
    for name, group in design["shares"].items():
        share = traced["covered_s"][name] / op_s
        values[f"share.{name}"] = share
        bounds = group["predict"].get(workload, {})
        if share < bounds.get("min", -math.inf) or share > bounds.get("max", math.inf):
            missed.append(f"share.{name}={share:.3f} outside {bounds}")
    zero = [span for span, users in design["reached_by"].items()
            if workload in users and stats.get(span, empty)["calls"] == 0]
    values["trace.zero_call_spans"] = len(zero)
    values["trace.predictions_missed"] = len(missed)
    return values, {"traced_ops": ops, "zero_call_spans": zero, "predictions_missed": missed}


# -- provenance -------------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of a .git directory at the checkout root, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def source_facts() -> dict:
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(dirpath, name), SRC).encode())
                digest.update(data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


# -- one workload -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, names: list[str],
                 design: dict, deadline: float) -> dict:
    """Returns {"correct", "attempted", "failed", "metrics", "info"} for one workload."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        inputs = os.path.join(workdir, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as fh:
            json.dump(workloads.write_inputs(workload, seed, workdir), fh)
        setups, import_ms = [], []

        def probe(timed: bool = True):
            setup_s, ready, _ = launch("setup", workload, seed, seconds, inputs, deadline)
            if timed:
                setups.append(setup_s)
                import_ms.append(ready["import_ms"])

        # The first launch is not timed: it may compile bytecode and fill the
        # page cache.  Probes run before and after the measured child, so the
        # setup_s median spans the whole run rather than one moment of it.
        probe(timed=False)
        for _ in range(SETUP_PROBES // 2):
            probe()
        mode = "trace" if trace else "run"
        setup_s, ready, result = launch(mode, workload, seed, seconds, inputs, deadline)
        setups.append(setup_s)
        import_ms.append(ready["import_ms"])
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only if no other run is using it
    if result is None:
        raise BenchError(f"{workload} worker printed no result")

    ceiling = design["workloads"][workload]["tail_percentile"]
    if trace:
        values, info = per_layer(workload, result, import_ms, design)
    else:
        values, info = end_to_end(result, setups, ceiling)
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    info.update({
        "workload": workload,
        "seed": seed,
        "ops_attempted": result["attempted"],
        "accuracy": result["accuracy"],
        "errors": result["errors"],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": THREAD_ENV,
        "git_revision": git_revision(),
        **source_facts(),
    })
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {n: values[n] for n in names}, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "solvgeom", "__init__.py")):
            raise BenchError(f"no solvgeom sources under {SRC}; run from a source checkout")
        bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        design = _load_json(os.path.join(HERE, "design.json"))
        specs = bench["per_layer"] if args.trace else bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in specs}
        chosen = workloads.NAMES if args.workload == "all" else (args.workload,)
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S * len(chosen)
        runs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), list(units),
                                design, deadline)
                for w in chosen}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for workload, run in runs.items():
        info = run["info"]
        for msg in info.pop("errors"):
            print(f"[{workload}] failed op: {msg}", file=sys.stderr)
        print(f"== {workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        for name, value in run["metrics"].items():
            print(f"{name:48s} {value:14.6g} {units[name]}")
        if "fail_ratio" in info:  # reported through success_ratio, which is never 0
            print(f"{'fail_ratio':48s} {info['fail_ratio']:14.6g} 1")
        print("info " + json.dumps(info, sort_keys=True))
    metrics = {}
    for workload, run in runs.items():
        prefix = f"{workload}." if len(runs) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": units[name]}
                        for name, value in run["metrics"].items()})
    final = {"correct": all(r["correct"] for r in runs.values()),
             "attempted": sum(r["attempted"] for r in runs.values()),
             "failed": sum(r["failed"] for r in runs.values()),
             "metrics": metrics}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
