"""One workload in one fresh interpreter: the benchmark's single closed-loop client.

Run by run.py, never by hand.  The worker imports solvgeom from the
checkout's ``src/``, runs one untimed warm-up op and prints a ``ready``
line (run.py times set-up up to that line).  In ``setup`` mode it stops
there.  Otherwise it runs ops back to back, each starting when the previous
one returns, for ``--seconds`` seconds, with the reference
kernel timed between ops (reference.py), then checks every output against the
oracle and prints one JSON result line.  In ``trace`` mode it installs the
tracer and alternates untraced and traced units of the same op sequence, so
the per-layer numbers and the tracing overhead come from one run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import oracle
import reference
import tracer as tracing
import workloads


def _import_solvgeom(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import solvgeom
    import solvgeom.cli
    import_ms = 1e3 * (time.perf_counter() - t0)
    where = os.path.realpath(os.path.dirname(solvgeom.__file__))
    if where != os.path.realpath(os.path.join(src, "solvgeom")):
        raise SystemExit(f"solvgeom was imported from {where}, not from {src}")
    return solvgeom, import_ms


class Runner:
    """Executes ops through solvgeom's public entry points and judges them."""

    def __init__(self, solvgeom):
        self.sg = solvgeom

    def execute(self, op: dict):
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.sg.cli.main(op["argv"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if op["kind"] == "scan":
            return self.sg.nonpositivity_scan(op["alpha"], op["samples"], op["seed"])
        return self.sg.zero_curvature_search(op["alpha"], seed=op["seed"])

    def judge(self, op: dict, result) -> dict:
        """Residuals of one op; raises OracleError (or another error) on a wrong result."""
        check = op["check"]
        kind = check["type"]
        if op["kind"] == "cli":
            if result["rc"] != 0:
                raise oracle.OracleError(
                    f"exit code {result['rc']}: {result['stderr'].strip()[:200]}")
            text = result["stdout"]
        if kind == "sweep":
            return oracle.check_sweep(text, check["fmt"], check["start"], check["end"],
                                      check["steps"])
        if kind == "verify":
            return oracle.check_verify(text)
        if kind == "einstein":
            return oracle.check_einstein(text, check["alpha"], check["dim"])
        if kind == "ricci":
            return oracle.check_ricci(text, check["alpha"], np.array(check["p"]),
                                      np.array(check["vector"]))
        if kind == "dr":
            return oracle.check_dr(text)
        if kind == "scan":
            return oracle.check_scan(result.max_curvature, result.samples, op["samples"],
                                     op["alpha"])
        value, (u, v) = result
        koszul = self.sg.build_hypersurface_algebra(op["alpha"]).sectional(
            u.coeffs(), v.coeffs())
        return oracle.check_zero_plane(value, koszul, workloads.ZERO_TARGET)


def run_unit(runner: Runner, ops, unit: int, records: list, tracer=None,
             sampler: reference.Sampler | None = None) -> float:
    """Run ``unit`` ops back to back, appending (op, result, error, start, seconds).

    Returns the ops' total time; reference samples taken between ops are
    not part of it.
    """
    busy = 0.0
    for _ in range(unit):
        op = next(ops)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = runner.execute(op)
            else:
                result = tracer.run_op(runner.execute, op)
            error = None
        except Exception as exc:  # a failed op is counted, never aborts the run
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append((op, result, error, t0, seconds))
        busy += seconds
        if sampler is not None:
            sampler.after_op(seconds)
    return busy


def run_plain(runner: Runner, ops, seconds: float, unit: int, kernel) -> dict:
    """Closed loop for ``seconds``, ending on a whole unit of ops.

    The reference kernel runs between ops, so each op can be scaled to the
    host's speed at the moment it ran.  ``wall_s`` counts op time only.
    """
    sampler = reference.Sampler(kernel)
    sampler.warm()
    sampler.sample()
    records, wall = [], 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        wall += run_unit(runner, ops, unit, records, sampler=sampler)
    sampler.sample()
    return {"records": records, "wall_s": wall, "reference": sampler.samples}


def run_paired(runner: Runner, make_ops, seconds: float, unit: int, tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced units of the same op sequence for ``seconds``.

    Pairing unit by unit keeps drift in machine speed out of the tracing
    overhead ratio.
    """
    plain_ops, traced_ops = make_ops(), make_ops()
    plain = {"records": [], "wall_s": 0.0, "reference": []}
    traced = {"records": [], "wall_s": 0.0}
    while plain["wall_s"] + traced["wall_s"] < seconds:
        plain["wall_s"] += run_unit(runner, plain_ops, unit, plain["records"])
        tracer.enabled = True
        traced["wall_s"] += run_unit(runner, traced_ops, unit, traced["records"], tracer)
        tracer.enabled = False
    return plain, traced


def judge_all(runner: Runner, records) -> tuple[int, list[str], dict]:
    failed, messages, accuracy = 0, [], {}
    for op, result, error, _, _ in records:
        if error is None:
            try:
                for key, value in runner.judge(op, result).items():
                    accuracy[key] = max(accuracy.get(key, 0.0), value)
            except Exception as exc:  # oracle failures and malformed output alike
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{op.get('argv', op['kind'])}: {error}")
    return failed, messages, accuracy


def trace_summary(tracer, design: dict, phase: dict) -> dict:
    records = phase["records"]
    out_bytes = sum(len(r["stdout"]) for op, r, err, _, _ in records
                    if op["kind"] == "cli" and err is None)
    return {
        "ops": len(records),
        "wall_s": phase["wall_s"],
        "stats": tracer.summary(),
        "covered_s": {name: tracer.covered_seconds(group["spans"])
                      for name, group in design["shares"].items()},
        "output_bytes": out_bytes,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs", required=True, help="JSON list of input file descriptions")
    args = ap.parse_args()

    solvgeom, import_ms = _import_solvgeom(args.src)
    with open(args.inputs, encoding="utf-8") as fh:
        files = json.load(fh)
    runner = Runner(solvgeom)
    unit = workloads.UNIT[args.workload]

    def ops():
        return workloads.op_stream(args.workload, args.seed, files)

    runner.execute(next(ops()))  # untimed warm-up
    print(json.dumps({"ready": True, "import_ms": import_ms}), flush=True)
    if args.mode == "setup":
        return 0

    traced = None
    if args.mode == "run":
        kernel = reference.KERNELS[workloads.REFERENCE[args.workload]]
        plain = run_plain(runner, ops(), args.seconds, unit, kernel)
        phases = [plain]
    else:
        with open(os.path.join(os.path.dirname(__file__), "design.json"), encoding="utf-8") as fh:
            design = json.load(fh)
        tracer = tracing.Tracer()
        tracer.install()
        plain, traced_phase = run_paired(runner, ops, args.seconds, unit, tracer)
        traced = trace_summary(tracer, design, traced_phase)
        phases = [plain, traced_phase]

    records = [rec for phase in phases for rec in phase["records"]]
    failed, messages, accuracy = judge_all(runner, records)
    result = {
        "import_ms": import_ms,
        "starts_s": [rec[3] for rec in plain["records"]],
        "latencies_s": [rec[4] for rec in plain["records"]],
        "wall_s": plain["wall_s"],
        "reference": plain["reference"],
        "attempted": len(records),
        "failed": failed,
        "errors": messages,
        "accuracy": accuracy,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "traced": traced,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
