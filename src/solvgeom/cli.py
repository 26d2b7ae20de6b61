"""Command line interface.

Four subcommands:

* ``sweep``      curvature report over a grid of angles, CSV or JSON; it
                 samples nothing, and checks ``--samples`` and ``--seed``
                 without reading them
* ``verify``     self-check battery comparing the independent pipelines;
                 the curvature rows compare whole tensors and the Ricci row
                 whole forms, ``--samples`` feeds only the foliation row
* ``foliation``  unit-normal flow of a group point, leaf conjugation
* ``algebra``    generic operations on a metric Lie algebra (built in or
                 loaded from JSON)

Also runs as ``python -m solvgeom``.  Exit codes: 0 success, 1 a
verification or residual threshold failed (stderr then names the worst
angle, or the failing ``verify`` row, its worst tensor entry or sample and
the residual), 2 bad usage or invalid input.  Output is deterministic for
fixed arguments:
floats are formatted with explicit precision ('.12g' in CSV, '.17g' in
JSON) and verify's sampling is seeded; the sweep's output does not depend on
``--samples`` or ``--seed``.  No color or other terminal decoration is ever
emitted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .engine import _check_partition, dump_algebra_json, jacobi_residual, load_algebra_json
from .hypersurface import (
    CurvatureReport,
    _ambient_curvature_tensor,
    _at,
    _conjugates,
    _gauss_family,
    _validate_alpha,
    ambient_algebra,
    build_hypersurface_algebra,
    classify,
    foliation_residual_many,
    mean_curvature,
    ricci_extremes,
    shape_spectrum,
    volume_distortion,
)

# Largest --samples: verify's draw of samples // 10 group points and flow times
# stays at 6.4 MB; sweep checks the same bound but draws nothing.
MAX_SAMPLES = 10**6
# Largest --steps of sweep: its rows list, one 1.2 kB report dict per angle, stays
# near 120 MB.
MAX_STEPS = 10**5

SWEEP_COLUMNS = tuple(f.name for f in fields(CurvatureReport))
# The algebra flags that one op reads: that op needs them, and every other op refuses them.
_OP_FLAGS = {"ricci": ("--vector",), "dr-check": ("--v-indices", "--z-indices", "--a-index")}


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_text(value, indent: int = 0) -> str:
    """Serialize to JSON with '.17g' floats; json.dumps cannot format them."""
    pad, pad_in = " " * indent, " " * (indent + 2)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} has no JSON form")
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return _json_text({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{pad_in}{json.dumps(str(k))}: {_json_text(v, indent + 2)}"
            for k, v in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = (f"{pad_in}{_json_text(v, indent + 2)}" for v in seq)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _endpoint(args, flag: str, value: float) -> float:
    """An angle given on the command line, in radians and inside [0, pi/2]."""
    try:
        return _validate_alpha(math.radians(value) if args.degrees else value)
    except ValueError:
        bounds = "[0, 90] degrees" if args.degrees else "[0, pi/2]"
        raise ValueError(f"{flag} must lie in {bounds}, got {value!r}") from None


def _angles(args) -> np.ndarray:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    start = _endpoint(args, "--alpha-start", args.alpha_start)
    return np.linspace(start, _endpoint(args, "--alpha-end", args.alpha_end), args.steps)


def _check_samples(args) -> None:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")


def _cmd_sweep(args) -> int:
    _check_samples(args)  # and then unread: see the sweep parser
    angles = _angles(args)
    rows = [classify(alpha).as_row() for alpha in angles]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[col]) for col in SWEEP_COLUMNS])
        _emit(buf.getvalue(), args.output)
    else:
        _emit(_json_text(rows) + "\n", args.output)
    worst = max(rows, key=lambda row: row["cross_residual"])
    if worst["cross_residual"] <= args.tol:
        return 0
    print(
        f"sweep: FAIL: cross_residual {worst['cross_residual']:.3e} at alpha "
        f"{worst['alpha']!r} exceeds --tol {args.tol:g}",
        file=sys.stderr,
    )
    return 1


def _worst(residual: np.ndarray) -> tuple[float, str]:
    """The largest entry of a residual array and where it is: " at entry
    (i, j, k, l)" of a tensor, " at sample n" of a row of samples."""
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(residual)), residual.shape))
    where = f"entry {idx}" if residual.ndim > 1 else f"sample {idx[0]}"
    return float(residual[idx]), f" at {where}"


def _cmd_verify(args) -> int:
    _check_samples(args)
    alpha = _endpoint(args, "--alpha", args.alpha)
    alg = build_hypersurface_algebra(alpha)
    amb = ambient_algebra()
    s, c = math.sin(alpha), math.cos(alpha)

    r = alg._riemann @ alg.gram  # the Koszul <R(e_i, e_j) e_k, e_l>
    symmetries = np.maximum.reduce([
        np.abs(r + r.transpose(1, 0, 2, 3)),
        np.abs(r + r.transpose(0, 1, 3, 2)),
        np.abs(r - r.transpose(2, 3, 0, 1)),
        np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)),  # Bianchi
    ])
    half = math.sqrt(3.0) / 2.0
    shape_pred = np.sort(
        [half * c - s / 2, half * c - s / 2, -half * c - s / 2, -half * c - s / 2,
         -s, -s, 0.0]
    )
    shape_dev = float(np.max(np.abs(shape_spectrum(alpha) - shape_pred)))
    ric_ev = alg._ricci_spectrum
    lo, hi = ricci_extremes(alpha)
    dr = build_hypersurface_algebra(0.0).damek_ricci_check((0, 1, 2, 3), (4, 5), 6)
    # rows (Re x, Im x, Re y, Im y, Re z, Im z, t, s): a point and a flow time
    coords = np.random.default_rng(args.seed).standard_normal((max(args.samples // 10, 1), 8))
    xyz = coords[:, :6].view(complex)
    fol_dev = foliation_residual_many(alpha, xyz, coords[:, 6], coords[:, 7])

    # (name, residual, where a sampled or whole-tensor row is worst, or "")
    checks = [
        ("Jacobi identity", max(jacobi_residual(a.structure) for a in (alg, amb)), ""),
        ("curvature tensor symmetries", *_worst(symmetries)),
        ("Gauss vs Koszul Ricci",
         *_worst(np.abs(_at(alpha, _gauss_family().ricci) - alg._ricci_form))),
        ("Gauss vs Koszul sectional", *_worst(np.abs(_at(alpha, _gauss_family().tensor) - r))),
        ("ambient bracket vs Koszul curvature",
         *_worst(np.abs(_ambient_curvature_tensor() - amb._riemann @ amb.gram))),
        ("mean curvature trace identity", abs(mean_curvature(alpha) + 4.0 * s), ""),
        ("Cheeger closed form", abs(alg.cheeger() - 4.0 * c), ""),
        ("shape spectrum closed form", shape_dev, ""),
        ("Ricci extremes vs operator", max(abs(ric_ev[0] - lo), abs(ric_ev[-1] - hi)), ""),
        ("Heber vector = 4 H0",
         float(np.max(np.abs(amb.trace_form_vector() - 4.0 * np.eye(8)[6]))), ""),
        ("Damek-Ricci axioms at alpha=0", max(
            a.residual for a in (dr.axiom_1, dr.axiom_2, dr.axiom_3, dr.axiom_4, dr.axiom_5)
        ), ""),
        ("foliation matrix identity", *_worst(fol_dev)),
    ]
    passed = [dev <= args.tol for _, dev, _ in checks]
    if args.format == "json":
        payload = {
            "alpha": alpha,
            "tol": args.tol,
            "checks": [
                {"name": name, "residual": dev, "passed": ok}
                for (name, dev, _), ok in zip(checks, passed)
            ],
            "passed": all(passed),
        }
        _emit(_json_text(payload) + "\n", args.output)
    else:
        lines = [
            f"{name}: {'PASS' if ok else 'FAIL'} (residual {dev:.3e})"
            for (name, dev, _), ok in zip(checks, passed)
        ]
        lines.append("all checks passed" if all(passed) else "some checks FAILED")
        _emit("\n".join(lines) + "\n", args.output)
    for (name, dev, where), ok in zip(checks, passed):
        if not ok:
            print(f"verify: FAIL: {name} at alpha {alpha!r}: residual {dev:.3e}{where} "
                  f"exceeds --tol {args.tol:g}", file=sys.stderr)
    return 0 if all(passed) else 1


def _cmd_foliation(args) -> int:
    alpha = _endpoint(args, "--alpha", args.alpha)
    for flag in "xyzts":
        if not np.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag} must be finite, got {getattr(args, flag)!r}")
    xyz = np.array([args.x, args.y, args.z])
    residual = float(foliation_residual_many(alpha, [xyz], args.t, args.s)[0])
    conj, volume = _conjugates(alpha, xyz, args.s), volume_distortion(alpha, args.s)
    # a group point: unipotent entries, axis and normal coordinates (0 on the leaf)
    point = lambda xyz, s: {**dict(zip("xyz", map(complex, xyz))), "t": args.t,
                            "alpha": alpha, "s": s}
    payload = {
        "point": point(xyz, 0.0),
        "flow_time": args.s,
        "flow_point": point(xyz, 0.0 + args.s),  # q exp(s T); 0.0 + -0.0 is 0.0
        "leaf_conjugate": point(conj, 0.0),
        "volume_distortion": volume,
        "matrix_identity_residual": residual,
    }
    _emit(_json_text(payload) + "\n", args.output)
    return 0


def _parse_list(text: str, kind, noun: str) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated {noun}, got {text!r}") from exc


def _cmd_algebra(args) -> int:
    for op, flags in _OP_FLAGS.items():
        given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
        if op == args.op and given != list(flags):
            raise ValueError(f"op '{op}' needs {', '.join(flags)}")
        if op != args.op and given:
            raise ValueError(f"{given[0]} is read only by op '{op}', not by '{args.op}'")
    if args.tol is None:  # the default of the ops that read it
        args.tol = 1e-8
    elif args.op not in ("einstein", "dr-check"):
        raise ValueError(f"--tol is read only by ops 'einstein' and 'dr-check', not by '{args.op}'")
    if args.op == "einstein" and args.tol <= 0:
        raise ValueError(f"--tol must be positive for op 'einstein', got {args.tol!r}")
    if args.file is not None:
        alg = load_algebra_json(args.file)
    elif args.ambient:
        alg = ambient_algebra()
    else:
        alg = build_hypersurface_algebra(_endpoint(args, "--alpha", args.alpha))
    if args.op == "ricci":
        vec = np.array(_parse_list(args.vector, float, "floats"))
        if len(vec) != alg.dim:
            raise ValueError(f"--vector must have {alg.dim} coefficients, got {len(vec)}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"--vector must be finite, got {args.vector!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            payload = {"dim": alg.dim, "vector": list(vec), "ricci": alg.ricci(vec)}
        if not math.isfinite(payload["ricci"]):
            raise ValueError(f"--vector {args.vector!r} overflows the Ricci form")
    elif args.op == "cheeger":
        payload = {"dim": alg.dim, "cheeger": alg.cheeger()}
    elif args.op == "einstein":
        flat, const = alg.einstein_check(args.tol)
        payload = {"dim": alg.dim, "einstein": flat, "constant": const, "tol": args.tol}
    elif args.op == "dr-check":
        v, z = (_parse_list(text, int, "integers") for text in (args.v_indices, args.z_indices))
        _check_partition(alg.dim, (("--v-indices", v), ("--z-indices", z),
                                   ("--a-index", [args.a_index])))
        report = alg.damek_ricci_check(v, z, args.a_index, tol=args.tol)
        axioms = [getattr(report, f"axiom_{n}") for n in range(1, 6)]
        payload = {
            "dim": alg.dim,
            **{f"axiom_{n}": {"passed": chk.passed, "residual": chk.residual}
               for n, chk in enumerate(axioms, 1)},
            "j_squared_residual": report.axiom_4.residual,
            "is_two_step_nilpotent": report.axiom_2.passed,
            "overall": report.overall,
        }
    else:  # dump
        doc = dump_algebra_json(alg)
        _emit(json.dumps(doc, indent=1) + "\n", args.output)
        return 0
    _emit(_json_text(payload) + "\n", args.output)
    return 0


def _tolerance(text: str) -> float:
    """The --tol value: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The --seed value: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, samples: int | None = None,
                tol: bool = True) -> None:
    if samples is not None:  # a sampling subcommand: the count and its seed
        parser.add_argument("--samples", type=int, default=samples,
                            help=f"random sample count (default {samples})")
        parser.add_argument("--seed", type=_seed, default=0,
                            help="random seed (default 0)")
    if tol:  # a subcommand that compares a residual with a tolerance
        parser.add_argument("--tol", type=_tolerance, default=1e-8,
                            help="residual tolerance, finite and nonnegative (default 1e-8)")
    parser.add_argument("--degrees", action="store_true",
                        help="interpret angles in degrees")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to a file instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="solvgeom",
        description="Curvature of the homogeneous hypersurface family in the "
                    "rank-two solvable model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "sweep", help="curvature report over a grid of angles",
        description="cross_residual is the largest Gauss vs closed-form Ricci gap over the "
                    "whole unit sphere, so the sweep samples nothing: --samples and --seed "
                    "are checked, then ignored; existing callers (the benchmark's sweep "
                    "workloads) still pass them.")
    p.add_argument("--alpha-start", type=float, default=0.0)
    p.add_argument("--alpha-end", type=float, default=math.pi / 2.0)
    p.add_argument("--steps", type=int, default=100,
                   help=f"grid size, at most {MAX_STEPS}; 1 evaluates --alpha-start only")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--samples", type=int, default=1000,
                   help=f"ignored: 0 to {MAX_SAMPLES} accepted (see above)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="ignored: a nonnegative integer accepted (see above)")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="cross-pipeline self checks at one angle")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p, samples=1000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("foliation", help="unit-normal flow of a group point")
    p.add_argument("--x", type=complex, default=0j,
                   help="first unipotent coordinate, e.g. '1+2j'")
    p.add_argument("--y", type=complex, default=0j)
    p.add_argument("--z", type=complex, default=0j)
    p.add_argument("--t", type=float, default=0.0, help="axis coordinate")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--s", type=float, default=1.0, help="flow time")
    _add_common(p, tol=False)
    p.set_defaults(func=_cmd_foliation)

    p = sub.add_parser("algebra", help="operations on a metric Lie algebra")
    p.add_argument("op", choices=("ricci", "cheeger", "einstein", "dr-check", "dump"))
    src = p.add_mutually_exclusive_group()
    src.add_argument("--file", default=None, metavar="PATH",
                     help="load the algebra from JSON")
    src.add_argument("--alpha", type=float, default=0.0,
                     help="use the hypersurface algebra at this angle (default)")
    src.add_argument("--ambient", action="store_true",
                     help="use the eight-dimensional ambient algebra")
    p.add_argument("--vector", default=None,
                   help="comma-separated coefficients (op ricci)")
    p.add_argument("--v-indices", default=None,
                   help="comma-separated indices of v (op dr-check)")
    p.add_argument("--z-indices", default=None,
                   help="comma-separated indices of z (op dr-check)")
    p.add_argument("--a-index", type=int, default=None,
                   help="index of the abelian direction (op dr-check)")
    _add_common(p)
    p.set_defaults(func=_cmd_algebra, tol=None)  # None when not given: see _cmd_algebra
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
