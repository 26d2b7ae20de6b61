"""Command line interface.

Four subcommands:

* ``sweep``      curvature report over a grid of angles, CSV or JSON
* ``verify``     self-check battery comparing the independent pipelines
* ``foliation``  unit-normal flow of a group point, leaf conjugation
* ``algebra``    generic operations on a metric Lie algebra (built in or
                 loaded from JSON)

Exit codes: 0 success, 1 a verification or residual threshold failed,
2 bad usage or invalid input.  Output is deterministic for fixed arguments:
floats are formatted with explicit precision ('.12g' in CSV, '.17g' in
JSON) and sampling is seeded.  No color or other terminal decoration is
ever emitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .engine import MetricLieAlgebra, dump_algebra_json, jacobi_residual, load_algebra_json
from .hypersurface import (
    AMBIENT_BASIS,
    GroupElement,
    HypersurfaceModel,
    TangentVector,
    ambient_algebra,
    ambient_curvature,
    build_hypersurface_algebra,
    classify,
    flow_point,
    foliation_residual,
    gauss_sectional,
    leaf_conjugate,
    mean_curvature,
    random_orthonormal_pairs,
    random_unit_tangents,
    ricci_closed_many,
    ricci_extremes,
    ricci_gauss_many,
    shape_spectrum,
    volume_distortion,
)
from .matrices import SquareComplexMatrix

SWEEP_COLUMNS = (
    "alpha", "mean_curvature", "cheeger", "ricci_min", "ricci_max",
    "k_sigma", "regime", "minimal", "einstein", "horosphere_range",
    "cross_residual",
)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_text(value, indent: int = 0) -> str:
    """Serialize to JSON with '.17g' floats; json.dumps cannot format them."""
    pad, pad_in = " " * indent, " " * (indent + 2)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} has no JSON form")
        return format(value, ".17g")
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


def _angles(args) -> np.ndarray:
    start, end = args.alpha_start, args.alpha_end
    if args.degrees:
        start, end = math.radians(start), math.radians(end)
    if args.steps < 1:
        raise ValueError(f"steps must be at least 1, got {args.steps}")
    if args.steps == 1:
        return np.array([start])
    return np.linspace(start, end, args.steps)


def _cmd_sweep(args) -> int:
    rows = [
        classify(alpha, samples=args.samples, seed=args.seed).as_row()
        for alpha in _angles(args)
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[col]) for col in SWEEP_COLUMNS])
        _emit(buf.getvalue(), args.output)
    else:
        _emit(_json_text(rows) + "\n", args.output)
    worst = max((row["cross_residual"] for row in rows), default=0.0)
    return 0 if worst <= args.tol else 1


def _curvature_symmetry_residual(alg: MetricLieAlgebra, rng, n: int) -> float:
    worst = 0.0
    for _ in range(n):
        x, y, z, w = rng.standard_normal((4, alg.dim))
        r = alg.curvature_inner(x, y, z, w)
        worst = max(
            worst,
            abs(r + alg.curvature_inner(y, x, z, w)),
            abs(r + alg.curvature_inner(x, y, w, z)),
            abs(r - alg.curvature_inner(z, w, x, y)),
            abs(
                alg.inner(
                    alg.curvature(x, y, z) + alg.curvature(y, z, x) + alg.curvature(z, x, y),
                    w,
                )
            ),
        )
    return worst


def _cmd_verify(args) -> int:
    alpha = args.alpha
    if args.degrees:
        alpha = math.radians(alpha)
    model = HypersurfaceModel.from_angle(alpha)
    alg = build_hypersurface_algebra(alpha)
    amb = ambient_algebra()
    rng = np.random.default_rng(args.seed)
    s, c = math.sin(alpha), math.cos(alpha)
    n_small = max(args.samples // 10, 1)

    vecs = random_unit_tangents(rng, max(args.samples, 1))
    ricci_dev = float(
        np.max(np.abs(ricci_gauss_many(model, vecs) - ricci_closed_many(alpha, vecs)))
    )
    pu, pv = random_orthonormal_pairs(rng, n_small)
    sec_dev = max(
        abs(
            gauss_sectional(
                model, TangentVector.from_coeffs(u), TangentVector.from_coeffs(v)
            )
            - alg.sectional(u, v)
        )
        for u, v in zip(pu, pv)
    )
    amb_dev = 0.0
    for _ in range(n_small):
        x, y = rng.standard_normal((2, 8))
        mx = SquareComplexMatrix(
            np.einsum("k,kab->ab", x, np.stack([m.entries for m in AMBIENT_BASIS]))
        )
        my = SquareComplexMatrix(
            np.einsum("k,kab->ab", y, np.stack([m.entries for m in AMBIENT_BASIS]))
        )
        amb_dev = max(
            amb_dev, abs(amb.curvature_inner(x, y, y, x) - ambient_curvature(mx, my))
        )
    half = math.sqrt(3.0) / 2.0
    shape_pred = np.sort(
        [half * c - s / 2, half * c - s / 2, -half * c - s / 2, -half * c - s / 2,
         -s, -s, 0.0]
    )
    shape_dev = float(np.max(np.abs(shape_spectrum(model) - shape_pred)))
    ric_ev = np.linalg.eigvalsh(alg.ricci_matrix())
    lo, hi = ricci_extremes(alpha)

    heber = np.zeros(8)
    heber[6] = 4.0
    dr = build_hypersurface_algebra(0.0).damek_ricci_check(
        (0, 1, 2, 3), (4, 5), 6, seed=args.seed
    )
    dr_dev = max(
        dr.axiom_1.residual, dr.axiom_2.residual, dr.axiom_3.residual,
        dr.axiom_4.residual, dr.axiom_5.residual,
    )
    fol_dev = 0.0
    for _ in range(n_small):
        coords = rng.standard_normal(8)
        q = GroupElement(
            x=complex(coords[0], coords[1]), y=complex(coords[2], coords[3]),
            z=complex(coords[4], coords[5]), t=coords[6], alpha=alpha,
        )
        fol_dev = max(fol_dev, foliation_residual(q, float(coords[7])))

    checks = [
        ("Jacobi identity", max(jacobi_residual(a.structure) for a in (alg, amb))),
        ("curvature tensor symmetries", _curvature_symmetry_residual(alg, rng, n_small)),
        ("Gauss vs Koszul Ricci", ricci_dev),
        ("Gauss vs Koszul sectional", sec_dev),
        ("ambient bracket vs Koszul curvature", amb_dev),
        ("mean curvature trace identity", abs(mean_curvature(model) + 4.0 * s)),
        ("Cheeger closed form", abs(alg.cheeger() - 4.0 * c)),
        ("shape spectrum closed form", shape_dev),
        ("Ricci extremes vs operator", max(abs(ric_ev[0] - lo), abs(ric_ev[-1] - hi))),
        ("Heber vector = 4 H0", float(np.max(np.abs(amb.trace_form_vector() - heber)))),
        ("Damek-Ricci axioms at alpha=0", dr_dev),
        ("foliation matrix identity", fol_dev),
    ]
    all_ok = all(dev <= args.tol for _, dev in checks)
    if args.format == "json":
        payload = {
            "alpha": alpha,
            "tol": args.tol,
            "checks": [
                {"name": name, "residual": dev, "passed": dev <= args.tol}
                for name, dev in checks
            ],
            "passed": all_ok,
        }
        _emit(_json_text(payload) + "\n", args.output)
    else:
        lines = [
            f"{name}: {'PASS' if dev <= args.tol else 'FAIL'} (residual {dev:.3e})"
            for name, dev in checks
        ]
        lines.append("all checks passed" if all_ok else "some checks FAILED")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_ok else 1


def _group_dict(q: GroupElement) -> dict:
    return {"x": q.x, "y": q.y, "z": q.z, "t": q.t, "alpha": q.alpha, "s": q.s}


def _cmd_foliation(args) -> int:
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    q = GroupElement(x=args.x, y=args.y, z=args.z, t=args.t, alpha=alpha)
    moved = flow_point(q, args.s)
    payload = {
        "point": _group_dict(q),
        "flow_time": args.s,
        "flow_point": _group_dict(moved),
        "leaf_conjugate": _group_dict(leaf_conjugate(q, args.s)),
        "volume_distortion": volume_distortion(alpha, args.s),
        "matrix_identity_residual": foliation_residual(q, args.s),
    }
    _emit(_json_text(payload) + "\n", args.output)
    return 0


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _load_algebra(args) -> MetricLieAlgebra:
    if args.file is not None:
        return load_algebra_json(args.file)
    if args.ambient:
        return ambient_algebra()
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    return build_hypersurface_algebra(alpha)


def _cmd_algebra(args) -> int:
    alg = _load_algebra(args)
    if args.op == "ricci":
        if args.vector is None:
            raise ValueError("op 'ricci' needs --vector")
        vec = _parse_floats(args.vector)
        payload = {"dim": alg.dim, "vector": list(vec), "ricci": alg.ricci(vec)}
    elif args.op == "cheeger":
        payload = {"dim": alg.dim, "cheeger": alg.cheeger()}
    elif args.op == "einstein":
        flat, const = alg.einstein_check(args.tol)
        payload = {"dim": alg.dim, "einstein": flat, "constant": const, "tol": args.tol}
    elif args.op == "dr-check":
        if args.v_indices is None or args.z_indices is None or args.a_index is None:
            raise ValueError("op 'dr-check' needs --v-indices, --z-indices, --a-index")
        report = alg.damek_ricci_check(
            _parse_ints(args.v_indices), _parse_ints(args.z_indices), args.a_index,
            tol=args.tol, seed=args.seed,
        )
        payload = {
            "dim": alg.dim,
            **{
                name: {"passed": chk.passed, "residual": chk.residual}
                for name, chk in (
                    ("axiom_1", report.axiom_1), ("axiom_2", report.axiom_2),
                    ("axiom_3", report.axiom_3), ("axiom_4", report.axiom_4),
                    ("axiom_5", report.axiom_5),
                )
            },
            "j_squared_residual": report.j_squared_residual,
            "is_two_step_nilpotent": report.is_two_step_nilpotent,
            "overall": report.overall,
        }
    else:  # dump
        doc = dump_algebra_json(alg)
        _emit(json.dumps(doc, indent=1) + "\n", args.output)
        return 0
    _emit(_json_text(payload) + "\n", args.output)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, samples: int) -> None:
    parser.add_argument("--samples", type=int, default=samples,
                        help=f"random sample count (default {samples})")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="residual tolerance (default 1e-8)")
    parser.add_argument("--degrees", action="store_true",
                        help="interpret angles in degrees")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvgeom",
        description="Curvature of the homogeneous hypersurface family in the "
                    "rank-two solvable model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="curvature report over a grid of angles")
    p.add_argument("--alpha-start", type=float, default=0.0)
    p.add_argument("--alpha-end", type=float, default=math.pi / 2.0)
    p.add_argument("--steps", type=int, default=100,
                   help="grid size; 1 evaluates --alpha-start only")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, samples=1000)
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
    _add_common(p, samples=0)
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
    _add_common(p, samples=100)
    p.set_defaults(func=_cmd_algebra)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
