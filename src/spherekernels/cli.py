"""Command line surface.

One verb per task; results go to stdout as CSV (default) or JSON
(``--format json``), diagnostics to stderr.  Exit codes: 0 success,
1 domain error (bad kernel, invalid parameters, math domain), 2 usage.
Angles are radians.  The four verbs with angular inputs (``eval``,
``reconstruct``, ``localize`` and ``fractal``) take ``--degrees``, which
converts ``--theta``, ``--grid``, ``--c``, ``--theta-min`` and
``--theta-max``; the other verbs reject it as a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import apps, catalog, criteria, schoenberg, sphere
from .errors import SphereKernelsError

__all__ = ["main"]


def _fmt(x) -> str:
    return repr(float(x))


def _parse_grid(text: str, degrees: bool) -> np.ndarray:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise SphereKernelsError(f"malformed grid {text!r}: expected start:stop:count") from exc
    if count < 1:
        raise SphereKernelsError("grid count must be >= 1")
    grid = np.linspace(start, stop, count)
    return np.radians(grid) if degrees else grid


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _emit(table: list[dict], fmt: str) -> None:
    if fmt == "json":
        json.dump(table, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return
    if not table:
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=list(table[0].keys()))
    writer.writeheader()
    writer.writerows(table)


def _points_from_args(args) -> sphere.SpherePointSet:
    if getattr(args, "points", None):
        pts, _ = sphere.read_points(args.points)
        return pts
    return sphere.sample_points(args.dim, args.n_points, scheme=args.scheme, seed=args.seed)


def _cmd_list(args) -> None:
    _emit(catalog.list_families(), args.format)


def _cmd_eval(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    thetas = (
        np.array([_angle(args.theta, args.degrees)])
        if args.theta is not None
        else _parse_grid(args.grid, args.degrees)
    )
    values = catalog.evaluate(spec, thetas)
    _emit(
        [{"theta_rad": _fmt(t), "value": _fmt(v)} for t, v in zip(thetas, values)],
        args.format,
    )


def _sequence_for_args(args, spec) -> schoenberg.SchoenbergSequence:
    if args.dim == 1:
        return schoenberg.fourier_coeffs(spec, args.n)
    return schoenberg.gegenbauer_coeffs(spec, args.dim, args.n)


def _emit_sequence(seq: schoenberg.SchoenbergSequence, fmt: str) -> None:
    if fmt == "json":
        json.dump(
            {
                "d": seq.d,
                "n_max": seq.n_max,
                "quadrature_order": seq.quadrature_order,
                "source": seq.source,
                "coeffs": [float(b) for b in seq.coeffs],
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
        return
    buf = io.StringIO()
    schoenberg.to_csv(seq, buf)
    sys.stdout.write(buf.getvalue())


def _cmd_coeffs(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    _emit_sequence(_sequence_for_args(args, spec), args.format)


def _cmd_walk(args) -> None:
    if args.coeffs:
        seq = schoenberg.from_csv(args.coeffs)
    else:
        seq = _sequence_for_args(args, catalog.parse_kernel(args.kernel))
    target = args.to
    while seq.d < target:
        seq = schoenberg.walk_d_to_d2(seq)
    if seq.d != target:
        raise SphereKernelsError(
            f"cannot walk from d={args.dim if not args.coeffs else 'input'} to d={target}: "
            "walks step by +2 (1 -> 3 -> 5 ... or 2 -> 4 -> ...)"
        )
    _emit_sequence(seq, args.format)


def _cmd_member(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    verdict = schoenberg.membership(
        spec,
        args.dim,
        args.n,
        tol_fail=args.tol,
        tail_tol=args.tail_tol,
        strict=args.strict,
    )
    row = {
        "verdict": verdict.verdict,
        "dim": verdict.d,
        "n_max": verdict.n_max,
        "min_coeff": _fmt(verdict.min_coeff),
        "min_index": verdict.min_index,
        "tail_mass": _fmt(verdict.tail_mass),
        "witnesses": ";".join(f"{n}:{b:.3e}" for n, b in verdict.witnesses),
        "even_positive": verdict.strict_evidence.even_count,
        "odd_positive": verdict.strict_evidence.odd_count,
    }
    _emit([row], args.format)


def _cmd_criteria(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    if args.criterion == "polya_circle":
        report = criteria.polya_circle(spec)
    elif args.criterion == "polya_s3":
        report = criteria.polya_s3(spec)
    else:
        report = criteria.polya_2n1(spec, args.order)
    row = {
        "criterion": report.criterion,
        "satisfied": report.satisfied,
        "implied_class": report.implied_class or "-",
        "violations": ";".join(f"{v:.6g}" for v in report.violations),
        "grid_size": report.grid_size,
    }
    _emit([row], args.format)


def _cmd_gram(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    pts = _points_from_args(args)
    report = sphere.gram_report(spec, pts, tol=args.tol)
    row = {
        "n_points": report.n_points,
        "min_eigenvalue": _fmt(report.min_eigenvalue),
        "max_eigenvalue": _fmt(report.max_eigenvalue),
        "psd": report.psd,
        "tolerance_used": _fmt(report.tolerance_used),
    }
    _emit([row], args.format)


def _cmd_interp(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    nodes, values = sphere.read_points(args.points)
    if values is None:
        raise SphereKernelsError(f"point file {args.points} needs a trailing 'value' column")
    interp = apps.interpolate_fit(spec, nodes, values, ridge=args.ridge)
    if interp.jitter_used:
        print(f"jitter used: {interp.jitter_used:g}", file=sys.stderr)
    targets = sphere.read_points(args.eval_points)[0] if args.eval_points else nodes
    preds = apps.interpolate_eval(interp, targets.points)
    rows = []
    for p, v in zip(targets.points, np.atleast_1d(preds)):
        row = {f"x{i}": _fmt(c) for i, c in enumerate(p)}
        row["prediction"] = _fmt(v)
        rows.append(row)
    _emit(rows, args.format)


def _cmd_simulate(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    pts = _points_from_args(args)
    sample = apps.simulate(spec, pts, args.samples, seed=args.seed)
    if sample.jitter_used:
        print(f"jitter used: {sample.jitter_used:g}", file=sys.stderr)
    rows = []
    for i, draw in enumerate(sample.values):
        row = {"draw": i}
        row.update({f"v{j}": _fmt(v) for j, v in enumerate(draw)})
        rows.append(row)
    _emit(rows, args.format)


def _cmd_fractal(args) -> None:
    spec = catalog.parse_kernel(args.kernel)
    estimate = apps.estimate_fractal_index(
        spec,
        theta_min=_angle(args.theta_min, args.degrees),
        theta_max=_angle(args.theta_max, args.degrees),
        n_grid=args.n_grid,
    )
    theory = catalog.fractal_index_theoretical(spec)
    _emit(
        [
            {
                "estimate": _fmt(estimate),
                "theoretical": "-" if theory is None else _fmt(theory),
            }
        ],
        args.format,
    )


def _cmd_localize(args) -> None:
    c = _angle(args.c, args.degrees)
    grid = _parse_grid(args.grid, args.degrees) if args.grid else np.linspace(0.0, math.pi, 361)
    table = apps.localization_compare(c, grid)
    _emit(
        [
            {"theta_rad": _fmt(t), "psi1_chordal": _fmt(a), "psi2_great_circle": _fmt(b)}
            for t, a, b in table
        ],
        args.format,
    )


def _cmd_reconstruct(args) -> None:
    seq = schoenberg.from_csv(args.coeffs)
    thetas = (
        np.array([_angle(args.theta, args.degrees)])
        if args.theta is not None
        else _parse_grid(args.grid, args.degrees)
    )
    values = schoenberg.reconstruct(seq, thetas)
    _emit(
        [{"theta_rad": _fmt(t), "value": _fmt(v)} for t, v in zip(thetas, np.atleast_1d(values))],
        args.format,
    )


def _add_common(p: argparse.ArgumentParser, angles: bool = False) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if angles:
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")


def _add_pointset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", help="point CSV (lat_deg,lon_deg or x0..xd)")
    p.add_argument("--scheme", default="uniform_random",
                   choices=("uniform_random", "fibonacci_s2", "equator"))
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherekernels",
        description="Positive definite kernels on spheres: evaluation, "
        "coefficients, verdicts and applications.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("list", help="catalog of families and parameter ranges")
    _add_common(p)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("eval", help="evaluate a kernel at angles")
    p.add_argument("--kernel", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", type=float)
    g.add_argument("--grid", help="start:stop:count")
    _add_common(p, angles=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("coeffs", help="coefficient sequence on S^d")
    p.add_argument("--kernel", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("walk", help="dimension walk of a coefficient sequence")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--coeffs", help="sequence CSV produced by the coeffs verb")
    p.add_argument("--dim", type=int, default=1, help="source dimension when using --kernel")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--to", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("member", help="membership verdict on S^d")
    p.add_argument("--kernel", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6, help="negative-coefficient FAIL tolerance")
    p.add_argument("--tail-tol", type=float, default=1e-3)
    p.add_argument("--strict", action="store_true", help="also require strictness evidence")
    _add_common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("criteria", help="convexity-based sufficient conditions")
    p.add_argument("--kernel", required=True)
    p.add_argument(
        "--criterion", required=True, choices=("polya_circle", "polya_s3", "polya_2n1")
    )
    p.add_argument("--order", type=int, default=1, help="derivative order for polya_2n1")
    _add_common(p)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("gram", help="Gram matrix eigenvalue report")
    p.add_argument("--kernel", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_pointset_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("interp", help="spherical radial basis interpolation")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True, help="node CSV with a trailing value column")
    p.add_argument("--eval-points", help="CSV of evaluation points (default: the nodes)")
    p.add_argument("--ridge", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("simulate", help="Gaussian field draws on a point set")
    p.add_argument("--kernel", required=True)
    p.add_argument("--samples", type=int, default=10)
    _add_pointset_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fractal", help="fractal index estimate from the short-range decay")
    p.add_argument("--kernel", required=True)
    p.add_argument("--theta-min", type=float, default=1e-4)
    p.add_argument("--theta-max", type=float, default=1e-2)
    p.add_argument("--n-grid", type=int, default=20)
    _add_common(p, angles=True)
    p.set_defaults(func=_cmd_fractal)

    p = sub.add_parser("localize", help="chordal vs great-circle localization table")
    p.add_argument("--c", type=float, required=True, help="support scale in (0, pi]")
    p.add_argument("--grid", help="start:stop:count (default 0:pi:361)")
    _add_common(p, angles=True)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("reconstruct", help="evaluate a saved coefficient sequence")
    p.add_argument("--coeffs", required=True, help="sequence CSV produced by the coeffs verb")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", type=float)
    g.add_argument("--grid", help="start:stop:count")
    _add_common(p, angles=True)
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (SphereKernelsError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
