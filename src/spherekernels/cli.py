"""Command line surface.

One verb per task; results go to stdout as CSV (default) or JSON
(``--format json``), diagnostics to stderr.  Exit codes: 0 success,
1 domain error (bad kernel, invalid parameters, math domain), 2 usage.
Angles are radians.  The four verbs with angular inputs (``eval``,
``reconstruct``, ``localize`` and ``fractal``) take ``--degrees``, which
converts ``--theta``, ``--grid``, ``--c``, ``--theta-min`` and
``--theta-max``; the other verbs reject it as a usage error.

Every verb is declared by one builder, ``_verb``, which puts ``--kernel``,
``--format`` and ``--degrees`` around the verb's own flags.  ``main``
parses ``--kernel`` once, before dispatch, and hands the spec to the
verb; the parse runs inside the same error handler as the verb, so a bad
kernel still exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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


def _thetas(args) -> np.ndarray:
    """The angles of ``--theta`` or ``--grid``, in radians."""
    if args.theta is not None:
        return np.array([_angle(args.theta, args.degrees)])
    return _parse_grid(args.grid, args.degrees)


def _column(values) -> list[str]:
    """``_fmt`` of every entry of a 1-d array, in one pass."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _emit(header: list[str], rows, fmt: str) -> None:
    """Write a table given by its header and an iterable of rows.

    CSV is the excel dialect with a header line; JSON is a list of one
    object per row.  An empty table writes nothing as CSV and ``[]`` as JSON.
    """
    rows = list(rows)
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return
    if not rows:
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _emit_row(row: dict, fmt: str) -> None:
    _emit(list(row), [list(row.values())], fmt)


def _note_jitter(jitter_used: float) -> None:
    if jitter_used:
        print(f"jitter used: {jitter_used:g}", file=sys.stderr)


def _points_from_args(args) -> sphere.SpherePointSet:
    if args.points:
        pts, _ = sphere.read_points(args.points)
        return pts
    return sphere.sample_points(args.dim, args.n_points, scheme=args.scheme, seed=args.seed)


def _cmd_list(args, spec) -> None:
    families = catalog.list_families()
    _emit(list(families[0]), [list(row.values()) for row in families], args.format)


def _emit_values(thetas: np.ndarray, values: np.ndarray, fmt: str) -> None:
    _emit(["theta_rad", "value"], zip(_column(thetas), _column(values)), fmt)


def _cmd_eval(args, spec) -> None:
    thetas = _thetas(args)
    _emit_values(thetas, catalog.evaluate(spec, thetas), args.format)


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
    schoenberg.to_csv(seq, sys.stdout)


def _cmd_coeffs(args, spec) -> None:
    _emit_sequence(_sequence_for_args(args, spec), args.format)


def _cmd_walk(args, spec) -> None:
    seq = schoenberg.from_csv(args.coeffs) if spec is None else _sequence_for_args(args, spec)
    source_d = seq.d
    target = args.to
    while seq.d < target:
        seq = schoenberg.walk_d_to_d2(seq)
    if seq.d != target:
        raise SphereKernelsError(
            f"cannot walk from d={source_d} to d={target}: "
            "walks step by +2 (1 -> 3 -> 5 ... or 2 -> 4 -> ...)"
        )
    _emit_sequence(seq, args.format)


def _cmd_member(args, spec) -> None:
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
    _emit_row(row, args.format)


def _cmd_criteria(args, spec) -> None:
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
    _emit_row(row, args.format)


def _cmd_gram(args, spec) -> None:
    pts = _points_from_args(args)
    report = sphere.gram_report(spec, pts, tol=args.tol)
    row = {
        "n_points": report.n_points,
        "min_eigenvalue": _fmt(report.min_eigenvalue),
        "max_eigenvalue": _fmt(report.max_eigenvalue),
        "psd": report.psd,
        "tolerance_used": _fmt(report.tolerance_used),
    }
    _emit_row(row, args.format)


def _cmd_interp(args, spec) -> None:
    nodes, values = sphere.read_points(args.points)
    if values is None:
        raise SphereKernelsError(f"point file {args.points} needs a trailing 'value' column")
    interp = apps.interpolate_fit(spec, nodes, values, ridge=args.ridge)
    _note_jitter(interp.jitter_used)
    targets = nodes.points
    if args.eval_points:  # targets may repeat, so they are not a SpherePointSet
        raw, _ = sphere._read_point_table(args.eval_points)
        targets = raw / sphere._unit_norms(raw)[:, None]
    preds = apps.interpolate_eval(interp, targets)
    header = [f"x{i}" for i in range(targets.shape[1])] + ["prediction"]
    _emit(header, zip(*map(_column, targets.T), _column(preds)), args.format)


def _cmd_simulate(args, spec) -> None:
    pts = _points_from_args(args)
    sample = apps.simulate(spec, pts, args.samples, seed=args.seed)
    _note_jitter(sample.jitter_used)
    header = ["draw"] + [f"v{j}" for j in range(pts.n_points)]
    draws = range(sample.values.shape[0])
    _emit(header, zip(draws, *map(_column, sample.values.T)), args.format)


def _cmd_fractal(args, spec) -> None:
    estimate = apps.estimate_fractal_index(
        spec,
        theta_min=_angle(args.theta_min, args.degrees),
        theta_max=_angle(args.theta_max, args.degrees),
        n_grid=args.n_grid,
    )
    theory = catalog.fractal_index_theoretical(spec)
    row = {"estimate": _fmt(estimate), "theoretical": "-" if theory is None else _fmt(theory)}
    _emit_row(row, args.format)


def _cmd_localize(args, spec) -> None:
    c = _angle(args.c, args.degrees)
    grid = _parse_grid(args.grid, args.degrees) if args.grid else np.linspace(0.0, math.pi, 361)
    table = apps.localization_compare(c, grid)
    header = ["theta_rad", "psi1_chordal", "psi2_great_circle"]
    _emit(header, zip(*map(_column, table.T)), args.format)


def _cmd_reconstruct(args, spec) -> None:
    seq = schoenberg.from_csv(args.coeffs)
    thetas = _thetas(args)
    _emit_values(thetas, schoenberg.reconstruct(seq, thetas), args.format)


@contextlib.contextmanager
def _verb(sub, name: str, summary: str, func, kernel: bool = True, angles: bool = False):
    """Declare one verb: ``--kernel`` (required when ``kernel``), the flags
    added inside the ``with`` block, ``--format``, and ``--degrees`` when
    the verb takes ``angles``.  A verb without ``--kernel`` reads kernel=None."""
    p = sub.add_parser(name, help=summary)
    if kernel:
        p.add_argument("--kernel", required=True)
    yield p
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if angles:
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")
    p.set_defaults(func=func, kernel=None)


def _add_theta_or_grid(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", type=float)
    g.add_argument("--grid", help="start:stop:count")


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

    with _verb(sub, "list", "catalog of families and parameter ranges", _cmd_list, kernel=False):
        pass

    with _verb(sub, "eval", "evaluate a kernel at angles", _cmd_eval, angles=True) as p:
        _add_theta_or_grid(p)

    with _verb(sub, "coeffs", "coefficient sequence on S^d", _cmd_coeffs) as p:
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--n", type=int, default=100)

    with _verb(sub, "walk", "dimension walk of a coefficient sequence", _cmd_walk,
               kernel=False) as p:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--kernel")
        g.add_argument("--coeffs", help="sequence CSV produced by the coeffs verb")
        p.add_argument("--dim", type=int, default=1, help="source dimension when using --kernel")
        p.add_argument("--n", type=int, default=100)
        p.add_argument("--to", type=int, required=True)

    with _verb(sub, "member", "membership verdict on S^d", _cmd_member) as p:
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-6,
                       help="negative-coefficient FAIL tolerance")
        p.add_argument("--tail-tol", type=float, default=1e-3)
        p.add_argument("--strict", action="store_true", help="also require strictness evidence")

    with _verb(sub, "criteria", "convexity-based sufficient conditions", _cmd_criteria) as p:
        p.add_argument(
            "--criterion", required=True, choices=("polya_circle", "polya_s3", "polya_2n1")
        )
        p.add_argument("--order", type=int, default=1, help="derivative order for polya_2n1")

    with _verb(sub, "gram", "Gram matrix eigenvalue report", _cmd_gram) as p:
        p.add_argument("--tol", type=float, default=1e-8)
        _add_pointset_args(p)

    with _verb(sub, "interp", "spherical radial basis interpolation", _cmd_interp) as p:
        p.add_argument("--points", required=True, help="node CSV with a trailing value column")
        p.add_argument("--eval-points", help="CSV of evaluation points (default: the nodes)")
        p.add_argument("--ridge", type=float, default=0.0)

    with _verb(sub, "simulate", "Gaussian field draws on a point set", _cmd_simulate) as p:
        p.add_argument("--samples", type=int, default=10)
        _add_pointset_args(p)

    with _verb(sub, "fractal", "fractal index estimate from the short-range decay", _cmd_fractal,
               angles=True) as p:
        p.add_argument("--theta-min", type=float, default=1e-4)
        p.add_argument("--theta-max", type=float, default=1e-2)
        p.add_argument("--n-grid", type=int, default=20)

    with _verb(sub, "localize", "chordal vs great-circle localization table", _cmd_localize,
               kernel=False, angles=True) as p:
        p.add_argument("--c", type=float, required=True, help="support scale in (0, pi]")
        p.add_argument("--grid", help="start:stop:count (default 0:pi:361)")

    with _verb(sub, "reconstruct", "evaluate a saved coefficient sequence", _cmd_reconstruct,
               kernel=False, angles=True) as p:
        p.add_argument("--coeffs", required=True, help="sequence CSV produced by the coeffs verb")
        _add_theta_or_grid(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = None if args.kernel is None else catalog.parse_kernel(args.kernel)
        args.func(args, spec)
    except (SphereKernelsError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
