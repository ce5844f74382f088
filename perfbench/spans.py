"""Span tracing of the library's layers from outside the library.

``install`` replaces every public function of the spherekernels modules,
and the numpy/scipy linear-algebra entry points they call, with a wrapper
that records a span (name, start, end, parent) while the tracer is active.
It patches each name where it is looked up, so ``from ... import`` copies
such as ``schoenberg.gegenbauer_normalized_table`` are covered as well.
``Patches.restore`` puts every original back.

Spans stay in memory; ``layer_totals`` turns them into per-layer counts,
self times and computed work.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy.linalg
import scipy.linalg

LIBRARY_MODULES = ("catalog", "special", "schoenberg", "criteria", "sphere", "apps", "cli")
# LAPACK entry points.  Only calls made by library code get a span: numpy's
# leggauss also calls eigvalsh, and that time belongs to the quadrature rule.
LINALG = ((numpy.linalg, "eigvalsh"), (scipy.linalg, "cholesky"), (scipy.linalg, "cho_solve"))


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of wrapped calls made while ``active`` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()
        return span

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "failed": s.failed, **s.counts}) + "\n")


def _flops(cube_factor: float):
    return lambda args, kwargs, out: {"flops": cube_factor * args[0].shape[0] ** 3}


def _stdout_chars(args, kwargs, out):
    # the benchmark hands cli.main a fresh in-memory sink, so its position
    # after the call is the number of characters the call emitted
    return {"out_bytes": sys.stdout.tell()}


# Computed work per call, derived from argument and result shapes.
COUNTERS = {
    "special.gegenbauer_normalized_table": lambda a, kw, out: {
        "entries": out.size, "computed_mb": out.nbytes / 1e6},
    "schoenberg.fourier_coeffs": lambda a, kw, out: {"nodes": out.quadrature_order},
    "catalog.evaluate": lambda a, kw, out: {"values": getattr(out, "size", 1)},
    "special.bessel_k": lambda a, kw, out: {"values": getattr(out, "size", 1)},
    "sphere.pairwise_angles": lambda a, kw, out: {
        "pairs": out.size, "computed_mb": out.size * a[0].shape[1] * 8 / 1e6},
    "sphere.read_points": lambda a, kw, out: {"rows": out[0].n_points},
    "linalg.eigvalsh": _flops(4.0 / 3.0),
    "linalg.cholesky": _flops(1.0 / 3.0),
    "cli.main": _stdout_chars,
}


def _wrap(tracer: Tracer, name: str, fn, library_callers_only: bool):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or (
            library_callers_only
            and not sys._getframe(1).f_globals.get("__name__", "").startswith("spherekernels")
        ):
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, failed=True)
            raise
        span = tracer.close(index)
        if count is not None:
            span.counts = count(args, kwargs, out)
        return out

    return wrapper


@dataclass
class Patches:
    """Attributes replaced by ``install``: (namespace, name, original)."""

    replaced: list = field(default_factory=list)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self.replaced):
            setattr(namespace, attr, original)
        self.replaced.clear()


def targets() -> tuple[dict, list]:
    """Functions to trace keyed by identity, and the namespaces that hold them."""
    import spherekernels

    named = {}
    modules = [importlib.import_module(f"spherekernels.{m}") for m in LIBRARY_MODULES]
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                named[value] = f"{short}.{attr}"
    # numpy's Gauss-Legendre rule, computed on misses of the library's rule cache
    named[spherekernels.special.leggauss] = "special.leggauss"
    for namespace, attr in LINALG:
        named[getattr(namespace, attr)] = f"linalg.{attr}"
    return named, [spherekernels, *modules, numpy.linalg, scipy.linalg]


def install(tracer: Tracer) -> Patches:
    """Wrap every traced function under each name it is bound to."""
    named, namespaces = targets()
    wrappers = {id(fn): _wrap(tracer, name, fn, name.startswith("linalg."))
                for fn, name in named.items()}
    patches = Patches()
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrappers:
                patches.replaced.append((namespace, attr, value))
                setattr(namespace, attr, wrappers[id(value)])
    return patches


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, failed calls, self seconds and summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, {"calls": 0, "failed": 0, "self_s": 0.0})
        t["calls"] += 1
        t["failed"] += s.failed
        t["self_s"] += own
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    for t in totals.values():
        if "flops" in t:
            t["gflop_per_s"] = t["flops"] / t["self_s"] / 1e9 if t["self_s"] > 0 else 0.0
    return totals
