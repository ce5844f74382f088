"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

One client in a closed loop: each op starts when the previous one ends,
and ops run until their summed time reaches ``--seconds``.  Output checks
run between ops, outside the timed region.  With ``--trace 0`` the last
line of stdout is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a run
in which every op executes twice, once traced and once not (see spans.py).
The lines before it give the environment and each metric with its unit
and sample count.  The BLAS thread count is pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 3  # set-ups in fresh processes per run; setup_s is their median
COMPUTED = ("entries", "pairs", "computed_mb", "gflop_per_s")  # derived from array shapes
# One BLAS thread: on a shared 2-vCPU machine a second thread makes each
# LAPACK call wait on the other vCPU, and single slow calls triple in time.
BLAS_THREADS = 1


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of a weighted sample.

    Each sorted value contributes the Beta(q(n+1), (1-q)(n+1)) mass of its
    share of the total weight.  Unlike a single order statistic, the
    estimate moves smoothly when neighbouring values swap places, which
    matters when the op mix has gaps between kinds of ops.  With equal
    weights it is the classical Harrell-Davis estimator.
    """
    from scipy.special import betainc

    n = len(values)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total, seen, below, estimate = sum(weights), 0.0, 0.0, 0.0
    for value, weight in sorted(zip(values, weights)):
        seen += weight
        cdf = float(betainc(a, b, min(1.0, seen / total)))
        estimate += value * (cdf - below)
        below = cdf
    return estimate


def input_weights(items: list) -> list[float]:
    """Weight 1/k for each op on an input that ran k times.

    A run rarely ends on a cycle boundary; weighting each distinct input
    equally keeps the partial last cycle from shifting the op mix.
    """
    counts = collections.Counter(items)
    return [1.0 / counts[item] for item in items]


@dataclass
class Tally:
    items: list = field(default_factory=list)  # input of each untraced op
    latencies: list = field(default_factory=list)  # seconds, untraced ops
    traced: list = field(default_factory=list)  # seconds, traced ops
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    decisive: dict = field(default_factory=dict)  # item -> definite result


def execute(wl, item, tally: Tally, tracer=None) -> float:
    """Run one op (timed), then check it (untimed); return its latency."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result, error = wl.run(item), None
    except Exception as exc:  # a raising op counts as failed; the loop goes on
        result, error = None, f"op raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    tally.attempted += 1
    if error is None:
        try:
            error = wl.check(item, result)
            tally.decisive[item] = wl.decisive(item, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        tally.failed += 1
        tally.errors.append(error)
    return elapsed


def plain_loop(wl, seconds: float) -> Tally:
    tally, busy = Tally(), 0.0
    for item in wl.items():
        if busy >= seconds:
            break
        elapsed = execute(wl, item, tally)
        tally.items.append(item)
        tally.latencies.append(elapsed)
        busy += elapsed
    return tally


def traced_loop(wl, seconds: float, tracer) -> Tally:
    """Each item runs twice, alternating whether the traced run goes first."""
    tally, busy = Tally(), 0.0
    for pair, item in enumerate(wl.items()):
        if busy >= seconds:
            break
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            elapsed = execute(wl, item, tally, tracer if traced else None)
            (tally.traced if traced else tally.latencies).append(elapsed)
            busy += elapsed
    return tally


def end_to_end(tally: Tally, setups: list[float], tail: int) -> dict:
    """Metric name -> (value, sample count, note); op statistics weight inputs equally."""
    n = len(tally.latencies)
    ms = [x * 1e3 for x in tally.latencies]
    w = input_weights(tally.items)
    tail_ms = weighted_quantile(ms, w, tail / 100)
    return {
        "setup_s": (statistics.median(setups), len(setups), "median of fresh-process set-ups"),
        "ops_per_s": (sum(w) / sum(wi * x for wi, x in zip(w, tally.latencies)), n, ""),
        "op_p50_ms": (weighted_quantile(ms, w, 0.5), n, ""),
        "op_tail_ms": (tail_ms, n, f"p{tail}, {sum(x > tail_ms for x in ms)} ops beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, "ru_maxrss"),
        "ok_share": (1.0 - tally.failed / tally.attempted, tally.attempted, "ops passing checks"),
        "decisive_share": (sum(tally.decisive.values()) / max(1, len(tally.decisive)),
                           len(tally.decisive), "distinct inputs with a definite result"),
    }


def per_layer(tally: Tally, totals: dict, names: list[str]) -> dict:
    """Per-layer metrics averaged over traced ops; rates are not averaged."""
    n = len(tally.traced)
    own = {
        "trace.overhead_share": sum(tally.traced) / sum(tally.latencies) - 1.0,
        "trace.op_s": sum(tally.traced) / n,
        "trace.ops": n,
    }
    out = {}
    for name in names:
        if name in own:
            out[name] = (own[name], n, "")
            continue
        layer, quantity = name.rsplit(".", 1)
        value = totals.get(layer, {}).get(quantity, 0.0)
        out[name] = (value if quantity == "gflop_per_s" else value / n, n,
                     "computed" if quantity in COMPUTED else "")
    return out


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def fresh_setup(args) -> float:
    """Set up the workload in a new process and return its set-up time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spherekernels" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} lacks src/spherekernels or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], workdir)
        wl.warm_up()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                tally = traced_loop(wl, args.seconds, tracer)
            finally:
                patches.restore()
            totals = spans.layer_totals(tracer.spans)
            metrics = per_layer(tally, totals, [m["name"] for m in spec["per_layer"]])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file)
        else:
            setups = [setup_s] + [fresh_setup(args) for _ in range(SETUP_RUNS - 1)]
            tally = plain_loop(wl, args.seconds)
            metrics = end_to_end(tally, setups, wl.TAIL_PERCENTILE)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(args, threads)}))
    if args.trace:
        print(f"spans written to {span_file.relative_to(ROOT)}; every traced layer per op:")
        n = len(tally.traced)
        for layer, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:<44} calls/op {t['calls'] / n:10.3f}  "
                  f"self {t['self_s'] / n:10.6f} s/op")
    for name, (value, samples, note) in metrics.items():
        print(f"{name:<52} {value:>16.6f} {units[name]:<9} n={samples} {note}")
    for error in tally.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
