"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
checkout the script sits in.  The script pins the BLAS thread count before
numpy loads, sets up the workload several times, then repeats whole rounds of
operations until ``--seconds`` have passed (at least two rounds), and checks
every operation's output.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, per set-up and per operation; the
spans go to ``perfbench/out/trace-<workload>-s<seed>.json``.  The last line
of standard output is the JSON result; a summary goes to standard error.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1   # one thread: on a shared two-core machine it repeats best
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_ROUNDS = 2     # every median covers at least two rounds

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "signals_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _rounds(workload, seconds):
    """Whole rounds until ``seconds`` have passed, at least MIN_ROUNDS of
    them: per round, the op latencies."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(len(rounds)))
    return rounds


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _untraced(workload, seconds, import_s):
    setup_s = import_s + statistics.median(_timed(workload.setup) for _ in range(SETUP_REPEATS))
    rounds = _rounds(workload, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = workload.check()
    latencies = [lat for r in rounds for lat in r]
    wall_s = statistics.median(sum(r) for r in rounds)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "signals_per_s": workload.signals_per_round / wall_s,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": peak_mb,
    }
    tail = ""
    if len(latencies) >= 1000:
        tail = (f", p99 {1000.0 * _percentile(latencies, 0.99):.3f} ms "
                f"({len(latencies) - int(0.99 * len(latencies))} samples at or above)")
    print(f"{workload.name}: {len(rounds)} rounds, {len(latencies)} ops, "
          f"p50 {values['op_p50_ms']:.3f} ms{tail}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return len(latencies), failed, metrics


def _traced(workload, seconds, path):
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        for _ in range(SETUP_REPEATS):
            with tracer.unit("setup"):
                workload.setup()
    plain, traced = [], []
    index = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(workload.run_round(index))
        with tracer.installed():
            traced.append(workload.run_round(index + 1, lambda: tracer.unit("op")))
        index += 2
    failed = workload.check()
    tracer.write(path)
    overhead = (statistics.median(sum(r) for r in traced)
                - statistics.median(sum(r) for r in plain)) / workload.ops_per_round
    attempted = sum(len(r) for r in plain + traced)
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{len(tracer.spans)} spans in {path}", file=sys.stderr)
    return attempted, failed, tracer.layer_metrics(overhead)


def main(argv=None):
    args = _parse(argv)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = threads
    if not (ROOT / "src" / "specsamp" / "__init__.py").is_file():
        print(f"error: no specsamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    import_s = time.perf_counter() - _START
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        attempted, failed, metrics = _traced(workload, args.seconds, trace_path)
    else:
        attempted, failed, metrics = _untraced(workload, args.seconds, import_s)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
