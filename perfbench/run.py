#!/usr/bin/env python3
"""Run one workload of the cellnet benchmark for one seed.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Set-up imports ``cellnet`` in a fresh interpreter, timing it, and runs
one warm-up operation on a freshly imported ``cellnet``, several times;
``setup_s`` is the median of their sums.  The timed part
then runs operations 0, 1, 2, ... of the seed's sequence, checking every
operation's outputs between operations.  Their number is fixed: the
workload's nominal rate times ``--seconds``, so a run measures about
``--seconds`` seconds of operations on the reference machine, and every
run of a workload does the same operations.  A fixed count matters
because the program's typecheck cache grows with every operation, and
with it the peak RSS and the time of later operations.  The last line of standard output is the
result as JSON: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Results and spans are also written under
``perfbench/out/``.
"""

import os

# One BLAS thread: the machine has two vCPUs, and a second BLAS thread
# only adds contention to the dense matrix products.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
MIN_OPS = 5
# A run stops early, leaving operations unattempted, once it has taken
# this many times --seconds; only a severe slowdown gets there.
GUARD = 4
# Traced runs report call counts from their first COUNT_OPS traced
# operations, which every run of a seed performs, so counts are exact.
COUNT_OPS = 2


# Imports cellnet in a fresh interpreter and prints how long it took, so
# that every module cellnet pulls in (numpy too) is loaded cold.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import cellnet; print(time.perf_counter() - t0)"
)


def cold_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def import_cellnet():
    """Import the program afresh, with empty caches."""
    for name in [n for n in sys.modules if n == "cellnet" or n.startswith("cellnet.")]:
        del sys.modules[name]
    return importlib.import_module("cellnet")


def set_up(workload):
    """Each set-up is a cold import of cellnet in a fresh interpreter
    plus one warm-up operation on a freshly imported cellnet."""
    times = []
    for r in range(SETUP_REPEATS):
        imported = cold_import_s()
        cn = import_cellnet()
        gc.collect()
        ops = workload.inputs(-1 - r, cn)
        t0 = time.perf_counter()
        outputs = workload.run(cn, ops)
        t1 = time.perf_counter()
        workload.check(cn, ops, outputs)
        times.append(imported + (t1 - t0))
    return cn, times


def tail(times_ms):
    """The highest percentile with at least ten samples beyond it."""
    n = len(times_ms)
    if n < 40:
        return None
    pct = min(99, int(100 * (1 - 10 / n)))
    return pct, statistics.quantiles(times_ms, n=100)[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cellnet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cellnet", "__init__.py")):
        print(f"error: no cellnet package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from reference import CheckFailed
    from tracer import Tracer, count_term_nodes, metric_units

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    cn, setups = set_up(workload)

    tracer = Tracer() if args.trace else None
    typecheck_lru = cn.terms.typecheck
    times, traced_times, untraced_times = [], [], []
    layer_ms: dict[str, list[float]] = {}
    counted: list[dict[str, float]] = []
    attempted = failed = checks = 0
    failures, wrong = [], []
    n_ops = max(MIN_OPS, round(args.seconds * workload.nominal_ops_per_s))
    gc.collect()
    guard = time.perf_counter() + GUARD * args.seconds
    for i in range(n_ops):
        if time.perf_counter() > guard:
            break
        ops = workload.inputs(i, cn)
        traced = tracer is not None and i % 2 == 0
        counting = traced and len(counted) < COUNT_OPS
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
            misses = typecheck_lru.cache_info().misses
            tracer.begin(i, measure_alloc=counting)
        attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = workload.run(cn, ops)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            failures.append(f"op {i}: {type(exc).__name__}: {str(exc)[:200]}")
            outputs = None
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end()
            tracer.uninstall()
        if outputs is None:
            continue
        times.append(elapsed)
        if tracer is not None and not counting:
            (traced_times if traced else untraced_times).append(elapsed)
        if traced and counting:
            row = dict(tracer.counts)
            row["terms.typecheck_cache_entries"] = typecheck_lru.cache_info().misses - misses
            row["terms.term_nodes"] = sum(count_term_nodes(cn, t) for t in tracer.terms)
            row["kleisli.alloc_peak_mb"] = tracer.alloc_peak / 2**20
            counted.append(row)
        elif traced:
            for name, ms in tracer.self_times(first_span).items():
                layer_ms.setdefault(name, []).append(ms)
        try:
            checks += workload.check(cn, ops, outputs)
        except CheckFailed as exc:
            wrong.append(f"op {i}: {exc}")
    timed_s = sum(times)

    ms = [1000 * t for t in times]
    summary = [
        f"{args.workload} seed {args.seed}: {attempted} of {n_ops} ops attempted, {failed} failed, "
        f"{checks} reference comparisons, {len(wrong)} wrong",
        f"setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}",
    ]
    if ms:
        summary.append(f"op p50 {statistics.median(ms):.1f} ms over {len(ms)} ops")
        t = tail(ms)
        summary.append(
            f"op p{t[0]} {t[1]:.1f} ms over {len(ms)} ops (reference only)" if t
            else f"no tail percentile: {len(ms)} ops is fewer than 40"
        )
    redrawn = getattr(workload, "redrawn", None)
    if redrawn is not None:
        summary.append(f"random nets redrawn for the duplicate-signature fault: {redrawn}")
    summary += failures[:5] + wrong[:5]

    if tracer is None:
        metrics = {
            "ops_per_s": {"value": len(times) / timed_s if timed_s else 0.0, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        units = metric_units()
        metrics = {}
        for name, unit in units.items():
            if unit == "ms":
                value = statistics.median(layer_ms[name]) if name in layer_ms else 0.0
            elif name == "kleisli.alloc_peak_mb":
                value = max((row.get(name, 0.0) for row in counted), default=0.0)
            else:
                value = sum(row.get(name, 0) for row in counted) / max(1, len(counted))
            metrics[name] = {"value": value, "unit": unit}
        if traced_times and untraced_times:
            traced_p50 = 1000 * statistics.median(traced_times)
            plain_p50 = 1000 * statistics.median(untraced_times)
            summary.append(
                f"tracing overhead: traced op p50 {traced_p50:.1f} ms vs untraced "
                f"{plain_p50:.1f} ms ({traced_p50 - plain_p50:+.1f} ms, "
                f"{len(traced_times)}/{len(untraced_times)} ops)"
            )

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, **result, "op_ms": ms}, handle, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "name", "start_us", "end_us", "parent"],
                       "spans": tracer.dump()}, handle)
    for line in summary:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
