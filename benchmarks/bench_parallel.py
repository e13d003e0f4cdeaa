"""Scaling benchmark for the multi-process parallel conversion executor.

The dispatch-index car-dealer scenario (Section 3.1 brochures plus
thousands of heterogeneous dealership documents), run four ways: the
plain in-process interpreter, then the sharded executor at 1, 2 and 4
workers with the default chunk plan. The chunk plan depends only on the
input count, never on the worker count, so every workers=N leg must
produce a byte-identical output store — that identity is this
benchmark's hard gate, checked on every run. The second gate
(``--max-overhead-pct``) bounds what sharding itself costs: workers=1
executes the same chunks serially through the same merge, so its
overhead against the in-process leg is pure sharding+reconciliation
tax.

Run standalone (not under pytest)::

    python benchmarks/bench_parallel.py                    # full: >=10k trees
    python benchmarks/bench_parallel.py --quick            # CI smoke
    python benchmarks/bench_parallel.py --json BENCH_PR5.json

The report records ``cpu_count`` alongside the scaling curve: on a
single-core container the workers=2/4 legs cannot speed up (the curve
documents that honestly), while multi-core CI runners show the real
scaling.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time

try:
    from runner import (
        add_common_args, best_of, leg_report, pairwise_overhead_pct,
        write_report,
    )
except ImportError:  # pytest collects this file as benchmarks.bench_*
    from benchmarks.runner import (
        add_common_args, best_of, leg_report, pairwise_overhead_pct,
        write_report,
    )

from repro.parallel import plan_chunks, resolve_chunk_size  # noqa: E402
from repro.workloads import (  # noqa: E402
    dealer_document_program,
    dealer_document_store,
    document_kind_names,
)

#: Shard/merge accounting recorded per leg on top of the interpreter
#: metrics (counters only — histograms are reported by the registry,
#: not per-leg totals).
PARALLEL_METRICS = [
    "parallel.runs",
    "parallel.shards",
    "parallel.fallback.inprocess",
    "yatl.batches",
]


def materialized_outputs(result):
    """Store contents with every reference chased — the id-independent
    view two runs must agree on even when Skolem ids differ."""
    return sorted(
        str(result.store.materialize(name)) for name, _ in result.store.items()
    )


def byte_view(result):
    """The exact observable output: named trees in order, warnings,
    unconverted names. Two runs are byte-identical iff these match."""
    return (
        list(result.store.items()),
        list(result.warnings),
        list(result.unconverted),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trees", type=int, default=10_000,
        help="extra document trees beyond the brochures (default 10000)",
    )
    parser.add_argument(
        "--brochures", type=int, default=200,
        help="brochure trees converted by Rules 1+2 (default 200)",
    )
    parser.add_argument(
        "--kinds", type=int, default=50,
        help="distinct extra document kinds, one rule each (default 50)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        metavar="N", help="worker counts to time (default: 1 2 4)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="inputs per shard (default: the executor's heuristic)",
    )
    add_common_args(parser, repeat_default=2)
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None, metavar="PCT",
        help="fail (exit 1) when the workers=1 sharded leg is more than "
             "PCT percent slower than the plain in-process leg",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail (exit 1) when the largest worker count is less than "
             "X times faster than workers=1 (only meaningful on "
             "multi-core machines)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.trees, args.brochures, args.kinds = 600, 30, 8
    if min(args.trees, args.brochures, args.kinds) < 0:
        parser.error("--trees/--brochures/--kinds must be >= 0")
    if any(n < 1 for n in args.workers):
        parser.error("--workers counts must be >= 1")
    if 1 not in args.workers:
        args.workers = [1] + args.workers

    kinds = document_kind_names(args.kinds)
    program = dealer_document_program(kinds)
    store = dealer_document_store(args.brochures, args.trees, kinds)
    total = len(store)
    cpu_count = os.cpu_count() or 1
    print(
        f"car-dealer store: {total} input trees "
        f"({args.brochures} brochures + {args.trees} documents over "
        f"{args.kinds} kinds), {len(program.rules)} rules, "
        f"{cpu_count} cpu(s)"
    )

    def converted(result):
        if result.unconverted:
            raise AssertionError(
                f"benchmark store must be fully convertible; "
                f"{len(result.unconverted)} tree(s) left over"
            )
        return result

    def inprocess_leg():
        return converted(program.run(store))

    def sharded_leg(workers):
        return converted(
            program.run(store, workers=workers, chunk_size=args.chunk_size)
        )

    report = {
        "benchmark": "parallel_executor",
        "cpu_count": cpu_count,
        "scenario": {
            "input_trees": total,
            "brochures": args.brochures,
            "documents": args.trees,
            "kinds": args.kinds,
            "rules": len(program.rules),
            "chunk_size": args.chunk_size,
            "repeat": args.repeat,
        },
        "legs": {},
        "speedup_vs_workers_1": {},
    }
    metric_keys = None  # leg_report's defaults
    exit_code = 0

    inprocess_time, inprocess_result = best_of(inprocess_leg, args.repeat)
    print(f"  inprocess : {inprocess_time * 1000:9.1f} ms")
    report["legs"]["inprocess"] = leg_report(
        inprocess_time, inprocess_result, metric_keys
    )

    worker_times = {}
    worker_results = {}
    for workers in sorted(set(args.workers)):
        elapsed, result = best_of(
            lambda w=workers: sharded_leg(w), args.repeat
        )
        worker_times[workers] = elapsed
        worker_results[workers] = result
        parallel = getattr(result, "parallel", None) or {}
        leg = leg_report(elapsed, result, metric_keys)
        for name in PARALLEL_METRICS:
            metric = result.metrics.get(name)
            if metric is not None:
                leg[name] = metric.total()
        leg["mode"] = parallel.get("mode")
        leg["shards"] = parallel.get("shards")
        report["legs"][f"workers_{workers}"] = leg
        print(
            f"  workers={workers} : {elapsed * 1000:9.1f} ms  "
            f"({parallel.get('shards', '?')} shard(s), "
            f"{parallel.get('mode', '?')})"
        )

    # Hard gate: every workers=N leg byte-identical to workers=1.
    reference = byte_view(worker_results[1])
    for workers, result in sorted(worker_results.items()):
        if byte_view(result) != reference:
            print(
                f"FAIL: workers={workers} output differs from workers=1 "
                f"(determinism contract broken)"
            )
            exit_code = 1
    identical = exit_code == 0
    report["identical_outputs"] = identical
    if identical:
        print(
            f"  identity  : {len(worker_results)} worker leg(s) "
            f"byte-identical (store, warnings, unconverted)"
        )

    # The sharded and in-process runs may allocate Skolem ids in a
    # different order; the reference-chased view must still agree.
    equivalent = materialized_outputs(worker_results[1]) == (
        materialized_outputs(inprocess_result)
    )
    report["inprocess_equivalent"] = equivalent
    if not equivalent:
        print("FAIL: sharded output is not equivalent to in-process output")
        exit_code = 1

    for workers, elapsed in sorted(worker_times.items()):
        if workers == 1:
            continue
        speedup = worker_times[1] / elapsed if elapsed else float("inf")
        report["speedup_vs_workers_1"][f"workers_{workers}"] = round(
            speedup, 3
        )
        print(f"  speedup   : workers={workers} {speedup:9.2f}x vs workers=1")

    if args.max_overhead_pct is not None:
        median_pct, base_time, shard_time = pairwise_overhead_pct(
            inprocess_leg, lambda: sharded_leg(1), args.repeat
        )
        # Gate on best-vs-best: on the small quick sizes a single
        # scheduler hiccup is a double-digit fraction of a ~30 ms leg,
        # so the per-pair ratios (and their median) swing wildly even
        # when both legs execute the same code (the fallback path).
        # min-of-N filters that noise; the median is kept for context.
        overhead_pct = (
            (shard_time - base_time) / base_time * 100 if base_time else 0.0
        )
        report["sharding_overhead_pct"] = round(overhead_pct, 3)
        report["sharding_overhead_median_pairwise_pct"] = round(median_pct, 3)
        print(
            f"  overhead  : {overhead_pct:+.2f}% workers=1 "
            f"({shard_time * 1000:.1f} ms) vs in-process "
            f"({base_time * 1000:.1f} ms)"
        )
        if overhead_pct > args.max_overhead_pct:
            print(
                f"FAIL: sharding overhead {overhead_pct:.2f}% exceeds the "
                f"{args.max_overhead_pct:.2f}% budget"
            )
            exit_code = 1

    # Per-shard serialization: what the chunk plan costs to ship across
    # the process boundary (lists of named Tree objects, pickled node by
    # node). Measured and reported for the trend tables, never gated.
    chunk_plan = plan_chunks(total, resolve_chunk_size(total, args.chunk_size))
    item_list = store.items()
    blobs = []
    start = time.perf_counter()
    for lo, hi in chunk_plan:
        blobs.append(pickle.dumps(item_list[lo:hi]))
    dump_s = time.perf_counter() - start
    start = time.perf_counter()
    for blob in blobs:
        pickle.loads(blob)
    load_s = time.perf_counter() - start
    tree_bytes = sum(len(blob) for blob in blobs)
    report["serialization"] = {
        "shards": len(chunk_plan),
        "tree_pickle_ms": round(dump_s * 1000, 3),
        "tree_unpickle_ms": round(load_s * 1000, 3),
        "tree_bytes": tree_bytes,
    }
    print(
        f"  serialize : {len(chunk_plan)} shard(s)  "
        f"{tree_bytes / 1024:.0f} KiB pickled in {dump_s * 1000:.1f} ms, "
        f"unpickled in {load_s * 1000:.1f} ms"
    )

    if args.min_speedup is not None:
        top = max(worker_times)
        speedup = report["speedup_vs_workers_1"].get(f"workers_{top}", 1.0)
        if speedup < args.min_speedup:
            print(
                f"FAIL: workers={top} speedup {speedup:.2f}x is below the "
                f"{args.min_speedup:.2f}x floor ({cpu_count} cpu(s))"
            )
            exit_code = 1

    write_report(report, args.json_path)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
