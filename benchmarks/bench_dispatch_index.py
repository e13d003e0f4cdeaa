"""Wall-clock benchmark for rule-dispatch indexing (ablation).

The car-dealer mediation scenario, scaled: the mediator's document base
holds the Section 3.1 SGML brochures *plus* thousands of other document
kinds flowing through the dealership (price lists, invoices, service
records...), each converted by its own rule. Without dispatch indexing
every rule attempts a body match against every input tree —
O(rules x inputs) — and almost all of those attempts are rejections.
The index prunes them to the trees whose root signature the rule could
actually match.

Run standalone (not under pytest)::

    python benchmarks/bench_dispatch_index.py              # full: >=10k trees
    python benchmarks/bench_dispatch_index.py --quick      # CI smoke
    python benchmarks/bench_dispatch_index.py --no-index   # ablation leg only
    python benchmarks/bench_dispatch_index.py --json out.json  # machine-readable

The default mode times both configurations, reports the speedup, and
asserts the output stores are identical (indexing must never change
results, only how fast non-matches are discarded). ``--json`` also
writes per-leg wall times plus the run's key observability metrics
(dispatch ratios, Skolem stats, demand iterations) so CI can archive
them as an artifact.

``--provenance`` adds a third leg: the indexed configuration re-run
with the per-firing provenance recorder installed (at ``--sample-rate``),
reporting its overhead against the recorder-off indexed leg and
asserting the output store stays byte-identical. With
``--max-overhead-pct`` the benchmark exits non-zero when the recorder
costs more than the budget — the CI guardrail for the <5% target.

``--sampler`` adds the analogous leg for the wall-clock sampling
profiler (``repro.obs.profile``, at ``--sampler-hz``): the indexed
configuration re-run under ``profiling()``, with
``--sampler-max-overhead-pct`` as the CI guardrail that default-rate
sampling stays effectively free.
"""

from __future__ import annotations

import argparse
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

from repro.obs import DEFAULT_HZ, ProvenanceStore, profiling, tracing  # noqa: E402
from repro.workloads import (  # noqa: E402
    dealer_document_program,
    dealer_document_store,
    document_kind_names,
)


def run_once(program, store, use_index: bool, provenance=None):
    start = time.perf_counter()
    result = program.run(
        store, use_dispatch_index=use_index, provenance=provenance
    )
    elapsed = time.perf_counter() - start
    if result.unconverted:
        raise AssertionError(
            f"benchmark store must be fully convertible; "
            f"{len(result.unconverted)} tree(s) left over"
        )
    return elapsed, result


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
    add_common_args(parser, repeat_default=2)
    parser.add_argument(
        "--no-index", action="store_true",
        help="ablation: run only the unindexed configuration",
    )
    parser.add_argument(
        "--provenance", action="store_true",
        help="add an indexed leg with the per-firing provenance "
             "recorder installed and report its overhead",
    )
    parser.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="recorder sample rate for the provenance leg (default 1.0)",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None, metavar="PCT",
        help="fail (exit 1) when the provenance leg is more than PCT "
             "percent slower than the recorder-off indexed leg",
    )
    parser.add_argument(
        "--sampler", action="store_true",
        help="add an indexed leg run under the wall-clock sampling "
             "profiler and report its overhead",
    )
    parser.add_argument(
        "--sampler-hz", type=float, default=DEFAULT_HZ, metavar="HZ",
        help=f"sampling rate for the --sampler leg "
             f"(default {DEFAULT_HZ:g})",
    )
    parser.add_argument(
        "--sampler-max-overhead-pct", type=float, default=None,
        metavar="PCT",
        help="fail (exit 1) when the sampler leg is more than PCT "
             "percent slower than the profiler-off indexed leg",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.trees, args.brochures, args.kinds = 600, 30, 8
    if min(args.trees, args.brochures, args.kinds) < 0:
        parser.error("--trees/--brochures/--kinds must be >= 0")
    if args.trees and not args.kinds:
        parser.error("--kinds must be >= 1 when --trees > 0")

    kinds = document_kind_names(args.kinds)
    program = dealer_document_program(kinds)
    store = dealer_document_store(args.brochures, args.trees, kinds)
    total = len(store)
    print(
        f"car-dealer store: {total} input trees "
        f"({args.brochures} brochures + {args.trees} documents over "
        f"{args.kinds} kinds), {len(program.rules)} rules"
    )

    def best_leg(use_index: bool):
        return best_of(
            lambda: run_once(program, store, use_index)[1], args.repeat
        )

    report = {
        "benchmark": "dispatch_index",
        "scenario": {
            "input_trees": total,
            "brochures": args.brochures,
            "documents": args.trees,
            "kinds": args.kinds,
            "rules": len(program.rules),
            "repeat": args.repeat,
        },
        "legs": {},
    }

    unindexed_time, unindexed_result = best_leg(use_index=False)
    print(f"  no-index : {unindexed_time * 1000:9.1f} ms")
    report["legs"]["no_index"] = leg_report(unindexed_time, unindexed_result)
    exit_code = 0
    if not args.no_index:
        indexed_time, indexed_result = best_leg(use_index=True)
        print(f"  indexed  : {indexed_time * 1000:9.1f} ms")
        report["legs"]["indexed"] = leg_report(indexed_time, indexed_result)

        same = list(indexed_result.store.items()) == list(
            unindexed_result.store.items()
        )
        report["identical_outputs"] = same
        if not same:
            print("FAIL: indexed and unindexed runs produced different stores")
            exit_code = 1
        else:
            speedup = (
                unindexed_time / indexed_time if indexed_time else float("inf")
            )
            report["speedup"] = round(speedup, 3)
            print(f"  speedup  : {speedup:9.2f}x  (identical output stores)")

        if args.provenance:
            prov_state = {}

            def baseline_leg():
                _elapsed, result = run_once(program, store, use_index=True)
                return result

            def provenance_leg():
                prov = ProvenanceStore(sample_rate=args.sample_rate)
                with tracing(prov):
                    _elapsed, result = run_once(
                        program, store, use_index=True
                    )
                prov_state["prov"] = prov
                prov_state["result"] = result
                return result

            overhead_pct, base_time, prov_time = pairwise_overhead_pct(
                baseline_leg, provenance_leg, args.repeat
            )
            prov = prov_state["prov"]
            prov_result = prov_state["result"]
            print(
                f"  +recorder: {prov_time * 1000:9.1f} ms  "
                f"({overhead_pct:+.2f}% vs {base_time * 1000:.1f} ms "
                f"recorder-off, "
                f"{prov.recorded}/{prov.firings} firing(s) recorded)"
            )
            leg_data = leg_report(prov_time, prov_result)
            leg_data["sample_rate"] = args.sample_rate
            leg_data["provenance_firings"] = prov.firings
            leg_data["provenance_records"] = prov.recorded
            leg_data["baseline_wall_ms"] = round(base_time * 1000, 3)
            leg_data["overhead_pct"] = round(overhead_pct, 3)
            report["legs"]["indexed_provenance"] = leg_data

            prov_same = list(prov_result.store.items()) == list(
                indexed_result.store.items()
            )
            report["provenance_identical_outputs"] = prov_same
            if not prov_same:
                print(
                    "FAIL: provenance recording changed the output store"
                )
                exit_code = 1
            if (
                args.max_overhead_pct is not None
                and overhead_pct > args.max_overhead_pct
            ):
                print(
                    f"FAIL: recorder overhead {overhead_pct:.2f}% exceeds "
                    f"the {args.max_overhead_pct:.2f}% budget"
                )
                exit_code = 1

        if args.sampler:
            sampler_state = {}

            def plain_leg():
                _elapsed, result = run_once(program, store, use_index=True)
                return result

            def sampled_leg():
                with profiling(hz=args.sampler_hz) as profiler:
                    _elapsed, result = run_once(
                        program, store, use_index=True
                    )
                sampler_state["profile"] = profiler.profile
                sampler_state["result"] = result
                return result

            sampler_pct, plain_time, sampled_time = pairwise_overhead_pct(
                plain_leg, sampled_leg, args.repeat
            )
            profile = sampler_state["profile"]
            sampled_result = sampler_state["result"]
            print(
                f"  +sampler : {sampled_time * 1000:9.1f} ms  "
                f"({sampler_pct:+.2f}% vs {plain_time * 1000:.1f} ms "
                f"profiler-off, {profile.sample_count} sample(s) at "
                f"{args.sampler_hz:g}hz)"
            )
            leg_data = leg_report(sampled_time, sampled_result)
            leg_data["hz"] = args.sampler_hz
            leg_data["samples"] = profile.sample_count
            leg_data["baseline_wall_ms"] = round(plain_time * 1000, 3)
            leg_data["overhead_pct"] = round(sampler_pct, 3)
            report["legs"]["indexed_sampler"] = leg_data

            sampler_same = list(sampled_result.store.items()) == list(
                indexed_result.store.items()
            )
            report["sampler_identical_outputs"] = sampler_same
            if not sampler_same:
                print("FAIL: sampling changed the output store")
                exit_code = 1
            if (
                args.sampler_max_overhead_pct is not None
                and sampler_pct > args.sampler_max_overhead_pct
            ):
                print(
                    f"FAIL: sampler overhead {sampler_pct:.2f}% exceeds "
                    f"the {args.sampler_max_overhead_pct:.2f}% budget"
                )
                exit_code = 1

    write_report(report, args.json_path)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
