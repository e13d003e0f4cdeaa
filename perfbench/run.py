#!/usr/bin/env python3
"""The repository benchmark: the paper's Figure 1 pipeline and the
``repro serve`` request path, end to end and layer by layer.

    python3 perfbench/run.py --workload fig1_pipeline --seed 1 \\
        --seconds 20 --trace 0

runs one workload from the root of a checkout and prints a report,
then, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced run with ``--trace 1``.
``--workload all`` runs the three workloads in turn. The exit code is 0
only when every output oracle passed and the run was valid.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from common import report_line  # noqa: E402

WORKLOADS = ("fig1_pipeline", "serve_cold", "serve_hot")

#: name -> unit; the order is the report's.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "host.calib_ms": "ms",
    "sgml.parse_ms": "ms",
    "wrappers.sgml_import_ms": "ms",
    "wrappers.odmg_export_ms": "ms",
    "wrappers.odmg_import_ms": "ms",
    "wrappers.html_export_ms": "ms",
    "yatl.to_odmg_ms": "ms",
    "yatl.o2web_ms": "ms",
    "yatl.demand.iterations": "count",
    "yatl.rule.bindings_matched": "count",
    "yatl.skolem.ids_fresh": "count",
    "yatl.skolem.ids_reused": "count",
    "yatl.outputs.trees": "count",
    "yatl.dispatch.admit_ratio": "ratio",
    "system.residual_ms": "ms",
    "library.load_ms": "ms",
    "yatl.compose_ms": "ms",
    "serve.server_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.closed_server_ms": "ms",
    "serve.closed_transport_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "generator_late_ms": "ms",
    "trace_overhead_pct": "%",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if name == "fig1_pipeline":
        import fig1

        sizes = {"brochures": 20, "suppliers": 4, "setup_reps": 1} \
            if smoke else {}
        return fig1.run(seed, seconds, trace, env, **sizes)
    import serve

    sizes = {"setup_reps": 1, "min_open_samples": 1} if smoke else {}
    return serve.run(name, seed, seconds, trace, env, **sizes)


def render(name: str, result: dict, trace: bool) -> dict:
    """Print the report; return the result object of the last line."""
    print(f"== {name}")
    for line in result["report"]:
        print(f"  {line}")
    attempted, failed = result["attempted"], result["failed"]
    print(report_line("error_rate", failed / attempted, "ratio",
                      f"{failed} failed of {attempted} attempted"))
    for metric, (value, unit, note) in result["end_to_end"].items():
        print(report_line(metric, value, unit, note))
        if name == "fig1_pipeline" and metric == "latency_p50_ms":
            print(report_line("convert_s_p50", value / 1000.0, "s",
                              "latency_p50_ms / 1000"))
    wanted = PER_LAYER if trace else END_TO_END
    if trace:
        for metric, value in result["per_layer"].items():
            print(report_line(metric, value, PER_LAYER[metric]))
        values = result["per_layer"]
    else:
        values = {k: v[0] for k, v in result["end_to_end"].items()}
    if set(values) != set(wanted):
        raise AssertionError(
            f"{name} reported {sorted(values)}, expected {sorted(wanted)}"
        )
    return {
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in wanted.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for self-tests")
    args = parser.parse_args(argv)
    # A terminated run still stops the daemon and children it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        if not result.get("valid", True):
            print(f"error: {name} run invalid: the load generator fell "
                  f"behind or took too few samples", file=sys.stderr)
            for line in result["report"]:
                print(f"  {line}", file=sys.stderr)
            return 3
        results[name] = render(name, result, bool(args.trace))
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
