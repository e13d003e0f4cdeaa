"""The perf-regression observatory: trend + gate over ``BENCH_*.json``.

Every PR archives its benchmark report as ``BENCH_PR<n>.json`` (the
repo root holds the trajectory so far; CI uploads fresh ones per run).
Each driver reports a different schema, so nobody reads the trajectory
— which is how a 2x regression ships unnoticed. This tool closes the
loop::

    python benchmarks/compare.py BENCH_PR*.json            # trend report
    python benchmarks/compare.py BENCH_PR*.json --gate     # CI: exit 1
    python benchmarks/compare.py A.json B.json --gate --max-regression-pct 20

It extracts one *headline metric set* per benchmark family
(``dispatch_index``: indexed wall ms + speedup; ``parallel_executor``:
in-process wall ms; ``serve``: throughput + p99; every family: the
non-gating ``src/`` line count), orders artifacts by
the PR ordinal in the filename, and compares each artifact against the
previous one of the same family. A **gating** metric regressing more
than ``--max-regression-pct`` fails the gate.

Comparability is judged, not assumed: artifacts stamped with ``host``
info (``benchmarks/runner.py``) from *different* machine shapes are
reported but never gated (apples to oranges); artifacts missing the
stamp (pre-PR7) gate anyway — an unknown host is still the best signal
available. Scenario drift (different tree counts, client counts...)
also exempts a pair, since the workload itself changed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: ``BENCH_PR7.json`` / ``bench_pr7_quick.json`` → ordinal 7.
_PR_RE = re.compile(r"PR(\d+)", re.IGNORECASE)

#: Scenario keys that change timing fairness but not the workload.
_SCENARIO_IGNORE = {"repeat"}


def _dig(data: Dict[str, object], path: str) -> Optional[float]:
    """``legs.indexed.wall_ms`` → the float there, or None."""
    node: object = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


#: Per-family headline metrics: (label, json path, direction, gating).
#: ``direction`` is which way is *better*; only gating metrics can fail
#: the gate — the rest are context in the trend tables.
HEADLINES: Dict[str, List[Tuple[str, str, str, bool]]] = {
    "dispatch_index": [
        ("indexed wall ms", "legs.indexed.wall_ms", "lower", True),
        ("speedup", "speedup", "higher", False),
        ("no-index wall ms", "legs.no_index.wall_ms", "lower", False),
        ("provenance overhead %",
         "legs.indexed_provenance.overhead_pct", "lower", False),
        ("sampler overhead %",
         "legs.indexed_sampler.overhead_pct", "lower", False),
    ],
    "parallel_executor": [
        ("in-process wall ms", "legs.inprocess.wall_ms", "lower", True),
    ],
    "serve": [
        ("throughput rps", "throughput_rps", "higher", True),
        ("client p99 ms", "client_latency_ms.p99", "lower", False),
    ],
    # Non-gating: the bench itself enforces the absolute <=5% budget,
    # and a relative gate over a near-zero overhead base would flap.
    "serve_alerts": [
        ("evaluator overhead %", "alerts.overhead_pct", "lower", False),
        ("evaluations under load", "alerts.evaluations", "higher", False),
    ],
    "serve_quality": [
        ("shadow overhead %", "quality.overhead_pct", "lower", False),
        ("shadow checks under load", "quality.shadow.checked",
         "higher", False),
    ],
}

#: Shown for every family, never gating: the ``src/`` line count
#: (``runner.write_report`` stamps it), so code size sits next to the
#: performance it buys.
COMMON_HEADLINES: List[Tuple[str, str, str, bool]] = [
    ("src lines", "src_lines", "lower", False),
]


def load_artifact(path: str) -> Dict[str, object]:
    """One parsed artifact with its PR ordinal (None when the filename
    carries no ``PR<n>``; such artifacts sort last, in name order)."""
    with open(path) as handle:
        data = json.load(handle)
    match = _PR_RE.search(path)
    return {
        "path": path,
        "pr": int(match.group(1)) if match else None,
        "benchmark": data.get("benchmark", "unknown"),
        "data": data,
    }


def headline(entry: Dict[str, object]) -> List[Dict[str, object]]:
    """The entry's headline metrics (absent paths skipped)."""
    rows = []
    for label, path, direction, gating in HEADLINES.get(
        entry["benchmark"], []
    ) + COMMON_HEADLINES:
        value = _dig(entry["data"], path)
        if value is None:
            continue
        rows.append({
            "label": label, "path": path, "value": value,
            "direction": direction, "gating": gating,
        })
    return rows


def host_comparability(
    before: Dict[str, object], after: Dict[str, object]
) -> str:
    """``same`` / ``different`` / ``unknown`` — whether two artifacts
    ran on the same machine shape."""
    host_a = before["data"].get("host")
    host_b = after["data"].get("host")
    if not isinstance(host_a, dict) or not isinstance(host_b, dict):
        return "unknown"
    for key in ("cpu_count", "platform", "python"):
        if host_a.get(key) != host_b.get(key):
            return "different"
    return "same"


def scenarios_match(
    before: Dict[str, object], after: Dict[str, object]
) -> bool:
    """Overlapping scenario keys must agree (ignoring timing-only ones
    like ``repeat``); a missing scenario block matches anything."""
    scen_a = before["data"].get("scenario")
    scen_b = after["data"].get("scenario")
    if not isinstance(scen_a, dict) or not isinstance(scen_b, dict):
        return True
    for key in set(scen_a) & set(scen_b) - _SCENARIO_IGNORE:
        if scen_a[key] != scen_b[key]:
            return False
    return True


def _regression_pct(
    before: float, after: float, direction: str
) -> Optional[float]:
    """How much worse *after* is than *before* (positive = regressed),
    or None when the baseline is zero."""
    if before == 0:
        return None
    if direction == "lower":
        return (after - before) / abs(before) * 100
    return (before - after) / abs(before) * 100


def compare(
    entries: Sequence[Dict[str, object]],
    max_regression_pct: float = 20.0,
) -> Dict[str, object]:
    """The full trend report: per-family metric trajectories plus
    consecutive-pair comparisons and the list of gate failures."""
    families: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        families.setdefault(entry["benchmark"], []).append(entry)
    order = lambda e: (e["pr"] is None, e["pr"], e["path"])  # noqa: E731
    report: Dict[str, object] = {
        "max_regression_pct": max_regression_pct,
        "artifacts": len(entries),
        "families": {},
        "regressions": [],
    }
    for family, family_entries in sorted(families.items()):
        family_entries.sort(key=order)
        trend = [
            {
                "path": entry["path"],
                "pr": entry["pr"],
                "metrics": headline(entry),
            }
            for entry in family_entries
        ]
        comparisons = []
        for before, after in zip(family_entries, family_entries[1:]):
            hosts = host_comparability(before, after)
            same_scenario = scenarios_match(before, after)
            gated = hosts != "different" and same_scenario
            before_metrics = {m["path"]: m for m in headline(before)}
            deltas = []
            for metric in headline(after):
                base = before_metrics.get(metric["path"])
                if base is None:
                    continue
                pct = _regression_pct(
                    base["value"], metric["value"], metric["direction"]
                )
                if pct is None:
                    continue
                regressed = (
                    metric["gating"] and gated and pct > max_regression_pct
                )
                deltas.append({
                    "label": metric["label"],
                    "path": metric["path"],
                    "before": base["value"],
                    "after": metric["value"],
                    "regression_pct": round(pct, 2),
                    "gating": metric["gating"],
                    "regressed": regressed,
                })
                if regressed:
                    report["regressions"].append({
                        "benchmark": family,
                        "label": metric["label"],
                        "before_path": before["path"],
                        "after_path": after["path"],
                        "before": base["value"],
                        "after": metric["value"],
                        "regression_pct": round(pct, 2),
                    })
            comparisons.append({
                "before": before["path"],
                "after": after["path"],
                "hosts": hosts,
                "same_scenario": same_scenario,
                "gated": gated,
                "deltas": deltas,
            })
        report["families"][family] = {
            "trend": trend,
            "comparisons": comparisons,
        }
    return report


def _fmt(value: float) -> str:
    return f"{value:g}" if abs(value) < 1e6 else f"{value:.3e}"


def to_markdown(report: Dict[str, object]) -> str:
    """The human-facing trend report."""
    lines = ["# Benchmark trend report", ""]
    lines.append(
        f"{report['artifacts']} artifact(s); gate threshold "
        f"{report['max_regression_pct']:g}% on gating metrics."
    )
    for family, block in report["families"].items():
        lines += ["", f"## {family}", ""]
        labels: List[str] = []
        for point in block["trend"]:
            for metric in point["metrics"]:
                if metric["label"] not in labels:
                    labels.append(metric["label"])
        header = "| artifact | " + " | ".join(labels) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (len(labels) + 1))
        for point in block["trend"]:
            by_label = {m["label"]: m["value"] for m in point["metrics"]}
            cells = [
                _fmt(by_label[label]) if label in by_label else "-"
                for label in labels
            ]
            name = f"PR{point['pr']}" if point["pr"] is not None else (
                point["path"]
            )
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
        for comparison in block["comparisons"]:
            notes = []
            if comparison["hosts"] == "different":
                notes.append("different hosts — not gated")
            elif comparison["hosts"] == "unknown":
                notes.append("host unknown")
            if not comparison["same_scenario"]:
                notes.append("scenario changed — not gated")
            suffix = f"  ({'; '.join(notes)})" if notes else ""
            lines.append(
                f"\n{comparison['before']} → {comparison['after']}{suffix}"
            )
            for delta in comparison["deltas"]:
                marker = " **REGRESSION**" if delta["regressed"] else ""
                lines.append(
                    f"- {delta['label']}: {_fmt(delta['before'])} → "
                    f"{_fmt(delta['after'])} "
                    f"({delta['regression_pct']:+.1f}% "
                    f"{'worse' if delta['regression_pct'] > 0 else 'better'})"
                    f"{marker}"
                )
    regressions = report["regressions"]
    lines += ["", "## Gate", ""]
    if regressions:
        for regression in regressions:
            lines.append(
                f"- FAIL {regression['benchmark']} "
                f"{regression['label']}: {_fmt(regression['before'])} → "
                f"{_fmt(regression['after'])} "
                f"(+{regression['regression_pct']:.1f}%, "
                f"{regression['before_path']} → "
                f"{regression['after_path']})"
            )
    else:
        lines.append("No gating regressions.")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", metavar="BENCH.json",
                        help="benchmark artifacts (PR ordinal read from "
                             "the filename)")
    parser.add_argument("--max-regression-pct", type=float, default=20.0,
                        metavar="PCT",
                        help="gating-metric budget per consecutive pair "
                             "(default 20)")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when any gating regression exceeds "
                             "the budget")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="also write the full report as JSON to FILE")
    parser.add_argument("--markdown", metavar="FILE", dest="markdown_path",
                        help="also write the markdown report to FILE")
    args = parser.parse_args(argv)

    entries = [load_artifact(path) for path in args.artifacts]
    report = compare(entries, max_regression_pct=args.max_regression_pct)
    markdown = to_markdown(report)
    print(markdown, end="")
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.markdown_path:
        with open(args.markdown_path, "w") as handle:
            handle.write(markdown)
    if args.gate and report["regressions"]:
        print(
            f"gate: {len(report['regressions'])} regression(s) over the "
            f"{args.max_regression_pct:g}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
