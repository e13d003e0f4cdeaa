"""Workload ``fig1_pipeline``: the paper's Figure 1 conversion, batch.

SGML text -> parse -> ``import_sgml`` -> SgmlBrochuresToOdmg ->
``export_odmg`` -> ``import_odmg`` -> O2Web -> ``export_html``, all
through the :class:`repro.YatSystem` facade in this one process.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    CALIB_REF_MS,
    Calibrator,
    Trace,
    at_reference,
    counter_totals,
    cpus,
    deltas,
    digest,
    no_span,
    percentile,
    ratio,
    reconciles,
    residual,
)

BROCHURES = 1000
DISTINCT_SUPPLIERS = 200
SETUP_REPS = 7
LOAD_REPS = 20

#: Counters read as per-conversion deltas of the system registry, which
#: is cumulative across runs (``ConversionResult.metrics`` is that
#: registry under ``YatSystem.run``).
COUNTERS = (
    "yatl.demand.iterations",
    "yatl.rule.bindings_matched",
    "yatl.skolem.ids_fresh",
    "yatl.skolem.ids_reused",
    "yatl.outputs.trees",
    "yatl.dispatch.subjects_considered",
    "yatl.dispatch.subjects_admitted",
)

#: The conversion layers, in pipeline order, as span names.
LAYERS = (
    "sgml.parse",
    "wrappers.sgml_import",
    "yatl.to_odmg",
    "wrappers.odmg_export",
    "wrappers.odmg_import",
    "yatl.o2web",
    "wrappers.html_export",
)

_SETUP_SCRIPT = """
from repro import YatSystem
system = YatSystem()
first = system.import_program("SgmlBrochuresToOdmg")
second = system.import_program("O2Web")
system.compose(first, second, name="SgmlToHtml")
print("ready", flush=True)
"""


def make_text(seed: int, brochures: int = BROCHURES,
              suppliers: int = DISTINCT_SUPPLIERS) -> str:
    from repro.workloads import brochure_sgml

    return brochure_sgml(brochures, distinct_suppliers=suppliers, seed=seed)


def expected_page_count(seed: int, brochures: int, suppliers: int) -> int:
    """One page per brochure plus one per supplier the brochures cite."""
    from repro.workloads import brochure_elements

    cited = {
        supplier.find("name").text
        for document in brochure_elements(
            brochures, distinct_suppliers=suppliers, seed=seed
        )
        for supplier in document.find("spplrs").find_all("supplier")
    }
    return brochures + len(cited)


def setup_seconds(env: Dict[str, str]) -> float:
    """Fresh interpreter -> ``import repro`` -> ``YatSystem()`` -> load
    both programs -> compose SgmlToHtml, timed from spawn to the child's
    ready line."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SETUP_SCRIPT], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = child.communicate(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed: {err.strip()}")
    return elapsed


class Pipeline:
    """The facade and the two library programs of Figure 1."""

    def __init__(self) -> None:
        from repro import YatSystem
        from repro.objectdb import car_dealer_schema
        from repro.sgml import brochure_dtd

        self.system = YatSystem()
        self.to_odmg = self.system.import_program("SgmlBrochuresToOdmg")
        self.o2web = self.system.import_program("O2Web")
        self.schema = car_dealer_schema()
        self.dtd = brochure_dtd()

    def convert(self, text: str, span=no_span) -> Dict[str, str]:
        from repro.sgml.parser import parse_sgml_many

        system = self.system
        with span("sgml.parse"):
            documents = parse_sgml_many(text)
        with span("wrappers.sgml_import"):
            store = system.import_sgml(documents, self.dtd)
        with span("yatl.to_odmg"):
            objects_result = system.run(self.to_odmg, store)
        with span("wrappers.odmg_export"):
            objects = system.export_odmg(objects_result, self.schema)
        with span("wrappers.odmg_import"):
            object_store = system.import_odmg(objects)
        with span("yatl.o2web"):
            pages_result = system.run(self.o2web, object_store)
        with span("wrappers.html_export"):
            return system.export_html(pages_result)

    def composed_pages(self, text: str) -> Dict[str, str]:
        """The Section 4.3 one-step program's pages: the oracle."""
        from repro.sgml.parser import parse_sgml_many

        system = self.system
        composed = system.compose(self.to_odmg, self.o2web, name="SgmlToHtml")
        store = system.import_sgml(parse_sgml_many(text), self.dtd)
        return system.export_html(system.run(composed, store))


def _timed(pipeline: Pipeline, text: str, spans: Optional[Trace]):
    """One conversion from a collected heap: ``(pages, wall ms, cpu ms)``;
    with ``spans``, the conversion is their root span."""
    span = spans.span if spans is not None else no_span
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with span("fig1.convert"):
        pages = pipeline.convert(text, span)
    wall = (time.perf_counter() - wall0) * 1000.0
    cpu = (time.process_time() - cpu0) * 1000.0
    return pages, wall, cpu


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str],
        brochures: int = BROCHURES, suppliers: int = DISTINCT_SUPPLIERS,
        setup_reps: int = SETUP_REPS) -> Dict[str, object]:
    report: List[str] = []
    text = make_text(seed, brochures, suppliers)
    report.append(f"inputs: {brochures} brochures, {suppliers} suppliers, "
                  f"{len(text)} bytes, sha256 {digest([text])}")

    _, work_cpu = cpus()
    os.sched_setaffinity(0, {work_cpu})  # set-up children inherit it
    setups = [setup_seconds(env) for _ in range(setup_reps)]
    pipeline = Pipeline()
    reference = pipeline.convert(text)  # warm-up, and the pages to hold
    with Calibrator(work_cpu) as calibrate:
        calibs, plain, traced, mismatches = _conversions(
            pipeline, text, reference, seconds, trace, calibrate
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output oracles, outside the timed region.
    expected_pages = expected_page_count(seed, brochures, suppliers)
    oracle_ok = (
        len(reference) == expected_pages
        and pipeline.composed_pages(text) == reference
    )
    conversions = len(plain) + len(traced)
    report.append(
        f"oracle: {len(reference)} pages (expected {expected_pages}), "
        f"byte-identical to composed SgmlToHtml: {oracle_ok}; "
        f"{conversions - mismatches}/{conversions} conversions gave "
        f"the same pages"
    )

    walls = [at_reference(wall, host) for wall, _, host in plain]
    cpu_times = [at_reference(cpu, host) for _, cpu, host in plain]
    calib = statistics.median(calibs)
    n = len(walls)
    raw_walls = [wall for wall, _, _ in plain]
    report += [
        f"host.calib_ms {calib:.3f} (median of {len(calibs)}); reference "
        f"host: calibration = {CALIB_REF_MS:g} ms",
        f"raw: convert_s_p50 {percentile(raw_walls, 0.5) / 1000:.4f} s, "
        f"latency_p95_ms {percentile(raw_walls, 0.95):.2f}, cpu_ms_per_op "
        f"{statistics.median(c for _, c, _ in plain):.2f} (n={n})",
    ]
    at_ref = f"at reference speed, n={n}"
    end_to_end = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters"),
        "latency_p50_ms": (percentile(walls, 0.5), "ms",
                           f"one full conversion, {at_ref}"),
        "latency_p95_ms": (percentile(walls, 0.95), "ms",
                           f"{at_ref}: fewer than 200, a tail only"),
        "throughput_rps": (n * 1000.0 / sum(walls), "1/s",
                           f"conversions/s, {at_ref}"),
        "cpu_ms_per_op": (statistics.median(cpu_times), "ms",
                          f"process_time, {at_ref}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss"),
    }
    result = {
        "end_to_end": end_to_end,
        "attempted": conversions + 1,
        "failed": mismatches + (not oracle_ok),
        "report": report,
    }
    result["correct"] = result["failed"] == 0
    if trace:
        result["per_layer"] = _per_layer(traced, walls, pipeline, calib)
    return result


def _conversions(pipeline: Pipeline, text: str, reference: Dict[str, str],
                 seconds: float, trace: bool, calibrate: Calibrator):
    """Convert ``text`` over and over for ``seconds`` (at least 3
    untraced times). A calibration loop runs before the first conversion
    and after each one; a conversion is rescaled by the mean of the two
    that bracket it. In a traced run, untraced and traced conversions
    alternate, so the difference of their medians is the overhead.

    Returns ``(calibrations, [(wall, cpu, host)] untraced, [ledger row]
    traced, conversions whose pages differ from ``reference``)``."""
    calibs = [calibrate()]
    plain: List[Tuple[float, float, float]] = []
    traced: List[Dict[str, float]] = []
    mismatches = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < 3:
        spans = Trace() if trace and len(plain) > len(traced) else None
        before = counter_totals(pipeline.system.metrics, COUNTERS)
        pages, wall, cpu = _timed(pipeline, text, spans)
        calibs.append(calibrate())
        host = (calibs[-2] + calibs[-1]) / 2.0
        mismatches += pages != reference
        if spans is None:
            plain.append((wall, cpu, host))
        else:
            counts = deltas(
                before, counter_totals(pipeline.system.metrics, COUNTERS)
            )
            traced.append(_ledger_row(spans, counts, host))
    return calibs, plain, traced, mismatches


def _ledger_row(spans: Trace, counts: Dict[str, float],
                host: float) -> Dict[str, float]:
    wall, layers = spans.ledger()
    rest = residual(wall, layers.values())
    if not reconciles(wall, layers.values(), rest):
        raise AssertionError("layers plus residual do not equal wall time")
    row = {"wall_ms": wall, "ref_wall_ms": at_reference(wall, host),
           "system.residual": rest}
    row.update({name: layers.get(name, 0.0) for name in LAYERS})
    row.update(counts)
    return row


def _per_layer(traced, walls, pipeline, calib):
    def med(key):
        return statistics.median(row[key] for row in traced)

    loads, composes = [], []
    for _ in range(LOAD_REPS):
        start = time.perf_counter()
        first = pipeline.system.library.load_program("SgmlBrochuresToOdmg")
        second = pipeline.system.library.load_program("O2Web")
        middle = time.perf_counter()
        first.composed_with(second, name="SgmlToHtml")
        loads.append((middle - start) * 1000.0)
        composes.append((time.perf_counter() - middle) * 1000.0)
    considered = med("yatl.dispatch.subjects_considered")
    values = {
        "host.calib_ms": calib,
        "sgml.parse_ms": med("sgml.parse"),
        "wrappers.sgml_import_ms": med("wrappers.sgml_import"),
        "wrappers.odmg_export_ms": med("wrappers.odmg_export"),
        "wrappers.odmg_import_ms": med("wrappers.odmg_import"),
        "wrappers.html_export_ms": med("wrappers.html_export"),
        "yatl.to_odmg_ms": med("yatl.to_odmg"),
        "yatl.o2web_ms": med("yatl.o2web"),
        "yatl.demand.iterations": med("yatl.demand.iterations"),
        "yatl.rule.bindings_matched": med("yatl.rule.bindings_matched"),
        "yatl.skolem.ids_fresh": med("yatl.skolem.ids_fresh"),
        "yatl.skolem.ids_reused": med("yatl.skolem.ids_reused"),
        "yatl.outputs.trees": med("yatl.outputs.trees"),
        "yatl.dispatch.admit_ratio": ratio(
            med("yatl.dispatch.subjects_admitted"), considered
        ),
        "system.residual_ms": med("system.residual"),
        "library.load_ms": statistics.median(loads),
        "yatl.compose_ms": statistics.median(composes),
        "serve.server_ms": 0.0,
        "serve.transport_ms": 0.0,
        "serve.queue_ms": 0.0,
        "serve.closed_server_ms": 0.0,
        "serve.closed_transport_ms": 0.0,
        "serve.cache_hit_ratio": 0.0,
        "generator_late_ms": 0.0,
        "trace_overhead_pct": 100.0 * (
            med("ref_wall_ms") / statistics.median(walls) - 1.0
        ),
    }
    return values
