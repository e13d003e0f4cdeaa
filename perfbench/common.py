"""Shared arithmetic and instruments of the repository benchmark.

Everything here is pure standard library, so the self-tests can check
the percentile, sample-count and residual arithmetic without importing
the program under test.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A timing percentile is reported only when at least this many samples
#: lie beyond it (p95 therefore needs 200 samples).
MIN_SAMPLES_BEYOND = 10

#: The reference host: one on which :func:`calibrate` takes exactly this
#: long. CPU-bound figures are reported at this speed (see
#: :func:`at_reference`), next to their raw value and the calibration.
CALIB_REF_MS = 150.0


# ---------------------------------------------------------------------------
# Percentiles and spreads
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between
    closest ranks, the convention of numpy's default."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-quantile."""
    return n - math.ceil(round(q * n, 9))


def min_samples_for(q: float, beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """The fewest samples for which ``beyond`` lie above the
    ``q``-quantile: 200 for p95, 1000 for p99."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def at_reference(raw: float, calib_ms: float) -> float:
    """Rescale a CPU-bound time measured on a host whose calibration
    loop took ``calib_ms`` to the reference host (``CALIB_REF_MS``)."""
    return raw * CALIB_REF_MS / calib_ms


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Run a fixed pure-Python loop; return its wall time in ms.

    Ten times over, the loop allocates 15k small objects, hashes string
    keys into a dict and sorts: what the interpreter under test spends
    its time on. Its amount of work never changes, so its time tracks
    the host's speed alone. Of the loop shapes tried on a shared
    two-core host, this one followed the conversions' own slowdowns
    most closely.
    """
    start = time.perf_counter()
    for _ in range(10):
        rows = [(str(i), i, [i]) for i in range(15_000)]
        table: Dict[str, int] = {}
        for key, value, box in rows:
            table[key[-3:]] = table.get(key[-3:], 0) + value + len(box)
        rows.sort(key=lambda row: row[0])
    return (time.perf_counter() - start) * 1000.0


def cpus() -> Tuple[int, int]:
    """``(generator CPU, work CPU)``: the measured work -- a batch
    conversion or the daemon -- is pinned to one CPU, and a load
    generator to another when there is one. Pinned, the calibration
    loop measures the speed of the very core the work runs on: on a
    shared host, cores slow down independently."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


class Calibrator:
    """:func:`calibrate` in a child interpreter pinned to ``cpu``, run on
    request, so the loop's working set never counts toward the memory
    of the process being measured. Call it for one calibration in ms."""

    def __init__(self, cpu: int) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {here!r})\n"
             "from common import calibrate\n"
             "for _ in sys.stdin: print(calibrate(), flush=True)"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def steal_ms() -> float:
    """CPU time the hypervisor has given to other guests while this
    machine's CPUs wanted to run (the ``steal`` column of /proc/stat),
    in ms since boot; 0 where the kernel reports none."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def quietest(sizes: Sequence[int], stolen: Sequence[float],
             need: int) -> List[int]:
    """Indices of the segments with the least stolen CPU time, quietest
    first (earlier first on ties), until their ``sizes`` reach ``need``
    samples."""
    chosen: List[int] = []
    for k in sorted(range(len(sizes)), key=lambda k: stolen[k]):
        if sum(sizes[i] for i in chosen) >= need:
            break
        chosen.append(k)
    return chosen


# ---------------------------------------------------------------------------
# Spans timed from outside the program
# ---------------------------------------------------------------------------


class Trace:
    """In-memory spans recorded around the benchmark's own calls into
    each layer. A span is ``(name, start, end, parent)``; the trace is
    read once the timed work is over."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def ledger(self) -> Tuple[float, Dict[str, float]]:
        """``(wall_ms, {child name: ms})`` for the first (root) span and
        its direct children; raises if a child leaves the root's
        interval or two children overlap, so the children plus the
        root's self time account for the wall time exactly."""
        _, start, end, _ = self.spans[0]
        children = sorted(
            (s for s in self.spans if s[3] == 0), key=lambda s: s[1]
        )
        layers: Dict[str, float] = {}
        cursor = start
        for name, c_start, c_end, _ in children:
            if c_start < cursor or c_end > end:
                raise AssertionError(f"span {name} overlaps its siblings")
            cursor = c_end
            layers[name] = layers.get(name, 0.0) + (c_end - c_start) * 1000.0
        return (end - start) * 1000.0, layers


def no_span(name: str):
    """The untraced stand-in for :meth:`Trace.span`."""
    return nullcontext()


def residual(wall_ms: float, layers: Iterable[float]) -> float:
    """Wall time no layer accounts for."""
    return wall_ms - sum(layers)


def reconciles(
    wall_ms: float, layers: Iterable[float], residual_ms: float,
    tolerance_ms: float = 1e-6,
) -> bool:
    """True when the layers plus the residual give back the wall time
    and the residual is not negative (no time counted twice)."""
    layers = list(layers)
    return (
        residual_ms >= -tolerance_ms
        and abs(sum(layers) + residual_ms - wall_ms) <= tolerance_ms
    )


# ---------------------------------------------------------------------------
# Inputs and reporting
# ---------------------------------------------------------------------------


def digest(chunks: Iterable[str]) -> str:
    """sha256 over a sequence of generated inputs, order included."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        data = chunk.encode("utf-8")
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.hexdigest()


def counter_totals(registry, names: Sequence[str]) -> Dict[str, float]:
    """Current totals (summed over labels) of the named counters of a
    :class:`repro.obs.MetricsRegistry`; absent counters read 0."""
    totals = {}
    for name in names:
        metric = registry.get(name)
        totals[name] = metric.total() if metric is not None else 0.0
    return totals


def deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-operation counts from two cumulative snapshots."""
    return {name: after[name] - before.get(name, 0.0) for name in after}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report_line(name: str, value: float, unit: str, note: str = "") -> str:
    """One human-readable metric line; the final JSON line is the
    machine-readable result."""
    return f"  {name:<30} {value:>14.4f} {unit:<6} {note}".rstrip()
