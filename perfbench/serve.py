"""Workloads ``serve_cold`` and ``serve_hot``: ``POST /convert`` against
a spawned ``python -m repro serve`` daemon.

The daemon runs as its own process with default flags (``--port 0``
only, so concurrent checkouts never collide). Load comes from this one
process: the main thread plus one more, each owning one keep-alive
connection and sending every request in a single write.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import (
    CALIB_REF_MS,
    Calibrator,
    Trace,
    at_reference,
    counter_totals,
    cpus,
    deltas,
    digest,
    min_samples_for,
    no_span,
    percentile,
    quietest,
    ratio,
    reconciles,
    residual,
    steal_ms,
)
from fig1 import COUNTERS

PROGRAM = "SgmlBrochuresToOdmg"
PATH = f"/convert/{PROGRAM}?include=output"
CONNECTIONS = 2
SETUP_REPS = 5
#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop phase.
OPEN_SHARE = 0.8
#: Open-loop arrival rates (requests/s), below each workload's capacity.
RATES = {"serve_cold": 20.0, "serve_hot": 20.0}
RESCALE_LATENCY = {"serve_cold": True, "serve_hot": False}
COLD_MAX_BROCHURES = 50
HOT_POOL = 8
HOT_BROCHURES = (8, 12)
WARM_COLD = 8
#: Calibration loops in every pause between timed segments.
CALIB_REPS = 1
#: Open-loop requests per segment. The open-loop percentiles pool the
#: segments in which the hypervisor stole the least CPU time, until they
#: hold the 200 samples a p95 needs: on a shared host, stolen time
#: stretches a 1 ms request by several ms and would set the tail.
SEGMENT_REQUESTS = 50
#: Closed-loop bodies made up front per second of closed loop, well
#: above today's capacity; running out ends the phase early.
CLOSED_PER_S = {"serve_cold": 150, "serve_hot": 2000}
#: The generator is behind when its own lateness, past both the due
#: time and the moment a connection was free, exceeds this at p95.
GENERATOR_LATE_LIMIT_MS = 5.0
#: Bodies replayed twice (untraced, traced) to price the tracing.
OVERHEAD_REPLAYS = 40
LOAD_REPS = 20
#: Keys the server stamps per request; the rest is the response core.
STAMPS = ("trace_id", "latency_ms", "cache_hit")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _body(count: int, seed: int) -> str:
    from repro.workloads import brochure_sgml

    return brochure_sgml(
        count, distinct_suppliers=max(2, count // 5), seed=seed
    )


def cold_sizes(rng: random.Random, count: int) -> List[int]:
    """``count`` body sizes of 1-50 brochures, log-uniform: one drawn from
    each of ``count`` equal-probability strata, in seeded order. Every
    seed gets the same size mix, so runs differ in content and order
    only, never in how much work a phase holds."""
    sizes = [
        max(1, round(COLD_MAX_BROCHURES ** ((i + rng.random()) / count)))
        for i in range(count)
    ]
    rng.shuffle(sizes)
    return sizes


def cold_bodies(seed: int, counts: Sequence[int]) -> List[str]:
    """Distinct bodies for consecutive phases of ``counts`` requests."""
    rng = random.Random(f"serve_cold/{seed}")
    bodies: List[str] = []
    seen = set()
    for count in counts:
        for size in cold_sizes(rng, count):
            body = _body(size, rng.getrandbits(32))
            while body.strip() in seen:
                body = _body(size, rng.getrandbits(32))
            seen.add(body.strip())
            bodies.append(body)
    return bodies


def hot_pool(seed: int) -> List[str]:
    rng = random.Random(f"serve_hot/{seed}")
    return [
        _body(rng.randint(*HOT_BROCHURES), rng.getrandbits(32))
        for _ in range(HOT_POOL)
    ]


def hot_order(seed: int, count: int) -> List[int]:
    rng = random.Random(f"serve_hot/order/{seed}")
    return [rng.randrange(HOT_POOL) for _ in range(count)]


def request_bytes(body: str) -> bytes:
    data = body.encode("utf-8")
    head = (
        f"POST {PATH} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: text/plain; charset=utf-8\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("ascii") + data


# ---------------------------------------------------------------------------
# HTTP client and daemon
# ---------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection; a request is one write."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, payload: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(payload)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _ready(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"GET /readyz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                         b"Connection: close\r\n\r\n")
            return sock.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


class Daemon:
    """A ``python -m repro serve`` child; ``setup_s`` is spawn -> first
    ``/readyz`` 200."""

    def __init__(self, env: Dict[str, str], cpu: int) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stderr.readline()
            found = re.search(r"http://[\d.]+:(\d+)", line)
            if found is None:
                raise RuntimeError(f"daemon did not start: {line.strip()}")
            self.port = int(found.group(1))
            while not _ready(self.port):
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def cpu_ms(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------


class Sample:
    __slots__ = ("body", "due", "free", "sent", "done", "status", "response",
                 "payload")

    def __init__(self, body: int, due: float, free: float) -> None:
        self.body = body
        self.due = due
        self.free = free
        self.sent = self.done = 0.0
        self.status: Optional[int] = None
        self.response = b""
        self.payload: Dict[str, object] = {}

    def parse(self) -> None:
        """Decode the response once the timed phases are over."""
        try:
            self.payload = json.loads(self.response)
        except ValueError:
            self.payload = {}

    def core(self) -> Dict[str, object]:
        return {k: v for k, v in self.payload.items() if k not in STAMPS}


def _send(conn: Connection, payload: bytes, sample: Sample) -> Connection:
    """Exchange one request; a transport error leaves ``status`` None
    and hands back a fresh connection for the next request."""
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.response = conn.exchange(payload)
    except OSError:
        conn.close()
        conn = Connection(conn.port)
    sample.done = time.perf_counter()
    return conn


def _on_two_connections(port: int, worker: Callable) -> List[Sample]:
    """Run ``worker(conn, out)`` on the main thread and one more thread,
    one connection each; returns every sample."""
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    outs: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    helper = threading.Thread(target=worker, args=(conns[1], outs[1]))
    helper.start()
    try:
        worker(conns[0], outs[0])
    finally:
        helper.join()
        for conn in conns:
            conn.close()
    return outs[0] + outs[1]


def open_loop(port: int, payloads: Sequence[bytes], bodies: Sequence[int],
              rate: float) -> List[Sample]:
    """Request ``i`` is due at ``start + i / rate`` whatever the state of
    earlier requests; a request waits for a free connection when both
    are busy (that wait is ``serve.queue_ms``)."""
    start = time.perf_counter() + 0.05
    indices = itertools.count()

    def worker(conn: Connection, out: List[Sample]) -> None:
        for i in indices:
            if i >= len(bodies):
                return
            sample = Sample(bodies[i], start + i / rate, time.perf_counter())
            pause = sample.due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            conn = _send(conn, payloads[bodies[i]], sample)
            out.append(sample)

    return _on_two_connections(port, worker)


def closed_loop(port: int, payloads: Sequence[bytes], bodies: Sequence[int],
                seconds: float) -> Tuple[List[Sample], float]:
    """Each connection sends its next request as soon as the previous
    one completes, until ``seconds`` pass. Returns the samples and the
    phase's wall time."""
    start = time.perf_counter()
    deadline = start + seconds
    indices = itertools.count()

    def worker(conn: Connection, out: List[Sample]) -> None:
        for i in indices:
            now = time.perf_counter()
            if now >= deadline or i >= len(bodies):
                return
            sample = Sample(bodies[i], now, now)
            conn = _send(conn, payloads[bodies[i]], sample)
            out.append(sample)

    samples = _on_two_connections(port, worker)
    return samples, max(s.done for s in samples) - start


# ---------------------------------------------------------------------------
# Oracle: the same body through the facade, in this process
# ---------------------------------------------------------------------------


class Replay:
    """``parse_sgml_many`` -> ``SgmlImportWrapper().to_store`` ->
    ``YatSystem.run``: what the daemon does on a cache miss."""

    def __init__(self) -> None:
        from repro import YatSystem

        self.system = YatSystem()
        self.program = self.system.load_program_cached(PROGRAM)

    def core(self, body: str, span=no_span) -> Dict[str, object]:
        """The response core the daemon must send for ``body``."""
        from repro.sgml.parser import parse_sgml_many
        from repro.wrappers.sgml import SgmlImportWrapper

        with span("sgml.parse"):
            documents = parse_sgml_many(body)
        with span("wrappers.sgml_import"):
            store = SgmlImportWrapper().to_store(documents)
        with span("yatl.to_odmg"):
            result = self.system.run(self.program, store)
        core: Dict[str, object] = {
            "program": PROGRAM,
            "input_trees": len(store),
            "output_trees": len(result.store),
            "unconverted": len(result.unconverted),
            "warnings": len(result.warnings),
            "output": {name: str(node) for name, node in result.store},
        }
        if result.warnings:
            core["warning_messages"] = list(result.warnings)
        return core

    def traced(self, body: str) -> Tuple[Dict[str, object], Dict[str, float]]:
        spans = Trace()
        before = counter_totals(self.system.metrics, COUNTERS)
        with spans.span("serve.replay"):
            core = self.core(body, spans.span)
        counts = deltas(before, counter_totals(self.system.metrics, COUNTERS))
        wall, layers = spans.ledger()
        rest = residual(wall, layers.values())
        if not reconciles(wall, layers.values(), rest):
            raise AssertionError("layers plus residual do not equal wall time")
        row = {"wall_ms": wall, "system.residual": rest, **layers, **counts}
        return core, row


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        env: Dict[str, str], setup_reps: int = SETUP_REPS,
        min_open_samples: Optional[int] = None) -> Dict[str, object]:
    rate = RATES[workload]
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    n_open = int(rate * open_s)
    count = max(1, n_open // SEGMENT_REQUESTS)
    sizes = [n_open * (k + 1) // count - n_open * k // count
             for k in range(count)]
    n_closed = int(CLOSED_PER_S[workload] * closed_s)
    report: List[str] = []
    if workload == "serve_cold":
        # Each segment gets its own stratified size mix, so pooling any
        # of them keeps the mix.
        texts = cold_bodies(seed, [WARM_COLD] + sizes + [n_closed])
        warm = list(range(WARM_COLD))
        indices = iter(range(WARM_COLD, len(texts)))
    else:
        texts = hot_pool(seed)
        warm = list(range(HOT_POOL))
        indices = iter(hot_order(seed, n_open + n_closed))
    open_segments = [list(itertools.islice(indices, size)) for size in sizes]
    closed_bodies = list(indices)
    payloads = [request_bytes(text) for text in texts]
    order = [str(i) for part in open_segments + [closed_bodies] for i in part]
    report.append(
        f"inputs: {len(texts)} bodies, sha256 {digest(texts + order)}"
    )

    generator_cpu, work_cpu = cpus()
    os.sched_setaffinity(0, {generator_cpu})
    setups = []
    for _ in range(setup_reps - 1):
        daemon = Daemon(env, work_cpu)
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(env, work_cpu)
    setups.append(daemon.setup_s)
    try:
        with Calibrator(work_cpu) as calibrate:
            warm_samples = _exchange_all(daemon.port, payloads, warm)
            (segments, stolen, hosts, closed, closed_wall, cpu,
             calibs) = _measure(
                daemon, payloads, open_segments, closed_bodies, rate,
                closed_s, calibrate,
            )
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    calib = statistics.median(calibs)
    opened = [sample for segment in segments for sample in segment]
    measured = opened + closed

    # Oracles, outside the timed region: every response core must equal
    # an in-process run of its body.
    replay = Replay()
    expected: Dict[int, Dict[str, object]] = {}
    rows: Dict[int, Dict[str, float]] = {}
    for sample in warm_samples + measured:
        sample.parse()
        if sample.body not in expected:
            if trace:
                expected[sample.body], rows[sample.body] = replay.traced(
                    texts[sample.body]
                )
            else:
                expected[sample.body] = replay.core(texts[sample.body])
    failed = sum(
        s.status != 200 or s.core() != expected[s.body]
        for s in warm_samples + measured
    )
    attempted = len(warm_samples) + len(measured)

    need = min_open_samples if min_open_samples is not None \
        else min_samples_for(0.95)
    quiet = quietest([len(part) for part in segments], stolen[:-1], need)
    timed = [s for k in quiet for s in segments[k]]
    raw_latencies: List[float] = []
    latencies: List[float] = []
    for k in quiet:
        for sample in segments[k]:
            ms = (sample.done - sample.due) * 1000.0
            raw_latencies.append(ms)
            # serve_cold's latency is mostly the daemon's CPU work, so it
            # is rescaled by the calibrations bracketing its segment;
            # serve_hot's is mostly transport.
            latencies.append(
                at_reference(ms, hosts[k]) if RESCALE_LATENCY[workload]
                else ms
            )
    late = [(s.sent - max(s.due, s.free)) * 1000.0 for s in opened]
    generator_late = percentile(late, 0.95)
    valid = len(opened) >= need and generator_late <= GENERATOR_LATE_LIMIT_MS
    throughput = len(closed) / closed_wall
    cpu_per_op = cpu / len(measured)  # at reference speed
    report += [
        f"open loop: {rate:g} req/s for {open_s:g} s, n={len(opened)} in "
        f"{len(segments)} segments, stolen ms "
        f"{[round(ms) for ms in stolen[:-1]]}; percentiles over the "
        f"quietest, n={len(timed)}; closed loop: {CONNECTIONS} "
        f"connections for {closed_s:g} s, n={len(closed)}",
        f"generator_late_ms p95 {generator_late:.3f} "
        f"(limit {GENERATOR_LATE_LIMIT_MS:g}); valid: {valid}",
        f"oracle: {attempted - failed}/{attempted} responses equal an "
        f"in-process YatSystem.run of their body",
        f"host.calib_ms {calib:.3f} (median of {len(calibs)}); reference "
        f"host: calibration = {CALIB_REF_MS:g} ms",
        f"raw: latency_p50_ms {percentile(raw_latencies, 0.5):.4f} "
        f"latency_p95_ms {percentile(raw_latencies, 0.95):.4f}",
    ]
    n = len(timed)
    speed = " at reference speed," if RESCALE_LATENCY[workload] else ""
    end_to_end = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} daemon spawns to /readyz 200"),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms",
                           f"open loop, from due time,{speed} n={n}"),
        "latency_p95_ms": (percentile(latencies, 0.95), "ms",
                           f"open loop, from due time,{speed} n={n}"),
        "throughput_rps": (throughput, "1/s",
                           f"closed loop, n={len(closed)}"),
        "cpu_ms_per_op": (cpu_per_op, "ms",
                          f"daemon utime+stime at reference speed, "
                          f"n={len(measured)}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "daemon VmHWM"),
    }
    result = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "valid": valid,
        "report": report,
    }
    if trace:
        result["per_layer"] = _per_layer(
            measured, timed, closed, rows, replay, texts, calib, generator_late
        )
        layers = result["per_layer"]
        result["report"].append(
            f"attribution (medians): latency_p50_ms "
            f"{end_to_end['latency_p50_ms'][0]:.3f} ~ queue "
            f"{layers['serve.queue_ms']:.3f} + transport "
            f"{layers['serve.transport_ms']:.3f} + server "
            f"{layers['serve.server_ms']:.3f}; dominant term: "
            f"{dominant_term(timed)}; closed loop: transport "
            f"{layers['serve.closed_transport_ms']:.3f} + server "
            f"{layers['serve.closed_server_ms']:.3f}; dominant term: "
            f"{dominant_term(closed)}"
        )
    return result


def _measure(daemon: Daemon, payloads: Sequence[bytes],
             open_segments: Sequence[Sequence[int]],
             closed_bodies: Sequence[int], rate: float, closed_s: float,
             calibrate: Calibrator):
    """The timed phases with calibration loops in the pauses between
    them (never during one: the calibration runs on the daemon's core),
    so the calibrations sample the host's speed all through the run.
    The open loop runs one segment per entry of ``open_segments``.

    Returns ``(open-loop segments, then for each segment and the closed
    loop: ms stolen and the mean calibration of the two pauses that
    bracket it; closed samples, closed-loop wall s, daemon cpu ms at
    reference speed, calibrations)``. Each phase's daemon CPU time is
    rescaled by its own bracket."""
    calibs: List[float] = []

    def pause() -> float:
        ran = [calibrate() for _ in range(CALIB_REPS)]
        calibs.extend(ran)
        return statistics.median(ran)

    stolen: List[float] = []
    hosts: List[float] = []
    cpu_ref = 0.0
    before = pause()

    def timed(phase: Callable):
        """Run one phase; book its stolen time, its bracketing
        calibration and its daemon CPU time at reference speed."""
        nonlocal before, cpu_ref
        steal0, cpu0 = steal_ms(), daemon.cpu_ms()
        result = phase()
        stolen.append(steal_ms() - steal0)
        cpu = daemon.cpu_ms() - cpu0
        after = pause()
        hosts.append((before + after) / 2.0)
        cpu_ref += at_reference(cpu, hosts[-1])
        before = after
        return result

    segments = [
        timed(lambda part=part: open_loop(daemon.port, payloads, part, rate))
        for part in open_segments
    ]
    closed, closed_wall = timed(
        lambda: closed_loop(daemon.port, payloads, closed_bodies, closed_s)
    )
    return segments, stolen, hosts, closed, closed_wall, cpu_ref, calibs


def _exchange_all(port: int, payloads: Sequence[bytes],
                  bodies: Sequence[int]) -> List[Sample]:
    """Send ``bodies`` once each, in order, on one connection."""
    conn = Connection(port)
    samples = []
    for body in bodies:
        sample = Sample(body, time.perf_counter(), time.perf_counter())
        conn = _send(conn, payloads[body], sample)
        samples.append(sample)
    conn.close()
    return samples


def _per_layer(measured, timed, closed, rows, replay, texts, calib,
               generator_late):
    # A cache hit runs no parse, import or interpreter work: its share
    # of those layers is 0; a miss costs what its in-process replay cost.
    def per_request(key: str) -> float:
        return statistics.median(
            0.0 if s.payload.get("cache_hit") else rows[s.body].get(key, 0.0)
            for s in measured
        )

    untraced, traced = [], []
    for k, body in enumerate(list(rows)[:OVERHEAD_REPLAYS]):
        # Alternate which variant runs first, so neither always finds
        # the caches the other just warmed.
        pair = [(replay.core, untraced), (replay.traced, traced)]
        if k % 2:
            pair.reverse()
        for replay_once, times in pair:
            start = time.perf_counter()
            replay_once(texts[body])
            times.append(time.perf_counter() - start)
    loads = []
    for _ in range(LOAD_REPS):
        start = time.perf_counter()
        for name in replay.system.library.program_names():
            replay.system.library.load_program(name)
        loads.append((time.perf_counter() - start) * 1000.0)
    queue, transport, server = zip(*(_latency_terms(s) for s in timed))
    _, closed_transport, closed_server = zip(
        *(_latency_terms(s) for s in closed)
    )
    considered = per_request("yatl.dispatch.subjects_considered")
    return {
        "host.calib_ms": calib,
        "sgml.parse_ms": per_request("sgml.parse"),
        "wrappers.sgml_import_ms": per_request("wrappers.sgml_import"),
        "wrappers.odmg_export_ms": 0.0,
        "wrappers.odmg_import_ms": 0.0,
        "wrappers.html_export_ms": 0.0,
        "yatl.to_odmg_ms": per_request("yatl.to_odmg"),
        "yatl.o2web_ms": 0.0,
        "yatl.demand.iterations": per_request("yatl.demand.iterations"),
        "yatl.rule.bindings_matched": per_request("yatl.rule.bindings_matched"),
        "yatl.skolem.ids_fresh": per_request("yatl.skolem.ids_fresh"),
        "yatl.skolem.ids_reused": per_request("yatl.skolem.ids_reused"),
        "yatl.outputs.trees": per_request("yatl.outputs.trees"),
        "yatl.dispatch.admit_ratio": ratio(
            per_request("yatl.dispatch.subjects_admitted"), considered
        ),
        "system.residual_ms": per_request("system.residual"),
        "library.load_ms": statistics.median(loads),
        "yatl.compose_ms": 0.0,
        "serve.server_ms": statistics.median(server),
        "serve.transport_ms": statistics.median(transport),
        "serve.queue_ms": statistics.median(queue),
        "serve.closed_server_ms": statistics.median(closed_server),
        "serve.closed_transport_ms": statistics.median(closed_transport),
        "serve.cache_hit_ratio": sum(
            bool(s.payload.get("cache_hit")) for s in measured
        ) / len(measured),
        "generator_late_ms": generator_late,
        "trace_overhead_pct": 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        ),
    }


def _latency_terms(sample: Sample) -> Tuple[float, float, float]:
    """``(queue, transport, server)`` in ms; they sum to the request's
    latency from its due time. Server time is the response's own
    ``latency_ms``; transport is the client's round trip minus it."""
    server = float(sample.payload.get("latency_ms", 0.0))
    queue = (sample.sent - sample.due) * 1000.0
    return queue, (sample.done - sample.sent) * 1000.0 - server, server


def dominant_term(opened: Sequence[Sample]) -> str:
    """The term holding most of the open-loop latency, summed over
    requests: ``queue`` and ``server`` or ``transport``."""
    totals = [sum(terms) for terms in zip(*(_latency_terms(s) for s in opened))]
    return ("queue", "transport", "server")[totals.index(max(totals))]
