"""Self-tests of the benchmark: its arithmetic, its inputs, its contract
with BENCHMARK.json, and a tiny-size smoke of every workload.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import fig1  # noqa: E402
import run as bench  # noqa: E402
import serve  # noqa: E402


def load(name):
    with open(name) as handle:
        return json.load(handle)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
PREDICTIONS = load(os.path.join(HERE, "workloads.json"))


# -- arithmetic --------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 0.5) == 3.0
    assert common.percentile(values, 0.0) == 1.0
    assert common.percentile(values, 1.0) == 5.0
    assert common.percentile(values, 0.95) == pytest.approx(4.8)
    assert common.percentile(list(range(101)), 0.95) == pytest.approx(95.0)
    assert common.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        common.percentile([], 0.5)


def test_quietest_picks_the_least_stolen_segments_until_enough():
    sizes = [100, 100, 100, 100]
    stolen = [50.0, 0.0, 10.0, 0.0]
    assert common.quietest(sizes, stolen, 200) == [1, 3]
    assert common.quietest(sizes, stolen, 201) == [1, 3, 2]
    assert common.quietest(sizes, [0.0] * 4, 150) == [0, 1]


def test_sample_counts_for_a_percentile():
    assert common.samples_beyond(200, 0.95) == 10
    assert common.samples_beyond(199, 0.95) == 9
    assert common.samples_beyond(1000, 0.99) == 10
    assert common.min_samples_for(0.95) == 200
    assert common.min_samples_for(0.99) == 1000
    assert common.min_samples_for(0.5) == 20


def test_residual_reconciles_with_wall_time():
    layers = [3.0, 4.0, 2.5]
    rest = common.residual(10.0, layers)
    assert rest == pytest.approx(0.5)
    assert common.reconciles(10.0, layers, rest)
    assert not common.reconciles(10.0, layers, rest + 0.1)
    # Layers that add up to more than the wall counted time twice.
    assert not common.reconciles(9.0, layers, common.residual(9.0, layers))


def test_trace_ledger_sums_direct_children_and_rejects_overlap():
    spans = common.Trace()
    with spans.span("root"):
        with spans.span("a"):
            with spans.span("a.inner"):
                time.sleep(0.002)
        with spans.span("b"):
            time.sleep(0.002)
        with spans.span("a"):
            pass
    wall, layers = spans.ledger()
    assert set(layers) == {"a", "b"}
    rest = common.residual(wall, layers.values())
    assert common.reconciles(wall, layers.values(), rest)
    assert layers["b"] >= 2.0

    broken = common.Trace()
    broken.spans = [("root", 0.0, 1.0, None), ("a", 0.1, 0.6, 0),
                    ("b", 0.5, 0.9, 0)]
    with pytest.raises(AssertionError):
        broken.ledger()


def test_reference_speed_rescaling():
    assert common.at_reference(120.0, common.CALIB_REF_MS) == 120.0
    assert common.at_reference(120.0, 2 * common.CALIB_REF_MS) == 60.0


def test_counter_deltas_are_per_operation():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("c").inc(12, rule="r1")
    before = common.counter_totals(registry, ["c", "absent"])
    registry.counter("c").inc(12, rule="r2")
    after = common.counter_totals(registry, ["c", "absent"])
    assert common.deltas(before, after) == {"c": 12.0, "absent": 0.0}


def test_latency_terms_sum_to_latency_from_due_time():
    sample = serve.Sample(body=0, due=1.000, free=0.990)
    sample.sent, sample.done = 1.004, 1.050
    sample.payload = {"latency_ms": 2.5, "cache_hit": True}
    queue, transport, server = serve._latency_terms(sample)
    assert queue == pytest.approx(4.0)
    assert server == 2.5
    assert queue + transport + server == pytest.approx(50.0)
    assert serve.dominant_term([sample]) == "transport"


# -- inputs ------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    def digests(seed):
        return (
            common.digest([fig1.make_text(seed, 30, 6)]),
            common.digest(serve.cold_bodies(seed, (4, 8))),
            common.digest(serve.hot_pool(seed)),
            serve.hot_order(seed, 50),
        )

    assert digests(1) == digests(1)
    assert all(a != b for a, b in zip(digests(1), digests(2)))


def test_cold_bodies_are_distinct_and_sized_one_to_fifty():
    bodies = serve.cold_bodies(3, (100, 200))
    assert len({body.strip() for body in bodies}) == 300
    sizes = [body.count("<brochure>") for body in bodies]
    assert min(sizes) >= 1 and max(sizes) <= serve.COLD_MAX_BROCHURES
    assert len(set(sizes)) > 20


# -- contract with BENCHMARK.json ----------------------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    # serve_hot runs and is self-tested, but stays out of BENCHMARK.json:
    # its 1-2 ms tail is set by the hypervisor's stolen time (README).
    assert [w["name"] for w in SPEC["workloads"]] == \
        ["fig1_pipeline", "serve_cold"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_every_workload_records_its_predictions():
    layer_times = {
        name for name in bench.PER_LAYER
        if name.endswith("_ms") and name not in
        ("host.calib_ms", "generator_late_ms")
    }
    assert set(PREDICTIONS["workloads"]) == set(bench.WORKLOADS)
    for name, record in PREDICTIONS["workloads"].items():
        assert record["why"] and record["stresses"] and record["bypasses"]
        assert set(record["layers"]) == layer_times, name
        for layer, prediction in record["layers"].items():
            named = set(prediction["moves"]) | set(prediction["unchanged"])
            assert named <= set(bench.END_TO_END), (name, layer)
            assert not set(prediction["moves"]) & \
                set(prediction["unchanged"]), (name, layer)
    for name in ("serve_cold", "serve_hot"):
        assert PREDICTIONS["workloads"][name]["open_loop_rps"] == \
            serve.RATES[name]


# -- smoke runs ----------------------------------------------------------------


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(completed):
    assert completed.returncode == 0, completed.stderr + completed.stdout
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke(workload, trace):
    result = last_json(run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "2",
        "--trace", trace, "--smoke",
    ))
    wanted = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_serve_hot_stall_lands_in_transport():
    """Back to back on a keep-alive connection, a cache hit's round trip
    is tens of ms although the daemon spends a fraction of one in it.
    Whatever that gap is, it must be booked as transport, never as
    server time or a client-side wait."""
    metrics = last_json(run_bench(
        "--workload", "serve_hot", "--seed", "5", "--seconds", "3",
        "--trace", "1", "--smoke",
    ))["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    round_trip = value["serve.closed_transport_ms"] + \
        value["serve.closed_server_ms"]
    if round_trip >= 20.0:
        assert value["serve.closed_transport_ms"] >= 0.8 * round_trip
        assert value["serve.closed_server_ms"] < 5.0
    assert value["generator_late_ms"] < serve.GENERATOR_LATE_LIMIT_MS
    assert value["serve.queue_ms"] < value["serve.transport_ms"] + \
        value["serve.server_ms"] + 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "fig1_pipeline", "--seed", "1",
                          "--seconds", "1", "--trace", "0",
                          cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not any(line.startswith("{")
                   for line in completed.stdout.splitlines())
