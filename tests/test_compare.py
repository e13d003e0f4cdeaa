"""The perf-regression observatory (benchmarks/compare.py)."""

import json

import pytest

from benchmarks.compare import (
    compare,
    host_comparability,
    load_artifact,
    main,
    scenarios_match,
    to_markdown,
)

HOST = {"cpu_count": 4, "platform": "Linux-x", "python": "3.11.7",
        "git_sha": "abc"}


def dispatch_artifact(pr, wall_ms, host=HOST, scenario=None, speedup=3.0):
    return {
        "path": f"BENCH_PR{pr}.json",
        "pr": pr,
        "benchmark": "dispatch_index",
        "data": {
            "benchmark": "dispatch_index",
            "host": host,
            "scenario": scenario or {"input_trees": 100, "repeat": 2},
            "legs": {"indexed": {"wall_ms": wall_ms},
                     "no_index": {"wall_ms": wall_ms * 3}},
            "speedup": speedup,
        },
    }


def serve_artifact(pr, rps, host=HOST):
    return {
        "path": f"BENCH_PR{pr}.json",
        "pr": pr,
        "benchmark": "serve",
        "data": {
            "benchmark": "serve",
            "host": host,
            "throughput_rps": rps,
            "client_latency_ms": {"p99": 50.0},
        },
    }


class TestComparability:
    def test_same_host(self):
        a, b = dispatch_artifact(1, 100), dispatch_artifact(2, 100)
        assert host_comparability(a, b) == "same"

    def test_different_cpu_count(self):
        other = dict(HOST, cpu_count=1)
        a = dispatch_artifact(1, 100)
        b = dispatch_artifact(2, 100, host=other)
        assert host_comparability(a, b) == "different"

    def test_missing_host_is_unknown(self):
        a = dispatch_artifact(1, 100, host=None)
        del a["data"]["host"]
        b = dispatch_artifact(2, 100)
        assert host_comparability(a, b) == "unknown"

    def test_scenarios_match_ignores_repeat(self):
        a = dispatch_artifact(1, 100,
                              scenario={"input_trees": 100, "repeat": 2})
        b = dispatch_artifact(2, 100,
                              scenario={"input_trees": 100, "repeat": 5})
        assert scenarios_match(a, b)

    def test_scenarios_differ_on_workload_keys(self):
        a = dispatch_artifact(1, 100, scenario={"input_trees": 100})
        b = dispatch_artifact(2, 100, scenario={"input_trees": 999})
        assert not scenarios_match(a, b)


class TestCompare:
    def test_no_regression_within_budget(self):
        report = compare(
            [dispatch_artifact(1, 100), dispatch_artifact(2, 110)],
            max_regression_pct=20,
        )
        assert report["regressions"] == []

    def test_flags_wall_ms_regression(self):
        report = compare(
            [dispatch_artifact(1, 100), dispatch_artifact(2, 150)],
            max_regression_pct=20,
        )
        assert len(report["regressions"]) == 1
        regression = report["regressions"][0]
        assert regression["label"] == "indexed wall ms"
        assert regression["regression_pct"] == pytest.approx(50.0)

    def test_higher_is_better_metrics_invert(self):
        report = compare(
            [serve_artifact(1, 100.0), serve_artifact(2, 60.0)],
            max_regression_pct=20,
        )
        assert len(report["regressions"]) == 1
        assert report["regressions"][0]["label"] == "throughput rps"

    def test_throughput_gain_is_not_a_regression(self):
        report = compare(
            [serve_artifact(1, 100.0), serve_artifact(2, 150.0)],
            max_regression_pct=20,
        )
        assert report["regressions"] == []

    def test_different_hosts_are_reported_not_gated(self):
        other = dict(HOST, cpu_count=64)
        report = compare(
            [dispatch_artifact(1, 100),
             dispatch_artifact(2, 300, host=other)],
            max_regression_pct=20,
        )
        assert report["regressions"] == []
        comparison = report["families"]["dispatch_index"]["comparisons"][0]
        assert comparison["hosts"] == "different"
        assert not comparison["gated"]
        # the delta itself is still visible in the report
        assert comparison["deltas"][0]["regression_pct"] > 20

    def test_unknown_hosts_still_gate(self):
        a = dispatch_artifact(1, 100)
        del a["data"]["host"]
        b = dispatch_artifact(2, 300)
        del b["data"]["host"]
        report = compare([a, b], max_regression_pct=20)
        assert len(report["regressions"]) == 1

    def test_scenario_drift_is_not_gated(self):
        report = compare(
            [dispatch_artifact(1, 100, scenario={"input_trees": 100}),
             dispatch_artifact(2, 300, scenario={"input_trees": 9999})],
            max_regression_pct=20,
        )
        assert report["regressions"] == []

    def test_families_compare_independently(self):
        report = compare([
            dispatch_artifact(1, 100),
            serve_artifact(4, 100.0),
            dispatch_artifact(7, 105),
            serve_artifact(6, 95.0),
        ])
        dispatch = report["families"]["dispatch_index"]["comparisons"]
        serve = report["families"]["serve"]["comparisons"]
        assert len(dispatch) == 1 and len(serve) == 1
        # serve compares PR4 -> PR6 in ordinal order
        assert serve[0]["before"].endswith("PR4.json")

    def test_non_gating_metric_never_fails(self):
        # speedup collapse alone (a non-gating metric) must not gate.
        report = compare(
            [dispatch_artifact(1, 100, speedup=4.0),
             dispatch_artifact(2, 100, speedup=1.0)],
            max_regression_pct=20,
        )
        assert report["regressions"] == []


class TestMarkdown:
    def test_trend_table_and_gate_section(self):
        report = compare(
            [dispatch_artifact(1, 100), dispatch_artifact(2, 150)],
            max_regression_pct=20,
        )
        markdown = to_markdown(report)
        assert "| PR1 |" in markdown and "| PR2 |" in markdown
        assert "**REGRESSION**" in markdown
        assert "FAIL dispatch_index indexed wall ms" in markdown

    def test_clean_report(self):
        report = compare([dispatch_artifact(1, 100)])
        markdown = to_markdown(report)
        assert "No gating regressions." in markdown


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_end_to_end_gate_failure(self, tmp_path, capsys):
        base = dispatch_artifact(1, 100)["data"]
        worse = dispatch_artifact(2, 200)["data"]
        paths = [self._write(tmp_path, "BENCH_PR1.json", base),
                 self._write(tmp_path, "BENCH_PR2.json", worse)]
        assert main(paths + ["--gate", "--max-regression-pct", "20"]) == 1
        out = capsys.readouterr()
        assert "REGRESSION" in out.out
        assert "regression(s) over the 20% budget" in out.err

    def test_gate_passes_and_writes_outputs(self, tmp_path):
        base = dispatch_artifact(1, 100)["data"]
        fine = dispatch_artifact(2, 101)["data"]
        paths = [self._write(tmp_path, "BENCH_PR1.json", base),
                 self._write(tmp_path, "BENCH_PR2.json", fine)]
        json_out = str(tmp_path / "trend.json")
        md_out = str(tmp_path / "trend.md")
        assert main(paths + ["--gate", "--json", json_out,
                             "--markdown", md_out]) == 0
        trend = json.loads((tmp_path / "trend.json").read_text())
        assert trend["regressions"] == []
        assert "# Benchmark trend report" in (
            tmp_path / "trend.md"
        ).read_text()

    def test_pr_ordinal_from_filename(self, tmp_path):
        artifact = load_artifact(self._write(
            tmp_path, "BENCH_PR42.json", dispatch_artifact(1, 100)["data"]
        ))
        assert artifact["pr"] == 42

    def test_committed_trajectory_produces_a_report(self, capsys):
        import glob
        import os
        root = os.path.join(os.path.dirname(__file__), "..")
        paths = sorted(glob.glob(os.path.join(root, "BENCH_PR*.json")))
        assert paths, "repo must carry its benchmark trajectory"
        assert main(paths) == 0  # report mode never fails
        out = capsys.readouterr().out
        assert "# Benchmark trend report" in out
        assert "dispatch_index" in out


class TestSrcLines:
    def test_count_covers_python_files_only(self, tmp_path):
        from benchmarks.runner import src_lines

        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "pkg" / "b.py").write_text("z = 3\n")
        (tmp_path / "pkg" / "notes.md").write_text("ignored\nlines\n")
        assert src_lines(str(tmp_path)) == 3

    def test_write_report_stamps_src_lines(self, tmp_path):
        from benchmarks.runner import src_lines, write_report

        path = tmp_path / "BENCH_PR1.json"
        write_report({"benchmark": "dispatch_index"}, str(path))
        stamped = json.loads(path.read_text())["src_lines"]
        assert stamped == src_lines() > 0

    def test_trend_row_never_gates(self):
        before, after = dispatch_artifact(1, 100), dispatch_artifact(2, 100)
        before["data"]["src_lines"] = 1000
        after["data"]["src_lines"] = 2000  # +100%, far past the budget
        report = compare([before, after], max_regression_pct=20)
        assert report["regressions"] == []
        markdown = to_markdown(report)
        assert "src lines" in markdown
        assert "- src lines: 1000 → 2000 (+100.0% worse)" in markdown
