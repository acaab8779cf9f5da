"""Tests for repro.bench (benchmark records and the regression gate)."""

import json

import pytest

from repro.bench import bench_json_dir, summarise_snapshot, write_bench_json
from repro.bench.compare import (
    BYTES_ALLOWANCE,
    compare_records,
    load_record,
    main,
)
from repro.telemetry import MetricsRegistry

BASELINE = {
    "name": "engine",
    "tiers": {
        "sharded": {"elements_per_second": 500_000, "seconds": 0.4},
        "socket": {"elements_per_second": 300_000},
    },
}


def _current(sharded=500_000, socket=300_000):
    return {
        "name": "engine",
        "tiers": {
            "sharded": {"elements_per_second": sharded},
            "socket": {"elements_per_second": socket},
        },
    }


class TestCompareRecords:
    def test_identical_records_pass(self):
        assert compare_records(_current(), BASELINE) == []

    def test_improvement_and_small_drop_pass(self):
        current = _current(sharded=900_000, socket=250_000)
        assert compare_records(current, BASELINE, tolerance=0.30) == []

    def test_large_regression_fails(self):
        current = _current(sharded=100_000)
        failures = compare_records(current, BASELINE, tolerance=0.30)
        assert len(failures) == 1
        assert "sharded" in failures[0]
        assert "regressed 80%" in failures[0]

    def test_exact_floor_passes(self):
        # the floor itself (baseline * (1 - tolerance)) is not a failure
        current = _current(sharded=350_000)
        assert compare_records(current, BASELINE, tolerance=0.30) == []

    def test_missing_tier_fails_unless_allowed(self):
        current = {"name": "engine",
                   "tiers": {"sharded": {"elements_per_second": 500_000}}}
        failures = compare_records(current, BASELINE)
        assert len(failures) == 1
        assert "missing" in failures[0]
        assert compare_records(current, BASELINE, allow_missing=True) == []

    def test_missing_metric_fails_unless_allowed(self):
        current = _current()
        del current["tiers"]["socket"]["elements_per_second"]
        current["tiers"]["socket"]["note"] = "oops"
        failures = compare_records(current, BASELINE)
        assert len(failures) == 1
        assert "elements_per_second" in failures[0]
        assert compare_records(current, BASELINE, allow_missing=True) == []

    def test_non_throughput_metrics_are_not_gated(self):
        # 'seconds' in the baseline tier is context, not a gated metric
        current = _current()
        current["tiers"]["sharded"]["seconds"] = 1e9
        assert compare_records(current, BASELINE) == []

    def test_grown_bytes_fail(self):
        baseline = {"tiers": {"process": {"migration_bytes": 100_000}}}
        current = {"tiers": {"process": {"migration_bytes": 110_000}}}
        failures = compare_records(current, baseline)
        assert len(failures) == 1
        assert "migration_bytes grew 10,000 bytes" in failures[0]

    def test_bytes_within_the_allowance_and_shrunk_bytes_pass(self):
        baseline = {"tiers": {"serial": {"snapshot_bytes": 100_000}}}
        for value in (100_000 * (1 + BYTES_ALLOWANCE), 100_000, 40_000):
            current = {"tiers": {"serial": {"snapshot_bytes": value}}}
            assert compare_records(current, baseline) == []

    def test_bytes_gate_ignores_the_throughput_tolerance(self):
        baseline = {"tiers": {"serial": {"snapshot_bytes": 100_000}}}
        current = {"tiers": {"serial": {"snapshot_bytes": 120_000}}}
        assert compare_records(current, baseline, tolerance=0.5) != []

    def test_missing_bytes_metric_fails_unless_allowed(self):
        baseline = {"tiers": {"socket": {"elements_per_second": 300_000,
                                         "migration_bytes": 60_000}}}
        current = {"tiers": {"socket": {"elements_per_second": 300_000}}}
        failures = compare_records(current, baseline)
        assert len(failures) == 1
        assert "migration_bytes" in failures[0]
        assert compare_records(current, baseline, allow_missing=True) == []

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            compare_records(_current(), BASELINE, tolerance=1.0)
        with pytest.raises(ValueError):
            compare_records(_current(), BASELINE, tolerance=-0.1)


class TestRecordRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "out" / "BENCH_engine.json"
        written = write_bench_json(
            str(path), "engine",
            {"sharded": {"elements_per_second": 123}},
            telemetry={"counters": {"engine.elements": 1}},
            config={"stream_size": 1000})
        assert written == str(path)
        record = load_record(str(path))
        assert record["name"] == "engine"
        assert record["tiers"]["sharded"]["elements_per_second"] == 123
        assert record["telemetry"]["counters"]["engine.elements"] == 1
        assert record["config"]["stream_size"] == 1000
        # the round trip gates clean against itself
        assert compare_records(record, record) == []

    def test_load_rejects_non_records(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no": "tiers"}))
        with pytest.raises(ValueError, match="tiers"):
            load_record(str(path))

    def test_bench_json_dir_reads_environment(self, monkeypatch):
        monkeypatch.delenv("BENCH_JSON_DIR", raising=False)
        assert bench_json_dir() is None
        monkeypatch.setenv("BENCH_JSON_DIR", "  ")
        assert bench_json_dir() is None
        monkeypatch.setenv("BENCH_JSON_DIR", "bench-out")
        assert bench_json_dir() == "bench-out"


class TestSummariseSnapshot:
    def test_histograms_condense_to_aggregates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set("socket")
        histogram = registry.histogram("h", (1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        summary = summarise_snapshot(registry.snapshot())
        assert summary["counters"] == {"c": 7}
        assert summary["gauges"] == {"g": "socket"}
        assert summary["histograms"]["h"] == {
            "count": 2, "mean": 1.75, "max": 3.0}
        assert "counts" not in summary["histograms"]["h"]


class TestCompareCli:
    def test_ok_run_exits_zero(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        write_bench_json(str(current), "engine", _current()["tiers"])
        write_bench_json(str(baseline), "engine", BASELINE["tiers"])
        assert main([str(current), str(baseline)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        write_bench_json(str(current), "engine",
                         _current(socket=10_000)["tiers"])
        write_bench_json(str(baseline), "engine", BASELINE["tiers"])
        assert main([str(current), str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "FAIL" in out

    def test_unreadable_record_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        write_bench_json(str(baseline), "engine", BASELINE["tiers"])
        assert main([str(tmp_path / "missing.json"), str(baseline)]) == 2
        assert "bench-compare" in capsys.readouterr().err

    def test_bytes_gate_on_the_command_line(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        write_bench_json(str(baseline), "autoscale",
                         {"process": {"migration_bytes": 50_000}})
        write_bench_json(str(current), "autoscale",
                         {"process": {"migration_bytes": 49_000}})
        assert main([str(current), str(baseline)]) == 0
        assert "1 byte metric(s)" in capsys.readouterr().out
        write_bench_json(str(current), "autoscale",
                         {"process": {"migration_bytes": 60_000}})
        assert main([str(current), str(baseline)]) == 1
        assert "FAIL" in capsys.readouterr().out
        write_bench_json(str(current), "autoscale", {"process": {}})
        assert main([str(current), str(baseline)]) == 1
        assert main([str(current), str(baseline), "--allow-missing"]) == 0

    def test_allow_missing_flag(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        write_bench_json(str(current), "engine",
                         {"sharded": {"elements_per_second": 500_000}})
        write_bench_json(str(baseline), "engine", BASELINE["tiers"])
        assert main([str(current), str(baseline)]) == 1
        assert main([str(current), str(baseline), "--allow-missing"]) == 0
