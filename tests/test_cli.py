"""Tests for repro.cli (the python -m repro command-line interface)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if hasattr(action, "choices") and action.choices
                          and not action.option_strings)
        commands = set(subparsers.choices)
        expected = {"list", "table1", "table2", "figure3", "figure4",
                    "figure5", "figure6", "figure7", "figure8", "figure9",
                    "figure10", "figure11", "figure12"}
        assert expected <= commands

    def test_figure7_requires_variant(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure7"])
        arguments = parser.parse_args(["figure7", "a"])
        assert arguments.variant == "a"


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "figure12" in output

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "L_ks (computed)" in output
        assert "38" in output

    def test_figure3_command_with_arguments(self, capsys):
        assert main(["figure3", "--k", "10", "20", "--eta", "0.1",
                     "--s", "5"]) == 0
        output = capsys.readouterr().out
        assert "k" in output
        assert "38" in output  # L_{10,5}(0.1)

    def test_figure4_command(self, capsys):
        assert main(["figure4", "--k", "10", "--eta", "0.1"]) == 0
        assert "44" in capsys.readouterr().out  # E_10(0.1)

    def test_table2_command(self, capsys):
        assert main(["table2", "--scale", "0.005"]) == 0
        assert "NASA" in capsys.readouterr().out

    def test_figure5_command(self, capsys):
        assert main(["figure5", "--scale", "0.005"]) == 0
        assert "Saskatchewan" in capsys.readouterr().out

    def test_figure7_command_small(self, capsys):
        assert main(["figure7", "a", "--stream-size", "3000",
                     "--population-size", "100", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "knowledge-free" in output
        assert "KL to uniform" in output

    def test_figure8_command_small(self, capsys):
        assert main(["figure8", "--n", "20", "50", "--stream-size", "2000",
                     "--trials", "1", "--seed", "2"]) == 0
        output = capsys.readouterr().out
        assert "omniscient" in output

    def test_figure10_command_small(self, capsys):
        assert main(["figure10", "b", "--c", "5", "20", "--stream-size",
                     "2000", "--population-size", "100", "--trials", "1",
                     "--seed", "3"]) == 0
        assert "knowledge-free" in capsys.readouterr().out

    def test_figure12_command_small(self, capsys):
        assert main(["figure12", "--scale", "0.002", "--trials", "1",
                     "--seed", "4"]) == 0
        assert "ClarkNet" in capsys.readouterr().out


class TestRunCommand:
    """The `repro run` scenario entry point."""

    def _write_spec(self, tmp_path):
        from repro.scenarios import ScenarioSpec
        spec = ScenarioSpec.from_dict({
            "name": "cli-smoke",
            "seed": 3,
            "trials": 1,
            "stream": {"kind": "zipf",
                       "params": {"stream_size": 2000,
                                  "population_size": 100, "alpha": 4}},
            "strategies": [{"kind": "knowledge-free",
                            "params": {"memory_size": 5, "sketch_width": 8,
                                       "sketch_depth": 3}}],
        })
        path = tmp_path / "scenario.json"
        spec.save(path)
        return path

    def test_run_prints_summary_table(self, tmp_path, capsys):
        assert main(["run", str(self._write_spec(tmp_path))]) == 0
        output = capsys.readouterr().out
        assert "cli-smoke" in output
        assert "mean_gain" in output

    def test_run_json_output_round_trips(self, tmp_path, capsys):
        import json
        assert main(["run", str(self._write_spec(tmp_path)), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cli-smoke"
        assert payload["summaries"][0]["strategy"] == "knowledge-free"

    def test_run_overrides_trials_and_seed(self, tmp_path, capsys):
        assert main(["run", str(self._write_spec(tmp_path)),
                     "--trials", "2", "--seed", "9", "--details"]) == 0
        output = capsys.readouterr().out
        assert "trials=2" in output
        assert "seed=9" in output

    def test_run_components_listing(self, capsys):
        assert main(["run", "--components"]) == 0
        output = capsys.readouterr().out
        assert "strategies:" in output
        assert "knowledge-free" in output

    def test_run_without_spec_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_list_mentions_run(self, capsys):
        assert main(["list"]) == 0
        assert "run <scenario.json>" in capsys.readouterr().out

    def _write_sweep_spec(self, tmp_path):
        from repro.scenarios import ScenarioSpec
        spec = ScenarioSpec.from_dict({
            "name": "cli-sweep",
            "seed": 3,
            "trials": 1,
            "stream": {"kind": "zipf",
                       "params": {"stream_size": 1500,
                                  "population_size": 100, "alpha": 4}},
            "strategies": [{"kind": "knowledge-free",
                            "params": {"memory_size": 5, "sketch_width": 8,
                                       "sketch_depth": 3}}],
            "sweep": {"parameter": "stream.params.population_size",
                      "values": [50, 100], "label": "n"},
        })
        path = tmp_path / "sweep.json"
        spec.save(path)
        return path

    def test_run_sweep_prints_per_point_blocks(self, tmp_path, capsys):
        assert main(["run", str(self._write_sweep_spec(tmp_path))]) == 0
        output = capsys.readouterr().out
        assert "scenario sweep: cli-sweep" in output
        assert "n = 50" in output
        assert "n = 100" in output

    def test_run_sweep_summary_table(self, tmp_path, capsys):
        assert main(["run", str(self._write_sweep_spec(tmp_path)),
                     "--sweep-summary"]) == 0
        output = capsys.readouterr().out
        assert "n " in output
        assert "mean_gain" in output

    def test_run_sweep_json_round_trips(self, tmp_path, capsys):
        import json
        assert main(["run", str(self._write_sweep_spec(tmp_path)),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cli-sweep"
        assert [point["value"] for point in payload["points"]] == [50, 100]

    def test_run_trials_flag_overrides_sweep_trials(self, tmp_path, capsys):
        import json
        path = self._write_sweep_spec(tmp_path)
        data = json.loads(path.read_text())
        data["sweep"]["trials"] = 1
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--trials", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for point in payload["points"]:
            assert point["result"]["summaries"][0]["trials"] == 2

    def test_sweep_summary_requires_sweep_section(self, tmp_path):
        with pytest.raises(SystemExit, match="sweep section"):
            main(["run", str(self._write_spec(tmp_path)), "--sweep-summary"])

    def test_run_churn_scenario(self, tmp_path, capsys):
        from repro.scenarios import ScenarioSpec
        spec = ScenarioSpec.from_dict({
            "name": "cli-churn",
            "seed": 2,
            "trials": 1,
            "churn": {"initial_population": 30, "churn_steps": 60,
                      "stable_steps": 80, "join_rate": 0.3,
                      "leave_rate": 0.3},
            "strategies": [{"kind": "knowledge-free",
                            "params": {"memory_size": 5, "sketch_width": 8,
                                       "sketch_depth": 3}}],
        })
        path = tmp_path / "churn.json"
        spec.save(path)
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "cli-churn" in output
        assert "mean_gain" in output


class TestTelemetryCli:
    """The observability surface: throughput --json, run --telemetry-out,
    and the root --log-level flag."""

    def _write_sharded_spec(self, tmp_path):
        from repro.scenarios import ScenarioSpec
        spec = ScenarioSpec.from_dict({
            "name": "cli-telemetry",
            "seed": 7,
            "trials": 1,
            "stream": {"kind": "zipf",
                       "params": {"stream_size": 6000,
                                  "population_size": 300, "alpha": 1.5}},
            "strategies": [{"kind": "knowledge-free",
                            "params": {"memory_size": 5, "sketch_width": 8,
                                       "sketch_depth": 3}}],
            "engine": {"driver": "batch", "batch_size": 1024, "shards": 2,
                       "backend": "serial"},
        })
        path = tmp_path / "sharded.json"
        spec.save(path)
        return path

    def test_throughput_json_report(self, capsys):
        import json
        assert main(["throughput", "--stream-size", "4000",
                     "--population-size", "400", "--scalar-limit", "2000",
                     "--batch-size", "1024", "--memory-size", "5",
                     "--sketch-width", "8", "--sketch-depth", "3",
                     "--shards", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["stream_size"] == 4000
        assert report["config"]["backend"] == "serial"
        drivers = [row["driver"] for row in report["tiers"]]
        assert drivers == ["scalar", "batch", "sharded x2"]
        for row in report["tiers"]:
            assert row["elements_per_second"] > 0
            assert row["seconds"] >= 0
        counters = report["telemetry"]["counters"]
        assert counters["engine.elements"] > 0
        assert counters["backend.serial.dispatches"] >= 1
        assert report["exact"] is True
        assert report["kernel"] in ("compiled", "numpy")

    def test_throughput_reports_the_numpy_kernel_when_none_builds(
            self, capsys, monkeypatch):
        import json

        from repro.core import chunk_kernel

        monkeypatch.setattr(chunk_kernel, "load", lambda: None)
        assert main(["throughput", "--stream-size", "3000",
                     "--population-size", "300", "--scalar-limit", "1000",
                     "--batch-size", "512", "--memory-size", "5",
                     "--sketch-width", "8", "--sketch-depth", "3",
                     "--shards", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kernel"] == "numpy"
        assert report["exact"] is True

    def test_throughput_exits_1_when_batch_diverges(self, capsys,
                                                    monkeypatch):
        import json

        from repro.core import KnowledgeFreeStrategy

        original = KnowledgeFreeStrategy.process_batch

        def diverging(self, identifiers):
            outputs = original(self, identifiers)
            outputs[-1] += 1
            return outputs

        monkeypatch.setattr(KnowledgeFreeStrategy, "process_batch",
                            diverging)
        arguments = ["throughput", "--stream-size", "3000",
                     "--population-size", "300", "--scalar-limit", "1000",
                     "--batch-size", "512", "--memory-size", "5",
                     "--sketch-width", "8", "--sketch-depth", "3",
                     "--shards", "2"]
        with pytest.raises(SystemExit) as raised:
            main(arguments + ["--json"])
        assert raised.value.code == 1
        assert json.loads(capsys.readouterr().out)["exact"] is False
        with pytest.raises(SystemExit) as raised:
            main(arguments)
        assert raised.value.code == 1
        assert "False" in capsys.readouterr().out

    def test_throughput_table_has_no_telemetry_noise(self, capsys):
        assert main(["throughput", "--stream-size", "3000",
                     "--population-size", "300", "--scalar-limit", "1000",
                     "--memory-size", "5", "--sketch-width", "8",
                     "--sketch-depth", "3", "--shards", "2"]) == 0
        output = capsys.readouterr().out
        assert "elements/s" in output
        assert "kernel" in output
        assert "telemetry" not in output

    def test_run_telemetry_out_writes_snapshot(self, tmp_path, capsys):
        import json
        out = tmp_path / "telemetry.json"
        assert main(["run", str(self._write_sharded_spec(tmp_path)),
                     "--telemetry-out", str(out)]) == 0
        assert "telemetry snapshot written" in capsys.readouterr().err
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["engine.elements"] == 6000
        assert snapshot["counters"]["scenario.stream_runs"] == 1
        assert snapshot["gauges"]["sharded.backend"] == "serial"
        loads = [value for name, value in snapshot["gauges"].items()
                 if name.startswith("sharded.shard_load.")]
        assert sum(loads) == 6000
        assert snapshot["histograms"]["engine.chunk_seconds"]["count"] > 0

    def test_run_without_telemetry_out_writes_nothing(self, tmp_path,
                                                      capsys):
        assert main(["run", str(self._write_sharded_spec(tmp_path))]) == 0
        assert "telemetry" not in capsys.readouterr().err

    def test_run_telemetry_out_with_worker_kill(self, tmp_path, capsys,
                                                monkeypatch):
        """End-to-end: socket run + mid-run worker kill; the snapshot file
        carries the supervisor counters and backend latency histograms."""
        import json
        from repro.engine import SocketBackend

        original = SocketBackend.dispatch
        calls = {"count": 0}

        def killing_dispatch(self, identifiers, shard_indices):
            calls["count"] += 1
            if calls["count"] == 3:
                victim = self._processes[0]
                victim.kill()
                victim.join(timeout=5.0)
            return original(self, identifiers, shard_indices)

        monkeypatch.setattr(SocketBackend, "dispatch", killing_dispatch)
        out = tmp_path / "telemetry.json"
        assert main(["run", str(self._write_sharded_spec(tmp_path)),
                     "--backend", "socket", "--workers", "2",
                     "--telemetry-out", str(out)]) == 0
        assert calls["count"] >= 3
        snapshot = json.loads(out.read_text())
        counters = snapshot["counters"]
        assert counters["backend.socket.respawns"] >= 1
        assert counters["backend.socket.respawn_attempts"] >= 1
        assert counters["engine.elements"] == 6000
        assert counters["worker.batch_elements"] == 6000
        assert (snapshot["histograms"]
                ["backend.socket.roundtrip_seconds.batch"]["count"] >= 1)
        assert snapshot["gauges"]["sharded.backend"] == "socket"
        loads = [value for name, value in snapshot["gauges"].items()
                 if name.startswith("sharded.shard_load.")]
        assert sum(loads) == 6000

    def test_log_level_flag(self, capsys):
        assert main(["--log-level", "WARNING", "list"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_log_level_rejects_unknown_levels(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "LOUD", "list"])


class TestEngineFlagErrors:
    """A flag that breaks a backend rule ends the command with one line."""

    @pytest.mark.parametrize("command", [
        ["run", "examples/scenarios/sharded_zipf.json"],
        ["serve", "--listen", "127.0.0.1:0", "--auth-token-file", "{token}"],
        ["throughput"],
    ], ids=["run", "serve", "throughput"])
    def test_serial_backend_with_workers(self, command, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parent.parent
        token = tmp_path / "serve.token"
        token.write_text("secret\n")
        argv = [part.format(token=token) for part in command]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        finished = subprocess.run(
            [sys.executable, "-m", "repro", *argv,
             "--backend", "serial", "--workers", "2"],
            capture_output=True, text=True, env=env, cwd=root, timeout=120)
        assert finished.returncode == 1
        assert finished.stdout == ""
        lines = finished.stderr.splitlines()
        assert len(lines) == 1, finished.stderr
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert lines[0].endswith(
            "the serial backend runs in-process and takes no workers; "
            "choose the process or socket backend to parallelise")
