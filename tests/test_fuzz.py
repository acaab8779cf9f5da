"""Tests for repro.fuzz (spec generator + differential executor)."""

import glob
import json
import os

import pytest

from repro.fuzz import (
    DEFAULT_VARIANTS,
    VARIANTS,
    corpus_entry,
    generate_specs,
    replay_corpus_entry,
    run_differential,
)
from repro.fuzz import differential
from repro.scenarios import ScenarioRunner, ScenarioSpec

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


class TestGenerator:
    def test_deterministic_per_seed(self):
        first = [spec.to_json() for spec in generate_specs(10, 42)]
        second = [spec.to_json() for spec in generate_specs(10, 42)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [spec.to_json() for spec in generate_specs(10, 0)]
        b = [spec.to_json() for spec in generate_specs(10, 1)]
        assert a != b

    def test_specs_are_valid_and_runnable(self):
        for spec in generate_specs(30, 7):
            ScenarioRunner(spec).validate()

    def test_covers_the_planes(self):
        # over a reasonable sample, every mode the fuzzer claims to cross
        # must actually appear
        specs = generate_specs(40, 3)
        adaptive = {"memory_flood", "eclipse", "burst_sybil"}
        kinds = [{attack.kind for attack in spec.adversary or []}
                 for spec in specs]
        assert any(found - adaptive for found in kinds)
        assert any(found & adaptive for found in kinds)
        assert any(found - adaptive and found & adaptive for found in kinds)
        assert any(spec.churn is not None for spec in specs)
        assert any(spec.engine.autoscale is not None for spec in specs)
        assert {spec.engine.shards for spec in specs} >= {1, 2}

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_specs(0, 0)


class TestDifferential:
    def test_small_sweep_is_identical(self):
        specs = generate_specs(3, 123)
        report = run_differential(specs, variants=("serial", "process"))
        assert report.ok
        assert report.checked == 3

    def test_needs_two_variants(self):
        with pytest.raises(ValueError):
            run_differential(generate_specs(1, 0), variants=("serial",))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            run_differential(generate_specs(1, 0),
                             variants=("serial", "quantum"))

    def test_variant_spec_keeps_topology(self):
        spec = generate_specs(1, 5)[0]
        for name in VARIANTS:
            rebased = differential._variant_spec(spec, name)
            assert rebased.engine.shards == spec.engine.shards
            assert rebased.engine.batch_size == spec.engine.batch_size

    def test_unsharded_spec_gets_uniform_sharding(self):
        spec = ScenarioSpec.from_dict({
            "name": "unsharded", "seed": 1, "trials": 1,
            "stream": {"kind": "uniform",
                       "params": {"stream_size": 1000,
                                  "population_size": 50}},
            "strategies": [{"kind": "reservoir",
                            "params": {"memory_size": 8}}],
        })
        shards = {differential._variant_spec(spec, name).engine.shards
                  for name in DEFAULT_VARIANTS}
        assert shards == {2}

    def test_injected_divergence_is_caught(self, monkeypatch):
        real = differential._execute_variant

        def corrupted(spec, variant):
            result = real(spec, variant)
            if variant == "process":
                result["summaries"][0]["mean_gain"] += 1e-9
            return result

        monkeypatch.setattr(differential, "_execute_variant", corrupted)
        specs = generate_specs(1, 9)
        report = run_differential(specs, variants=("serial", "process"))
        assert not report.ok
        (divergence,) = report.divergences
        assert divergence.diverged == "process"
        assert any("mean_gain" in path for path in divergence.paths)

        entry = corpus_entry(divergence, found_by="unit test")
        assert entry["variants"] == ["serial", "process"]
        assert ScenarioSpec.from_dict(entry["spec"]).name == specs[0].name
        assert "mean_gain" in entry["reason"]


class TestCorpusReplay:
    def test_corpus_is_nonempty(self):
        assert len(CORPUS_FILES) >= 3

    @pytest.mark.parametrize(
        "path", CORPUS_FILES,
        ids=[os.path.basename(path) for path in CORPUS_FILES])
    def test_replay_entry(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        report = replay_corpus_entry(entry)
        assert report.ok, [d.reason for d in report.divergences]

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            replay_corpus_entry({"variants": ["serial", "process"]})


class TestFuzzCli:
    def test_fuzz_smoke(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--specs", "2", "--seed", "4",
                     "--backends", "serial,process", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checked"] == 2
        assert payload["variants"] == ["serial", "process"]

    def test_fuzz_replay_smoke(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--replay", CORPUS_FILES[0], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergences"] == []

    def test_unknown_backend_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--specs", "1", "--backends", "serial,quantum"])

    def test_divergence_writes_corpus_and_fails(self, tmp_path,
                                                monkeypatch, capsys):
        from repro.cli import main

        real = differential._execute_variant

        def corrupted(spec, variant):
            result = real(spec, variant)
            if variant == "process":
                result["summaries"][0]["mean_gain"] += 1e-9
            return result

        monkeypatch.setattr(differential, "_execute_variant", corrupted)
        corpus = tmp_path / "corpus"
        with pytest.raises(SystemExit):
            main(["fuzz", "--specs", "1", "--seed", "9",
                  "--backends", "serial,process",
                  "--corpus-dir", str(corpus), "--json"])
        written = list(corpus.glob("*.json"))
        assert len(written) == 1
        entry = json.loads(written[0].read_text())
        assert entry["found_by"] == "repro fuzz --specs 1 --seed 9"
        # the written entry replays through the standard corpus path
        # (with the un-corrupted executor it reports no divergence)
        monkeypatch.setattr(differential, "_execute_variant", real)
        assert replay_corpus_entry(entry).ok
