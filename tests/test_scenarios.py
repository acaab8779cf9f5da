"""Tests for repro.scenarios (declarative specs, registries, runner)."""

import numpy as np
import pytest

from repro.adversary import make_combined_adversary
from repro.scenarios import (
    ComponentRegistry,
    ComponentSpec,
    EngineSpec,
    MetricsSpec,
    NetworkSpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    StrategySpec,
    UnknownComponentError,
    available_components,
    register_strategy,
    register_stream,
    run_scenario,
)
from repro.scenarios.registry import STRATEGIES, STREAMS


@pytest.fixture
def restore_registries(monkeypatch):
    """Undo a test's registrations on the global registries afterwards.

    Sharded scenario runs pickle the registries into their socket workers,
    and a test-local builder does not pickle.
    """
    for registry in (STRATEGIES, STREAMS):
        monkeypatch.setattr(registry, "_builders", dict(registry._builders))


def small_stream_spec(**overrides):
    """A fast stream-mode scenario used throughout the module."""
    data = {
        "name": "unit-zipf",
        "seed": 11,
        "trials": 2,
        "stream": {"kind": "zipf",
                   "params": {"stream_size": 3000, "population_size": 200,
                              "alpha": 4}},
        "strategies": [
            {"kind": "knowledge-free",
             "params": {"memory_size": 8, "sketch_width": 16,
                        "sketch_depth": 4}},
            {"kind": "omniscient", "params": {"memory_size": 8}},
        ],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def small_network_spec():
    return ScenarioSpec.from_dict({
        "name": "unit-gossip",
        "seed": 5,
        "trials": 2,
        "network": {"num_correct": 10, "num_malicious": 2, "rounds": 8,
                    "memory_size": 5, "sketch_width": 8, "sketch_depth": 3},
        "metrics": {"collect": ["gain", "divergence", "malicious_fraction"]},
    })


class TestSpecSerialization:
    def test_dict_round_trip_is_lossless(self):
        spec = small_stream_spec(
            adversary=[{"kind": "peak", "params": {"peak_frequency": 500}}])
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_json_round_trip_is_lossless(self):
        spec = small_network_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = small_stream_spec()
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_sketch_section_round_trips(self):
        spec = small_stream_spec(strategies=[
            {"kind": "knowledge-free", "label": "kf/cs",
             "params": {"memory_size": 8},
             "sketch": {"kind": "count-sketch",
                        "params": {"width": 16, "depth": 3}}},
        ])
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.strategies[0].sketch == ComponentSpec(
            "count-sketch", {"width": 16, "depth": 3})

    def test_defaults_materialize(self):
        spec = small_stream_spec()
        assert spec.engine == EngineSpec()
        assert spec.metrics == MetricsSpec()
        assert spec.mode == "stream"
        assert small_network_spec().mode == "network"

    def test_unknown_top_level_key_rejected(self):
        data = small_stream_spec().to_dict()
        data["streams"] = data.pop("stream")
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_unknown_section_key_rejected(self):
        data = small_stream_spec().to_dict()
        data["engine"] = {"driver": "batch", "chunk": 64}
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_stream_mode_requires_stream_and_strategies(self):
        with pytest.raises(ScenarioError, match="stream section"):
            ScenarioSpec(name="x")
        with pytest.raises(ScenarioError, match="at least one strategy"):
            ScenarioSpec(name="x", stream=ComponentSpec("uniform"))

    def test_network_mode_excludes_stream_sections(self):
        with pytest.raises(ScenarioError, match="network scenario"):
            ScenarioSpec(name="x", network=NetworkSpec(),
                         stream=ComponentSpec("uniform"))
        with pytest.raises(ScenarioError, match="network scenario"):
            ScenarioSpec(name="x", network=NetworkSpec(),
                         strategies=[StrategySpec("knowledge-free")])

    def test_duplicate_strategy_labels_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate strategy labels"):
            small_stream_spec(strategies=[
                {"kind": "knowledge-free", "params": {"memory_size": 4}},
                {"kind": "knowledge-free", "params": {"memory_size": 8}},
            ])

    def test_invalid_driver_and_metrics_rejected(self):
        with pytest.raises(ScenarioError, match="driver"):
            EngineSpec(driver="warp")
        with pytest.raises(ScenarioError, match="batch driver"):
            EngineSpec(driver="scalar", shards=4)
        with pytest.raises(ScenarioError, match="metric group"):
            MetricsSpec(collect=["gain", "latency"])

    @pytest.mark.parametrize("field", ["sybil_identifiers_per_malicious",
                                       "sketch_width", "sketch_depth"])
    def test_network_dimensions_must_be_positive(self, field):
        data = small_network_spec().to_dict()
        data["network"][field] = 0
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_metrics_section_without_collect_uses_defaults(self):
        spec = small_stream_spec(metrics={})
        assert spec.metrics == MetricsSpec()
        with pytest.raises(ScenarioError, match="must not be empty"):
            small_stream_spec(metrics={"collect": []})


class TestRegistry:
    def test_builtins_registered(self):
        components = available_components()
        assert "knowledge-free" in components["strategies"]
        assert "zipf" in components["streams"]
        assert "count-min" in components["sketches"]
        # one registry holds the static and the adaptive attack kinds
        assert {"targeted", "eclipse"} <= set(components["adversaries"])

    def test_unknown_key_lists_available(self):
        registry = ComponentRegistry("widget")
        registry.register("a", lambda: None)
        with pytest.raises(UnknownComponentError, match="available: a"):
            registry.get("b")

    def test_unknown_param_lists_accepted(self):
        registry = ComponentRegistry("widget")

        @registry.register("thing")
        def build_thing(size, *, random_state=None):
            return size

        with pytest.raises(ScenarioError, match="accepted: size"):
            registry.build("thing", {"sise": 3})

    def test_missing_required_param_reported(self):
        registry = ComponentRegistry("widget")
        registry.register("thing", lambda size: size)
        with pytest.raises(ScenarioError, match="invalid parameters"):
            registry.build("thing", {})

    def test_context_filtered_to_accepted(self):
        registry = ComponentRegistry("widget")
        registry.register("thing", lambda size, *, random_state=None: (
            size, random_state))
        built = registry.build("thing", {"size": 2}, random_state=7,
                               stream="ignored")
        assert built == (2, 7)

    def test_decorator_registration_and_shadowing(self, restore_registries):
        key = "unit-test-strategy"

        @register_strategy(key)
        def build(memory_size, *, random_state=None):
            return ("v1", memory_size)

        assert STRATEGIES.build(key, {"memory_size": 3})[0] == "v1"

        @register_strategy(key)
        def build_again(memory_size, *, random_state=None):
            return ("v2", memory_size)

        assert STRATEGIES.build(key, {"memory_size": 3})[0] == "v2"

    def test_invalid_registration_rejected(self):
        with pytest.raises(ScenarioError):
            register_stream("")
        with pytest.raises(ScenarioError):
            register_stream("ok", "not-callable")


class TestRunnerValidation:
    def test_unknown_stream_kind(self):
        spec = small_stream_spec(stream={"kind": "does-not-exist"})
        with pytest.raises(UnknownComponentError, match="unknown stream"):
            ScenarioRunner(spec).run()

    def test_unknown_strategy_kind(self):
        spec = small_stream_spec(strategies=[
            {"kind": "does-not-exist", "params": {"memory_size": 4}}])
        with pytest.raises(UnknownComponentError, match="unknown strategy"):
            ScenarioRunner(spec).run()

    def test_bad_stream_param_fails_before_running(self):
        spec = small_stream_spec(
            stream={"kind": "zipf", "params": {"stream_size": 100,
                                               "population_size": 10,
                                               "alfa": 2}})
        with pytest.raises(ScenarioError, match="does not accept"):
            ScenarioRunner(spec).validate()

    def test_bad_strategy_param(self):
        spec = small_stream_spec(strategies=[
            {"kind": "knowledge-free", "params": {"memory_size": 4,
                                                  "sketch_widht": 8}}])
        with pytest.raises(ScenarioError, match="does not accept"):
            ScenarioRunner(spec).run()

    def test_sketch_on_incompatible_strategy(self):
        spec = small_stream_spec(strategies=[
            {"kind": "reservoir", "params": {"memory_size": 4},
             "sketch": {"kind": "count-min",
                        "params": {"width": 8, "depth": 2}}}])
        with pytest.raises(ScenarioError, match="frequency oracle"):
            ScenarioRunner(spec).run()

    def test_compile_rejects_network_mode(self):
        with pytest.raises(ScenarioError, match="network scenario"):
            ScenarioRunner(small_network_spec()).compile()

    def test_runner_accepts_dict_and_json(self):
        data = small_stream_spec().to_dict()
        assert ScenarioRunner(data).spec == small_stream_spec()
        assert (ScenarioRunner(small_stream_spec().to_json()).spec
                == small_stream_spec())
        with pytest.raises(ScenarioError, match="must be a ScenarioSpec"):
            ScenarioRunner(42)


class TestRunnerExecution:
    def test_round_tripped_spec_reproduces_identical_results(self):
        spec = small_stream_spec(
            adversary=[{"kind": "targeted",
                        "params": {"target_identifier": 0,
                                   "distinct_identifiers": 20,
                                   "repetitions": 3}}])
        first = run_scenario(spec)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        second = run_scenario(rebuilt)
        assert first.to_dict() == second.to_dict()

    def test_network_round_trip_reproduces_identical_results(self):
        spec = small_network_spec()
        first = run_scenario(spec)
        second = run_scenario(ScenarioSpec.from_json(spec.to_json()))
        assert first.to_dict() == second.to_dict()
        assert first.mode == "network"
        assert len(first.summaries) == spec.trials
        assert all(row["nodes"] == 10 for row in first.summaries)

    def test_batch_and_scalar_drivers_agree(self):
        # The engine's exactness contract, surfaced at the scenario level:
        # the driver choice changes speed only, never results.
        batch = run_scenario(small_stream_spec(
            engine={"driver": "batch", "batch_size": 256}))
        scalar = run_scenario(small_stream_spec(engine={"driver": "scalar"}))
        assert batch.to_dict() == scalar.to_dict()

    def test_seed_changes_results(self):
        base = run_scenario(small_stream_spec())
        other = run_scenario(small_stream_spec(seed=12))
        assert base.to_dict() != other.to_dict()

    def test_metrics_selection_prunes_columns(self):
        result = run_scenario(small_stream_spec(
            metrics={"collect": ["gain"]}))
        assert set(result.summaries[0]) == {"strategy", "trials",
                                            "mean_gain", "std_gain"}
        assert "input_divergence" not in result.details[0]

    def test_sketch_section_builds_alternative_oracle(self):
        from repro.sketches import CountSketch

        spec = small_stream_spec(strategies=[
            {"kind": "knowledge-free", "params": {"memory_size": 8},
             "sketch": {"kind": "count-sketch",
                        "params": {"width": 16, "depth": 3}}}])
        runner = ScenarioRunner(spec)
        factories = runner.strategy_factories()
        stream = runner.stream_factory()(np.random.default_rng(0))
        strategy = factories["knowledge-free"](stream,
                                               np.random.default_rng(0))
        assert isinstance(strategy.frequency_oracle, CountSketch)

    def test_sharded_scenario_runs(self):
        spec = small_stream_spec(
            trials=1,
            strategies=[{"kind": "knowledge-free",
                         "params": {"memory_size": 8}}],
            engine={"driver": "batch", "batch_size": 512, "shards": 3})
        result = run_scenario(spec)
        assert result.summaries[0]["trials"] == 1
        # sharding preserves determinism across reruns too
        assert run_scenario(spec).to_dict() == result.to_dict()

    def test_trace_scenario_runs(self):
        spec = small_stream_spec(
            trials=1,
            stream={"kind": "trace", "params": {"name": "nasa",
                                                "scale": 0.001}})
        result = run_scenario(spec)
        assert result.details[0]["stream_size"] > 0

    def test_unknown_trace_name(self):
        spec = small_stream_spec(
            stream={"kind": "trace", "params": {"name": "mars"}})
        with pytest.raises(ScenarioError, match="unknown trace"):
            run_scenario(spec)

    def test_custom_registered_stream_is_runnable(self, restore_registries):
        from repro.streams import IdentifierStream

        @register_stream("unit-test-constant")
        def constant_stream(stream_size, *, random_state=None):
            return IdentifierStream(identifiers=[1] * stream_size,
                                    universe=[1, 2], label="constant")

        spec = small_stream_spec(
            trials=1,
            stream={"kind": "unit-test-constant",
                    "params": {"stream_size": 50}},
            strategies=[{"kind": "reservoir", "params": {"memory_size": 4}}])
        result = run_scenario(spec)
        assert result.details[0]["stream_size"] == 50

    def test_harness_from_scenario_adapter(self):
        from repro.experiments.harness import ExperimentHarness

        harness = ExperimentHarness.from_scenario(small_stream_spec())
        result = harness.run()
        assert set(result.summaries()) == {"knowledge-free", "omniscient"}

    def test_system_simulation_from_scenario_adapter(self):
        from repro.network.simulator import SystemSimulation

        simulation = SystemSimulation.from_scenario(small_network_spec())
        simulation.run()
        assert len(simulation.report().per_node) == 10


class TestStreamFactoryComposition:
    def test_adversary_extends_universe_and_marks_malicious(self):
        spec = small_stream_spec(
            adversary=[{"kind": "flooding",
                        "params": {"distinct_identifiers": 30}}])
        stream, adaptive = ScenarioRunner(spec).compile().trial_input(
            np.random.default_rng(3))
        assert adaptive == []
        assert len(stream.malicious) == 30
        assert set(stream.malicious) <= set(stream.universe)
        assert stream.population_size == 230

    def test_attack_list_matches_combined_adversary(self):
        # Figure 7(b)'s combined attack is the list [targeted, flooding]:
        # one shared Sybil factory, attacks merged in list order
        spec = small_stream_spec(adversary=[
            {"kind": "targeted",
             "params": {"target_identifier": 0, "distinct_identifiers": 12,
                        "repetitions": 3}},
            {"kind": "flooding",
             "params": {"distinct_identifiers": 20, "repetitions": 3}},
        ])
        runner = ScenarioRunner(spec)
        biased, _ = runner.compile().trial_input(np.random.default_rng(4))
        rng = np.random.default_rng(4)
        legitimate = runner.stream_factory()(rng)
        expected = make_combined_adversary(
            legitimate.universe, 0, targeted_identifiers=12,
            flooding_identifiers=20, repetitions=3,
            random_state=rng).bias(legitimate)
        assert biased.identifiers == expected.identifiers
        assert biased.universe == expected.universe
        assert biased.malicious == expected.malicious

    def test_stream_factory_is_per_trial_deterministic(self):
        factory = ScenarioRunner(small_stream_spec()).stream_factory()
        one = factory(np.random.default_rng(9))
        two = factory(np.random.default_rng(9))
        assert one.identifiers == two.identifiers
