"""Tests for scenario sweeps and churn sections (spec + runner layers)."""

import pytest

from repro.scenarios import (
    ChurnSpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    SweepSpec,
    run_scenario,
    run_sweep,
)


def sweep_spec(**overrides):
    """A fast stream-mode sweep used throughout the module."""
    data = {
        "name": "unit-sweep",
        "seed": 17,
        "trials": 2,
        "stream": {"kind": "zipf",
                   "params": {"stream_size": 2000, "population_size": 100,
                              "alpha": 4}},
        "strategies": [
            {"kind": "knowledge-free",
             "params": {"memory_size": 8, "sketch_width": 16,
                        "sketch_depth": 4}},
        ],
        "sweep": {"parameter": "stream.params.population_size",
                  "values": [50, 100, 200]},
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def churn_spec(**overrides):
    """A fast stream-mode churn scenario."""
    data = {
        "name": "unit-churn",
        "seed": 6,
        "trials": 2,
        "churn": {"initial_population": 40, "churn_steps": 120,
                  "stable_steps": 150, "join_rate": 0.3, "leave_rate": 0.3,
                  "advertisements_per_step": 4},
        "strategies": [
            {"kind": "knowledge-free",
             "params": {"memory_size": 8, "sketch_width": 16,
                        "sketch_depth": 4}},
        ],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def network_churn_spec(**overrides):
    data = {
        "name": "unit-net-churn",
        "seed": 4,
        "trials": 1,
        "network": {"num_correct": 12, "num_malicious": 2, "rounds": 10,
                    "memory_size": 5, "sketch_width": 8, "sketch_depth": 3},
        "churn": {"churn_steps": 8, "stable_steps": 8,
                  "join_rate": 0.4, "leave_rate": 0.3},
        "metrics": {"collect": ["gain", "divergence", "malicious_fraction"]},
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


class TestSweepSpec:
    def test_json_round_trip_is_lossless(self):
        spec = sweep_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_unknown_sweep_key_rejected(self):
        data = sweep_spec().to_dict()
        data["sweep"]["step"] = 10
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError, match="must not be empty"):
            SweepSpec(parameter="stream.params.alpha", values=[])

    def test_reserved_axes_rejected(self):
        for parameter in ("seed", "name", "sweep.values"):
            with pytest.raises(ScenarioError, match="must not address"):
                SweepSpec(parameter=parameter, values=[1])

    def test_label_defaults_to_last_segment(self):
        assert SweepSpec(parameter="network.num_malicious",
                         values=[1]).label == "num_malicious"

    def test_trials_override_serializes(self):
        spec = sweep_spec(sweep={"parameter": "stream.params.alpha",
                                 "values": [2, 4], "trials": 5})
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.sweep.trials == 5


class TestAxisResolution:
    def test_missing_section_reported(self):
        spec = sweep_spec(sweep={"parameter": "churn.join_rate",
                                 "values": [0.1]})
        with pytest.raises(ScenarioError, match="'churn' is not present"):
            ScenarioRunner(spec).validate()

    def test_bad_list_index_reported(self):
        spec = sweep_spec(sweep={"parameter": "strategies.3.params.memory_size",
                                 "values": [4]})
        with pytest.raises(ScenarioError, match="out of range"):
            ScenarioRunner(spec).validate()

    def test_non_numeric_list_segment_reported(self):
        spec = sweep_spec(sweep={"parameter": "strategies.kf.params.memory_size",
                                 "values": [4]})
        with pytest.raises(ScenarioError, match="not a list index"):
            ScenarioRunner(spec).validate()

    def test_descending_into_scalar_reported(self):
        spec = sweep_spec(sweep={"parameter": "trials.nested", "values": [1]})
        with pytest.raises(ScenarioError, match="cannot descend"):
            ScenarioRunner(spec).validate()

    def test_bad_spec_level_value_fails_before_any_point_runs(self):
        # values that break spec-level validation (here: a negative trial
        # count) are rejected up front by run_sweep, not after the earlier
        # points have already burned their trials
        spec = sweep_spec(sweep={"parameter": "trials", "values": [3, -1]})
        with pytest.raises(ValueError):
            ScenarioRunner(spec).validate()
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_out_of_domain_value_fails_at_the_bad_point(self):
        # axis *paths* fail in validate(); out-of-domain *values* fail when
        # the point's component is built, wrapped as a ScenarioError
        spec = sweep_spec(sweep={"parameter": "stream.params.population_size",
                                 "values": [100, -5]})
        with pytest.raises(ScenarioError, match="building stream"):
            run_sweep(spec)

    def test_wildcard_addresses_every_strategy(self):
        spec = sweep_spec(strategies=[
            {"kind": "knowledge-free", "params": {"memory_size": 8}},
            {"kind": "omniscient", "params": {"memory_size": 8}},
        ], sweep={"parameter": "strategies.*.params.memory_size",
                  "values": [4]})
        point = ScenarioRunner(spec).point_spec(4)
        assert all(strategy.params["memory_size"] == 4
                   for strategy in point.strategies)

    def test_point_spec_names_and_drops_sweep(self):
        point = ScenarioRunner(sweep_spec()).point_spec(50)
        assert point.sweep is None
        assert point.name == "unit-sweep[population_size=50]"

    def test_creating_defaulted_leaf_parameter(self):
        # peak_fraction is not in the template params; the final dict segment
        # may be created so defaulted builder parameters are sweepable.
        spec = sweep_spec(
            stream={"kind": "peak-attack",
                    "params": {"stream_size": 2000, "population_size": 100}},
            sweep={"parameter": "stream.params.peak_fraction",
                   "values": [0.3, 0.6]})
        point = ScenarioRunner(spec).point_spec(0.3)
        assert point.stream.params["peak_fraction"] == 0.3


class TestSweepExecution:
    def test_run_refuses_sweep_and_run_sweep_refuses_plain(self):
        with pytest.raises(ScenarioError, match="use run_sweep"):
            run_scenario(sweep_spec())
        with pytest.raises(ScenarioError, match="no sweep section"):
            run_sweep(churn_spec())

    def test_serialized_rerun_is_bit_identical(self):
        spec = sweep_spec()
        first = run_sweep(spec)
        second = run_sweep(ScenarioSpec.from_json(spec.to_json()))
        assert first.to_dict() == second.to_dict()

    def test_points_follow_axis(self):
        result = run_sweep(sweep_spec())
        assert [point.value for point in result.points] == [50, 100, 200]
        for point in result.points:
            assert point.result.summaries[0]["strategy"] == "knowledge-free"

    def test_summary_rows_prefix_axis_value(self):
        rows = run_sweep(sweep_spec()).summary_rows()
        assert [row["population_size"] for row in rows] == [50, 100, 200]

    def test_series_shape_and_metric_check(self):
        result = run_sweep(sweep_spec())
        series = result.series()
        assert set(series) == {"knowledge-free"}
        assert [x for x, _ in series["knowledge-free"]] == [50.0, 100.0, 200.0]
        with pytest.raises(ScenarioError, match="not collected"):
            result.series("no_such_metric")

    def test_per_point_trials_override(self):
        spec = sweep_spec(sweep={"parameter": "stream.params.alpha",
                                 "values": [2, 4], "trials": 3})
        result = run_sweep(spec)
        assert all(point.result.summaries[0]["trials"] == 3
                   for point in result.points)

    def test_network_sweep_runs(self):
        spec = network_churn_spec(
            sweep={"parameter": "network.num_malicious", "values": [1, 3]})
        result = run_sweep(spec)
        assert len(result.points) == 2
        assert all(point.result.mode == "network" for point in result.points)

    def test_figure8_sweep_matches_legacy_driver(self):
        # The retired per-figure loop, inlined: one shared master generator,
        # one harness per point, default strategy pair.  figure8 must
        # reproduce it bit for bit through ScenarioRunner.run_sweep.
        from repro.experiments import figures
        from repro.experiments.harness import (
            ExperimentHarness,
            default_strategy_factories,
        )
        from repro.streams.generators import peak_attack_stream
        from repro.utils.rng import ensure_rng

        population_sizes, stream_size, trials, seed = (20, 60), 2500, 2, 33
        rng = ensure_rng(seed)
        legacy = {"knowledge-free": [], "omniscient": []}
        for value in population_sizes:
            harness = ExperimentHarness(
                stream_factory=lambda trial_rng, value=value:
                    peak_attack_stream(stream_size, int(value),
                                       peak_fraction=0.5,
                                       random_state=trial_rng),
                strategy_factories=default_strategy_factories(10, 10, 17),
                trials=trials,
                random_state=rng,
            )
            result = harness.run()
            for name in legacy:
                legacy[name].append((float(value), result.mean_gain(name)))

        series = figures.figure8(population_sizes=population_sizes,
                                 stream_size=stream_size, trials=trials,
                                 random_state=seed)
        assert series == legacy


class TestChurnSpec:
    def test_json_round_trip_is_lossless(self):
        for spec in (churn_spec(), network_churn_spec()):
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_churn_key_rejected(self):
        data = churn_spec().to_dict()
        data["churn"]["jitter"] = 0.1
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_stream_mode_requires_initial_population(self):
        with pytest.raises(ScenarioError, match="initial_population"):
            churn_spec(churn={"churn_steps": 10, "stable_steps": 10})

    def test_stream_and_churn_sections_conflict(self):
        with pytest.raises(ScenarioError, match="both a stream and a churn"):
            churn_spec(stream={"kind": "zipf",
                               "params": {"stream_size": 100,
                                          "population_size": 10}})

    def test_adversary_and_churn_sections_conflict(self):
        with pytest.raises(ScenarioError, match="churn and adversary"):
            churn_spec(adversary=[{"kind": "flooding",
                                   "params": {"distinct_identifiers": 5}}])

    def test_network_mode_rejects_stream_only_fields(self):
        with pytest.raises(ScenarioError, match="initial_population"):
            network_churn_spec(churn={"churn_steps": 5, "stable_steps": 5,
                                      "initial_population": 10})
        with pytest.raises(ScenarioError, match="advertisements_per_step"):
            network_churn_spec(churn={"churn_steps": 5, "stable_steps": 5,
                                      "advertisements_per_step": 3})

    def test_stable_only_needs_stable_phase(self):
        with pytest.raises(ScenarioError, match="non-empty stable phase"):
            ChurnSpec(churn_steps=10, stable_steps=0)
        # pure-churn traces remain reachable when stable_only is off
        spec = churn_spec(churn={"initial_population": 20, "churn_steps": 50,
                                 "stable_steps": 0, "stable_only": False})
        assert spec.churn.stable_steps == 0


class TestChurnExecution:
    def test_round_tripped_spec_reproduces_identical_results(self):
        spec = churn_spec()
        first = run_scenario(spec)
        second = run_scenario(ScenarioSpec.from_json(spec.to_json()))
        assert first.to_dict() == second.to_dict()

    def test_stable_only_metrics_differ_from_full_stream(self):
        stable = run_scenario(churn_spec())
        full_data = churn_spec().to_dict()
        full_data["churn"]["stable_only"] = False
        full = run_scenario(ScenarioSpec.from_dict(full_data))
        assert (stable.summaries[0]["mean_input_divergence"]
                != full.summaries[0]["mean_input_divergence"])

    def test_stable_input_metrics_cover_stable_population_only(self):
        # The post-T0 input is advertisements of alive nodes only, so its
        # measured divergence is against the stable population: it must be
        # far smaller than the full-stream divergence, which mixes epochs.
        result = run_scenario(churn_spec(trials=3))
        assert result.summaries[0]["mean_input_divergence"] < 0.2

    def test_pure_churn_trace_runs_without_stable_phase(self):
        spec = churn_spec(churn={"initial_population": 30, "churn_steps": 80,
                                 "stable_steps": 0, "join_rate": 0.3,
                                 "leave_rate": 0.3, "stable_only": False})
        result = run_scenario(spec)
        assert result.details[0]["stream_size"] > 0

    def test_churn_axis_is_sweepable(self):
        spec = churn_spec(sweep={"parameter": "churn.leave_rate",
                                 "values": [0.1, 0.5]})
        result = run_sweep(spec)
        assert [point.value for point in result.points] == [0.1, 0.5]

    def test_churn_stream_component_direct_use(self):
        # "churn" is an ordinary registered stream component as well.
        from repro.scenarios.registry import STREAMS

        stream = STREAMS.build("churn", {"initial_population": 25,
                                         "churn_steps": 60,
                                         "stable_steps": 40},
                               random_state=3)
        assert stream.size == 100 * 5
        assert stream.stability_time == 60 * 5
        assert set(stream.stable_population) <= set(stream.universe)


class TestNetworkChurnExecution:
    def test_report_covers_stable_population_only(self):
        from repro.network.simulator import SystemSimulation

        spec = network_churn_spec()
        simulation = SystemSimulation.from_scenario(spec)
        simulation.run()
        report = simulation.report()
        stable = set(simulation.stable_correct_ids)
        assert {node.node_id for node in report.per_node} <= stable
        assert simulation.stability_round == 8

    def test_membership_changes_are_scheduled(self):
        from repro.network.simulator import SystemSimulation

        simulation = SystemSimulation.from_scenario(network_churn_spec())
        events = simulation.membership_events
        assert events, "join/leave rates of 0.4/0.3 over 8 rounds yield events"
        assert all(event.round < 8 for event in events)

    def test_round_tripped_spec_reproduces_identical_results(self):
        spec = network_churn_spec(trials=2)
        first = run_scenario(spec)
        second = run_scenario(ScenarioSpec.from_json(spec.to_json()))
        assert first.to_dict() == second.to_dict()

    def test_churn_config_owns_round_count(self):
        from repro.network.simulator import SystemSimulation

        simulation = SystemSimulation.from_scenario(network_churn_spec())
        with pytest.raises(ValueError, match="churn_rounds"):
            simulation.run(rounds=3)
        simulation.run()
        assert simulation.engine.rounds_executed == 16

    def test_random_walk_protocol_supports_churn(self):
        data = network_churn_spec().to_dict()
        data["network"]["protocol"] = "random-walk"
        result = run_scenario(ScenarioSpec.from_dict(data))
        assert result.summaries


class TestExampleScenarios:
    def test_bundled_sweep_and_churn_specs_parse(self):
        import pathlib

        examples = pathlib.Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        for path in sorted(examples.glob("*.json")):
            spec = ScenarioSpec.load(path)
            ScenarioRunner(spec).validate()

    def test_churn_example_reports_stable_uniformity(self):
        import pathlib

        examples = pathlib.Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        spec = ScenarioSpec.load(examples / "churn_stable_uniformity.json")
        assert spec.churn is not None and spec.churn.stable_only
