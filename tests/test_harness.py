"""Tests for repro.experiments.harness."""

import pytest

from repro.adversary import MemoryFloodAttack, SybilIdentifierFactory
from repro.adversary.attacks import flooding_attack
from repro.core.baselines import ReservoirSampler
from repro.experiments.harness import (
    ExperimentHarness,
    ExperimentResult,
    TrialResult,
    default_strategy_factories,
    sweep,
)
from repro.streams import peak_attack_stream


def _peak_stream_factory(rng):
    return peak_attack_stream(3_000, 60, peak_fraction=0.5, random_state=rng)


class TestDefaultStrategyFactories:
    def test_contains_both_paper_strategies(self):
        factories = default_strategy_factories(10, 10, 5)
        assert set(factories) == {"knowledge-free", "omniscient"}

    def test_factories_build_working_strategies(self, rng):
        stream = _peak_stream_factory(rng)
        factories = default_strategy_factories(5, 8, 3)
        for factory in factories.values():
            strategy = factory(stream, rng)
            output = strategy.process_stream(stream)
            assert output.size == stream.size


class TestExperimentHarness:
    def test_runs_requested_trials(self):
        harness = ExperimentHarness(
            _peak_stream_factory,
            default_strategy_factories(5, 8, 3),
            trials=3,
            random_state=0,
        )
        result = harness.run()
        assert len(result.trials) == 3 * 2
        assert len(result.for_strategy("omniscient")) == 3

    def test_summaries(self):
        harness = ExperimentHarness(
            _peak_stream_factory,
            default_strategy_factories(5, 8, 3),
            trials=2,
            random_state=1,
        )
        result = harness.run()
        summaries = result.summaries()
        assert set(summaries) == {"knowledge-free", "omniscient"}
        for summary in summaries.values():
            assert summary.trials == 2
            assert summary.mean_input_divergence > 0

    def test_omniscient_beats_or_matches_knowledge_free(self):
        harness = ExperimentHarness(
            _peak_stream_factory,
            default_strategy_factories(8, 10, 5),
            trials=3,
            random_state=2,
        )
        result = harness.run()
        assert result.mean_gain("omniscient") >= result.mean_gain(
            "knowledge-free") - 0.05

    def test_mean_gain_unknown_strategy(self):
        result = ExperimentResult(trials=[TrialResult(
            strategy="x", trial=0, input_divergence=1, output_divergence=0.5,
            gain=0.5, input_max_frequency=10, output_max_frequency=5,
            stream_size=100)])
        assert result.mean_gain("x") == pytest.approx(0.5)
        with pytest.raises(KeyError):
            result.mean_gain("unknown")

    def test_deterministic_given_seed(self):
        def build():
            return ExperimentHarness(
                _peak_stream_factory,
                default_strategy_factories(5, 8, 3),
                trials=2,
                random_state=42,
            ).run()

        first, second = build(), build()
        assert [t.gain for t in first.trials] == [t.gain for t in second.trials]

    @pytest.mark.parametrize("adaptive, spawned", [(False, [0, 0]),
                                                   (True, [0, 1])])
    def test_adversary_generator_spawned_only_for_adaptive_attacks(
            self, adaptive, spawned):
        # sharded strategies spawn their shard generators from the trial
        # generator, so a spawn no adaptive attack needs would shift the
        # next strategy's shard seeds
        def attacks(stream):
            static = flooding_attack(
                distinct_identifiers=4,
                sybil_factory=SybilIdentifierFactory(stream.universe))
            return [static, MemoryFloodAttack()] if adaptive else [static]

        seen = []

        def build(stream, rng):
            seen.append(rng.bit_generator.seed_seq.n_children_spawned)
            return ReservoirSampler(4, random_state=0)

        ExperimentHarness(_peak_stream_factory, {"a": build, "b": build},
                          trials=1, random_state=5, batch_size=512,
                          attack_factory=attacks).run()
        assert seen == spawned

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentHarness(_peak_stream_factory, {}, trials=1)
        with pytest.raises(ValueError):
            ExperimentHarness(_peak_stream_factory,
                              default_strategy_factories(5, 8, 3), trials=0)


class TestSweep:
    def test_sweep_runs_all_values(self):
        def harness_for(memory_size):
            return ExperimentHarness(
                _peak_stream_factory,
                default_strategy_factories(memory_size, 8, 3),
                trials=1,
                random_state=3,
            )

        results = sweep([2, 8], harness_for)
        assert set(results) == {2, 8}
        for result in results.values():
            assert result.trials

    def test_larger_memory_gives_higher_gain(self):
        def harness_for(memory_size):
            return ExperimentHarness(
                _peak_stream_factory,
                {"knowledge-free": default_strategy_factories(
                    memory_size, 10, 5)["knowledge-free"]},
                trials=2,
                random_state=4,
            )

        results = sweep([3, 30], harness_for)
        assert results[30].mean_gain("knowledge-free") >= \
            results[3].mean_gain("knowledge-free") - 0.05
