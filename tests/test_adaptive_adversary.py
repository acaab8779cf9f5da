"""Tests for the incremental stream plane and adaptive adversaries."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.adversary import (
    AdaptiveAdversary,
    AttackBudget,
    BudgetLedger,
    BurstSybilAttack,
    EclipseAttack,
    MemoryFloodAttack,
    SamplerView,
)
from repro.core.knowledge_free import KnowledgeFreeStrategy
from repro.engine.batch import run_stream
from repro.scenarios import (
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    run_scenario,
)
from repro.streams import MaterializedStreamSource, zipf_stream


def make_strategy(seed=3, memory_size=10):
    return KnowledgeFreeStrategy(memory_size, sketch_width=20,
                                 sketch_depth=5, random_state=seed)


def adaptive_spec_data(**engine_overrides):
    """A small adaptive scenario; engine knobs vary per test."""
    engine = {"driver": "batch", "batch_size": 512, "shards": 2}
    engine.update(engine_overrides)
    return {
        "name": "unit-adaptive",
        "seed": 5,
        "trials": 1,
        "stream": {"kind": "zipf",
                   "params": {"stream_size": 4000, "population_size": 200,
                              "alpha": 1.2}},
        "strategies": [
            {"kind": "knowledge-free",
             "params": {"memory_size": 10, "sketch_width": 20,
                        "sketch_depth": 5}},
        ],
        "adversary": [
            {"kind": "memory_flood",
             "params": {"insertion_budget": 800,
                        "repetitions_per_target": 4}},
            {"kind": "burst_sybil",
             "params": {"distinct_identifiers": 16, "repetitions": 2,
                        "burst_threshold": 0.05}},
        ],
        "engine": engine,
    }


class TestMaterializedStreamSource:
    def test_bit_identical_to_direct_run(self):
        stream = zipf_stream(5000, 300, alpha=1.5, random_state=7)
        direct = run_stream(make_strategy(), stream, batch_size=512)
        source = MaterializedStreamSource(stream, chunk_size=512)
        chunked = run_stream(make_strategy(), source, batch_size=512)
        assert np.array_equal(direct.outputs, chunked.outputs)
        assert direct.elements == chunked.elements == stream.size

    def test_chunk_boundaries_match_batch_size(self):
        stream = zipf_stream(1000, 50, alpha=2.0, random_state=1)
        source = MaterializedStreamSource(stream, chunk_size=300)
        sizes = []
        while True:
            chunk = source.next_chunk()
            if chunk is None:
                break
            sizes.append(chunk.size)
        assert sizes == [300, 300, 300, 100]

    def test_materialized_round_trip(self):
        stream = zipf_stream(1000, 50, alpha=2.0, random_state=1)
        source = MaterializedStreamSource(stream)
        assert np.array_equal(source.materialized().identifiers,
                              stream.identifiers)


class TestSamplerView:
    def test_observes_strategy_state(self):
        stream = zipf_stream(2000, 100, alpha=1.5, random_state=2)
        strategy = make_strategy()
        run_stream(strategy, stream, batch_size=512)
        view = SamplerView(strategy)
        assert set(view.memory()) == set(strategy.memory)

    def test_counts_feedback_queries(self):
        strategy = make_strategy()
        with telemetry.enabled(telemetry.MetricsRegistry()) as registry:
            view = SamplerView(strategy)
            for _ in range(3):
                view.memory()
            snapshot = registry.snapshot()
        assert snapshot["counters"]["adversary.feedback_queries"] == 3


class TestBudgetLedger:
    def test_zero_budget_rejected_at_construction(self):
        with pytest.raises(ValueError):
            AttackBudget(distinct_identifiers=0, repetitions=1)

    def test_clamps_to_remaining(self):
        ledger = BudgetLedger(AttackBudget(distinct_identifiers=10,
                                           repetitions=1))
        assert ledger.grant_insertions(7) == 7
        assert ledger.grant_insertions(7) == 3
        assert ledger.grant_insertions(7) == 0
        assert ledger.exhausted

    def test_exhaustion_mid_stream_stops_insertions(self):
        stream = zipf_stream(6000, 200, alpha=1.5, random_state=3)
        attack = MemoryFloodAttack(insertion_budget=40,
                                   repetitions_per_target=4)
        adversary = AdaptiveAdversary([attack], random_state=9)
        source = adversary.source(
            MaterializedStreamSource(stream, chunk_size=512))
        result = run_stream(make_strategy(), source, batch_size=512)
        assert attack.ledger.insertions_spent == 40
        assert attack.ledger.exhausted
        assert result.elements == stream.size + 40

    def test_accounting_across_rescheduling(self):
        # every schedule() call draws from the same ledger: total spend
        # across chunks never exceeds the budget, whatever the chunking
        stream = zipf_stream(6000, 200, alpha=1.5, random_state=3)
        for chunk_size in (256, 512, 2048):
            attack = MemoryFloodAttack(insertion_budget=100,
                                       repetitions_per_target=8)
            adversary = AdaptiveAdversary([attack], random_state=9)
            source = adversary.source(
                MaterializedStreamSource(stream, chunk_size=chunk_size))
            result = run_stream(make_strategy(), source,
                                batch_size=chunk_size)
            assert attack.ledger.insertions_spent <= 100
            assert result.elements == stream.size + \
                attack.ledger.insertions_spent


class TestAdaptiveAttacks:
    def run_attack(self, attack, seed=11):
        stream = zipf_stream(4000, 200, alpha=1.3, random_state=seed)
        strategy = make_strategy()
        adversary = AdaptiveAdversary([attack], random_state=seed)
        source = adversary.source(
            MaterializedStreamSource(stream, chunk_size=512))
        run_stream(strategy, source, batch_size=512)
        return stream, strategy, source

    def test_memory_flood_floods_held_identifiers(self):
        attack = MemoryFloodAttack(insertion_budget=800,
                                   repetitions_per_target=4)
        stream, _, source = self.run_attack(attack)
        assert attack.ledger.insertions_spent > 0
        biased = source.materialized()
        # the flood repeats identifiers already in the sampler's memory,
        # which are correct identifiers — no sybils are minted
        assert attack.malicious_identifiers == []
        assert set(biased.universe) == set(stream.universe)

    def test_eclipse_marks_sybils_malicious(self):
        attack = EclipseAttack(range(200), target_fraction=0.1,
                               insertion_budget=600)
        _, _, source = self.run_attack(attack)
        sybils = attack.malicious_identifiers
        assert len(sybils) > 0
        biased = source.materialized()
        assert set(sybils) <= set(biased.malicious)

    def test_eclipse_requires_population(self):
        with pytest.raises(ValueError):
            EclipseAttack([], target_fraction=0.1)

    def test_burst_sybil_triggers_on_fresh_arrivals(self):
        attack = BurstSybilAttack(range(200), distinct_identifiers=32,
                                  repetitions=2, burst_threshold=0.01)
        _, _, source = self.run_attack(attack)
        # the first chunk is all-fresh, so the low threshold must trigger
        assert attack.ledger.insertions_spent > 0
        assert len(attack.malicious_identifiers) > 0

    def test_burst_sybil_high_threshold_never_triggers(self):
        # a zipf chunk always carries repeats, so no chunk is 100% fresh
        attack = BurstSybilAttack(range(200), distinct_identifiers=32,
                                  repetitions=2, burst_threshold=1.0)
        _, _, source = self.run_attack(attack)
        assert attack.ledger.insertions_spent == 0
        assert attack.malicious_identifiers == []

    def test_attacks_of_one_adversary_mint_disjoint_sybils(self):
        # the runner builds every attack of a scenario over one shared
        # Sybil factory; with private factories the burst cohorts and the
        # eclipse evictors were the same "fresh" identifiers
        data = adaptive_spec_data()
        data["adversary"] = [
            {"kind": "burst_sybil",
             "params": {"distinct_identifiers": 32, "repetitions": 2,
                        "burst_threshold": 0.01, "cohort_size": 6}},
            {"kind": "eclipse",
             "params": {"target_fraction": 0.1, "insertion_budget": 600}},
        ]
        runner = ScenarioRunner(ScenarioSpec.from_dict(data))
        stream = zipf_stream(4000, 200, alpha=1.3, random_state=11)
        burst, eclipse = runner.attack_factory()(stream)
        adversary = AdaptiveAdversary([burst, eclipse], random_state=11)
        run_stream(make_strategy(), adversary.source(
            MaterializedStreamSource(stream, chunk_size=512)),
            batch_size=512)
        cohorts = set(burst.malicious_identifiers)
        evictors = set(eclipse.malicious_identifiers)
        assert cohorts and evictors
        assert not cohorts & evictors
        assert not (cohorts | evictors) & set(stream.universe)
        assert len(adversary.malicious_identifiers) == \
            len(cohorts) + len(evictors)


class TestAdaptiveSpec:
    def test_round_trip(self):
        spec = ScenarioSpec.from_dict(adaptive_spec_data())
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert [attack.kind for attack in again.adversary] == \
            ["memory_flood", "burst_sybil"]

    def test_composes_with_static_adversary(self):
        # static insertions are merged once per trial; each strategy then
        # faces its own adaptive insertions on top (a budget every run
        # exhausts, so the count is exact)
        data = adaptive_spec_data()
        data["strategies"].append({"kind": "reservoir",
                                   "params": {"memory_size": 10}})
        data["adversary"] = [
            {"kind": "flooding",
             "params": {"distinct_identifiers": 4, "repetitions": 5}},
            {"kind": "memory_flood", "params": {"insertion_budget": 40}},
        ]
        result = run_scenario(ScenarioSpec.from_dict(data))
        assert [row["stream_size"] for row in result.details] == \
            [4000 + 4 * 5 + 40] * 2

    def test_conflicts_with_churn_section(self):
        data = adaptive_spec_data()
        del data["stream"]
        data["churn"] = {"churn_steps": 50, "stable_steps": 50,
                         "initial_population": 100}
        with pytest.raises(ScenarioError, match="churn and adversary"):
            ScenarioSpec.from_dict(data)

    def test_requires_batch_driver(self):
        spec = ScenarioSpec.from_dict(adaptive_spec_data(driver="scalar",
                                                         shards=None))
        with pytest.raises(ScenarioError, match="batch"):
            run_scenario(spec)

    def test_empty_attack_list_rejected(self):
        data = adaptive_spec_data()
        data["adversary"] = []
        with pytest.raises(ScenarioError, match="empty adversary"):
            ScenarioSpec.from_dict(data)

    def test_unknown_attack_rejected_at_validation(self):
        data = adaptive_spec_data()
        data["adversary"] = [{"kind": "nonesuch"}]
        with pytest.raises(ScenarioError):
            ScenarioRunner(ScenarioSpec.from_dict(data)).validate()

    def test_omniscient_strategy_rejected(self):
        data = adaptive_spec_data()
        data["strategies"].append({"kind": "omniscient",
                                   "params": {"memory_size": 10}})
        with pytest.raises(ScenarioError, match="up front"):
            run_scenario(ScenarioSpec.from_dict(data))


class TestAdaptiveBitIdentity:
    """The acceptance bar: adaptive runs identical across all backends."""

    def run_engine(self, **engine_overrides):
        spec = ScenarioSpec.from_dict(adaptive_spec_data(**engine_overrides))
        return json.dumps(run_scenario(spec).to_dict(), sort_keys=True)

    @pytest.fixture(scope="class")
    def serial_reference(self):
        return self.run_engine(backend="serial")

    def test_process_matches_serial(self, serial_reference):
        assert self.run_engine(backend="process",
                               workers=2) == serial_reference

    def test_socket_matches_serial(self, serial_reference):
        assert self.run_engine(backend="socket",
                               workers=2) == serial_reference

    def test_autoscale_matches_serial(self, serial_reference):
        assert self.run_engine(
            backend="process", workers=2,
            autoscale={"min_workers": 1, "max_workers": 2,
                       "target_load_per_worker": 500,
                       "check_every": 256}) == serial_reference

    def test_rerun_is_deterministic(self, serial_reference):
        assert self.run_engine(backend="serial") == serial_reference


class TestAdaptiveTelemetry:
    def test_adversary_counters_in_snapshot(self):
        spec = ScenarioSpec.from_dict(adaptive_spec_data())
        with telemetry.enabled(telemetry.MetricsRegistry()) as registry:
            run_scenario(spec)
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["adversary.feedback_queries"] > 0
        assert counters["adversary.chunks_adapted"] > 0
        assert counters["adversary.insertions.memory_flood"] > 0
        total = (counters["adversary.insertions.memory_flood"]
                 + counters.get("adversary.insertions.burst_sybil", 0))
        assert total > 0
