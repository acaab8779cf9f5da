"""Tests for repro.network.random_walk."""

import pytest

from repro.network.random_walk import RandomWalkConfig, RandomWalkSimulation


class TestRandomWalkConfig:
    def test_defaults(self):
        config = RandomWalkConfig()
        assert config.walk_length == 10
        assert config.walks_per_node == 1
        assert config.node_config is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(walk_length=0)
        with pytest.raises(ValueError):
            RandomWalkConfig(walks_per_node=0)


class TestRandomWalkSimulation:
    def test_population_composition(self):
        simulation = RandomWalkSimulation(8, 2, random_state=0)
        assert len(simulation.correct_ids) == 8
        assert len(simulation.malicious_ids) == 2

    def test_walks_deliver_identifiers(self):
        simulation = RandomWalkSimulation(12, 0, random_state=1)
        simulation.run(3)
        assert simulation.rounds_executed == 3
        total = sum(simulation.input_stream_of(identifier).size
                    for identifier in simulation.correct_ids)
        # 12 nodes x 1 walk x 10 hops x 3 rounds = 360 deliveries, a fraction
        # of which reach correct nodes.
        assert total > 100

    def test_output_matches_input_length(self):
        simulation = RandomWalkSimulation(8, 2, random_state=2)
        simulation.run(3)
        for identifier in simulation.correct_ids:
            assert (simulation.output_stream_of(identifier).size
                    == simulation.input_stream_of(identifier).size)

    def test_malicious_walks_amplified(self):
        config = RandomWalkConfig(walks_per_node=1, malicious_walks_per_node=5)
        simulation = RandomWalkSimulation(10, 3, config=config, random_state=3)
        simulation.run(5)
        malicious = set(simulation.malicious_ids) | set(
            simulation.sybil_identifiers)
        hits, total = 0, 0
        for identifier in simulation.correct_ids:
            stream = simulation.input_stream_of(identifier)
            total += stream.size
            hits += sum(1 for received in stream.identifiers
                        if received in malicious)
        assert total > 0
        assert hits / total > 0.3

    def test_malicious_node_stream_rejected(self):
        simulation = RandomWalkSimulation(4, 1, random_state=4)
        simulation.run(1)
        with pytest.raises(ValueError):
            simulation.output_stream_of(simulation.malicious_ids[0])

    def test_sybil_identifiers_appear_in_universe(self):
        simulation = RandomWalkSimulation(5, 1,
                                          sybil_identifiers_per_malicious=3,
                                          random_state=5)
        simulation.run(2)
        stream = simulation.input_stream_of(0)
        assert set(simulation.sybil_identifiers) <= set(stream.universe)

    def test_rejects_invalid_population(self):
        with pytest.raises(ValueError):
            RandomWalkSimulation(0, 0)
        with pytest.raises(ValueError):
            RandomWalkSimulation(5, -2)
        with pytest.raises(ValueError, match="sybil_identifiers_per_malicious"):
            RandomWalkSimulation(5, 1, sybil_identifiers_per_malicious=0)
