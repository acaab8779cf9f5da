"""Tests for repro.network.gossip."""

import pytest

from repro.network.gossip import GossipConfig, GossipSimulation
from repro.network.node import NodeConfig


class TestGossipConfig:
    def test_defaults(self):
        config = GossipConfig()
        assert config.fanout == 3
        assert config.malicious_fanout == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)
        with pytest.raises(ValueError):
            GossipConfig(malicious_fanout=0)


class TestGossipSimulation:
    def test_population_composition(self):
        simulation = GossipSimulation(10, 3, random_state=0)
        assert len(simulation.correct_ids) == 10
        assert len(simulation.malicious_ids) == 3
        assert len(simulation.nodes) == 13

    def test_sybil_identifier_generation(self):
        simulation = GossipSimulation(5, 2, sybil_identifiers_per_malicious=4,
                                      random_state=1)
        # Each malicious node controls itself plus 3 fabricated identifiers.
        assert len(simulation.sybil_identifiers) == 2 * 4

    def test_rounds_deliver_identifiers(self):
        simulation = GossipSimulation(15, 0, random_state=2)
        simulation.run(5)
        assert simulation.rounds_executed == 5
        streams = [simulation.input_stream_of(identifier)
                   for identifier in simulation.correct_ids]
        assert sum(stream.size for stream in streams) > 0

    def test_output_stream_lengths_match_inputs(self):
        simulation = GossipSimulation(10, 2, random_state=3)
        simulation.run(5)
        for identifier in simulation.correct_ids:
            input_stream = simulation.input_stream_of(identifier)
            output_stream = simulation.output_stream_of(identifier)
            assert output_stream.size == input_stream.size

    def test_malicious_identifiers_overrepresented_in_input(self):
        simulation = GossipSimulation(20, 5, random_state=4,
                                      config=GossipConfig(fanout=2,
                                                          malicious_fanout=8))
        simulation.run(20)
        total_malicious = 0
        total = 0
        malicious = set(simulation.malicious_ids) | set(
            simulation.sybil_identifiers)
        for identifier in simulation.correct_ids:
            stream = simulation.input_stream_of(identifier)
            total += stream.size
            total_malicious += sum(1 for received in stream.identifiers
                                   if received in malicious)
        # 5/25 of the nodes send 4x as much: they should exceed their fair share.
        assert total > 0
        assert total_malicious / total > 0.3

    def test_input_stream_universe_includes_sybils(self):
        simulation = GossipSimulation(5, 1, sybil_identifiers_per_malicious=3,
                                      random_state=5)
        simulation.run(2)
        stream = simulation.input_stream_of(0)
        assert set(simulation.sybil_identifiers) <= set(stream.universe)

    def test_malicious_node_has_no_sampling_stream(self):
        simulation = GossipSimulation(4, 1, random_state=6)
        simulation.run(1)
        with pytest.raises(ValueError):
            simulation.input_stream_of(simulation.malicious_ids[0])

    def test_correct_overlay_connectivity_check_runs(self):
        simulation = GossipSimulation(10, 2, random_state=7)
        assert isinstance(simulation.correct_overlay_is_connected(), bool)

    def test_rejects_invalid_population(self):
        with pytest.raises(ValueError):
            GossipSimulation(0, 1)
        with pytest.raises(ValueError):
            GossipSimulation(5, -1)
        with pytest.raises(ValueError, match="sybil_identifiers_per_malicious"):
            GossipSimulation(5, 1, sybil_identifiers_per_malicious=0)

    def test_custom_node_config_propagates(self):
        config = GossipConfig(node_config=NodeConfig(memory_size=4,
                                                     sketch_width=6,
                                                     sketch_depth=2))
        simulation = GossipSimulation(5, 0, config=config, random_state=8)
        node = simulation.correct_nodes()[0]
        assert node.sampling_service.strategy.memory_size == 4
