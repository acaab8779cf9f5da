"""Tests for repro.network.simulator (the end-to-end SystemSimulation)."""

import copy
import hashlib

import pytest

from repro.engine.batch import run_stream_scalar
from repro.network.node import NodeConfig
from repro.network.simulator import (
    ChurnConfig,
    DisseminationProtocol,
    SystemConfig,
    SystemSimulation,
)


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.protocol is DisseminationProtocol.GOSSIP
        assert config.num_correct == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_correct=0)
        with pytest.raises(ValueError):
            SystemConfig(num_malicious=-1)
        with pytest.raises(ValueError):
            SystemConfig(rounds=0)


class TestSystemSimulation:
    def test_gossip_end_to_end(self):
        config = SystemConfig(num_correct=15, num_malicious=3, rounds=15,
                              node_config=NodeConfig(memory_size=5,
                                                     sketch_width=8,
                                                     sketch_depth=3))
        simulation = SystemSimulation(config, random_state=0).run()
        report = simulation.report()
        assert len(report.per_node) == 15
        assert report.mean_input_divergence >= 0
        assert report.mean_output_divergence >= 0
        assert 0 <= report.mean_malicious_fraction_output <= 1

    def test_random_walk_end_to_end(self):
        config = SystemConfig(num_correct=10, num_malicious=2, rounds=5,
                              protocol=DisseminationProtocol.RANDOM_WALK,
                              node_config=NodeConfig(memory_size=5,
                                                     sketch_width=8,
                                                     sketch_depth=3))
        simulation = SystemSimulation(config, random_state=1).run()
        report = simulation.report()
        assert len(report.per_node) <= 10
        assert report.per_node  # at least some nodes received identifiers

    def test_sampler_reduces_malicious_overrepresentation(self):
        # With malicious nodes gossiping far more aggressively than correct
        # ones, the sampler output should contain a smaller malicious fraction
        # than the raw input stream.
        config = SystemConfig(num_correct=20, num_malicious=4, rounds=40,
                              fanout=2, malicious_fanout=10,
                              sybil_identifiers_per_malicious=2,
                              node_config=NodeConfig(memory_size=10,
                                                     sketch_width=10,
                                                     sketch_depth=4))
        simulation = SystemSimulation(config, random_state=2).run()
        report = simulation.report()
        mean_input_malicious = sum(
            node.malicious_fraction_input for node in report.per_node
        ) / len(report.per_node)
        assert report.mean_malicious_fraction_output < mean_input_malicious

    def test_run_with_explicit_rounds(self):
        config = SystemConfig(num_correct=5, num_malicious=0, rounds=3)
        simulation = SystemSimulation(config, random_state=3)
        simulation.run(rounds=7)
        assert simulation.engine.rounds_executed == 7

    def test_empty_report_aggregates(self):
        from repro.network.simulator import SystemReport
        report = SystemReport(per_node=[])
        assert report.mean_gain == 0.0
        assert report.mean_input_divergence == 0.0
        assert report.mean_output_divergence == 0.0
        assert report.mean_malicious_fraction_output == 0.0


def _delivery_config(protocol, churn=None):
    return SystemConfig(num_correct=12, num_malicious=3, rounds=12,
                        protocol=protocol, churn=churn,
                        sybil_identifiers_per_malicious=2,
                        node_config=NodeConfig(memory_size=5, sketch_width=8,
                                               sketch_depth=3))


class TestDeliveryPath:
    """Every correct node ingests its round traffic as one chunk per round.

    Walk and gossip routing never read a receiver's state, so a node's
    sampler must end exactly where the per-element Algorithm 3 reference
    ends on the node's whole input stream, and the input streams themselves
    are pinned by digest.
    """

    @pytest.mark.parametrize("churn", [None, ChurnConfig(
        churn_rounds=6, stable_rounds=6, join_rate=0.4, leave_rate=0.4)],
        ids=["steady", "churn"])
    @pytest.mark.parametrize("protocol", [DisseminationProtocol.GOSSIP,
                                          DisseminationProtocol.RANDOM_WALK])
    def test_each_node_matches_the_per_element_reference(self, protocol,
                                                         churn):
        simulation = SystemSimulation(_delivery_config(protocol, churn),
                                      random_state=42)
        engine = simulation.engine
        references = {node.identifier: copy.deepcopy(
                          node.sampling_service.strategy)
                      for node in engine.correct_nodes()}
        simulation.run()
        if churn is not None:
            assert simulation.membership_events
        for node in engine.correct_nodes():
            reference = references[node.identifier]
            inputs = engine.input_stream_of(node.identifier).identifiers
            replay = run_stream_scalar(reference, inputs)
            assert (replay.outputs.tolist()
                    == engine.output_stream_of(node.identifier).identifiers)
            assert reference.memory == node.sampling_service.strategy.memory

    # sha256 of this seed's per-node input streams: grouping a round's
    # traffic by receiver must keep every receiver's arrival order.
    @pytest.mark.parametrize("protocol, digest", [
        (DisseminationProtocol.GOSSIP,
         "003e54c925c46e0360babb1be4fac73e90b91538c4148e8bf7daaf8948cdf69a"),
        (DisseminationProtocol.RANDOM_WALK,
         "41c2d29e61cda7c263bdbbdfaf1d7dcfddf6b5d315349f7d4157507c30f6a87c"),
    ], ids=["gossip", "random-walk"])
    def test_input_streams_are_pinned(self, protocol, digest):
        engine = SystemSimulation(_delivery_config(protocol),
                                  random_state=42).run().engine
        streams = repr([engine.input_stream_of(identifier).identifiers
                        for identifier in engine.correct_ids])
        assert hashlib.sha256(streams.encode()).hexdigest() == digest
