"""Tests for repro.network.node."""

import pytest

from repro.network.node import CorrectNode, MaliciousNode, NodeConfig


class TestNodeConfig:
    def test_defaults(self):
        config = NodeConfig()
        assert config.memory_size == 10
        assert config.sketch_width == 10
        assert config.sketch_depth == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(memory_size=0)
        with pytest.raises(ValueError):
            NodeConfig(sketch_width=-1)


class TestCorrectNode:
    def test_receive_batch_feeds_sampler(self):
        node = CorrectNode(0, random_state=0)
        node.receive_batch([5, 6])
        assert node.received == [5, 6]
        assert node.sampling_service.strategy.elements_processed == 2
        assert len(node.sampling_service.output_stream) == 2
        assert node.sample() in {5, 6}

    def test_advertisement_is_own_identifier(self):
        node = CorrectNode(9, random_state=2)
        assert node.advertisement() == 9

    def test_is_not_malicious(self):
        assert CorrectNode(0).is_malicious is False


class TestMaliciousNode:
    def test_cycles_controlled_identifiers(self):
        node = MaliciousNode(100, [200, 201, 202])
        advertised = [node.advertisement() for _ in range(6)]
        assert advertised == [200, 201, 202, 200, 201, 202]

    def test_requires_controlled_identifiers(self):
        with pytest.raises(ValueError):
            MaliciousNode(100, [])

    def test_receive_batch_keeps_nothing(self):
        node = MaliciousNode(100, [200])
        state = dict(vars(node))
        node.receive_batch([5, 6])
        assert vars(node) == state

    def test_is_malicious(self):
        assert MaliciousNode(1, [2]).is_malicious is True
