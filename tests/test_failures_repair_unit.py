"""Unit tests: the re-replication service internals."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.failures.repair import ReReplicationService
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.namenode import NameNode
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from tests.conftest import SMALL_SPEC


@pytest.fixture
def world():
    cluster = Cluster(SMALL_SPEC, RandomStreams(9))
    nn = NameNode(cluster)
    nn.create_file("a", 4 * DEFAULT_BLOCK_SIZE, replication=3)
    nn.create_file("b", 2 * DEFAULT_BLOCK_SIZE, replication=2)
    engine = Engine()
    traffic = TrafficMeter()
    svc = ReReplicationService(nn, engine, traffic, random.Random(5), max_concurrent=2)
    return cluster, nn, engine, traffic, svc


class TestRepairFlow:
    def test_repairs_under_replicated_block(self, world):
        cluster, nn, engine, traffic, svc = world
        victim = next(iter(nn.locations(0)))
        cluster.stop_node(victim)
        lost = nn.fail_node(victim)
        svc.enqueue_repairs(lost)
        engine.run()
        assert svc.repairs_completed >= len(lost)
        for bid in lost:
            rf = nn.blocks[bid].inode.replication
            assert len(nn.locations(bid)) == rf
        assert traffic.bytes("re_replication") > 0

    def test_fully_replicated_blocks_not_queued(self, world):
        _, nn, engine, _, svc = world
        svc.enqueue_repairs({0: 3})  # already at rf
        engine.run()
        assert svc.repairs_completed == 0

    def test_duplicate_enqueue_is_idempotent(self, world):
        cluster, nn, engine, _, svc = world
        victim = next(iter(nn.locations(0)))
        cluster.stop_node(victim)
        lost = nn.fail_node(victim)
        svc.enqueue_repairs(lost)
        svc.enqueue_repairs(lost)  # the same blocks again
        engine.run()
        # each block repaired exactly back to rf, not beyond
        for bid in lost:
            assert len(nn.locations(bid)) == nn.blocks[bid].inode.replication

    def test_unrecoverable_when_no_sources(self, world):
        cluster, nn, engine, _, svc = world
        bid = 0
        for node_id in list(nn.locations(bid)):
            cluster.stop_node(node_id)
            nn.fail_node(node_id)
        svc.enqueue_repairs({bid: 0})
        engine.run()
        assert svc.repairs_unrecoverable >= 1
        assert svc.repairs_completed == 0

    def test_concurrency_cap_respected(self, world):
        cluster, nn, engine, _, svc = world
        victim = next(iter(nn.locations(0)))
        cluster.stop_node(victim)
        lost = nn.fail_node(victim)
        svc.enqueue_repairs(lost)
        # immediately after enqueue, at most max_concurrent copies started
        assert svc.copier.in_flight <= svc.copier.max_concurrent
        engine.run()

    def test_double_failure_needs_two_copies(self, world):
        cluster, nn, engine, _, svc = world
        bid = 0
        holders = sorted(nn.locations(bid))[:2]
        for node_id in holders:
            cluster.stop_node(node_id)
            lost = nn.fail_node(node_id)
        svc.enqueue_repairs({bid: len(nn.locations(bid))})
        engine.run()
        assert len(nn.locations(bid)) == nn.blocks[bid].inode.replication

    def test_invalid_concurrency_rejected(self, world):
        _, nn, engine, traffic, _ = world
        with pytest.raises(ValueError):
            ReReplicationService(nn, engine, traffic, random.Random(1), max_concurrent=0)
