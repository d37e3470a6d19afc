"""Unit tests: Scarlett's internals (water-fill, copies, aging)."""

import random

import pytest

from repro.baselines.scarlett import ScarlettConfig, ScarlettService
from repro.cluster.cluster import Cluster
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.namenode import NameNode
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from tests.conftest import SMALL_SPEC


@pytest.fixture
def world():
    cluster = Cluster(SMALL_SPEC, RandomStreams(11))
    nn = NameNode(cluster)
    nn.create_file("hot", 2 * DEFAULT_BLOCK_SIZE, replication=3)
    nn.create_file("cold", 2 * DEFAULT_BLOCK_SIZE, replication=3)
    engine = Engine()
    svc = ScarlettService(
        ScarlettConfig(epoch_s=100.0, budget=0.5, max_concurrent=8),
        nn,
        engine,
        TrafficMeter(),
        random.Random(2),
        stop_when=lambda: True,  # single epoch per arm()
    )
    return cluster, nn, engine, svc


class _FakeJob:
    def __init__(self, name):
        from repro.mapreduce.job import JobSpec

        self.spec = JobSpec(0, 0.0, name)


class TestEpochMechanics:
    def test_observation_resets_each_epoch(self, world):
        _, nn, engine, svc = world
        svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run()
        assert svc.epochs_run == 1
        assert sum(svc._epoch_counts.values()) == 0  # consumed

    def test_hot_file_gets_extra_replicas(self, world):
        _, nn, engine, svc = world
        for _ in range(10):
            svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run()
        assert svc.replicas_created > 0
        for blk in nn.file("hot").blocks:
            assert len(nn.locations(blk.block_id)) > 3

    def test_unobserved_file_untouched(self, world):
        _, nn, engine, svc = world
        for _ in range(10):
            svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run()
        for blk in nn.file("cold").blocks:
            assert len(nn.locations(blk.block_id)) == 3

    def test_copies_pay_network_traffic(self, world):
        _, nn, engine, svc = world
        for _ in range(10):
            svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run()
        # every installed replica was paid for over the network (racing
        # duplicate copies may pay without installing, never the reverse)
        assert svc.copier.traffic.bytes("rebalancing") >= (
            svc.replicas_created * DEFAULT_BLOCK_SIZE
        )

    def test_aging_removes_replicas_when_popularity_moves(self, world):
        cluster, nn, engine, svc = world
        svc.stop_when = None
        for _ in range(10):
            svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run(until=150.0)  # epoch 1: replicate hot
        created = svc.replicas_created
        assert created > 0
        # epoch 2 observes only 'cold': hot's extras age out
        svc.stop_when = lambda: True
        for _ in range(10):
            svc.observe_submission(_FakeJob("cold"))
        engine.run()
        assert svc.replicas_removed > 0
        for blk in nn.file("hot").blocks:
            assert len(nn.locations(blk.block_id)) == 3  # back to static rf

    def test_namenode_integrity_after_epochs(self, world):
        _, nn, engine, svc = world
        for _ in range(6):
            svc.observe_submission(_FakeJob("hot"))
        svc.arm()
        engine.run()
        nn.check_integrity()
