"""Shared fixtures: small clusters, namespaces, and workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import CCT_SPEC, Cluster
from repro.hdfs.namenode import NameNode
from repro.mapreduce import jobtracker as jobtracker_module
from repro.mapreduce.heartbeat_hub import HeartbeatHub
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1, synthesize_wl2

#: a small dedicated cluster for unit tests (1 master + 7 slaves)
SMALL_SPEC = CCT_SPEC._replace(n_nodes=8)


class MaterializedHub(HeartbeatHub):
    """Oracle for the deleted batched-accurate heartbeat mode.

    Every member holds a TaskTracker from the start and none is ever
    demoted, so only the per-node heartbeat events are batched.  The
    pooled mesoscale hub must reproduce its results.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for nid in self.member_ids:
            self._materialize(nid)

    def _demotable(self, node_id: int) -> bool:
        return False


def materialize_hubs(monkeypatch) -> None:
    """Build the rack hubs of later mesoscale runs as MaterializedHubs."""
    monkeypatch.setattr(jobtracker_module, "HeartbeatHub", MaterializedHub)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def small_cluster(streams) -> Cluster:
    return Cluster(SMALL_SPEC, streams)


@pytest.fixture
def namenode(small_cluster) -> NameNode:
    return NameNode(small_cluster)


@pytest.fixture
def loaded_namenode(namenode) -> NameNode:
    """A namespace with a few files already placed."""
    namenode.create_file("hot", 3 * namenode.block_size, replication=3)
    namenode.create_file("warm", 2 * namenode.block_size, replication=3)
    namenode.create_file("cold", 5 * namenode.block_size, replication=2)
    return namenode


@pytest.fixture
def wl1_small():
    return synthesize_wl1(np.random.default_rng(7), n_jobs=40)


@pytest.fixture
def wl2_small():
    return synthesize_wl2(np.random.default_rng(7), n_jobs=40)
