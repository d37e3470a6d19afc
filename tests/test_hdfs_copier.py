"""Unit tests: the BlockCopier, the one copy path of Scarlett, CDRM and
re-replication."""

import pytest

from repro.cluster.cluster import Cluster
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.copier import BlockCopier
from repro.hdfs.namenode import NameNode
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from tests.conftest import SMALL_SPEC

N_BLOCKS = 6
CAP = 2


class World:
    """A copier with cap 2 over a one-replica file of six blocks."""

    def __init__(self) -> None:
        self.cluster = Cluster(SMALL_SPEC, RandomStreams(3))
        self.nn = NameNode(self.cluster)
        self.nn.create_file("f", N_BLOCKS * DEFAULT_BLOCK_SIZE, replication=1)
        self.engine = Engine()
        self.traffic = TrafficMeter()
        self.landings = []
        self.copier = BlockCopier(
            self.nn, self.engine, self.traffic, "rebalancing", "copy:", CAP,
            lambda bid, dst, installed: self.landings.append((bid, dst, installed)),
        )
        #: in-flight count right after each start, in start order
        self.starts = []
        start = self.copier.start

        def recording_start(bid, src, dst):
            start(bid, src, dst)
            self.starts.append((bid, self.copier.in_flight))

        self.copier.start = recording_start

    def other(self, *exclude):
        """The lowest slave id not in ``exclude``."""
        return min(set(self.cluster.slave_ids) - set(exclude))

    def copy(self, bid, dst=None):
        """(block, its one holder, ``dst`` or the lowest slave that lacks
        it)."""
        (src,) = self.nn.locations(bid)
        return bid, src, self.other(src) if dst is None else dst

    def transfers(self):
        return [n.active_net_transfers for n in self.cluster.slaves]


@pytest.fixture
def world():
    return World()


def test_the_cap_holds_and_copies_start_first_in_first_out(world):
    order = [4, 0, 5, 2, 1, 3]
    world.copier.queue.extend(world.copy(bid) for bid in order)
    world.copier.pump()
    assert world.copier.in_flight == CAP and len(world.copier.queue) == N_BLOCKS - CAP
    world.engine.run()
    assert [bid for bid, _ in world.starts] == order
    assert max(in_flight for _, in_flight in world.starts) == CAP
    assert not world.copier.queue and world.copier.in_flight == 0


def test_landed_copies_are_static_replicas_the_namenode_knows(world):
    copies = [world.copy(bid) for bid in range(N_BLOCKS)]
    world.copier.queue.extend(copies)
    world.copier.pump()
    world.engine.run()
    assert sorted(world.landings) == [(bid, dst, True) for bid, _, dst in copies]
    for bid, src, dst in copies:
        assert set(world.nn.locations(bid)) == {src, dst}
        assert bid in world.nn.datanode(dst).static_blocks
    world.nn.check_integrity()
    assert world.traffic.bytes("rebalancing") == N_BLOCKS * DEFAULT_BLOCK_SIZE


def test_a_dropped_copy_touches_no_counter(world):
    dead_src = world.copy(0)
    (h1,) = world.nn.locations(1)
    (h2,) = world.nn.locations(2)
    dead_dst = world.copy(1, world.other(dead_src[1], h1, h2))
    held = world.copy(2, world.other(dead_src[1], dead_dst[2], h2))
    world.cluster.stop_node(dead_src[1])
    world.cluster.stop_node(dead_dst[2])
    world.nn.add_repaired_replica(held[0], held[2])
    world.copier.queue.extend([dead_src, dead_dst, held])
    world.copier.pump()
    assert not world.copier.queue
    assert world.copier.in_flight == 0 and world.starts == []
    assert world.transfers() == [0] * (SMALL_SPEC.n_nodes - 1)
    assert world.traffic.total_bytes == 0
    assert world.engine.pending == 0 and world.landings == []


def test_transfers_are_held_on_both_ends_until_landing(world):
    bid, src, dst = world.copy(0)
    world.copier.start(bid, src, dst)
    assert world.cluster.node(src).active_net_transfers == 1
    assert world.cluster.node(dst).active_net_transfers == 1
    world.engine.run()
    assert world.transfers() == [0] * (SMALL_SPEC.n_nodes - 1)


def test_a_landing_on_a_dead_target_installs_nothing(world):
    bid, src, dst = world.copy(0)
    world.copier.start(bid, src, dst)
    world.cluster.stop_node(dst)
    world.engine.run()
    assert world.landings == [(bid, dst, False)]
    assert list(world.nn.locations(bid)) == [src]
    assert world.transfers() == [0] * (SMALL_SPEC.n_nodes - 1)
    # the copy was paid for when it started
    assert world.traffic.bytes("rebalancing") == DEFAULT_BLOCK_SIZE


def test_a_landing_on_a_target_that_holds_the_block_installs_nothing(world):
    bid, src, dst = world.copy(0)
    writes = world.nn.datanode(dst).disk_writes
    world.copier.start(bid, src, dst)
    world.copier.start(bid, src, dst)  # a racing duplicate
    world.engine.run()
    assert sorted(installed for _, _, installed in world.landings) == [False, True]
    assert set(world.nn.locations(bid)) == {src, dst}
    assert world.nn.datanode(dst).disk_writes == writes + 1
    assert world.transfers() == [0] * (SMALL_SPEC.n_nodes - 1)


def test_the_callback_runs_once_per_started_copy(world):
    copies = [world.copy(bid) for bid in range(N_BLOCKS)]
    world.copier.queue.extend(copies)
    world.cluster.stop_node(copies[0][1])  # drops the copies that touch it
    alive = [
        bid for bid, src, dst in copies
        if world.cluster.node(src).alive and world.cluster.node(dst).alive
    ]
    assert 0 < len(alive) < N_BLOCKS
    world.copier.pump()
    world.engine.run()
    assert [bid for bid, _ in world.starts] == alive
    assert sorted(bid for bid, _, _ in world.landings) == alive
