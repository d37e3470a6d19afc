"""Satellite: greedy-mode budget eviction under interleaved remote reads.

Drives Algorithm 1 through a remote-read / local-refresh interleaving with
the :class:`InvariantChecker` armed at every record, asserting that the LRU
order decides the victim and that the budget is never exceeded at any point
mid-sequence (the checker validates after *every* charge/refund).
"""

from __future__ import annotations

import pytest

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.observability.invariants import InvariantChecker
from repro.observability.trace import (
    BLOCK_EVICTED,
    BUDGET_CHARGE,
    BUDGET_REFUND,
    HEARTBEAT,
    RingBufferSink,
    Tracer,
)


@pytest.fixture
def rig(loaded_namenode, streams):
    """A greedy-LRU service with a 2-block budget, checker armed."""
    tracer = Tracer()
    ring = RingBufferSink(capacity=1024)
    tracer.add_sink(ring)
    loaded_namenode.tracer = tracer
    for nid in loaded_namenode.cluster.slave_ids:
        loaded_namenode.datanode(nid).tracer = tracer
    service = DareReplicationService(
        DareConfig.greedy_lru(), loaded_namenode, streams, tracer=tracer
    )
    for nid in loaded_namenode.cluster.slave_ids:
        loaded_namenode.datanode(nid).dynamic_capacity_bytes = 2 * loaded_namenode.block_size
    checker = InvariantChecker(
        loaded_namenode, dare=service, full_sweep_every=1
    ).attach(tracer)
    return loaded_namenode, service, tracer, ring, checker


def pick_node_and_blocks(namenode):
    """A node plus one block from each of the three files it doesn't hold."""
    by_file = {}
    for node_id in namenode.cluster.slave_ids:
        dn = namenode.datanode(node_id)
        by_file.clear()
        for block in namenode.blocks.values():
            if not dn.has_block(block.block_id) and block.file_id not in by_file:
                by_file[block.file_id] = block
        if len(by_file) == 3:
            return node_id, list(by_file.values())
    raise AssertionError("no node misses a block of every file; enlarge namespace")


class TestGreedyBudgetEviction:
    def test_lru_order_respected_under_interleaving(self, rig):
        namenode, service, tracer, ring, checker = rig
        node, (a, b, c) = pick_node_and_blocks(namenode)
        dn = namenode.datanode(node)

        # two remote reads fill the 2-block budget: [a, b] (a is LRU)
        assert service.on_map_task(node, a, data_local=False, now=1.0)
        assert service.on_map_task(node, b, data_local=False, now=2.0)
        assert dn.dynamic_bytes_used == a.size_bytes + b.size_bytes

        # interleaved local read refreshes a -> b becomes the LRU victim
        service.on_map_task(node, a, data_local=True, now=3.0)

        # third remote read must evict b, not the freshly used a
        assert service.on_map_task(node, c, data_local=False, now=4.0)
        assert dn.has_dynamic(a.block_id)
        assert not dn.has_dynamic(b.block_id)
        assert dn.has_dynamic(c.block_id)

        evicted = [r for r in ring.records if r.type == BLOCK_EVICTED]
        assert [r.data["block"] for r in evicted] == [b.block_id]

        # settle: heartbeat-triggered strict sweep + replica-map check pass
        namenode.process_heartbeat(node, 5.0)
        assert checker.sweeps_run > 0

    def test_budget_never_exceeded_mid_sequence(self, rig):
        namenode, service, tracer, ring, checker = rig
        node, blocks = pick_node_and_blocks(namenode)
        dn = namenode.datanode(node)
        # hammer the node with alternating remote reads; every record is
        # validated by the checker, and every charge/refund stays in budget
        now = 1.0
        for _ in range(4):
            for block in blocks:
                if not dn.has_block(block.block_id):
                    service.on_map_task(node, block, data_local=False, now=now)
                else:
                    service.on_map_task(node, block, data_local=True, now=now)
                now += 1.0
        for rec in ring.records:
            if rec.type in (BUDGET_CHARGE, BUDGET_REFUND):
                assert 0 <= rec.data["used"] <= rec.data["capacity"]
        assert checker.records_seen == len(ring.records)
        tracer.emit(HEARTBEAT, now, node=node)  # final strict sweep
