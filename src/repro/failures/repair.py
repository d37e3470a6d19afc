"""HDFS re-replication of under-replicated blocks."""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode


class ReReplicationService:
    """Repairs under-replicated blocks the way the HDFS NameNode does.

    Blocks that fell below their replication factor are queued (fewest
    remaining replicas first — HDFS's priority order) and copied from a
    surviving holder to a fresh target over the network.  A cluster-wide
    concurrency cap throttles repair the way
    ``dfs.namenode.replication.max-streams`` does, so a failure does not
    instantly saturate the fabric.
    """

    def __init__(
        self,
        namenode: "NameNode",
        engine: Engine,
        traffic: TrafficMeter,
        rng: random.Random,
        max_concurrent: int = 4,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("need at least one repair stream")
        self.namenode = namenode
        self.engine = engine
        self.traffic = traffic
        self._rng = rng
        self.max_concurrent = max_concurrent
        #: (remaining_replicas, seq, block_id) min-queue, drained in order
        self._queue: List[Tuple[int, int, int]] = []
        self._queued_blocks: Set[int] = set()
        self._seq = 0
        self._active = 0
        self.repairs_completed = 0
        self.repairs_unrecoverable = 0

    # -- queueing -----------------------------------------------------------

    def enqueue_repairs(self, lost: Dict[int, int]) -> None:
        """Queue every block that fell below its replication factor."""
        for bid, remaining in lost.items():
            rf = self.namenode.blocks[bid].inode.replication
            if remaining >= rf or bid in self._queued_blocks:
                continue
            self._queue.append((remaining, self._seq, bid))
            self._queued_blocks.add(bid)
            self._seq += 1
        self._queue.sort()
        self._pump()

    def _pump(self) -> None:
        while self._active < self.max_concurrent and self._queue:
            _, _, bid = self._queue.pop(0)
            self._queued_blocks.discard(bid)
            self._start_repair(bid)  # skips simply continue the loop

    # -- one repair ------------------------------------------------------------

    def _start_repair(self, bid: int) -> None:
        locs = [
            n
            for n in self.namenode.locations(bid)
            if self.namenode.cluster.node(n).alive
        ]
        block = self.namenode.blocks[bid]
        rf = block.inode.replication
        if len(locs) >= rf:
            return  # repaired by a racing copy or a DARE replica
        if not locs:
            self.repairs_unrecoverable += 1
            return
        targets = self.namenode.new_holders(bid)
        if not targets:
            self.repairs_unrecoverable += 1
            return
        source = self._rng.choice(locs)
        target = self._rng.choice(targets)
        self._active += 1
        cluster = self.namenode.cluster
        cluster.node(source).active_net_transfers += 1
        cluster.node(target).active_net_transfers += 1
        duration = cluster.network.transfer_seconds(
            block.size_bytes, source, target,
            contention=max(1, cluster.node(source).active_net_transfers),
        )
        self.traffic.record("re_replication", block.size_bytes)
        self.engine.schedule_in(
            duration,
            partial(self._finish_repair, bid, source, target),
            f"repair:block{bid}",
        )

    def _finish_repair(self, bid: int, source: int, target: int) -> None:
        cluster = self.namenode.cluster
        cluster.node(source).active_net_transfers -= 1
        cluster.node(target).active_net_transfers -= 1
        self._active -= 1
        block = self.namenode.blocks[bid]
        if cluster.node(target).alive and not self.namenode.datanode(target).has_block(bid):
            self.namenode.add_repaired_replica(bid, target)
            self.repairs_completed += 1
            # still under-replicated (e.g. rf 3 lost 2)? queue another copy
            if len(self.namenode.locations(bid)) < block.inode.replication:
                self.enqueue_repairs({bid: len(self.namenode.locations(bid))})
        self._pump()

    # -- reporting ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Repairs queued but not yet started."""
        return len(self._queue)
