"""HDFS re-replication of under-replicated blocks."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.hdfs.copier import BlockCopier
from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode


class ReReplicationService:
    """Repairs under-replicated blocks the way the HDFS NameNode does.

    Blocks that fell below their replication factor are queued (fewest
    remaining replicas first — HDFS's priority order); when a stream is
    free, one is copied from a surviving holder to a fresh target, both
    drawn then, through the service's :class:`BlockCopier`.  Its
    cluster-wide cap throttles repair the way
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
        self._rng = rng
        self.copier = BlockCopier(
            namenode, engine, traffic, "re_replication", "repair:block",
            max_concurrent, self._landed,
        )
        #: (remaining_replicas, seq, block_id) min-queue, drained in order
        self._queue: List[Tuple[int, int, int]] = []
        self._queued_blocks: Set[int] = set()
        self._seq = 0
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
        copier = self.copier
        while copier.in_flight < copier.max_concurrent and self._queue:
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
        self.copier.start(bid, source, target)

    def _landed(self, bid: int, target: int, installed: bool) -> None:
        if installed:
            self.repairs_completed += 1
            # still under-replicated (e.g. rf 3 lost 2)? queue another copy
            remaining = len(self.namenode.locations(bid))
            if remaining < self.namenode.blocks[bid].inode.replication:
                self.enqueue_repairs({bid: remaining})
        self._pump()
