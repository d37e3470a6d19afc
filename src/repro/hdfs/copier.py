"""BlockCopier: the throttled replication stream every service that adds a
static replica over the network (Scarlett, CDRM, re-replication) copies
through."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode
    from repro.metrics.traffic import TrafficMeter
    from repro.simulation.engine import Engine


class BlockCopier:
    """At most ``max_concurrent`` block copies in flight, the rest queued.

    A copy holds a network transfer on both ends, is priced with the
    source's transfer count as contention, is billed to ``category`` and
    lands on an event labelled ``label`` + block id.  A target still alive
    and lacking the block gets a static replica through the NameNode; then
    ``on_landing(block, target, installed)`` runs and the queue is pumped.
    """

    def __init__(
        self,
        namenode: "NameNode",
        engine: "Engine",
        traffic: "TrafficMeter",
        category: str,
        label: str,
        max_concurrent: int,
        on_landing: Callable[[int, int, bool], None],
    ) -> None:
        self.namenode = namenode
        self.engine = engine
        self.traffic = traffic
        self.category = category
        self.label = label
        self.max_concurrent = max_concurrent
        self.on_landing = on_landing
        #: (block, source, target) copies waiting for a stream, oldest first
        self.queue: Deque[Tuple[int, int, int]] = deque()
        self.in_flight = 0

    def pump(self) -> None:
        """Start queued copies up to the cap, dropping each whose source or
        target died or whose target already holds the block."""
        cluster = self.namenode.cluster
        while self.in_flight < self.max_concurrent and self.queue:
            bid, src, dst = self.queue.popleft()
            if cluster.node(src).alive and cluster.node(dst).alive:
                if not self.namenode.datanode(dst).has_block(bid):
                    self.start(bid, src, dst)

    def start(self, bid: int, src: int, dst: int) -> None:
        """Start one copy now; the caller has checked the cap."""
        cluster = self.namenode.cluster
        size = self.namenode.blocks[bid].size_bytes
        source = cluster.node(src)
        source.active_net_transfers += 1
        cluster.node(dst).active_net_transfers += 1
        self.in_flight += 1
        duration = cluster.network.transfer_seconds(
            size, src, dst, contention=source.active_net_transfers
        )
        self.traffic.record(self.category, size)
        self.engine.schedule_in(
            duration, partial(self._land, bid, src, dst), f"{self.label}{bid}"
        )

    def _land(self, bid: int, src: int, dst: int) -> None:
        cluster = self.namenode.cluster
        cluster.node(src).active_net_transfers -= 1
        target = cluster.node(dst)
        target.active_net_transfers -= 1
        self.in_flight -= 1
        installed = target.alive and not self.namenode.datanode(dst).has_block(bid)
        if installed:
            self.namenode.add_repaired_replica(bid, dst)
        self.on_landing(bid, dst, installed)
        self.pump()
