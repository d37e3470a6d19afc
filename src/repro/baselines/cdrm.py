"""CDRM: availability-driven dynamic replication (CLUSTER 2010), simplified.

The paper's related work discusses two dynamic-replication systems: Scarlett
(popularity-driven) and CDRM, which "aims to improve file availability by
centrally determining the ideal number of replicas for a file, and an
adequate placement strategy based on the blocking probability" — and notes
that "the effects of increasing locality are not studied".  Implementing a
simplified CDRM makes that contrast measurable: an availability-driven
replicator treats every file alike, so it pays replication traffic without
concentrating replicas where the popular reads are.

Model:

* every file's replica count is raised to the smallest ``r`` with
  ``1 - (1 - node_availability)^r >= availability_target`` (the classic
  availability equation CDRM centralizes);
* placement picks the least-loaded live nodes (the blocking-probability
  criterion reduces to load in our model);
* a periodic pass creates missing replicas over the network, throttled
  like any rebalancer.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from repro.metrics.traffic import TrafficMeter
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode


class CdrmConfig(NamedTuple):
    """CDRM parameters."""

    #: desired per-file availability
    availability_target: float = 0.999
    #: assumed availability of a single node
    node_availability: float = 0.85
    #: seconds between reconciliation passes
    period_s: float = 300.0
    #: cap on concurrent replication copies
    max_concurrent: int = 4

    def validate(self) -> "CdrmConfig":
        """Raise on malformed configs; return self."""
        if not (0.0 < self.availability_target < 1.0):
            raise ValueError(f"availability_target {self.availability_target} is not in (0, 1)")
        if not (0.0 < self.node_availability < 1.0):
            raise ValueError(f"node_availability {self.node_availability} is not in (0, 1)")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {self.max_concurrent}")
        return self

    @property
    def target_replicas(self) -> int:
        """Smallest r with 1-(1-A)^r >= target."""
        return max(
            1,
            math.ceil(
                math.log(1.0 - self.availability_target)
                / math.log(1.0 - self.node_availability)
            ),
        )


class CdrmService:
    """Periodic availability reconciliation."""

    def __init__(
        self,
        config: CdrmConfig,
        namenode: "NameNode",
        engine: Engine,
        traffic: TrafficMeter,
        rng: random.Random,
        stop_when=None,
    ) -> None:
        self.config = config.validate()
        self.namenode = namenode
        self.engine = engine
        self.traffic = traffic
        self._rng = rng
        self.stop_when = stop_when
        self._active = 0
        self._queue: List[Tuple[int, int, int]] = []  # (block, src, dst)
        self.replicas_created = 0
        self.passes_run = 0

    def arm(self) -> None:
        """Schedule the first reconciliation pass."""
        self.engine.schedule_in(self.config.period_s, self._reconcile, "cdrm-pass")

    # -- reconciliation -------------------------------------------------------

    def _least_loaded_targets(self, bid: int, count: int) -> List[int]:
        locs = self.namenode.locations(bid)
        candidates = [
            n for n in self.namenode.cluster.slaves
            if n.alive and n.node_id not in locs
        ]
        datanodes = self.namenode.datanodes

        def stored(node_id: int) -> int:
            # ranking reads, so it builds no DataNode: a missing one is empty
            dn = datanodes.get(node_id)
            return 0 if dn is None else dn.dynamic_bytes_used + len(dn.static_blocks)

        candidates.sort(
            key=lambda n: (n.active_net_transfers, stored(n.node_id), n.node_id)
        )
        return [n.node_id for n in candidates[:count]]

    def _reconcile(self) -> None:
        self.passes_run += 1
        target = self.config.target_replicas
        for bid, locs in self.namenode._locations.items():
            live = [n for n in locs if self.namenode.cluster.node(n).alive]
            missing = target - len(live)
            if missing <= 0 or not live:
                continue
            for dst in self._least_loaded_targets(bid, missing):
                src = self._rng.choice(live)
                self._queue.append((bid, src, dst))
        self._pump()
        if self.stop_when is None or not self.stop_when():
            self.engine.schedule_in(self.config.period_s, self._reconcile, "cdrm-pass")

    def _pump(self) -> None:
        while self._active < self.config.max_concurrent and self._queue:
            bid, src, dst = self._queue.pop(0)
            self._start_copy(bid, src, dst)  # skips simply continue the loop

    def _start_copy(self, bid: int, src: int, dst: int) -> None:
        cluster = self.namenode.cluster
        block = self.namenode.blocks[bid]
        if (
            not cluster.node(src).alive
            or not cluster.node(dst).alive
            or self.namenode.datanode(dst).has_block(bid)
        ):
            return  # skipped; the caller's pump loop moves on
        self._active += 1
        cluster.node(src).active_net_transfers += 1
        cluster.node(dst).active_net_transfers += 1
        duration = cluster.network.transfer_seconds(
            block.size_bytes, src, dst,
            contention=max(1, cluster.node(src).active_net_transfers),
        )
        self.traffic.record("rebalancing", block.size_bytes)
        self.engine.schedule_in(
            duration, partial(self._finish_copy, bid, src, dst), f"cdrm-copy:{bid}"
        )

    def _finish_copy(self, bid: int, src: int, dst: int) -> None:
        cluster = self.namenode.cluster
        cluster.node(src).active_net_transfers -= 1
        cluster.node(dst).active_net_transfers -= 1
        self._active -= 1
        dn = self.namenode.datanode(dst)
        if cluster.node(dst).alive and not dn.has_block(bid):
            dn.store_static(self.namenode.blocks[bid])
            self.namenode._locations[bid].add(dst)
            self.replicas_created += 1
        self._pump()
