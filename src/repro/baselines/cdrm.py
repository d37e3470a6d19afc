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
from typing import TYPE_CHECKING, List, NamedTuple

from repro.hdfs.copier import BlockCopier
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
        self._rng = rng
        self.stop_when = stop_when
        self.copier = BlockCopier(
            namenode, engine, traffic, "rebalancing", "cdrm-copy:",
            self.config.max_concurrent, self._landed,
        )
        self.replicas_created = 0
        self.passes_run = 0

    def arm(self) -> None:
        """Schedule the first reconciliation pass."""
        self.engine.schedule_in(self.config.period_s, self._reconcile, "cdrm-pass")

    # -- reconciliation -------------------------------------------------------

    def _ranking(self) -> List[int]:
        """The alive slaves, least loaded first: fewest network transfers,
        then fewest stored blocks (static and dynamic), then lowest id.
        Reads load and liveness from ``Cluster.nodes`` (an unbuilt node is
        alive and idle) and ``NameNode.datanodes`` (a missing DataNode is
        empty), so it builds nothing."""
        nodes = self.namenode.cluster.nodes
        datanodes = self.namenode.datanodes
        keys = []
        for node_id in self.namenode.cluster.slave_ids:
            node = nodes[node_id]
            if node is not None and not node.alive:
                continue
            dn = datanodes.get(node_id)
            keys.append((
                0 if node is None else node.active_net_transfers,
                0 if dn is None else len(dn.static_blocks) + len(dn.dynamic_blocks),
                node_id,
            ))
        keys.sort()
        return [node_id for _, _, node_id in keys]

    def _reconcile(self) -> None:
        self.passes_run += 1
        namenode = self.namenode
        target = self.config.target_replicas
        queue = self.copier.queue
        # one ranking per pass: copies start only in the pump after the
        # loop, so no key it sorts by moves while the queue fills
        ranking = None
        for bid in namenode.blocks:
            locs = namenode.locations(bid)
            live = [n for n in locs if namenode.cluster.node(n).alive]
            missing = target - len(live)
            if missing <= 0 or not live:
                continue
            if ranking is None:
                ranking = self._ranking()
            for dst in ranking:
                if dst in locs:
                    continue
                queue.append((bid, self._rng.choice(live), dst))
                missing -= 1
                if not missing:
                    break
        self.copier.pump()
        if self.stop_when is None or not self.stop_when():
            self.engine.schedule_in(self.config.period_s, self._reconcile, "cdrm-pass")

    def _landed(self, bid: int, dst: int, installed: bool) -> None:
        if installed:
            self.replicas_created += 1
