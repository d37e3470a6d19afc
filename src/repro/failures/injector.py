"""Node-failure injection."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.observability.trace import (
    FAILURE_DETECTED,
    FAILURE_INJECTED,
    NULL_TRACER,
    Tracer,
)
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.failures.repair import ReReplicationService
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.jobtracker import JobTracker


class FailurePlan(NamedTuple):
    """A deterministic failure schedule: (time_s, node_id) pairs."""

    events: Tuple[Tuple[float, int], ...]

    @classmethod
    def at(cls, *events: Tuple[float, int]) -> "FailurePlan":
        """Build a plan from (time, node) pairs."""
        return cls(tuple(events))

    def validate(self, n_nodes: int) -> "FailurePlan":
        """Raise on malformed plans; return self."""
        seen = set()
        for t, node in self.events:
            if not 0 <= t < float("inf"):
                raise ValueError(f"failure time must be finite and >= 0, got {t}")
            if not (1 <= node < n_nodes):
                raise ValueError(f"node {node} is not a slave (master is 0)")
            if node in seen:
                raise ValueError(f"node {node} fails twice")
            seen.add(node)
        if seen and len(seen) == n_nodes - 1:
            raise ValueError(
                f"the plan fails every slave (n_nodes {n_nodes}), so no job could finish"
            )
        return self


class FailureInjector:
    """Executes a :class:`FailurePlan` against a running simulation.

    Killing a node, in order:

    1. the machine stops (:meth:`Cluster.stop_node`) — its TaskTracker never
       heartbeats again;
    2. in-flight tasks on the node are killed and requeued on the
       JobTracker (MapReduce task re-execution);
    3. after ``detection_delay_s`` (heartbeat-expiry on the masters) the
       NameNode prunes the node from every block's location set and the
       re-replication service is notified of the lost replicas.

    Between (1) and (3) the schedulers may still *plan* against the stale
    location view — exactly the window real Hadoop has between a crash and
    TaskTracker/DataNode expiry.
    """

    def __init__(
        self,
        plan: FailurePlan,
        engine: Engine,
        namenode: "NameNode",
        jobtracker: "JobTracker",
        repair: Optional["ReReplicationService"] = None,
        detection_delay_s: float = 10.0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection delay must be nonnegative")
        self.tracer = tracer
        self.plan = plan.validate(len(namenode.cluster.nodes))
        self.engine = engine
        self.namenode = namenode
        self.jobtracker = jobtracker
        self.repair = repair
        self.detection_delay_s = detection_delay_s
        self.failed_nodes: List[int] = []
        #: block_id -> live replica count at detection time
        self.lost_replicas: Dict[int, int] = {}
        #: blocks that had zero live replicas at detection time
        self.data_loss_blocks: List[int] = []

    def arm(self) -> None:
        """Schedule the plan's failure events."""
        for t, node in self.plan.events:
            self.engine.schedule(
                t, partial(self._fail, node), f"fail:node{node}"
            )

    # -- the failure sequence -------------------------------------------------

    def _fail(self, node_id: int) -> None:
        cluster = self.namenode.cluster
        if not cluster.node(node_id).alive:
            return
        cluster.stop_node(node_id)
        self.failed_nodes.append(node_id)
        requeued = self.jobtracker.requeue_tasks_from(node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                FAILURE_INJECTED, self.engine.now, node=node_id, requeued=requeued
            )
        self.engine.schedule_in(
            self.detection_delay_s,
            partial(self._detect, node_id),
            f"detect-fail:node{node_id}",
        )

    def _detect(self, node_id: int) -> None:
        lost = self.namenode.fail_node(node_id)
        for bid, remaining in lost.items():
            self.lost_replicas[bid] = remaining
            if remaining == 0:
                self.data_loss_blocks.append(bid)
        if self.tracer.enabled:
            self.tracer.emit(
                FAILURE_DETECTED,
                self.engine.now,
                node=node_id,
                blocks_lost=len(lost),
                data_loss=sum(1 for r in lost.values() if r == 0),
            )
        if self.repair is not None:
            self.repair.enqueue_repairs(lost)

    # -- reporting --------------------------------------------------------------

    @property
    def blocks_that_lost_replicas(self) -> int:
        """Distinct blocks that lost at least one replica."""
        return len(self.lost_replicas)

    @property
    def data_loss_count(self) -> int:
        """Blocks left with zero live replicas (unrecoverable)."""
        return len(self.data_loss_blocks)
