"""Per-rack batched heartbeats and the mesoscale node pool.

Event-accurate mode schedules one heartbeat event per TaskTracker per
interval: an O(N) event storm that dominates the engine at 10k+ nodes.  A
:class:`HeartbeatHub` replaces it with one reusable event per *rack* per
interval (``Engine.reschedule_in``), fanning out to individual nodes only
when they have something to do:

* nodes with control-plane traffic (DataNode outbox or lazy deletions) are
  always serviced, so replica announcements keep their one-heartbeat lag;
* replica holders of currently-pending map blocks get first slot offers
  (the JobTracker maintains that set per rack, invalidated whenever the
  schedule or the block map changes), keeping data-local placement sharp;
* remaining live free-slot members are offered work only while the cluster-wide
  pending-work budget lasts.  A tick with no budget left visits only the
  rack's control set (the NameNode's per-rack set of nodes with queued
  control traffic), not every member, so an idle 100k-node cluster costs
  O(racks) per tick rather than O(N) member visits.

Hubs exist only in ``mesoscale`` mode, where the hub is also an aggregate
actor over its idle members: nodes start *pooled* — no TaskTracker object
at all, slot capacity tracked only in the
:class:`~repro.mapreduce.slots.SlotStore`.  A pooled
member is offered work without a tracker and is *promoted* to an
event-accurate TaskTracker only when a scheduler pick places a task on it;
a control-only beat needs no tracker either.  A promoted node is *demoted*
back into the pool only when provably inert: every slot free, no stored
blocks, no pending deletions, no queued control messages, and no
in-flight attempts.  The promotion/demotion counters and the invariant
assertions in :meth:`demote` are exercised by the mesoscale property
suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.mapreduce.tasktracker import TaskTracker
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.jobtracker import JobTracker


class HeartbeatHub:
    """Aggregate heartbeat actor for one rack."""

    __slots__ = (
        "rack",
        "member_ids",
        "jobtracker",
        "engine",
        "interval_s",
        "accurate",
        "ticks",
        "promotions",
        "demotions",
        "_hb_label",
        "_hb_event",
    )

    def __init__(
        self,
        rack: int,
        member_ids: List[int],
        jobtracker: "JobTracker",
        engine: Engine,
        interval_s: float,
        start_offset_s: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.rack = rack
        #: the rack's slave ids, ascending (the cluster's own list, shared)
        self.member_ids = member_ids
        self.jobtracker = jobtracker
        self.engine = engine
        self.interval_s = interval_s
        #: node ids with a live (event-accurate) TaskTracker
        self.accurate: set = set()
        self.ticks = 0
        self.promotions = 0
        self.demotions = 0
        self._hb_label = f"hbhub:r{rack}"
        self._hb_event = engine.schedule(
            engine.now + start_offset_s, self._tick, f"hbhub-start:r{rack}"
        )

    # -- pool <-> accurate protocol ----------------------------------------

    def _materialize(self, node_id: int) -> TaskTracker:
        jt = self.jobtracker
        tt = TaskTracker(
            jt.cluster.node(node_id), jt, self.engine, self.interval_s, managed=True
        )
        jt.tasktrackers[node_id] = tt
        jt._running_by_node.setdefault(node_id, {})
        self.accurate.add(node_id)
        return tt

    def promote(self, node_id: int) -> TaskTracker:
        """Materialise a pooled member into an event-accurate TaskTracker."""
        if node_id in self.accurate:
            raise RuntimeError(f"node {node_id} is already accurate")
        self.promotions += 1
        return self._materialize(node_id)

    def demote(self, node_id: int) -> None:
        """Return an inert accurate member to the pool.

        Raises when the node is not actually inert — demotion must never
        drop running attempts, stored replicas, or queued control traffic.
        """
        jt = self.jobtracker
        if node_id not in self.accurate:
            raise RuntimeError(f"node {node_id} is not accurate")
        if not jt.slots.all_free(node_id):
            raise RuntimeError(f"node {node_id} has occupied slots")
        if self._holds_state(node_id):
            raise RuntimeError(f"node {node_id} holds blocks or control traffic")
        if jt._running_by_node.get(node_id):
            raise RuntimeError(f"node {node_id} has in-flight attempts")
        del jt.tasktrackers[node_id]
        jt._running_by_node.pop(node_id, None)
        self.accurate.discard(node_id)
        self.demotions += 1

    def _holds_state(self, node_id: int) -> bool:
        """True when the node's DataNode stores blocks or queues control
        traffic (a node without a DataNode holds nothing)."""
        dn = self.jobtracker.namenode.datanodes.get(node_id)
        return dn is not None and bool(
            dn.static_blocks or dn.dynamic_blocks or dn.pending_deletion or dn.outbox
        )

    def _demotable(self, node_id: int) -> bool:
        jt = self.jobtracker
        if not jt.slots.all_free(node_id):
            return False
        if self._holds_state(node_id):
            return False
        return not jt._running_by_node.get(node_id)

    # -- the tick -----------------------------------------------------------

    def _beat(self, node_id: int, tt: Optional[TaskTracker]) -> None:
        """One member heartbeat; a pooled member beats without a tracker.

        Like :meth:`TaskTracker.beat`, a dead node stays silent.  The
        JobTracker promotes a pooled member right before its first launch.
        """
        if tt is not None:
            tt.beat()
        # an unbuilt node (None) has never been stopped
        elif (node := self.jobtracker.cluster.nodes[node_id]) is None or node.alive:
            self.jobtracker.heartbeat(node_id, None, self.promote)

    def _tick(self) -> None:
        jt = self.jobtracker
        nn = jt.namenode
        datanodes = nn.datanodes
        free_map = jt.slots.free_map
        free_reduce = jt.slots.free_reduce
        trackers = jt.tasktrackers
        nodes = jt.cluster.nodes  # None for an unbuilt (alive) node
        self.ticks += 1

        budget = jt.pending_work_units()
        # replica holders of pending blocks first: they are the nodes whose
        # slots buy data locality
        if budget > 0:
            for nid in jt.hot_nodes_by_rack().get(self.rack, ()):
                if free_map[nid] <= 0 and free_reduce[nid] <= 0:
                    continue
                before = jt.sched_version
                self._beat(nid, trackers.get(nid))
                budget -= jt.sched_version - before

        # without budget only members with queued control traffic beat.  A
        # beat queues traffic only on its own node (the DARE hook acts on
        # the node that launched the map), which the walk has passed, so a
        # sorted copy of the rack's control set taken now misses nobody
        if budget > 0:
            walk: Sequence[int] = self.member_ids
        else:
            walk = sorted(nn.control_by_rack[self.rack])
        for nid in walk:
            dn = datanodes.get(nid)  # a node without one has no traffic
            control = dn is not None and (bool(dn.outbox) or bool(dn.pending_deletion))
            # a dead member cannot take an offer: charging it a budget
            # unit would stall a rack whose only pending work is one task
            offer = (budget > 0 and (free_map[nid] > 0 or free_reduce[nid] > 0)
                     and ((node := nodes[nid]) is None or node.alive))
            if not control and not offer:
                continue
            before = jt.sched_version
            self._beat(nid, trackers.get(nid))
            if offer:
                launched = jt.sched_version - before
                # an offer that placed nothing still consumes budget, so a
                # tick cannot walk every idle node when the scheduler is
                # deferring (e.g. fair-share delay scheduling)
                budget -= launched if launched else 1

        for nid in sorted(self.accurate):
            if self._demotable(nid):
                self.demote(nid)

        if not jt.finished:
            self.engine.reschedule_in(self.interval_s, self._hb_event, self._hb_label)
