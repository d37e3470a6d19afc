"""Runtime invariant checking over the trace bus.

The :class:`InvariantChecker` subscribes to a :class:`~repro.observability.trace.Tracer`
and re-validates cross-component bookkeeping as the simulation runs, so an
accounting bug surfaces at the event that introduced it — with the trace
tail in hand — instead of skewing a figure thousands of events later.

Checked invariants
------------------
After **every** record, scoped to the node the record names:

* **Budget accounting** — ``DataNode.dynamic_bytes_used`` equals the summed
  size of live (not pending-deletion) dynamic replicas, never negative and
  never above ``dynamic_capacity_bytes``; ``pending_deletion`` only names
  blocks the node actually stores.
* **Policy coherence** — every block a DARE policy tracks is a live dynamic
  replica on its node; ElephantTrap access counts are non-negative and the
  ring holds no duplicates.  A node that has not run a map task has no
  policy yet, which counts as a policy tracking nothing; a node without a
  DataNode stores nothing, so any block its policy tracks is a phantom.
* **Slot accounting** — a node's free map/reduce slots in the
  JobTracker's :class:`~repro.mapreduce.slots.SlotStore` stay within
  ``[0, capacity]`` (busy slots never exceed capacity).  The store covers
  every slave, including nodes the mesoscale pool holds without a
  TaskTracker, and the full sweep scans all of it at once.

After every ``scarlett.epoch`` record (and in full sweeps when a Scarlett
service is wired in):

* **Scarlett epoch accounting** — bytes held as extra replicas stay within
  the epoch budget plus the in-flight slack (at most ``max_concurrent``
  copies can land after a boundary re-plan), and every extra-replica pair
  on a live node is actually stored there.

At **settled** points (heartbeats, task launch/finish — never mid-eviction),
throttled by ``full_sweep_every`` records, a full sweep additionally asserts:

* **Replica-map consistency** — the NameNode's location map matches DataNode
  contents modulo in-flight heartbeat messages
  (:meth:`~repro.hdfs.namenode.NameNode.check_integrity`).
* **Strict policy sync** — on every live node with a DataNode or DARE
  state, the policy-tracked set equals the set of live dynamic replicas
  exactly.  Budgets are audited on every built DataNode (a slave without
  one holds no replica), slots on every node.
* **Scheduler ready lists** (when a JobTracker is wired in) — the
  scheduler's ``map_ready`` and ``reduce_ready`` lists equal a full scan
  of ``active_jobs`` for a pending map and for schedulable reduces,
  order included.
* **Hot-node cache** (when a JobTracker is wired in) — while
  ``hot_nodes_by_rack``'s cached key equals the current
  ``(sched_version, replica_version)``, the cached map equals a fresh
  scan of the map-ready jobs' pending blocks.
* **Fair refusal memo** (when a JobTracker is wired in) — while the Fair
  scheduler's ``refusal`` equals ``(engine.now, sched_version)``, every
  map-ready job's delay clock runs and none may launch REMOTE at
  ``now``: the two facts that let an offer from a rack without a replica
  be refused without a walk.
* **Node identity** — every built DataNode's and TaskTracker's ``node`` is
  the object ``Cluster.node`` returns, and every id in
  ``Cluster.dead_slaves`` is built with ``alive`` False (a mesoscale
  cluster builds a node on first use).
* **Per-rack control sets** — each of the NameNode's ``control_by_rack``
  sets holds exactly the rack's nodes whose DataNode has a non-empty
  ``outbox`` or ``pending_deletion``, and every DataNode's ``control``
  slot is its rack's set (the rack hubs' idle walk visits only these).
* **Work implies promotion** (mesoscale hubs) — every hub member outside
  ``hub.accurate`` has no TaskTracker, all slots free and no in-flight
  attempt.

A failed check raises :class:`InvariantViolation` carrying the offending
record and the recent trace tail.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Set

import numpy as np

from repro.mapreduce.task import Locality
from repro.observability.trace import (
    HDFS_HEARTBEAT,
    HEARTBEAT,
    SCARLETT_EPOCH,
    TASK_FINISHED,
    TASK_SCHEDULED,
    RingBufferSink,
    TraceRecord,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.scarlett import ScarlettService
    from repro.core.manager import DareReplicationService
    from repro.hdfs.datanode import DataNode
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.jobtracker import JobTracker

#: record types at which cross-component state is settled (no eviction loop
#: or insert/track pair is mid-flight), so strict equality checks are safe
SETTLED_TYPES = frozenset({HEARTBEAT, HDFS_HEARTBEAT, TASK_SCHEDULED, TASK_FINISHED})


class InvariantViolation(AssertionError):
    """An invariant failed; carries the trigger record and the trace tail."""

    def __init__(
        self,
        message: str,
        record: Optional[TraceRecord] = None,
        tail: Iterable[TraceRecord] = (),
    ) -> None:
        self.record = record
        self.tail = list(tail)
        lines = [message]
        if record is not None:
            lines.append(f"  triggered by: {record.to_json()}")
        if self.tail:
            lines.append(f"  trace tail ({len(self.tail)} records, oldest first):")
            lines.extend(f"    {r.to_json()}" for r in self.tail)
        super().__init__("\n".join(lines))


def _tracked_ids(policy) -> Set[int]:
    """Block ids a DARE policy currently tracks (LRU/LFU or ElephantTrap)."""
    if hasattr(policy, "tracked_blocks"):
        return set(policy.tracked_blocks())
    return {b.block_id for b in policy.ring_blocks()}


class InvariantChecker:
    """Subscribes to the trace bus and validates bookkeeping per event.

    Parameters
    ----------
    namenode:
        The metadata master (always required: it owns the DataNodes).
    dare:
        The replication service, when DARE policy coherence should be
        checked.
    jobtracker:
        The compute master, when slot accounting, the scheduler's ready
        lists and the mesoscale pool should be checked.
    scarlett:
        The epoch-based proactive baseline, when its budget accounting
        should be checked.
    tail_size:
        How many recent records to keep for diagnostics.
    full_sweep_every:
        Run the expensive whole-cluster sweep at most once per this many
        records (``1`` = at every settled record; useful in unit tests).
    """

    def __init__(
        self,
        namenode: "NameNode",
        dare: Optional["DareReplicationService"] = None,
        jobtracker: Optional["JobTracker"] = None,
        scarlett: Optional["ScarlettService"] = None,
        tail_size: int = 64,
        full_sweep_every: int = 2000,
    ) -> None:
        if full_sweep_every < 1:
            raise ValueError("full_sweep_every must be >= 1")
        self.namenode = namenode
        self.dare = dare
        self.jobtracker = jobtracker
        self.scarlett = scarlett
        self.full_sweep_every = full_sweep_every
        self._ring = RingBufferSink(tail_size)
        self.records_seen = 0
        self.sweeps_run = 0
        self._since_sweep = full_sweep_every  # sweep at the first opportunity

    # -- wiring -----------------------------------------------------------------

    def attach(self, tracer: Tracer) -> "InvariantChecker":
        """Subscribe to ``tracer`` (tail sink first, then the checks)."""
        tracer.add_sink(self._ring)
        tracer.subscribe(self.on_record)
        return self

    # -- entry points -------------------------------------------------------------

    def on_record(self, record: TraceRecord) -> None:
        """Validate state after one published record."""
        self.records_seen += 1
        self._since_sweep += 1
        node_id = record.data.get("node")
        if isinstance(node_id, int):
            self._check_node(node_id, record)
        if record.type == SCARLETT_EPOCH:
            self._check_scarlett(record)
        if record.type in SETTLED_TYPES and self._since_sweep >= self.full_sweep_every:
            self.check_now(record)

    def hold_sweeps(self) -> None:
        """Trigger no throttled sweep until the next :meth:`check_now`.

        Records still get their per-record node checks.  For a burst the
        caller sweeps once after, such as the end-of-run heartbeat flush,
        which beats every slave.
        """
        self._since_sweep = -math.inf

    def check_now(self, record: Optional[TraceRecord] = None) -> None:
        """Run the full cross-component sweep immediately.

        Called from :meth:`on_record` at settled points and by the runner
        once more after the simulation drains.
        """
        self._since_sweep = 0
        self.sweeps_run += 1
        try:
            self.namenode.check_integrity()
        except AssertionError as exc:
            self._fail(f"replica-map consistency: {exc}", record)
        datanodes = self.namenode.datanodes
        for node_id, dn in datanodes.items():
            self._check_budget(dn, record)
            self._check_policy(node_id, dn, record, strict=True)
        if self.dare is not None:
            for node_id in sorted(self.dare.states.keys() - datanodes.keys()):
                self._check_policy(node_id, None, record, strict=True)
        self._check_all_slots(record)
        self._check_nodes(record)
        self._check_scarlett(record)
        self._check_ready_lists(record)
        self._check_hot_nodes(record)
        self._check_refusal_memo(record)
        self._check_control_sets(record)
        self._check_pool(record)

    # -- the checks ----------------------------------------------------------------

    def _fail(self, message: str, record: Optional[TraceRecord]) -> None:
        raise InvariantViolation(message, record, self._ring.tail(20))

    def _check_node(self, node_id: int, record: Optional[TraceRecord]) -> None:
        dn = self.namenode.datanodes.get(node_id)
        if dn is not None:
            self._check_budget(dn, record)
        self._check_policy(node_id, dn, record, strict=False)
        self._check_slots(node_id, record)

    def _check_budget(self, dn: "DataNode", record: Optional[TraceRecord]) -> None:
        live_bytes = sum(
            b.size_bytes
            for bid, b in dn.dynamic_blocks.items()
            if bid not in dn.pending_deletion
        )
        if dn.dynamic_bytes_used != live_bytes:
            self._fail(
                f"node {dn.node_id}: dynamic_bytes_used={dn.dynamic_bytes_used} "
                f"but live dynamic replicas sum to {live_bytes}",
                record,
            )
        if dn.dynamic_bytes_used < 0:
            self._fail(
                f"node {dn.node_id}: negative budget usage {dn.dynamic_bytes_used}",
                record,
            )
        if dn.dynamic_bytes_used > dn.dynamic_capacity_bytes:
            self._fail(
                f"node {dn.node_id}: budget exceeded "
                f"({dn.dynamic_bytes_used} > {dn.dynamic_capacity_bytes})",
                record,
            )
        stray = dn.pending_deletion - set(dn.dynamic_blocks)
        if stray:
            self._fail(
                f"node {dn.node_id}: pending deletion of unknown blocks {sorted(stray)}",
                record,
            )

    def _check_policy(
        self,
        node_id: int,
        dn: Optional["DataNode"],
        record: Optional[TraceRecord],
        strict: bool,
    ) -> None:
        if self.dare is None or not self.dare.config.enabled:
            return
        # a node that never ran a map task has no state yet: its policy
        # tracks nothing
        state = self.dare.states.get(node_id)
        if state is None and dn is None:
            return  # nothing tracked, nothing stored
        node = self.namenode.cluster.nodes[node_id]  # None: unbuilt, alive
        if node is not None and not node.alive:
            # a failed node's policy state is frozen garbage; it can never
            # be consulted again (dead nodes don't heartbeat)
            return
        policy = state.policy if state is not None else None
        tracked = _tracked_ids(policy) if policy is not None else set()
        live = (
            {bid for bid in dn.dynamic_blocks if bid not in dn.pending_deletion}
            if dn is not None
            else set()
        )
        phantom = tracked - live
        if phantom:
            self._fail(
                f"node {node_id}: policy tracks blocks {sorted(phantom)} "
                "with no live dynamic replica",
                record,
            )
        if strict and tracked != live:
            self._fail(
                f"node {node_id}: policy tracks {sorted(tracked)} but live "
                f"dynamic replicas are {sorted(live)}",
                record,
            )
        ring_blocks = getattr(policy, "ring_blocks", None)
        if ring_blocks is not None:
            ids = [b.block_id for b in ring_blocks()]
            if len(ids) != len(set(ids)):
                self._fail(f"node {node_id}: ElephantTrap ring has duplicates", record)
            for bid in ids:
                if policy.access_count(bid) < 0:
                    self._fail(
                        f"node {node_id}: block {bid} has negative access "
                        f"count {policy.access_count(bid)}",
                        record,
                    )

    def _check_nodes(self, record: Optional[TraceRecord]) -> None:
        """Each built DataNode's and TaskTracker's node is the cluster's
        own, and each dead slave is built and stopped.

        Walks only those three populations, never every node, and builds
        none: a DataNode or tracker holds its node already, and a dead
        slave is read from the node table.
        """
        cluster = self.namenode.cluster
        holders = [("DataNode", self.namenode.datanodes)]
        if self.jobtracker is not None:
            holders.append(("TaskTracker", self.jobtracker.tasktrackers))
        for kind, by_id in holders:
            for node_id, holder in by_id.items():
                if holder.node is not cluster.node(node_id):
                    self._fail(
                        f"node {node_id}: its {kind} runs on a Node object "
                        "the cluster does not hold",
                        record,
                    )
        nodes = cluster.nodes
        for node_id in cluster.dead_slaves:
            node = nodes[node_id]
            if node is None or node.alive:
                self._fail(
                    f"node {node_id}: listed dead but "
                    f"{'never built' if node is None else 'alive'}",
                    record,
                )

    def _check_scarlett(self, record: Optional[TraceRecord]) -> None:
        if self.scarlett is None:
            return
        svc = self.scarlett
        budget = svc.budget_bytes()
        spent = svc.extra_bytes()
        # copies already in flight at a boundary re-plan may still land on
        # top of the new plan: at most max_concurrent of them
        slack = svc.slack_bytes()
        if spent > budget + slack:
            self._fail(
                f"scarlett: extra-replica bytes {spent} exceed epoch budget "
                f"{budget} + in-flight slack {slack}",
                record,
            )
        if record is not None and record.type == SCARLETT_EPOCH:
            if record.data["spent_bytes"] > record.data["budget_bytes"] + slack:
                self._fail(
                    f"scarlett: epoch record reports spent_bytes="
                    f"{record.data['spent_bytes']} over budget_bytes="
                    f"{record.data['budget_bytes']} + slack {slack}",
                    record,
                )
        nodes = self.namenode.cluster.nodes
        datanodes = self.namenode.datanodes
        for name, pairs in svc._extra.items():
            for bid, node_id in pairs:
                node = nodes[node_id]
                if node is not None and not node.alive:
                    continue  # dead-node pairs linger until aged out
                dn = datanodes.get(node_id)
                if dn is None or bid not in dn.static_blocks:
                    self._fail(
                        f"scarlett: extra replica of block {bid} ({name}) "
                        f"recorded on live node {node_id} but not stored there",
                        record,
                    )

    def _check_ready_lists(self, record: Optional[TraceRecord]) -> None:
        if self.jobtracker is None:
            return
        scheduler = self.jobtracker.scheduler
        active = scheduler.active_jobs
        for name, ready, scan in (
            ("map_ready", scheduler.map_ready, [j for j in active if j.has_pending_maps]),
            (
                "reduce_ready",
                scheduler.reduce_ready,
                [j for j in active if j.reduces_schedulable],
            ),
        ):
            if ready != scan:
                self._fail(
                    f"scheduler: {name} holds jobs "
                    f"{[j.spec.job_id for j in ready]} but a full scan of "
                    f"active_jobs finds {[j.spec.job_id for j in scan]}",
                    record,
                )

    def _check_hot_nodes(self, record: Optional[TraceRecord]) -> None:
        jt = self.jobtracker
        if jt is None:
            return
        key = (jt.sched_version, self.namenode.replica_version)
        if jt._hot_cache_key != key:
            return  # stale: the next read rebuilds the map
        scan = jt.scan_hot_nodes_by_rack()
        if jt._hot_by_rack != scan:
            self._fail(
                f"hot-node cache: the map cached under key {key} is "
                f"{jt._hot_by_rack} but a fresh scan of the map-ready jobs' "
                f"pending blocks finds {scan}",
                record,
            )

    def _check_refusal_memo(self, record: Optional[TraceRecord]) -> None:
        jt = self.jobtracker
        if jt is None:
            return
        scheduler = jt.scheduler
        memo = getattr(scheduler, "refusal", None)  # Fair schedulers only
        if memo is None or memo != (jt.engine.now, jt.sched_version):
            return
        now = memo[0]
        for job in scheduler.map_ready:
            if job.delay_wait_started is None:
                problem = "has no running delay clock"
            elif scheduler._allowed_level(job, now) >= Locality.REMOTE:
                problem = "may launch REMOTE"
            else:
                continue
            self._fail(
                f"fair refusal memo {memo}: map-ready job {job.spec.job_id} "
                f"{problem}",
                record,
            )

    def _check_control_sets(self, record: Optional[TraceRecord]) -> None:
        nn = self.namenode
        held = nn.control_by_rack
        rack_of = nn._rack_of
        scan: List[Set[int]] = [set() for _ in held]
        for node_id, dn in nn.datanodes.items():
            rack = rack_of[node_id]
            if dn.control is not held[rack]:
                self._fail(
                    f"node {node_id}: DataNode control set is not rack {rack}'s",
                    record,
                )
            if dn.outbox or dn.pending_deletion:
                scan[rack].add(node_id)
        for rack, (ids, found) in enumerate(zip(held, scan)):
            if ids != found:
                self._fail(
                    f"rack {rack}: control set holds {sorted(ids)} but the "
                    f"DataNodes with queued control traffic are {sorted(found)}",
                    record,
                )

    def _check_pool(self, record: Optional[TraceRecord]) -> None:
        """Work implies promotion: no pooled hub member has a TaskTracker,
        an occupied slot or an in-flight attempt.

        Audits only the nodes with any of the three, the occupied ones
        found by one array scan as in :meth:`_check_all_slots`, never
        every member.  Hub members are the slaves; the master has no slot
        to occupy.
        """
        jt = self.jobtracker
        if jt is None or not jt.hubs:
            return
        slots = jt.slots
        working = set(jt.tasktrackers)
        working.update(node_id for node_id, running in jt._running_by_node.items() if running)
        for free, cap in (
            (slots.free_map, slots.cap_map),
            (slots.free_reduce, slots.cap_reduce),
        ):
            f = np.frombuffer(free, dtype=free.typecode)
            working.update(
                np.flatnonzero(f != np.frombuffer(cap, dtype=cap.typecode)).tolist()
            )
        accurate = set().union(*(hub.accurate for hub in jt.hubs))
        for node_id in sorted(working - accurate):
            if node_id in jt.tasktrackers:
                problem = "has a TaskTracker"
            elif not slots.all_free(node_id):
                problem = "holds occupied slots"
            else:
                problem = "has in-flight attempts"
            self._fail(
                f"pooled node {node_id} {problem} (work implies promotion)",
                record,
            )

    def _check_all_slots(self, record: Optional[TraceRecord]) -> None:
        """:meth:`_check_slots` over every node, as one array scan."""
        if self.jobtracker is None:
            return
        slots = self.jobtracker.slots
        for free, cap in (
            (slots.free_map, slots.cap_map),
            (slots.free_reduce, slots.cap_reduce),
        ):
            f = np.frombuffer(free, dtype=free.typecode)
            bad = np.flatnonzero((f < 0) | (f > np.frombuffer(cap, dtype=cap.typecode)))
            if bad.size:
                self._check_slots(int(bad[0]), record)

    def _check_slots(self, node_id: int, record: Optional[TraceRecord]) -> None:
        if self.jobtracker is None:
            return
        # the slot store covers every node, pooled (mesoscale) or not
        slots = self.jobtracker.slots
        free, cap = slots.free_map[node_id], slots.cap_map[node_id]
        if not 0 <= free <= cap:
            self._fail(
                f"node {node_id}: free map slots {free} outside [0, {cap}]",
                record,
            )
        free, cap = slots.free_reduce[node_id], slots.cap_reduce[node_id]
        if not 0 <= free <= cap:
            self._fail(
                f"node {node_id}: free reduce slots {free} outside [0, {cap}]",
                record,
            )
