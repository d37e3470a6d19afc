"""TaskTracker: the per-slave heartbeat loop and slot accounting."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import Node
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.jobtracker import JobTracker


class TaskTracker:
    """Runs on every slave: heartbeats the JobTracker for work.

    Each heartbeat (1) delivers the co-located DataNode's control-plane
    messages to the NameNode (announcing DARE replicas / invalidations) and
    (2) offers free map/reduce slots to the scheduler.  Heartbeat phases are
    staggered per node with a random offset, like real TaskTrackers whose
    start times differ.

    The heartbeat chain is the simulator's highest-frequency periodic
    process, so its dispatch is inlined: the event label is computed
    once, and :meth:`beat`, the event's own action, re-arms a single
    reusable :class:`~repro.simulation.events.Event` via
    ``Engine.reschedule_in`` instead of allocating one per beat.  Firing
    times, labels, and sequence numbers are identical to naive per-beat
    scheduling, so traces (even with the ``engine.event`` firehose on) do
    not change.

    Slot counts live in the JobTracker's :class:`~repro.mapreduce.slots.
    SlotStore` (dense arrays indexed by node id); this class reads and
    writes its own entry through the same over/under-release guards the
    per-instance counters had.  Under a batched
    :class:`~repro.mapreduce.heartbeat_hub.HeartbeatHub` (``managed=True``)
    the tracker owns no heartbeat event — the hub calls :meth:`beat`.
    """

    __slots__ = (
        "node",
        "node_id",
        "jobtracker",
        "engine",
        "interval_s",
        "slots",
        "heartbeats_sent",
        "_hb_label",
        "_hb_event",
    )

    def __init__(
        self,
        node: Node,
        jobtracker: "JobTracker",
        engine: Engine,
        interval_s: float,
        start_offset_s: float = 0.0,
        managed: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.node = node
        self.node_id = node.node_id
        self.jobtracker = jobtracker
        self.engine = engine
        self.interval_s = interval_s
        self.slots = jobtracker.slots
        self.heartbeats_sent = 0
        self._hb_label = f"hb:{node.hostname}"
        if managed:
            self._hb_event = None
        else:
            self._hb_event = engine.schedule(
                engine.now + start_offset_s, self.beat, f"hb-start:{node.hostname}"
            )

    @property
    def free_map_slots(self) -> int:
        """Free map slots on this node (store-backed)."""
        return self.slots.free_map[self.node_id]

    @property
    def free_reduce_slots(self) -> int:
        """Free reduce slots on this node (store-backed)."""
        return self.slots.free_reduce[self.node_id]

    def beat(self) -> None:
        """One heartbeat: control plane, slot offers, trace record.

        A tracker with its own heartbeat event re-arms it for the next
        beat; a hub-managed one has none and is beaten by its hub.
        """
        if not self.node.alive:
            return  # a dead TaskTracker stops heartbeating
        self.heartbeats_sent += 1
        jobtracker = self.jobtracker
        jobtracker.heartbeat(self.node_id, self)
        event = self._hb_event
        if event is not None and not jobtracker.finished:
            self.engine.reschedule_in(self.interval_s, event, self._hb_label)

    # -- slot accounting (called by the JobTracker) -----------------------

    def occupy_map_slot(self) -> None:
        """Claim one map slot for a launching task."""
        free = self.slots.free_map
        if free[self.node_id] <= 0:
            raise RuntimeError(f"{self.node.hostname}: no free map slots")
        free[self.node_id] -= 1

    def release_map_slot(self) -> None:
        """Return a map slot on task completion."""
        free = self.slots.free_map
        if free[self.node_id] >= self.node.map_slots:
            raise RuntimeError(f"{self.node.hostname}: map slot over-release")
        free[self.node_id] += 1

    def occupy_reduce_slot(self) -> None:
        """Claim one reduce slot for a launching task."""
        free = self.slots.free_reduce
        if free[self.node_id] <= 0:
            raise RuntimeError(f"{self.node.hostname}: no free reduce slots")
        free[self.node_id] -= 1

    def release_reduce_slot(self) -> None:
        """Return a reduce slot on task completion."""
        free = self.slots.free_reduce
        if free[self.node_id] >= self.node.reduce_slots:
            raise RuntimeError(f"{self.node.hostname}: reduce slot over-release")
        free[self.node_id] += 1
