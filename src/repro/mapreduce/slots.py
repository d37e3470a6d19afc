"""Dense array-backed free-slot counters, indexed by node id.

At 10k-100k nodes, per-TaskTracker attribute storage makes any cluster-wide
slot question (the batched heartbeat hub's "who can take work this tick")
a Python object walk.  The store keeps free and capacity counts in flat
``array`` buffers indexed by node id: TaskTrackers read and write their own
entry through the same guards as before, and the hub scans the raw buffers.

Capacities are filled for *every* node up front, in bulk — including nodes
the mesoscale pool has not materialised a TaskTracker for — so "all slots
free" is well-defined cluster-wide.
"""

from __future__ import annotations

from array import array
from typing import Sequence


class SlotStore:
    """Free/capacity map and reduce slot counts for all nodes."""

    __slots__ = ("free_map", "free_reduce", "cap_map", "cap_reduce")

    def __init__(self, map_slots: Sequence[int], reduce_slots: Sequence[int]) -> None:
        """``map_slots[i]`` and ``reduce_slots[i]`` are node ``i``'s
        capacities; every slot starts free."""
        self.cap_map = array("l", map_slots)
        self.cap_reduce = array("l", reduce_slots)
        self.free_map = array("l", self.cap_map)
        self.free_reduce = array("l", self.cap_reduce)

    def all_free(self, node_id: int) -> bool:
        """True when no task occupies any of the node's slots."""
        return (
            self.free_map[node_id] == self.cap_map[node_id]
            and self.free_reduce[node_id] == self.cap_reduce[node_id]
        )
