"""Hadoop's default FIFO scheduler (JobQueueTaskScheduler).

Strict submission order: the earliest-submitted job with pending work gets
the slot.  Within that job the scheduler prefers a node-local task, then a
rack-local one, then any — but it never *withholds* a slot waiting for
locality, which is exactly why small jobs achieve poor locality under FIFO
(Section V-B: ~7x headroom for DARE).
"""

from __future__ import annotations

from typing import Optional

from repro.mapreduce.task import Locality
from repro.scheduling.base import MapPick, ReducePick, Scheduler


class FifoScheduler(Scheduler):
    """First-in, first-out job scheduling with best-effort locality."""

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        """Head-of-line job's best task for this node, if any."""
        for job in self.map_ready:
            found = job.find_pending_map(node_id, self.namenode, Locality.REMOTE)
            if found is not None:
                task, locality = found
                return job, task, locality
        return None

    def pick_reduce(self, node_id: int, now: float) -> Optional[ReducePick]:
        """Head-of-line job with schedulable reduces."""
        for job in self.reduce_ready:
            task = job.next_pending_reduce()
            if task is not None:
                return job, task
        return None
