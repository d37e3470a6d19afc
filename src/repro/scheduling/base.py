"""Scheduler interface."""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.mapreduce.job import Job
from repro.mapreduce.task import Locality, MapTask, ReduceTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.jobtracker import JobTracker

#: what pick_map returns: the job, the chosen task, and the locality level
#: the scheduler *believes* the placement has (per the NameNode view)
MapPick = Tuple[Job, MapTask, Locality]
ReducePick = Tuple[Job, ReduceTask]


class Scheduler:
    """Base class: tracks the active job set, defines the picking API.

    The JobTracker calls :meth:`pick_map` / :meth:`pick_reduce` repeatedly
    during a heartbeat while the offering node has free slots; returning
    ``None`` ends the assignment round for that slot type.

    Besides ``active_jobs`` the scheduler keeps two *ready lists*, both in
    submission order: ``map_ready`` (active jobs with a pending map) and
    ``reduce_ready`` (active jobs whose reduces are schedulable).  A
    scheduler picks only from these lists, never by filtering
    ``active_jobs``.  They are updated on state changes rather than
    re-derived per pick, so anything that edits a job's task counters
    (``pending_maps``, ``finished_maps``, ``running_reduces``, ...) must
    call :meth:`job_changed` afterwards — the JobTracker does so after
    every launch, map completion and requeue.

    Because a scheduler picks only from the ready lists, a pick over an
    empty list returns ``None`` and changes nothing: no delay clock
    starts and no skip count grows.  The JobTracker relies on this and
    asks for a map only while ``map_ready`` is non-empty, and for a
    reduce only while ``reduce_ready`` is.
    """

    def __init__(self) -> None:
        self.jobtracker: Optional["JobTracker"] = None
        self.active_jobs: List[Job] = []
        self.map_ready: List[Job] = []
        self.reduce_ready: List[Job] = []

    def bind(self, jobtracker: "JobTracker") -> None:
        """Attach to a JobTracker (called once by its constructor)."""
        self.jobtracker = jobtracker

    @property
    def namenode(self) -> "NameNode":
        """The NameNode whose replica view drives locality decisions."""
        assert self.jobtracker is not None
        return self.jobtracker.namenode

    # -- job lifecycle ------------------------------------------------------

    def job_added(self, job: Job) -> None:
        """A job was submitted."""
        self.active_jobs.append(job)
        self.job_changed(job)

    def job_finished(self, job: Job) -> None:
        """A job completed; drop it from consideration."""
        for jobs in (self.active_jobs, self.map_ready, self.reduce_ready):
            if job in jobs:
                jobs.remove(job)

    def job_changed(self, job: Job) -> None:
        """Re-file an active ``job`` in both ready lists after a state change."""
        self._refile(self.map_ready, job, job.has_pending_maps)
        self._refile(self.reduce_ready, job, job.reduces_schedulable)

    def _refile(self, ready: List[Job], job: Job, wanted: bool) -> None:
        if wanted:
            if job not in ready:
                # submission rank is the position in active_jobs; a job
                # joins a ready list rarely (submission, map phase done,
                # requeue), so the O(active) index lookups stay cheap
                insort(ready, job, key=self.active_jobs.index)
        elif job in ready:
            ready.remove(job)

    # -- picking ---------------------------------------------------------------

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        """Choose a map task for a free map slot on ``node_id``."""
        raise NotImplementedError

    def pick_reduce(self, node_id: int, now: float) -> Optional[ReducePick]:
        """Choose a reduce task for a free reduce slot on ``node_id``."""
        raise NotImplementedError
