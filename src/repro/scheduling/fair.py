"""The Fair scheduler with delay scheduling.

Job ordering is max-min fair over running map tasks (all jobs weight 1, as
in the paper's experiments).  Delay scheduling follows the EuroSys'10
algorithm the Hadoop Fair Scheduler shipped with:

* when a job's turn comes and it has a node-local task for the offering
  node, launch it and reset the job's wait;
* otherwise *skip* the job and start (or continue) its wait clock;
* a job that has waited ``node_delay_s`` may launch rack-local; one that
  has waited ``node_delay_s + rack_delay_s`` may launch anywhere.

On a single-rack cluster (CCT) every non-local task is rack-local, so the
effective delay is ``node_delay_s`` — matching how the paper's CCT numbers
should be read.

A refused map offer is remembered for its instant: at 100k nodes a rack
hub offers one tick's slots to many nodes at the same simulated time, and
most of those offers repeat a refusal that a walk over every map-ready
job has just made (see :meth:`FairScheduler.pick_map`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mapreduce.job import Job
from repro.mapreduce.task import Locality
from repro.scheduling.base import MapPick, ReducePick, Scheduler

#: Hadoop's Fair Scheduler defaults the locality delay to 1.5x the
#: TaskTracker heartbeat interval (1 s on our clusters).
DEFAULT_NODE_DELAY_S = 1.5
DEFAULT_RACK_DELAY_S = 1.5


class FairScheduler(Scheduler):
    """Max-min fair sharing over jobs, with delay scheduling."""

    def __init__(
        self,
        node_delay_s: float = DEFAULT_NODE_DELAY_S,
        rack_delay_s: float = DEFAULT_RACK_DELAY_S,
    ) -> None:
        super().__init__()
        if node_delay_s < 0 or rack_delay_s < 0:
            raise ValueError("delays must be nonnegative")
        self.node_delay_s = node_delay_s
        self.rack_delay_s = rack_delay_s
        #: ``(now, JobTracker.sched_version)`` of the last map walk that
        #: refused without starting a delay clock; cleared by any pick
        self.refusal: Optional[Tuple[float, int]] = None

    # -- fair ordering ------------------------------------------------------

    def _map_order(self):
        """Jobs with pending maps, fewest running tasks first (max-min)."""
        return sorted(
            self.map_ready, key=lambda j: (j.running_maps, j.submit_time, j.spec.job_id)
        )

    def _allowed_level(self, job: Job, now: float) -> Locality:
        """Highest (worst) locality level this job may currently launch at."""
        if job.delay_wait_started is None:
            return Locality.NODE_LOCAL
        waited = now - job.delay_wait_started
        if waited >= self.node_delay_s + self.rack_delay_s:
            return Locality.REMOTE
        if waited >= self.node_delay_s:
            return Locality.RACK_LOCAL
        return Locality.NODE_LOCAL

    # -- picking ---------------------------------------------------------------

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        """Fair-order walk with per-job delay gates.

        A walk that refuses without starting a delay clock is remembered
        as ``(now, sched_version)``.  A later offer at the same pair, from
        a node whose rack holds no replica of a pending map block, is
        refused without a walk.  That is exact: the same time and schedule
        state give every map-ready job the same allowed level, below
        REMOTE (else the remembered walk would have launched that job's
        first pending map); every job's delay clock already runs, so a
        walk would change nothing; and a node in a rack without a replica
        has no node-local or rack-local candidate.  A walk that started a
        clock is not remembered: with ``node_delay_s == 0`` a second walk
        can pick.
        """
        jt = self.jobtracker
        namenode = jt.namenode
        if self.refusal == (now, jt.sched_version) and (
            namenode._rack_of[node_id] not in jt.hot_nodes_by_rack()
        ):
            return None
        clock_started = False
        for job in self._map_order():
            allowed = self._allowed_level(job, now)
            found = job.find_pending_map(node_id, namenode, allowed)
            if found is None:
                # skipped: the job starts (or continues) waiting
                if job.delay_wait_started is None:
                    job.delay_wait_started = now
                    clock_started = True
                continue
            task, locality = found
            if locality is Locality.NODE_LOCAL:
                # a local launch resets the delay clock (EuroSys'10 rule)
                job.delay_wait_started = None
            self.refusal = None
            return job, task, locality
        if not clock_started:
            self.refusal = (now, jt.sched_version)
        return None

    def pick_reduce(self, node_id: int, now: float) -> Optional[ReducePick]:
        """Fair order over jobs with schedulable reduces."""
        jobs = sorted(
            self.reduce_ready,
            key=lambda j: (j.running_reduces, j.submit_time, j.spec.job_id),
        )
        for job in jobs:
            task = job.next_pending_reduce()
            if task is not None:
                return job, task
        return None


class SkipCountFairScheduler(FairScheduler):
    """Delay scheduling in the EuroSys'10 Algorithm-2 formulation.

    Instead of wall-clock waits, a job accumulates a *skip count*: each
    time its turn yields no node-local task on the offering node it is
    skipped and the counter increments.  After ``node_skips`` skips the
    job may launch rack-local; after ``node_skips + rack_skips``, anywhere.
    A node-local launch resets the counter.  Skip counts adapt implicitly
    to cluster size and heartbeat rate (the formulation's selling point),
    whereas time-based delays need retuning per cluster; on our clusters
    the two behave near-identically, which the test suite checks.

    Reuses ``job.delay_wait_started`` as the skip counter (float-valued).
    """

    def __init__(self, node_skips: int = 12, rack_skips: int = 12) -> None:
        super().__init__()
        if node_skips < 0 or rack_skips < 0:
            raise ValueError("skip counts must be nonnegative")
        self.node_skips = node_skips
        self.rack_skips = rack_skips

    def _allowed_level(self, job: Job, now: float) -> Locality:
        skips = job.delay_wait_started or 0.0
        if skips >= self.node_skips + self.rack_skips:
            return Locality.REMOTE
        if skips >= self.node_skips:
            return Locality.RACK_LOCAL
        return Locality.NODE_LOCAL

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        namenode = self.namenode
        for job in self._map_order():
            allowed = self._allowed_level(job, now)
            found = job.find_pending_map(node_id, namenode, allowed)
            if found is None:
                job.delay_wait_started = (job.delay_wait_started or 0.0) + 1.0
                continue
            task, locality = found
            if locality is Locality.NODE_LOCAL:
                job.delay_wait_started = None
            return job, task, locality
        return None
