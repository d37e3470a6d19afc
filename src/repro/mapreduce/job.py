"""Job specification (trace entry) and runtime job state."""

from __future__ import annotations

from math import isfinite
from typing import List, NamedTuple, Optional, Set, Tuple

from repro.hdfs.inode import INode
from repro.hdfs.namenode import NameNode
from repro.mapreduce.task import Locality, MapTask, ReduceTask, TaskState


class JobSpec(NamedTuple):
    """One trace entry — everything needed to replay a job.

    The map count is implied by the input file (Hadoop launches one map per
    block).  Shuffle/output sizes are expressed as ratios of the input
    size, following the SWIM trace format's (input, shuffle, output) byte
    triples.
    """

    job_id: int
    submit_time: float
    input_file: str
    map_cpu_s: float = 4.0
    n_reduces: int = 1
    reduce_cpu_s: float = 4.0
    shuffle_ratio: float = 0.4
    output_ratio: float = 0.2

    def validate(self) -> "JobSpec":
        """Raise on malformed entries; return self.

        ``nan`` and ``inf`` pass a ``< 0`` test, so the float fields are
        checked for finiteness too: a job submitted at ``inf`` never
        arrives, and the heartbeats waiting for it never stop.
        """
        if not isfinite(self.submit_time):
            raise ValueError(f"job {self.job_id}: non-finite submit time")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: negative submit time")
        if not (isfinite(self.map_cpu_s) and isfinite(self.reduce_cpu_s)):
            raise ValueError(f"job {self.job_id}: non-finite cpu time")
        if self.map_cpu_s < 0 or self.reduce_cpu_s < 0:
            raise ValueError(f"job {self.job_id}: negative cpu time")
        if self.n_reduces < 0:
            raise ValueError(f"job {self.job_id}: negative reduce count")
        if not (isfinite(self.shuffle_ratio) and isfinite(self.output_ratio)):
            raise ValueError(f"job {self.job_id}: non-finite data ratio")
        if self.shuffle_ratio < 0 or self.output_ratio < 0:
            raise ValueError(f"job {self.job_id}: negative data ratio")
        return self


class Job:
    """Runtime state of a submitted job."""

    __slots__ = (
        "spec",
        "inode",
        "maps",
        "reduces",
        "pending_maps",
        "pending_block_ids",
        "running_maps",
        "finished_maps",
        "running_reduces",
        "finished_reduces",
        "locality_counts",
        "submit_time",
        "first_task_time",
        "finish_time",
        "delay_wait_started",
    )

    def __init__(self, spec: JobSpec, inode: INode) -> None:
        self.spec = spec
        self.inode = inode
        self.maps: List[MapTask] = [
            MapTask(self, i, block) for i, block in enumerate(inode.blocks)
        ]
        self.reduces: List[ReduceTask] = [
            ReduceTask(self, i) for i in range(spec.n_reduces)
        ]
        # pending maps kept as a list scanned at assignment time; jobs are
        # small on average and the scan lets locality reflect the *current*
        # NameNode view (which DARE keeps changing)
        self.pending_maps: List[MapTask] = list(self.maps)
        self.pending_block_ids: Set[int] = {t.block.block_id for t in self.maps}
        self.running_maps = 0
        self.finished_maps = 0
        self.running_reduces = 0
        self.finished_reduces = 0
        self.locality_counts = [0, 0, 0]  # node-local, rack-local, remote
        self.submit_time = spec.submit_time
        self.first_task_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        # delay-scheduling bookkeeping (used by the Fair scheduler)
        self.delay_wait_started: Optional[float] = None

    # -- queries ---------------------------------------------------------

    @property
    def n_maps(self) -> int:
        """Number of map tasks (== number of input blocks)."""
        return len(self.maps)

    @property
    def maps_done(self) -> bool:
        """True when every map task completed."""
        return self.finished_maps == len(self.maps)

    @property
    def done(self) -> bool:
        """True when the whole job completed."""
        return self.maps_done and self.finished_reduces == len(self.reduces)

    @property
    def has_pending_maps(self) -> bool:
        """True when unassigned map tasks remain."""
        return bool(self.pending_maps)

    @property
    def reduces_schedulable(self) -> bool:
        """Reduces launch once the map phase finishes (no early shuffle).

        Pure counter arithmetic, evaluated when the scheduler re-files the
        job in its ready lists (:meth:`repro.scheduling.base.Scheduler.job_changed`)
        and once per reduce pick on a ready job.  A reduce is PENDING iff
        it is neither running nor finished (failure requeue restores both
        the state and the running counter), so the counters are exact.
        """
        return (
            self.finished_maps == len(self.maps)
            and self.running_reduces + self.finished_reduces < len(self.reduces)
        )

    @property
    def data_locality(self) -> float:
        """Fraction of map tasks that ran data-local (the paper's metric)."""
        launched = sum(self.locality_counts)
        if launched == 0:
            return 0.0
        return self.locality_counts[Locality.NODE_LOCAL] / launched

    @property
    def turnaround(self) -> float:
        """Submission-to-completion time (valid once done)."""
        if self.finish_time is None:
            raise ValueError(f"job {self.spec.job_id} has not finished")
        return self.finish_time - self.submit_time

    # -- task selection ------------------------------------------------------

    def find_pending_map(
        self, node_id: int, namenode: NameNode, max_level: Locality = Locality.REMOTE
    ) -> Optional[Tuple[MapTask, Locality]]:
        """Best pending map for a heartbeating node, up to ``max_level``.

        Preference order is node-local, then rack-local, then any — the
        same walk Hadoop's schedulers perform.  Locality is evaluated
        against the NameNode's *current* replica view, so replicas DARE
        announced a heartbeat ago immediately improve placement choices.
        """
        if not self.pending_maps:
            return None
        # the scan runs for every (job, free slot) pair of every heartbeat:
        # locations come from the NameNode's dense block-id array (no dict
        # hashing), and rack locality is one lookup in the block's per-rack
        # replica counts — equivalent to an isdisjoint against the rack's
        # member set (replica holders are exactly the counted nodes), but
        # independent of both rack size and replica count
        locs_by_id = namenode._locs_by_id
        want_rack = max_level >= Locality.RACK_LOCAL
        my_rack = namenode._rack_of[node_id] if want_rack else -1
        rack_candidate: Optional[MapTask] = None
        for task in self.pending_maps:
            locs = locs_by_id[task.block.block_id]
            if node_id in locs:
                return task, Locality.NODE_LOCAL
            if want_rack and rack_candidate is None and my_rack in locs.rack_counts:
                rack_candidate = task
        if rack_candidate is not None:
            return rack_candidate, Locality.RACK_LOCAL
        if max_level >= Locality.REMOTE:
            return self.pending_maps[0], Locality.REMOTE
        return None

    def next_pending_reduce(self) -> Optional[ReduceTask]:
        """First pending reduce task, if reduces are schedulable."""
        if not self.reduces_schedulable:
            return None
        for r in self.reduces:
            if r.state is TaskState.PENDING:
                return r
        return None

    def take_map(self, task: MapTask) -> None:
        """Move a map task from pending to running bookkeeping."""
        self.pending_maps.remove(task)
        self.pending_block_ids.discard(task.block.block_id)
        self.running_maps += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.spec.job_id} maps={self.finished_maps}/{self.n_maps} "
            f"reduces={self.finished_reduces}/{len(self.reduces)}>"
        )
