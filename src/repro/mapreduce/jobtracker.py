"""JobTracker: job lifecycle, task launching, and completion handling.

Every event action scheduled here is a ``functools.partial`` over a bound
method or a small ``__slots__`` callable — never a closure — so an event
heap mid-flight can be pickled by :mod:`repro.checkpoint` and re-fired
after restore.  For the same reason in-flight attempts are registered
under :attr:`repro.mapreduce.task.MapTask.key` (a stable tuple) rather
than ``id(task)``, which dangles across a pickle round-trip.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.core.manager import DareReplicationService
from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import Job, JobSpec
from repro.mapreduce.heartbeat_hub import HeartbeatHub
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.slots import SlotStore
from repro.mapreduce.speculation import SpeculationPolicy
from repro.mapreduce.task import Locality, MapTask, ReduceTask, TaskState
from repro.mapreduce.tasktracker import TaskTracker
from repro.metrics.traffic import TrafficMeter
from repro.observability.trace import HEARTBEAT, NULL_TRACER, TASK_FINISHED, TASK_SCHEDULED, Tracer
from repro.simulation.engine import Engine
from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector
    from repro.scheduling.base import Scheduler


class DataLossError(RuntimeError):
    """A map task's block has no live replica anywhere (job cannot finish).

    Raised rather than silently hanging: it means a failure plan destroyed
    all ``rf`` replicas of a block before re-replication could repair it.
    """


class _ReadDone:
    """Event action: the input read finished; release contention early.

    A picklable stand-in for the old ``on_read_done`` closure: it must
    both run the release and unregister it from the attempt's cleanup
    list (so a later kill does not release twice).
    """

    __slots__ = ("rt", "release")

    def __init__(self, rt: "_RunningTask", release: Callable[[], None]) -> None:
        self.rt = rt
        self.release = release

    def __call__(self) -> None:
        self.rt.cleanups.remove(self.release)
        self.release()


class _ShuffleRelease:
    """Cleanup action: free the reducer's NIC (picklable, unlike a closure)."""

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self) -> None:
        self.node.active_net_transfers -= 1


class _RunningTask:
    """Bookkeeping for one in-flight task *attempt* (failures and
    speculative execution both need to unwind attempts)."""

    __slots__ = ("task", "tt", "events", "cleanups", "locality", "speculative")

    def __init__(self, task, tt: TaskTracker, locality=None, speculative=False) -> None:
        self.task = task
        self.tt = tt
        #: pending engine events to cancel if the attempt is killed
        self.events: List[Event] = []
        #: contention-release callables not yet executed
        self.cleanups: List[Callable[[], None]] = []
        #: placement quality of this attempt
        self.locality = locality
        #: True for a speculative duplicate
        self.speculative = speculative


class JobTracker:
    """The master's compute-side daemon.

    Task *selection* is delegated to the pluggable scheduler; everything
    else — slot accounting, locality resolution against the physical block
    placement, the DARE hook, duration modeling, and completion events —
    happens here, so all schedulers are compared on identical mechanics
    (the paper's "scheduler-agnostic" property).

    The tracker also keeps a registry of in-flight tasks per node so that
    a node failure (see :mod:`repro.failures`) can cancel their completion
    events, roll back contention counters, and requeue the work — the
    MapReduce re-execution model.
    """

    def __init__(
        self,
        cluster: Cluster,
        namenode: NameNode,
        engine: Engine,
        scheduler: "Scheduler",
        time_model: TaskTimeModel,
        dare: DareReplicationService,
        collector: Optional["MetricsCollector"] = None,
        traffic: Optional[TrafficMeter] = None,
        speculation: Optional[SpeculationPolicy] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.cluster = cluster
        self.namenode = namenode
        self.engine = engine
        self.tracer = tracer
        self.scheduler = scheduler
        self.time_model = time_model
        self.dare = dare
        self.collector = collector
        self.traffic = traffic if traffic is not None else TrafficMeter()
        self.jobs: List[Job] = []
        self.expected_jobs: Optional[int] = None
        self.completed_jobs = 0
        self.finished = False
        #: dense free/capacity slot counters for every node (TaskTrackers
        #: read and write their own entry; the heartbeat hubs scan the raw
        #: arrays)
        self.slots = SlotStore(cluster.spec.n_nodes)
        for node in cluster.slaves:
            self.slots.register(node.node_id, node.map_slots, node.reduce_slots)
        self.tasktrackers: Dict[int, TaskTracker] = {}
        #: per-rack heartbeat actors (mesoscale mode)
        self.hubs: List[HeartbeatHub] = []
        #: bumped on every schedule-state change (launch, completion,
        #: submission, requeue); the hubs use deltas across a beat to count
        #: launches and as part of the hot-node cache key
        self.sched_version = 0
        self._hot_by_rack: Dict[int, List[int]] = {}
        self._hot_cache_key: Optional[Tuple[int, int]] = None
        #: in-flight attempts by node, for failure unwinding
        self._running_by_node: Dict[int, Dict[Tuple, _RunningTask]] = {}
        #: all live attempts per task (task.key -> attempts)
        self._attempts: Dict[Tuple, List[_RunningTask]] = {}
        #: straggler mitigation (None = off, as in the paper's experiments)
        self.speculation = speculation
        self.speculative_launched = 0
        self.speculative_wasted = 0
        self.speculative_won = 0
        #: counter of task attempts killed by node failures
        self.tasks_requeued = 0
        #: callables invoked with each submitted Job (e.g. Scarlett's
        #: popularity observer)
        self.submit_listeners: List[Callable[[Job], None]] = []
        scheduler.bind(self)

    # -- setup -------------------------------------------------------------

    def start_tasktrackers(self) -> None:
        """Create the heartbeat chain: per-slave trackers, or rack hubs.

        Event-accurate mode (the default) creates one TaskTracker per slave
        with staggered heartbeats.  In ``mesoscale`` mode one
        :class:`HeartbeatHub` per rack replaces the per-node events and
        pools its members (TaskTrackers materialise on promotion).
        """
        rng = self.cluster.streams.python("mapreduce.heartbeat-offsets")
        spec = self.cluster.spec
        hb = spec.heartbeat_s
        if spec.mesoscale:
            by_rack: Dict[int, List[int]] = {}
            for node in self.cluster.slaves:
                by_rack.setdefault(int(node.rack), []).append(node.node_id)
            for rack in sorted(by_rack):
                self.hubs.append(
                    HeartbeatHub(
                        rack,
                        by_rack[rack],
                        self,
                        self.engine,
                        hb,
                        start_offset_s=rng.uniform(0.0, hb),
                    )
                )
            return
        for node in self.cluster.slaves:
            self.tasktrackers[node.node_id] = TaskTracker(
                node, self, self.engine, hb, start_offset_s=rng.uniform(0.0, hb)
            )
            self._running_by_node[node.node_id] = {}

    # -- batched-heartbeat support ------------------------------------------

    def pending_work_units(self) -> int:
        """Upper bound on tasks the scheduler could place right now."""
        scheduler = self.scheduler
        total = 0
        for job in scheduler.map_ready:
            total += len(job.pending_maps)
        for job in scheduler.reduce_ready:
            total += len(job.reduces) - job.running_reduces - job.finished_reduces
        if self.speculation is not None:
            for job in scheduler.active_jobs:
                total += job.running_maps
        return total

    def hot_nodes_by_rack(self) -> Dict[int, List[int]]:
        """Replica holders of pending map blocks, grouped by rack.

        Cached against (schedule state, applied control messages): any
        launch/completion/requeue or DNA_DYNREPL/DNA_INVALIDATE heartbeat
        changes either the pending block set or the holder sets.
        """
        nn = self.namenode
        key = (self.sched_version, len(nn.command_log))
        if key != self._hot_cache_key:
            by_rack: Dict[int, List[int]] = {}
            seen: set = set()
            locs_by_id = nn._locs_by_id
            rack_of = nn._rack_of
            for job in self.scheduler.map_ready:
                for bid in job.pending_block_ids:
                    for nid in locs_by_id[bid]:
                        if nid not in seen:
                            seen.add(nid)
                            by_rack.setdefault(rack_of[nid], []).append(nid)
            for nids in by_rack.values():
                nids.sort()
            self._hot_by_rack = by_rack
            self._hot_cache_key = key
        return self._hot_by_rack

    def submit_trace(self, specs: List[JobSpec]) -> None:
        """Schedule submission events for a whole trace."""
        self.expected_jobs = len(specs)
        for spec in specs:
            self.engine.schedule(
                spec.submit_time,
                partial(self.submit, spec),
                f"submit:job{spec.job_id}",
            )

    def submit(self, spec: JobSpec) -> Job:
        """Submit one job now."""
        inode = self.namenode.file(spec.input_file)
        job = Job(spec.validate(), inode)
        self.jobs.append(job)
        self.sched_version += 1
        self.scheduler.job_added(job)
        for listener in self.submit_listeners:
            listener(job)
        return job

    # -- the heartbeat ---------------------------------------------------------

    def heartbeat(
        self,
        node_id: int,
        tt: Optional[TaskTracker] = None,
        promote: Optional[Callable[[int], TaskTracker]] = None,
    ) -> None:
        """Handle one heartbeat from ``node_id``: control plane, work, record.

        ``tt`` is the node's TaskTracker.  A pooled mesoscale member has
        none; its hub passes ``promote`` instead, which builds the tracker
        right before the first launch, so an offer that places nothing
        builds nothing.
        """
        now = self.engine.now
        # the heartbeat carries the DataNode's block reports: DARE replicas
        # and invalidations become visible to the scheduler here
        self.namenode.process_heartbeat(node_id, now)
        scheduler = self.scheduler
        # a pick over an empty ready list returns None and changes nothing
        # (see Scheduler), so an idle heartbeat never calls the scheduler
        map_ready = scheduler.map_ready
        reduce_ready = scheduler.reduce_ready
        free_map = self.slots.free_map
        free_reduce = self.slots.free_reduce
        while map_ready and free_map[node_id] > 0:
            pick = scheduler.pick_map(node_id, now)
            if pick is None:
                break
            if tt is None:
                tt = promote(node_id)
            job, task, locality = pick
            self._launch_map(job, task, locality, tt, now)
        while reduce_ready and free_reduce[node_id] > 0:
            pick = scheduler.pick_reduce(node_id, now)
            if pick is None:
                break
            if tt is None:
                tt = promote(node_id)
            job, rtask = pick
            self._launch_reduce(job, rtask, tt, now)
        if self.speculation is not None:
            while free_map[node_id] > 0:
                candidate = self.speculation.pick_candidate(
                    self.scheduler.active_jobs,
                    now,
                    node_id,
                    self._has_duplicate,
                )
                if candidate is None:
                    break
                if tt is None:
                    tt = promote(node_id)
                self._launch_speculative(candidate, tt, now)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                HEARTBEAT,
                now,
                node=node_id,
                free_map_slots=free_map[node_id],
                free_reduce_slots=free_reduce[node_id],
            )

    # -- map tasks ------------------------------------------------------------

    def _has_duplicate(self, task: MapTask) -> bool:
        return len(self._attempts.get(task.key, [])) > 1

    def _track(self, rt: _RunningTask) -> None:
        self._running_by_node[rt.tt.node_id][rt.task.key] = rt
        self._attempts.setdefault(rt.task.key, []).append(rt)

    def _remove_attempt(self, rt: _RunningTask) -> None:
        node_running = self._running_by_node.get(rt.tt.node_id, {})
        key = rt.task.key
        if node_running.get(key) is rt:
            node_running.pop(key, None)
        attempts = self._attempts.get(key)
        if attempts is not None:
            if rt in attempts:
                attempts.remove(rt)
            if not attempts:
                self._attempts.pop(key, None)

    def _launch_map(
        self, job: Job, task: MapTask, locality: Locality, tt: TaskTracker, now: float
    ) -> None:
        node_id = tt.node_id
        block = task.block
        dn = self.namenode.datanode(node_id)
        # resolve locality against *physical* placement: the scheduler's
        # view can be one heartbeat stale (a lazily deleted replica may
        # still be listed)
        data_local = dn.has_block(block.block_id)
        if data_local:
            locality = Locality.NODE_LOCAL
        elif locality is Locality.NODE_LOCAL:
            locality = self._fallback_locality(node_id, block.block_id)
        if not data_local and not any(
            n != node_id for n in self.namenode.locations(block.block_id)
        ):
            raise DataLossError(
                f"block {block.block_id} of file {block.inode.name!r} has no "
                "live replica; a failure plan destroyed all copies"
            )

        if job.first_task_time is None:
            job.first_task_time = now
        job.take_map(task)
        self.scheduler.job_changed(job)
        self.sched_version += 1
        job.locality_counts[locality] += 1
        task.state = TaskState.RUNNING
        task.node_id = node_id
        task.locality = locality
        task.start_time = now
        tt.occupy_map_slot()

        # DARE: every scheduled map task triggers the per-node algorithm
        self.dare.on_map_task(node_id, block, data_local, now)

        spec = job.spec
        duration, source, cpu = self.time_model.map_duration(
            node_id, block, data_local, spec.map_cpu_s
        )
        task.source_node = source
        read_end = now + (duration - cpu)
        rt = _RunningTask(task, tt, locality=locality)
        if data_local:
            self.time_model.start_local_read(node_id)
            release = partial(self.time_model.end_local_read, node_id)
        else:
            self.traffic.record("remote_map_reads", block.size_bytes)
            self.time_model.start_transfer(source, node_id)
            release = partial(self.time_model.end_transfer, source, node_id)
        rt.cleanups.append(release)
        rt.events.append(
            self.engine.schedule(
                read_end, _ReadDone(rt, release), f"read-done:j{spec.job_id}m{task.index}"
            )
        )
        rt.events.append(
            self.engine.schedule(
                now + duration,
                partial(self._attempt_complete, job, task, rt),
                f"map-done:j{spec.job_id}m{task.index}",
            )
        )
        self._track(rt)
        if self.tracer.enabled:
            self.tracer.emit(
                TASK_SCHEDULED,
                now,
                node=node_id,
                job=spec.job_id,
                task=task.index,
                kind="map",
                locality=locality.name,
                data_local=data_local,
                block=block.block_id,
            )

    def _fallback_locality(self, node_id: int, block_id: int) -> Locality:
        rack_nodes = self.cluster.topology.rack_members(node_id)
        for n in self.namenode.locations(block_id):
            if n != node_id and n in rack_nodes:
                return Locality.RACK_LOCAL
        return Locality.REMOTE

    def _launch_speculative(self, task: MapTask, tt: TaskTracker, now: float) -> None:
        """Duplicate a straggling map attempt on ``tt`` (first wins)."""
        job = task.job
        node_id = tt.node_id
        block = task.block
        dn = self.namenode.datanode(node_id)
        data_local = dn.has_block(block.block_id)
        locality = (
            Locality.NODE_LOCAL
            if data_local
            else self._fallback_locality(node_id, block.block_id)
        )
        tt.occupy_map_slot()
        self.sched_version += 1
        # speculation is still "a map task is scheduled": DARE observes it
        self.dare.on_map_task(node_id, block, data_local, now)
        spec = job.spec
        duration, source, cpu = self.time_model.map_duration(
            node_id, block, data_local, spec.map_cpu_s
        )
        read_end = now + (duration - cpu)
        rt = _RunningTask(task, tt, locality=locality, speculative=True)
        if data_local:
            self.time_model.start_local_read(node_id)
            release = partial(self.time_model.end_local_read, node_id)
        else:
            self.traffic.record("remote_map_reads", block.size_bytes)
            self.time_model.start_transfer(source, node_id)
            release = partial(self.time_model.end_transfer, source, node_id)
        rt.cleanups.append(release)
        rt.events.append(
            self.engine.schedule(
                read_end, _ReadDone(rt, release), f"spec-read:j{spec.job_id}m{task.index}"
            )
        )
        rt.events.append(
            self.engine.schedule(
                now + duration,
                partial(self._attempt_complete, job, task, rt),
                f"spec-done:j{spec.job_id}m{task.index}",
            )
        )
        self._track(rt)
        self.speculative_launched += 1
        if self.tracer.enabled:
            self.tracer.emit(
                TASK_SCHEDULED,
                now,
                node=node_id,
                job=spec.job_id,
                task=task.index,
                kind="map",
                locality=locality.name,
                data_local=data_local,
                block=block.block_id,
                speculative=True,
            )

    def _attempt_complete(self, job: Job, task: MapTask, rt: _RunningTask) -> None:
        now = self.engine.now
        self._remove_attempt(rt)
        rt.tt.release_map_slot()
        # kill any sibling attempts (the classic first-wins rule)
        for sibling in list(self._attempts.get(task.key, [])):
            for ev in sibling.events:
                self.engine.cancel(ev)
            for cleanup in sibling.cleanups:
                cleanup()
            sibling.cleanups.clear()
            sibling.tt.release_map_slot()
            self._remove_attempt(sibling)
            self.speculative_wasted += 1
        task.state = TaskState.DONE
        task.finish_time = now
        if rt.speculative:
            # the duplicate won: the task effectively ran where it finished
            task.node_id = rt.tt.node_id
            task.locality = rt.locality
            self.speculative_won += 1
        job.running_maps -= 1
        job.finished_maps += 1
        self.scheduler.job_changed(job)
        self.sched_version += 1
        if self.tracer.enabled:
            self.tracer.emit(
                TASK_FINISHED,
                now,
                node=rt.tt.node_id,
                job=job.spec.job_id,
                task=task.index,
                kind="map",
                locality=task.locality.name,
                speculative=rt.speculative,
            )
        if self.collector is not None:
            self.collector.on_map_complete(task)
        if job.done:
            self._finish_job(job, now)

    # -- reduce tasks ------------------------------------------------------------

    def _launch_reduce(self, job: Job, task: ReduceTask, tt: TaskTracker, now: float) -> None:
        node_id = tt.node_id
        spec = job.spec
        task.state = TaskState.RUNNING
        task.node_id = node_id
        task.start_time = now
        job.running_reduces += 1
        self.scheduler.job_changed(job)
        self.sched_version += 1
        tt.occupy_reduce_slot()
        input_bytes = job.inode.size_bytes
        shuffle_bytes = int(input_bytes * spec.shuffle_ratio / max(1, spec.n_reduces))
        output_bytes = int(input_bytes * spec.output_ratio / max(1, spec.n_reduces))
        self.traffic.record("shuffle", shuffle_bytes)
        from repro.mapreduce.runtime import OUTPUT_REPLICATION

        self.traffic.record("output_pipeline", output_bytes * (OUTPUT_REPLICATION - 1))
        duration = self.time_model.reduce_duration(
            node_id, shuffle_bytes, output_bytes, spec.reduce_cpu_s
        )
        # the shuffle occupies the reducer's NIC (sources are spread over
        # the cluster; the inbound side is the shared bottleneck)
        node = self.cluster.node(node_id)
        node.active_net_transfers += 1
        rt = _RunningTask(task, tt)
        rt.cleanups.append(_ShuffleRelease(node))
        rt.events.append(
            self.engine.schedule(
                now + duration,
                partial(self._reduce_complete, job, task, tt, rt),
                f"reduce-done:j{spec.job_id}r{task.index}",
            )
        )
        self._track(rt)
        if self.tracer.enabled:
            self.tracer.emit(
                TASK_SCHEDULED,
                now,
                node=node_id,
                job=spec.job_id,
                task=task.index,
                kind="reduce",
            )

    def _reduce_complete(
        self, job: Job, task: ReduceTask, tt: TaskTracker, rt: _RunningTask
    ) -> None:
        now = self.engine.now
        self._remove_attempt(rt)
        task.state = TaskState.DONE
        task.finish_time = now
        job.running_reduces -= 1
        job.finished_reduces += 1
        self.sched_version += 1
        tt.release_reduce_slot()
        for cleanup in rt.cleanups:
            cleanup()
        rt.cleanups.clear()
        if self.tracer.enabled:
            self.tracer.emit(
                TASK_FINISHED,
                now,
                node=tt.node_id,
                job=job.spec.job_id,
                task=task.index,
                kind="reduce",
            )
        if self.collector is not None:
            self.collector.on_reduce_complete(task)
        if job.done:
            self._finish_job(job, now)

    # -- failure handling -----------------------------------------------------------

    def requeue_tasks_from(self, node_id: int) -> int:
        """Kill every in-flight task on a failed node and requeue it.

        Completion events are cancelled, contention counters rolled back,
        and tasks returned to their jobs' pending sets, where any live
        node's next heartbeat can pick them up — Hadoop's task
        re-execution semantics.  Returns the number of requeued attempts.
        """
        running = self._running_by_node.get(node_id, {})
        requeued = 0
        for rt in list(running.values()):
            for ev in rt.events:
                self.engine.cancel(ev)
            for cleanup in rt.cleanups:
                cleanup()
            rt.cleanups.clear()
            self._remove_attempt(rt)
            task = rt.task
            job = task.job
            if self._attempts.get(task.key):
                # another (speculative or original) attempt is still alive
                # elsewhere; the task keeps running there
                self.speculative_wasted += rt.speculative
                continue
            task.state = TaskState.PENDING
            task.node_id = None
            task.start_time = None
            if isinstance(task, MapTask):
                # the earlier attempt's locality stands in the counters
                # (Hadoop's counters also count killed attempts)
                job.running_maps -= 1
                job.pending_maps.append(task)
                job.pending_block_ids.add(task.block.block_id)
                task.locality = None
                task.source_node = None
            else:
                job.running_reduces -= 1
            self.scheduler.job_changed(job)
            requeued += 1
        running.clear()
        self.tasks_requeued += requeued
        self.sched_version += 1
        return requeued

    # -- completion ----------------------------------------------------------------

    def _finish_job(self, job: Job, now: float) -> None:
        job.finish_time = now
        self.completed_jobs += 1
        self.scheduler.job_finished(job)
        if self.collector is not None:
            self.collector.on_job_complete(job)
        if self.expected_jobs is not None and self.completed_jobs >= self.expected_jobs:
            self.finished = True
