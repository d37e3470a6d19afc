"""Run one trace through the full simulated stack and collect metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


from repro.baselines.cdrm import CdrmConfig, CdrmService
from repro.baselines.scarlett import ScarlettConfig, ScarlettService
from repro.cluster.cluster import Cluster, ClusterSpec, CCT_SPEC
from repro.failures.injector import FailureInjector, FailurePlan
from repro.failures.repair import ReReplicationService
from repro.metrics.traffic import TrafficMeter
from repro.core.config import DareConfig, check_number
from repro.core.manager import DareReplicationService
from repro.hdfs.namenode import NameNode
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.metrics.collector import MetricsCollector
from repro.metrics.locality import LocalityStats, cluster_locality, mean_job_locality
from repro.metrics.placement import coefficient_of_variation, popularity_indices
from repro.metrics.slowdown import mean_slowdown
from repro.metrics.turnaround import geometric_mean_turnaround
from repro.observability.invariants import InvariantChecker
from repro.observability.trace import (
    NULL_TRACER,
    RUN_CONFIG,
    RUN_SUMMARY,
    JsonlSink,
    Tracer,
)
from repro.policies.rollout import RolloutConfig
from repro.scheduling.base import Scheduler
from repro.scheduling.fair import FairScheduler, SkipCountFairScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import Workload


#: the schedulers a cell may name (``--scheduler``'s choices)
SCHEDULERS = {"fifo": FifoScheduler, "fair": FairScheduler, "fair-skip": SkipCountFairScheduler}


def make_scheduler(name: str, fair_delay_s: Optional[float] = None) -> Scheduler:
    """Scheduler factory: a :data:`SCHEDULERS` name.

    ``fair_delay_s`` overrides both of the Fair scheduler's delays (the
    delay-sweep ablation); it is part of :class:`ExperimentConfig` so a
    delay-sweep cell is fully described by its config and can be hashed,
    cached, and run in a worker process.
    """
    if fair_delay_s is not None and name != "fair":
        raise ValueError(f"fair_delay_s only applies to 'fair', not {name!r}")
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r} (expected one of {', '.join(SCHEDULERS)})"
        )
    if fair_delay_s is not None:
        check_number("fair_delay_s", fair_delay_s, 0)
        return FairScheduler(node_delay_s=fair_delay_s, rack_delay_s=fair_delay_s)
    return SCHEDULERS[name]()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: cluster x scheduler x DARE setting.

    Optional extensions: ``scarlett`` runs the epoch-based proactive
    baseline instead of (or alongside) DARE; ``failures`` is a tuple of
    ``(time_s, node_id)`` node-crash events, repaired by an HDFS-style
    re-replication service.
    """

    cluster_spec: ClusterSpec = CCT_SPEC
    scheduler: str = "fifo"
    dare: DareConfig = DareConfig.off()
    seed: int = 20110926
    replication: int = 3  # HDFS default
    scarlett: Optional[ScarlettConfig] = None
    cdrm: Optional[CdrmConfig] = None
    failures: Tuple[Tuple[float, int], ...] = ()
    failure_detection_s: float = 10.0
    #: enable Hadoop-style speculative execution of straggler maps
    speculative: bool = False
    #: override both Fair-scheduler delays (None = scheduler defaults);
    #: config-level so delay-sweep cells are hashable and cacheable
    fair_delay_s: Optional[float] = None
    #: write a JSONL trace of the run to this path (empty = no trace file)
    trace_path: str = ""
    #: also record the per-callback ``engine.event`` firehose (huge traces,
    #: but gives ``replay diff`` event-level alignment)
    trace_engine_events: bool = False
    #: arm the runtime invariant checker on the trace bus
    check_invariants: bool = False
    #: how many trace records between full cross-component sweeps
    invariant_sweep_every: int = 2000
    #: inert: profiling wraps a run from outside (``repro run --profile``,
    #: :class:`~repro.observability.profiling.StackSampler`).  Both fields
    #: stay because ``config_to_dict`` writes them into every result
    #: document, which e2e_bench's golden digests pin; cache keys and
    #: trace headers strip them.
    profile: bool = False
    profile_sample_every: int = 7
    #: drive the run through the checkpoint-fork rollout engine
    #: (repro.policies.rollout); None = plain single-trajectory run
    rollout: Optional[RolloutConfig] = None

    def validate(self) -> "ExperimentConfig":
        """Raise ``ValueError`` naming the first field or part that cannot
        build or lets no run end; return self.

        Run where a cell enters (CLI flags, job submissions), not on journal
        reads, so a journal written before this check still restores.  It
        is O(1) and builds no cluster.
        """
        parts: Dict[str, Any] = {"cluster_spec": self.cluster_spec, "dare": self.dare,
                                 "rollout": self.rollout, "scarlett": self.scarlett,
                                 "cdrm": self.cdrm}
        try:
            for name, part in parts.items():
                if part is not None:
                    part.validate()
            name = "scheduler"
            make_scheduler(self.scheduler, self.fair_delay_s)
            name = "failures"
            FailurePlan(tuple(self.failures)).validate(self.cluster_spec.n_nodes)
        except (TypeError, ValueError) as exc:  # a submitted cell may hold any type
            raise ValueError(f"{name}: {exc}") from None
        check_number("seed", self.seed, integer=True)
        check_number("replication", self.replication, 1, integer=True)
        check_number("failure_detection_s", self.failure_detection_s, 0)
        if self.check_invariants:
            check_number("invariant_sweep_every", self.invariant_sweep_every, 1,
                         integer=True)
        return self

    def label(self) -> str:
        """Readable cell label for reports."""
        suffix = "+rollout" if self.rollout is not None else ""
        return (
            f"{self.cluster_spec.name}/{self.scheduler}/"
            f"{self.dare.policy.value}{suffix}"
        )


@dataclass
class ExperimentResult:
    """Every metric the paper's evaluation reports, for one run."""

    config: ExperimentConfig
    workload: str
    n_jobs: int
    #: cluster-wide task-placement breakdown
    locality: LocalityStats
    #: unweighted mean of per-job locality (Fig. 7a / 10a bars)
    job_locality: float
    #: geometric mean turnaround time, seconds (Fig. 7b / 10b)
    gmtt_s: float
    #: mean slowdown vs dedicated-cluster ideal (Fig. 7c / 10c)
    slowdown: float
    #: mean map-task completion time, seconds (Section V-C)
    mean_map_s: float
    #: dynamic replicas created, total and per job (Figs. 8-9 bottom)
    blocks_created: int
    blocks_created_per_job: float
    #: dynamic replicas evicted (thrashing indicator)
    blocks_evicted: int
    #: disk writes attributable to replication (the LRU-vs-ET claim)
    replication_disk_writes: int
    #: cv of node popularity indices before/after the run (Fig. 11)
    cv_before: float
    cv_after: float
    #: makespan of the whole trace, seconds
    makespan_s: float
    #: network bytes moved, by category (remote reads, shuffle, ...)
    traffic_bytes: Dict[str, int] = field(default_factory=dict)
    #: failure-experiment outcomes (zero when no failures injected)
    blocks_lost_replicas: int = 0
    data_loss_blocks: int = 0
    repairs_completed: int = 0
    tasks_requeued: int = 0
    #: Scarlett baseline activity (zero when not enabled)
    scarlett_replicas_created: int = 0
    #: CDRM baseline activity (zero when not enabled)
    cdrm_replicas_created: int = 0
    #: speculative-execution activity (zero when not enabled)
    speculative_launched: int = 0
    speculative_wasted: int = 0
    speculative_won: int = 0
    #: observability activity (zero when tracing/checking disabled)
    trace_records_checked: int = 0
    invariant_sweeps: int = 0
    #: engine callbacks fired and wall-clock spent inside engine.run()
    events_processed: int = 0
    engine_wall_s: float = 0.0
    #: raw per-task / per-job records for deeper analysis
    collector: MetricsCollector = field(repr=False, default=None)

    def summary_row(self) -> str:
        """One printable summary line."""
        return (
            f"{self.config.label():<34s} {self.workload:<4s} "
            f"loc={self.job_locality:5.3f} gmtt={self.gmtt_s:8.1f}s "
            f"slow={self.slowdown:5.2f} blk/job={self.blocks_created_per_job:5.2f}"
        )


def run_experiment(
    config: ExperimentConfig,
    workload: Workload,
    collector: Optional[MetricsCollector] = None,
    tracer: Optional[Tracer] = None,
) -> ExperimentResult:
    """Replay ``workload`` under ``config`` and measure everything.

    Deterministic: the same (config, workload) pair always produces the
    same result.  The cluster, HDFS placement, and DARE coin streams are
    all derived from ``config.seed``.

    Observability: pass a :class:`Tracer` (or set ``config.trace_path`` /
    ``config.check_invariants``) to record structured events and validate
    cross-component invariants while the simulation runs.  An
    :class:`~repro.observability.invariants.InvariantViolation` aborts the
    run at the offending event.

    Traces are bracketed by a ``run.config`` header and (on successful
    completion) a ``run.summary`` footer; the footer's absence marks a
    crashed run.  Everything from sink attach onward runs under a
    ``finally: tracer.close()``, so a crashed run still leaves a flushed,
    parseable trace behind for ``python -m repro replay``.

    When ``config.rollout`` is set the cell runs through the
    checkpoint-fork rollout engine instead of a single trajectory.
    """
    if config.rollout is not None:
        from repro.policies.rollout import run_rollout_experiment

        return run_rollout_experiment(config, workload, collector, tracer)
    tracer = make_tracer(config, tracer)
    try:
        sim = Simulation(config, workload, collector, tracer)
        sim.run()
        return sim.finalize()
    finally:
        tracer.close()


def make_tracer(config: ExperimentConfig, tracer: Optional[Tracer] = None) -> Tracer:
    """Resolve the tracer for a run and attach the JSONL sink, if any."""
    if tracer is None:
        tracer = (
            Tracer(engine_events=config.trace_engine_events)
            if (
                config.trace_path
                or config.check_invariants
                or config.trace_engine_events
            )
            else NULL_TRACER
        )
    elif config.trace_engine_events and tracer.enabled:
        tracer.engine_events = True
    if config.trace_path:
        tracer.add_sink(JsonlSink(config.trace_path))
    return tracer


def _trace_run_config(tracer: Tracer, config: ExperimentConfig, workload: Workload) -> None:
    # the flat fields are the human-readable header; the nested ``config``
    # payload is the lossless form `replay whatif` rebuilds a live run from.
    # Fields that cannot affect simulation behaviour (trace destination,
    # the inert profile fields) are stripped so runs differing only in
    # observability still emit byte-identical traces.
    from repro.experiments.serialize import config_to_dict

    payload = config_to_dict(config)
    for key in ("trace_path", "profile", "profile_sample_every"):
        payload.pop(key, None)
    tracer.emit(
        RUN_CONFIG,
        0.0,
        config=payload,
        workload=workload.name,
        jobs=workload.n_jobs,
        cluster=config.cluster_spec.name,
        scheduler=config.scheduler,
        policy=config.dare.policy.value,
        seed=config.seed,
        budget=config.dare.budget,
        replication=config.replication,
        engine_events=tracer.engine_events,
        scarlett=config.scarlett is not None,
        cdrm=config.cdrm is not None,
        failures=len(config.failures),
        speculative=config.speculative,
    )


def _trace_run_summary(
    tracer: Tracer, result: "ExperimentResult", namenode: NameNode, now: float
) -> None:
    nodes = {}
    for node_id, dn in sorted(namenode.datanodes.items()):
        live = sorted(set(dn.dynamic_blocks) - dn.pending_deletion)
        if live or dn.dynamic_bytes_used:
            nodes[str(node_id)] = {"dynamic": live, "used": dn.dynamic_bytes_used}
    tracer.emit(
        RUN_SUMMARY,
        now,
        n_jobs=result.n_jobs,
        locality_node=result.locality.node_local,
        locality_rack=result.locality.rack_local,
        locality_remote=result.locality.remote,
        job_locality=result.job_locality,
        job_locality_counts={
            str(rec.job_id): list(rec.locality_counts)
            for rec in result.collector.job_records
        },
        blocks_created=result.blocks_created,
        blocks_evicted=result.blocks_evicted,
        replication_disk_writes=result.replication_disk_writes,
        tasks_requeued=result.tasks_requeued,
        speculative_launched=result.speculative_launched,
        scarlett_replicas_created=result.scarlett_replicas_created,
        makespan_s=result.makespan_s,
        nodes=nodes,
    )


class _JobsFinished:
    """Picklable ``stop_when`` predicate shared by the baseline services."""

    __slots__ = ("jobtracker",)

    def __init__(self, jobtracker: JobTracker) -> None:
        self.jobtracker = jobtracker

    def __call__(self) -> bool:
        return self.jobtracker.finished


class Simulation:
    """The fully wired simulator stack for one experiment cell.

    Construction performs the whole build phase — cluster, HDFS, policy
    services, JobTracker, failure plan — and emits the ``run.config``
    trace header.  :meth:`run` then drives the engine, optionally only up
    to a time horizon, so a caller can pause mid-run, hand the object to
    :func:`repro.checkpoint.snapshot`, and resume later (or in a forked
    copy).  :meth:`finalize` settles the control plane and computes the
    :class:`ExperimentResult`.

    :func:`run_experiment` is the one-shot wrapper; this class is the
    object graph the checkpoint layer pickles, so everything reachable
    from it must be picklable — event actions are typed intents, never
    closures — or explicitly excluded (the shared tracer).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        workload: Workload,
        collector: Optional[MetricsCollector] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.config = config
        self.workload = workload
        self.tracer = tracer
        if tracer.enabled:
            _trace_run_config(tracer, config, workload)

        self.streams = streams = RandomStreams(config.seed)
        self.cluster = cluster = Cluster(config.cluster_spec, streams)
        self.engine = engine = Engine(tracer=tracer)
        self.namenode = namenode = NameNode(cluster, tracer=tracer)

        # load the data set (static replicas via the default placement policy)
        for fspec in workload.catalog.files:
            namenode.create_file(
                fspec.name, fspec.size_bytes(), replication=config.replication
            )

        self.access_counts = dict(workload.access_counts())
        self.cv_before = coefficient_of_variation(
            popularity_indices(namenode, self.access_counts)
        )

        self.dare = dare = DareReplicationService(
            config.dare, namenode, streams, tracer=tracer
        )
        self.scheduler = scheduler = make_scheduler(config.scheduler, config.fair_delay_s)
        self.time_model = time_model = TaskTimeModel(
            cluster, namenode, streams.python("runtime.sources")
        )
        self.collector = collector = collector or MetricsCollector()
        self.traffic = traffic = TrafficMeter()
        speculation = None
        if config.speculative:
            from repro.mapreduce.speculation import SpeculationPolicy

            speculation = SpeculationPolicy()
        self.jobtracker = jobtracker = JobTracker(
            cluster, namenode, engine, scheduler, time_model, dare, collector, traffic,
            speculation=speculation, tracer=tracer,
        )
        jobtracker.start_tasktrackers()
        jobtracker.submit_trace(workload.specs)

        self.scarlett = None
        if config.scarlett is not None:
            self.scarlett = ScarlettService(
                config.scarlett, namenode, engine, traffic, streams.python("scarlett"),
                stop_when=_JobsFinished(jobtracker), tracer=tracer,
            )
            jobtracker.submit_listeners.append(self.scarlett.observe_submission)
            self.scarlett.arm()

        self.checker = None
        if config.check_invariants:
            self.checker = InvariantChecker(
                namenode,
                dare=dare,
                jobtracker=jobtracker,
                scarlett=self.scarlett,
                full_sweep_every=config.invariant_sweep_every,
            ).attach(tracer)

        self.cdrm = None
        if config.cdrm is not None:
            self.cdrm = CdrmService(
                config.cdrm, namenode, engine, traffic, streams.python("cdrm"),
                stop_when=_JobsFinished(jobtracker),
            )
            self.cdrm.arm()

        self.injector: Optional[FailureInjector] = None
        self.repair: Optional[ReReplicationService] = None
        if config.failures:
            self.failure_injector(FailurePlan(tuple(config.failures))).arm()

        #: cumulative wall-clock spent inside engine.run() (across pauses)
        self.engine_wall_s = 0.0

    def __getstate__(self):
        # wall-clock time is not simulation state: a snapshot carries none,
        # so equal states pickle to equal bytes
        state = self.__dict__.copy()
        state["engine_wall_s"] = 0.0
        return state

    def failure_injector(self, plan: FailurePlan = FailurePlan(())) -> FailureInjector:
        """The run's failure injector.  The first call builds it, with
        ``plan`` and its re-replication service: set-up does for a failure
        plan, a ``kill:`` what-if patch otherwise, so a run that fails no
        node builds neither."""
        if self.injector is None:
            self.repair = ReReplicationService(
                self.namenode, self.engine, self.traffic, self.streams.python("repair")
            )
            self.injector = FailureInjector(
                plan, self.engine, self.namenode, self.jobtracker, self.repair,
                detection_delay_s=self.config.failure_detection_s, tracer=self.tracer,
            )
        return self.injector

    # -- driving -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    @property
    def finished(self) -> bool:
        """True once every submitted job has completed."""
        return self.jobtracker.finished

    def run(self, until: Optional[float] = None) -> None:
        """Drive the engine until drained, or only up to time ``until``."""
        wall_start = time.perf_counter()
        try:
            self.engine.run(until=until)
        finally:
            self.engine_wall_s += time.perf_counter() - wall_start

    def close(self) -> None:
        """Close the tracer (flushes any attached JSONL sink)."""
        self.tracer.close()

    # -- results -------------------------------------------------------------

    def finalize(self) -> ExperimentResult:
        """Settle the control plane and compute the run's metrics."""
        if not self.jobtracker.finished:
            raise RuntimeError(
                f"simulation drained with {self.jobtracker.completed_jobs}/"
                f"{self.jobtracker.expected_jobs} jobs complete"
            )

        engine = self.engine
        namenode = self.namenode
        collector = self.collector
        # settle the control plane so the final placement view is complete;
        # the flush beats every slave, and check_now is its one sweep
        if self.checker is not None:
            self.checker.hold_sweeps()
        namenode.flush_all_heartbeats(engine.now)
        namenode.check_integrity()
        if self.checker is not None:
            self.checker.check_now()

        cv_after = coefficient_of_variation(
            popularity_indices(namenode, self.access_counts)
        )
        records = collector.job_records
        dare = self.dare
        injector = self.injector
        result = ExperimentResult(
            config=self.config,
            workload=self.workload.name,
            n_jobs=len(records),
            locality=cluster_locality(records),
            job_locality=mean_job_locality(records),
            gmtt_s=geometric_mean_turnaround(records),
            slowdown=mean_slowdown(
                records, self.workload.specs_by_id, self.cluster, self.time_model
            ),
            mean_map_s=collector.mean_map_duration(),
            blocks_created=dare.total_replications,
            blocks_created_per_job=dare.total_replications / max(1, len(records)),
            blocks_evicted=dare.total_evictions(),
            replication_disk_writes=dare.total_disk_writes(),
            cv_before=self.cv_before,
            cv_after=cv_after,
            makespan_s=engine.now,
            traffic_bytes=self.jobtracker.traffic.by_category,
            blocks_lost_replicas=injector.blocks_that_lost_replicas if injector else 0,
            data_loss_blocks=injector.data_loss_count if injector else 0,
            repairs_completed=self.repair.repairs_completed if self.repair else 0,
            tasks_requeued=self.jobtracker.tasks_requeued,
            scarlett_replicas_created=(
                self.scarlett.replicas_created if self.scarlett else 0
            ),
            cdrm_replicas_created=self.cdrm.replicas_created if self.cdrm else 0,
            speculative_launched=self.jobtracker.speculative_launched,
            speculative_wasted=self.jobtracker.speculative_wasted,
            speculative_won=self.jobtracker.speculative_won,
            trace_records_checked=self.checker.records_seen if self.checker else 0,
            invariant_sweeps=self.checker.sweeps_run if self.checker else 0,
            events_processed=engine.events_processed,
            engine_wall_s=self.engine_wall_s,
            collector=collector,
        )
        if self.tracer.enabled:
            _trace_run_summary(self.tracer, result, namenode, engine.now)
        return result
