"""Shadow-state reconstruction: rebuild the control plane from a trace.

:class:`ShadowState` is a model of everything the trace schema makes
observable — per-node dynamic-replica sets and budget accounting,
TaskTracker slot occupancy, per-job locality tallies, failure effects —
rebuilt *purely* from :class:`~repro.observability.trace.TraceRecord` s,
never from live simulator objects.  Replaying a complete trace must land
on exactly the counters the live run reported; any mismatch means either
the trace or the simulator's bookkeeping is wrong, which is the point.

Reconstruction enforces its own invariants while applying records (a
replicated block must not already be live, the ``used`` value carried by a
``budget.charge`` must equal the shadow's prediction, heartbeat-reported
free slots must match shadow occupancy, ...).  A violation raises
:class:`ReconstructionError` carrying the offending record and a
ring-buffer context tail: a subclass of the live
:class:`~repro.observability.invariants.InvariantChecker`'s
:class:`~repro.observability.invariants.InvariantViolation`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.metrics.locality import LocalityStats
from repro.observability.invariants import InvariantViolation
from repro.observability.trace import (
    BLOCK_EVICTED,
    BLOCK_REPLICATED,
    BUDGET_CHARGE,
    BUDGET_REFUND,
    ENGINE_EVENT,
    FAILURE_DETECTED,
    FAILURE_INJECTED,
    HDFS_HEARTBEAT,
    HEARTBEAT,
    REPLICATION_ABANDONED,
    RUN_CONFIG,
    RUN_SUMMARY,
    SCARLETT_EPOCH,
    TASK_FINISHED,
    TASK_SCHEDULED,
    RingBufferSink,
    TraceRecord,
)

#: the ``locality`` field values of ``task.scheduled``, in tally order
_LOCALITY_INDEX = {"NODE_LOCAL": 0, "RACK_LOCAL": 1, "REMOTE": 2}


class ReconstructionError(InvariantViolation):
    """A record contradicts the shadow state built from its predecessors."""


@dataclass
class ShadowNode:
    """One node's reconstructed storage + compute state."""

    node_id: int
    #: live + pending-deletion dynamic replicas: block id -> bytes
    dynamic: Dict[int, int] = field(default_factory=dict)
    #: blocks marked for lazy deletion, not yet physically dropped
    pending: Set[int] = field(default_factory=set)
    #: dynamic budget bytes in use (live replicas only)
    used: int = 0
    #: learned from the first budget record naming this node
    capacity: Optional[int] = None
    #: busy task slots, learned from task.scheduled/finished
    busy_map: int = 0
    busy_reduce: int = 0
    #: learned from the first heartbeat naming this node
    map_slots: Optional[int] = None
    reduce_slots: Optional[int] = None
    alive: bool = True
    heartbeats: int = 0

    def live(self) -> Set[int]:
        """Live dynamic replica block ids (pending deletions excluded)."""
        return set(self.dynamic) - self.pending


@dataclass
class ShadowJob:
    """One job's reconstructed locality tally."""

    job_id: int
    #: non-speculative map launches by placement: [node, rack, remote]
    locality_counts: List[int] = field(default_factory=lambda: [0, 0, 0])

    @property
    def data_locality(self) -> float:
        total = sum(self.locality_counts)
        return self.locality_counts[0] / total if total else 0.0


class CheckResult(NamedTuple):
    """One verified counter: the trace-derived vs. the live value."""

    name: str
    trace_value: object
    live_value: object

    @property
    def ok(self) -> bool:
        return self.trace_value == self.live_value


class VerifyReport(NamedTuple):
    """Outcome of a reconstruction-vs-live cross-check."""

    checks: List[CheckResult]
    notes: List[str]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def format(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  {mark} {c.name:<28s} trace={c.trace_value!r}"
                         + ("" if c.ok else f" live={c.live_value!r}"))
        for note in self.notes:
            lines.append(f"  note {note}")
        verdict = "VERIFIED" if self.ok else "MISMATCH"
        lines.append(f"{verdict}: {sum(c.ok for c in self.checks)}/"
                     f"{len(self.checks)} counters match")
        return "\n".join(lines)


class ShadowState:
    """The trace-reconstructed control plane.

    Feed records in trace order through :meth:`apply` (or build one with
    :func:`reconstruct`).  ``strict`` controls whether cross-checks that
    compare a record's self-reported values against the shadow's
    prediction raise (default) or are skipped — turn it off to push a
    deliberately corrupted trace through for divergence analysis.
    """

    def __init__(self, strict: bool = True, tail_size: int = 20) -> None:
        self.strict = strict
        self.nodes: Dict[int, ShadowNode] = {}
        self.jobs: Dict[int, ShadowJob] = {}
        #: in-flight attempts: (job, task, kind) -> node ids (dupes allowed)
        self.attempts: Dict[Tuple[int, int, str], List[int]] = {}
        self.records_applied = 0
        self.last_time = 0.0
        self.blocks_created = 0
        self.blocks_evicted = 0
        self.replications_abandoned = 0
        self.tasks_requeued = 0
        self.speculative_launched = 0
        self.engine_events = 0
        self.config: Optional[TraceRecord] = None
        self.summary: Optional[TraceRecord] = None
        self.scarlett_epochs = 0
        self._ring = RingBufferSink(tail_size)

    # -- plumbing ----------------------------------------------------------

    def _node(self, node_id: int) -> ShadowNode:
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = ShadowNode(node_id)
        return node

    def _job(self, job_id: int) -> ShadowJob:
        job = self.jobs.get(job_id)
        if job is None:
            job = self.jobs[job_id] = ShadowJob(job_id)
        return job

    def _fail(self, message: str, record: TraceRecord) -> None:
        raise ReconstructionError(
            f"record #{self.records_applied}: {message}", record, self._ring.tail(20)
        )

    def _check(self, condition: bool, message: str, record: TraceRecord) -> None:
        if self.strict and not condition:
            self._fail(message, record)

    def clone(self) -> "ShadowState":
        """An independent deep copy (for what-if application of a record)."""
        return copy.deepcopy(self)

    # -- record application -------------------------------------------------

    def apply(self, record: TraceRecord) -> None:
        """Fold one record into the shadow state."""
        handler = _HANDLERS.get(record.type)
        if handler is not None:
            handler(self, record)
        self.records_applied += 1
        self.last_time = record.time
        self._ring.write(record)

    # handlers (dispatched via _HANDLERS) --------------------------------

    def _on_block_replicated(self, rec: TraceRecord) -> None:
        node = self._node(rec.data["node"])
        bid, nbytes = rec.data["block"], rec.data["bytes"]
        self._check(
            bid not in node.live(),
            f"node {node.node_id}: replicated block {bid} is already live",
            rec,
        )
        # an insert may revive a pending-deletion replica without a rewrite
        node.pending.discard(bid)
        node.dynamic[bid] = nbytes
        node.used += nbytes
        if node.capacity is not None:
            self._check(
                node.used <= node.capacity,
                f"node {node.node_id}: budget exceeded "
                f"({node.used} > {node.capacity})",
                rec,
            )
        self.blocks_created += 1

    def _on_block_evicted(self, rec: TraceRecord) -> None:
        node = self._node(rec.data["node"])
        bid, nbytes = rec.data["block"], rec.data["bytes"]
        self._check(
            bid in node.dynamic and bid not in node.pending,
            f"node {node.node_id}: evicted block {bid} is not a live "
            "dynamic replica",
            rec,
        )
        node.pending.add(bid)
        node.used -= nbytes
        self._check(
            node.used >= 0,
            f"node {node.node_id}: negative budget usage {node.used}",
            rec,
        )
        self.blocks_evicted += 1

    # budget.charge / budget.refund precede their block.* twin in the
    # emission order, so they are *look-ahead* checks: the record's
    # self-reported post-operation `used` must equal the shadow's
    # prediction, and `capacity` must be stable.
    def _on_budget_charge(self, rec: TraceRecord) -> None:
        self._check_budget_record(rec, sign=+1)

    def _on_budget_refund(self, rec: TraceRecord) -> None:
        self._check_budget_record(rec, sign=-1)

    def _check_budget_record(self, rec: TraceRecord, sign: int) -> None:
        node = self._node(rec.data["node"])
        expected = node.used + sign * rec.data["bytes"]
        self._check(
            rec.data["used"] == expected,
            f"node {node.node_id}: budget record reports used="
            f"{rec.data['used']} but shadow predicts {expected}",
            rec,
        )
        cap = rec.data["capacity"]
        if node.capacity is None:
            node.capacity = cap
        else:
            self._check(
                cap == node.capacity,
                f"node {node.node_id}: capacity changed "
                f"{node.capacity} -> {cap}",
                rec,
            )

    def _on_replication_abandoned(self, rec: TraceRecord) -> None:
        self.replications_abandoned += 1

    def _on_task_scheduled(self, rec: TraceRecord) -> None:
        d = rec.data
        node = self._node(d["node"])
        kind = d["kind"]
        if kind == "map":
            node.busy_map += 1
            if node.map_slots is not None:
                self._check(
                    node.busy_map <= node.map_slots,
                    f"node {node.node_id}: {node.busy_map} busy map slots "
                    f"exceed capacity {node.map_slots}",
                    rec,
                )
        else:
            node.busy_reduce += 1
        self.attempts.setdefault((d["job"], d["task"], kind), []).append(d["node"])
        if d.get("speculative"):
            self.speculative_launched += 1
        elif kind == "map":
            idx = _LOCALITY_INDEX.get(d.get("locality"))
            if idx is None:
                self._fail(f"unknown locality {d.get('locality')!r}", rec)
            self._job(d["job"]).locality_counts[idx] += 1
        else:
            self._job(d["job"])  # reduces still register the job

    def _on_task_finished(self, rec: TraceRecord) -> None:
        d = rec.data
        key = (d["job"], d["task"], d["kind"])
        attempts = self.attempts.pop(key, [])
        self._check(
            d["node"] in attempts,
            f"task j{d['job']}/{d['kind']}{d['task']} finished on node "
            f"{d['node']} with no attempt running there",
            rec,
        )
        # the finishing attempt frees its slot; first-wins kills every
        # sibling attempt, whose slots free at the same instant
        for node_id in attempts:
            node = self._node(node_id)
            if d["kind"] == "map":
                node.busy_map -= 1
                self._check(
                    node.busy_map >= 0,
                    f"node {node_id}: negative busy map slots",
                    rec,
                )
            else:
                node.busy_reduce -= 1
                self._check(
                    node.busy_reduce >= 0,
                    f"node {node_id}: negative busy reduce slots",
                    rec,
                )

    def _on_heartbeat(self, rec: TraceRecord) -> None:
        d = rec.data
        node = self._node(d["node"])
        node.heartbeats += 1
        free_map, free_reduce = d["free_map_slots"], d["free_reduce_slots"]
        if node.map_slots is None:
            node.map_slots = free_map + node.busy_map
            node.reduce_slots = free_reduce + node.busy_reduce
        else:
            self._check(
                free_map == node.map_slots - node.busy_map,
                f"node {node.node_id}: heartbeat reports {free_map} free map "
                f"slots but shadow occupancy implies "
                f"{node.map_slots - node.busy_map}",
                rec,
            )
            self._check(
                free_reduce == node.reduce_slots - node.busy_reduce,
                f"node {node.node_id}: heartbeat reports {free_reduce} free "
                f"reduce slots but shadow occupancy implies "
                f"{node.reduce_slots - node.busy_reduce}",
                rec,
            )

    def _on_hdfs_heartbeat(self, rec: TraceRecord) -> None:
        # a DataNode heartbeat physically completes its lazy deletions
        node = self._node(rec.data["node"])
        for bid in node.pending:
            node.dynamic.pop(bid, None)
        node.pending.clear()

    def _on_failure_injected(self, rec: TraceRecord) -> None:
        d = rec.data
        node = self._node(d["node"])
        node.alive = False
        # every attempt on the dead node is killed; those with a surviving
        # sibling keep running elsewhere, the rest are requeued
        killed = 0
        for key, nodes in list(self.attempts.items()):
            while node.node_id in nodes:
                nodes.remove(node.node_id)
                killed += 1
            if not nodes:
                del self.attempts[key]
        node.busy_map = 0
        node.busy_reduce = 0
        self._check(
            d["requeued"] <= killed,
            f"node {node.node_id}: {d['requeued']} attempts requeued but "
            f"only {killed} were running there",
            rec,
        )
        self.tasks_requeued += d["requeued"]

    def _on_failure_detected(self, rec: TraceRecord) -> None:
        # NameNode prune: the dead node's storage is wiped from the view
        node = self._node(rec.data["node"])
        node.dynamic.clear()
        node.pending.clear()
        node.used = 0

    def _on_engine_event(self, rec: TraceRecord) -> None:
        self.engine_events += 1

    def _on_scarlett_epoch(self, rec: TraceRecord) -> None:
        self.scarlett_epochs += 1
        self._check(
            rec.data["epoch"] == self.scarlett_epochs,
            f"scarlett epoch {rec.data['epoch']} out of sequence "
            f"(expected {self.scarlett_epochs})",
            rec,
        )
        # copies in flight at the boundary may overshoot by the recorded slack
        slack = rec.data.get("slack_bytes", 0)
        self._check(
            rec.data["spent_bytes"] <= rec.data["budget_bytes"] + slack,
            f"scarlett epoch {rec.data['epoch']}: spent "
            f"{rec.data['spent_bytes']} exceeds budget "
            f"{rec.data['budget_bytes']} + slack {slack}",
            rec,
        )

    def _on_run_config(self, rec: TraceRecord) -> None:
        self.config = rec

    def _on_run_summary(self, rec: TraceRecord) -> None:
        self.summary = rec

    # -- derived views -----------------------------------------------------

    def locality_stats(self) -> LocalityStats:
        """Cluster-wide map placement tallies, from the shadow jobs."""
        node = rack = remote = 0
        for job in self.jobs.values():
            node += job.locality_counts[0]
            rack += job.locality_counts[1]
            remote += job.locality_counts[2]
        return LocalityStats(node, rack, remote)

    def job_locality(self) -> float:
        """Unweighted mean of per-job data locality (Fig. 7a metric)."""
        if not self.jobs:
            return 0.0
        fractions = [j.data_locality for j in self.jobs.values()]
        return sum(fractions) / len(fractions)

    def live_replicas(self) -> Dict[int, Set[int]]:
        """Per-node live dynamic replica sets (empty nodes omitted)."""
        return {nid: n.live() for nid, n in self.nodes.items() if n.live()}

    # -- verification ------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Cross-check the reconstruction against the run.summary footer."""
        if self.summary is None:
            return VerifyReport(
                checks=[],
                notes=[
                    "trace has no run.summary footer: the run crashed or is "
                    "still in flight; reconstruction covers "
                    f"{self.records_applied} records up to t={self.last_time:.1f}"
                ],
            )
        s = self.summary.data
        stats = self.locality_stats()
        checks = [
            CheckResult("n_jobs", len(self.jobs), s["n_jobs"]),
            CheckResult("locality_node", stats.node_local, s["locality_node"]),
            CheckResult("locality_rack", stats.rack_local, s["locality_rack"]),
            CheckResult("locality_remote", stats.remote, s["locality_remote"]),
            CheckResult("blocks_created", self.blocks_created, s["blocks_created"]),
            CheckResult("blocks_evicted", self.blocks_evicted, s["blocks_evicted"]),
        ]
        if "replication_disk_writes" in s:
            checks.append(
                CheckResult(
                    "replication_disk_writes",
                    self.blocks_created,
                    s["replication_disk_writes"],
                )
            )
        if "tasks_requeued" in s:
            checks.append(
                CheckResult("tasks_requeued", self.tasks_requeued, s["tasks_requeued"])
            )
        if "speculative_launched" in s:
            checks.append(
                CheckResult(
                    "speculative_launched",
                    self.speculative_launched,
                    s["speculative_launched"],
                )
            )
        # job_locality is a float mean; summation order can differ between
        # the collector (completion order) and the shadow (launch order)
        checks.append(
            CheckResult(
                "job_locality",
                round(self.job_locality(), 9),
                round(s["job_locality"], 9),
            )
        )
        per_job = s.get("job_locality_counts")
        if per_job is not None:
            shadow_jobs = {
                str(jid): list(j.locality_counts) for jid, j in self.jobs.items()
            }
            live_jobs = {str(k): list(v) for k, v in per_job.items()}
            checks.append(
                CheckResult("job_locality_counts", shadow_jobs, live_jobs)
            )
        # per-node end state: live dynamic replica sets + budget bytes
        live_nodes = {
            int(k): v for k, v in s["nodes"].items()
        }
        all_ids = set(live_nodes) | set(self.nodes)
        shadow_dyn = {
            nid: sorted(self.nodes[nid].live()) if nid in self.nodes else []
            for nid in all_ids
        }
        summary_dyn = {
            nid: sorted(live_nodes.get(nid, {}).get("dynamic", []))
            for nid in all_ids
        }
        checks.append(CheckResult("dynamic_replica_sets", shadow_dyn, summary_dyn))
        shadow_used = {
            nid: self.nodes[nid].used if nid in self.nodes else 0 for nid in all_ids
        }
        summary_used = {
            nid: live_nodes.get(nid, {}).get("used", 0) for nid in all_ids
        }
        checks.append(CheckResult("budget_bytes_used", shadow_used, summary_used))
        notes = []
        if "makespan_s" in s:
            notes.append(f"makespan {s['makespan_s']:.1f}s, "
                         f"{self.records_applied} records reconstructed")
        return VerifyReport(checks=checks, notes=notes)

    def verify_against_result(self, result) -> VerifyReport:
        """Cross-check against a live :class:`ExperimentResult` directly.

        The per-node end state is only recorded in the run.summary footer,
        so this covers the counter slice an ``ExperimentResult`` carries.
        """
        stats = self.locality_stats()
        checks = [
            CheckResult("n_jobs", len(self.jobs), result.n_jobs),
            CheckResult("locality_node", stats.node_local, result.locality.node_local),
            CheckResult("locality_rack", stats.rack_local, result.locality.rack_local),
            CheckResult("locality_remote", stats.remote, result.locality.remote),
            CheckResult(
                "job_locality",
                round(self.job_locality(), 9),
                round(result.job_locality, 9),
            ),
            CheckResult("blocks_created", self.blocks_created, result.blocks_created),
            CheckResult("blocks_evicted", self.blocks_evicted, result.blocks_evicted),
            CheckResult(
                "replication_disk_writes",
                self.blocks_created,
                result.replication_disk_writes,
            ),
            CheckResult("tasks_requeued", self.tasks_requeued, result.tasks_requeued),
            CheckResult(
                "speculative_launched",
                self.speculative_launched,
                result.speculative_launched,
            ),
        ]
        return VerifyReport(checks=checks, notes=[])


_HANDLERS = {
    BLOCK_REPLICATED: ShadowState._on_block_replicated,
    BLOCK_EVICTED: ShadowState._on_block_evicted,
    BUDGET_CHARGE: ShadowState._on_budget_charge,
    BUDGET_REFUND: ShadowState._on_budget_refund,
    REPLICATION_ABANDONED: ShadowState._on_replication_abandoned,
    TASK_SCHEDULED: ShadowState._on_task_scheduled,
    TASK_FINISHED: ShadowState._on_task_finished,
    HEARTBEAT: ShadowState._on_heartbeat,
    HDFS_HEARTBEAT: ShadowState._on_hdfs_heartbeat,
    FAILURE_INJECTED: ShadowState._on_failure_injected,
    FAILURE_DETECTED: ShadowState._on_failure_detected,
    ENGINE_EVENT: ShadowState._on_engine_event,
    SCARLETT_EPOCH: ShadowState._on_scarlett_epoch,
    RUN_CONFIG: ShadowState._on_run_config,
    RUN_SUMMARY: ShadowState._on_run_summary,
}


def reconstruct(
    records: Iterable[TraceRecord], strict: bool = True
) -> ShadowState:
    """Replay ``records`` (in trace order) into a fresh shadow state."""
    state = ShadowState(strict=strict)
    for record in records:
        state.apply(record)
    return state
