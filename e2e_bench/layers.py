"""Per-layer timing from outside the program: wrappers on public entry points.

:func:`install` replaces the functions listed in :data:`TARGETS` — class
or module attributes of ``repro.simulation``, ``cluster``, ``hdfs``,
``mapreduce``, ``scheduling``, ``core``, ``metrics``, ``checkpoint``,
``policies`` and ``observability`` — with ``functools.wraps`` wrappers
that time every call into a :class:`Ledger`.  :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes, and a wrapper only
observes arguments and results, so a traced simulation produces the same
results as an untraced one.

Wrappers must be installed before the objects that use them are built:
call sites that bound a method earlier keep the original.  Only untraced
measurements are end-to-end numbers; the benchmark imports this module
only for ``--trace`` runs.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: raw spans kept per layer name (the aggregates count every call)
SPAN_CAP = 2000


class Stat:
    """Aggregates of one layer name across every call."""

    __slots__ = ("calls", "total_s", "self_s", "useful", "amount")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: calls whose outcome counted as useful (see TARGETS)
        self.useful = 0
        #: summed size of the results (bytes for snapshots)
        self.amount = 0

    def as_tuple(self) -> Tuple[int, float, float, int, int]:
        return (self.calls, self.total_s, self.self_s, self.useful, self.amount)


class Ledger:
    """Span stack plus per-name aggregates.

    A span's self time is its duration minus the time its direct child
    spans cover; children's own children are already inside the child's
    duration, so self times of all spans sum to the wall time the
    outermost spans cover.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = SPAN_CAP) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.origin = clock()
        self.stats: Dict[str, Stat] = {}
        #: name -> [(span id, parent id or 0, start, end)], oldest first
        self.spans: Dict[str, List[Tuple[int, int, float, float]]] = {}
        self._stack: List[list] = []
        self._next_id = 1

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
            self.spans[name] = []
        return stat

    def enter(self) -> list:
        """Open a span; returns its frame ``[id, start, child seconds]``."""
        frame = [self._next_id, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, name: str, stat: Stat, frame: list) -> None:
        """Close the innermost span (``frame``) and charge it to ``stat``."""
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        spans = self.spans[name]
        if len(spans) < self.span_cap:
            spans.append((frame[0], parent[0] if parent else 0,
                          frame[1] - self.origin, end - self.origin))

    def totals(self) -> Dict[str, Tuple[int, float, float, int, int]]:
        """A copy of every aggregate, for per-pass deltas."""
        return {name: stat.as_tuple() for name, stat in self.stats.items()}

    def spans_doc(self) -> Dict[str, List[List[float]]]:
        """Raw spans as ``name -> [[id, parent id, start_s, end_s], ...]``."""
        return {name: [list(span) for span in spans]
                for name, spans in sorted(self.spans.items()) if spans}


# -- what is wrapped ----------------------------------------------------------


def _sched_version(args: tuple) -> int:
    return args[0].sched_version


def _launched(stat: Stat, before: int, args: tuple, result: object) -> None:
    # JobTracker.sched_version is bumped by every launch inside a heartbeat
    stat.useful += args[0].sched_version != before


def _not_none(stat: Stat, before: object, args: tuple, result: object) -> None:
    stat.useful += result is not None


def _truthy(stat: Stat, before: object, args: tuple, result: object) -> None:
    stat.useful += bool(result)


def _payload_bytes(stat: Stat, before: object, args: tuple, result) -> None:
    stat.amount += len(result.payload)


_Before = Optional[Callable[[tuple], object]]
_After = Optional[Callable[[Stat, object, tuple, object], None]]

#: (module, class or None for a module function, attribute, layer name,
#: before-hook, after-hook).  Only attributes a class defines itself are
#: listed, so no wrapper ever shadows an inherited method.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, _Before, _After], ...] = (
    ("repro.simulation.engine", "Engine", "run", "simulation.run", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "heartbeat",
     "mapreduce.heartbeat", _sched_version, _launched),
    ("repro.scheduling.fifo", "FifoScheduler", "pick_map",
     "scheduling.pick_map", None, _not_none),
    ("repro.scheduling.fifo", "FifoScheduler", "pick_reduce",
     "scheduling.pick_reduce", None, _not_none),
    ("repro.scheduling.fair", "FairScheduler", "pick_map",
     "scheduling.pick_map", None, _not_none),
    ("repro.scheduling.fair", "FairScheduler", "pick_reduce",
     "scheduling.pick_reduce", None, _not_none),
    ("repro.scheduling.fair", "SkipCountFairScheduler", "pick_map",
     "scheduling.pick_map", None, _not_none),
    ("repro.hdfs.namenode", "NameNode", "process_heartbeat",
     "hdfs.process_heartbeat", None, _truthy),
    ("repro.hdfs.namenode", "NameNode", "create_file", "hdfs.create_file", None, None),
    ("repro.hdfs.namenode", "NameNode", "__init__", "hdfs.namenode_init", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "submit", "mapreduce.submit", None, None),
    ("repro.mapreduce.runtime", "TaskTimeModel", "map_duration",
     "mapreduce.map_duration", None, None),
    ("repro.core.manager", "DareReplicationService", "on_map_task",
     "core.on_map_task", None, _truthy),
    ("repro.core.manager", "DareReplicationService", "__init__",
     "core.service_init", None, None),
    ("repro.experiments.sweep", "WorkloadSpec", "materialize",
     "workloads.materialize", None, None),
    ("repro.cluster.cluster", "Cluster", "__init__", "cluster.build", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "__init__",
     "mapreduce.jobtracker_init", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "start_tasktrackers",
     "mapreduce.start_tasktrackers", None, None),
    ("repro.experiments.runner", "Simulation", "__init__", "experiments.setup", None, None),
    ("repro.experiments.runner", "Simulation", "finalize", "metrics.finalize", None, None),
    ("repro.mapreduce.heartbeat_hub", "HeartbeatHub", "promote",
     "mapreduce.promote", None, None),
    ("repro.mapreduce.heartbeat_hub", "HeartbeatHub", "demote",
     "mapreduce.demote", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "pending_work_units",
     "mapreduce.pending_work_units", None, None),
    ("repro.mapreduce.jobtracker", "JobTracker", "hot_nodes_by_rack",
     "mapreduce.hot_nodes_by_rack", None, None),
    ("repro.checkpoint.incremental", "SnapshotSession", "snapshot",
     "checkpoint.snapshot", None, _payload_bytes),
    ("repro.checkpoint.incremental", "DeltaSnapshot", "restore",
     "checkpoint.restore", None, None),
    ("repro.policies.parallel", "ForkScorer", "score_epoch",
     "policies.score_epoch", None, None),
    ("repro.policies.parallel", None, "score_fork", "policies.score_fork", None, None),
    ("repro.policies.rollout", None, "run_rollout_experiment",
     "policies.rollout", None, None),
    ("repro.observability.trace", "Tracer", "emit", "observability.emit", None, None),
)


def _wrap(ledger: Ledger, name: str, fn: Callable, before: _Before,
          after: _After) -> Callable:
    stat = ledger.stat(name)
    enter, leave = ledger.enter, ledger.exit
    if after is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, stat, frame)
        return traced

    @functools.wraps(fn)
    def traced_outcome(*args, **kwargs):
        token = before(args) if before is not None else None
        frame = enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(name, stat, frame)
        after(stat, token, args, result)
        return result
    return traced_outcome


Patch = Tuple[object, str, object]


def install(ledger: Ledger) -> List[Patch]:
    """Wrap every target; returns the patches :func:`uninstall` reverts."""
    patches: List[Patch] = []
    try:
        for module_name, cls, attr, name, before, after in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls) if cls else module
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(ledger, name, original, before, after))
            patches.append((owner, attr, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore the original attributes, newest patch first."""
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


# -- the per-layer metrics -----------------------------------------------------

#: every per-layer metric: (name, unit, better, what it should move).
#: Stats ``calls``/``self_s``/``total_s``/``useful_ratio``/
#: ``replicated_ratio``/``bytes`` of a wrapped layer come from the ledger;
#: the rest are computed by the workload drivers.
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simulation.run.self_s", "s", "lower",
     "run_s on scale_10k and paper_grid (engine dispatch + unwrapped callbacks)"),
    ("simulation.events", "count", "lower", "run_s on scale_10k and paper_grid"),
    ("mapreduce.heartbeat.calls", "count", "lower", "run_s on paper_grid and scale_10k"),
    ("mapreduce.heartbeat.self_s", "s", "lower", "run_s on paper_grid and scale_10k"),
    ("mapreduce.heartbeat.useful_ratio", "ratio", "higher",
     "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_map.calls", "count", "lower", "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_map.self_s", "s", "lower", "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_map.useful_ratio", "ratio", "higher",
     "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_reduce.calls", "count", "lower", "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_reduce.self_s", "s", "lower", "run_s on paper_grid and scale_10k"),
    ("scheduling.pick_reduce.useful_ratio", "ratio", "higher",
     "run_s on paper_grid and scale_10k"),
    ("hdfs.process_heartbeat.calls", "count", "lower", "run_s on scale_10k"),
    ("hdfs.process_heartbeat.self_s", "s", "lower", "run_s on scale_10k"),
    ("hdfs.process_heartbeat.useful_ratio", "ratio", "higher", "run_s on scale_10k"),
    ("mapreduce.submit.self_s", "s", "lower", "run_s on paper_grid"),
    ("mapreduce.map_duration.calls", "count", "lower", "run_s on paper_grid"),
    ("mapreduce.map_duration.self_s", "s", "lower", "run_s on paper_grid"),
    ("core.on_map_task.calls", "count", "lower",
     "run_s on paper_grid (predicted <=1% of the time: no measurable e2e move)"),
    ("core.on_map_task.self_s", "s", "lower", "run_s on paper_grid"),
    ("core.on_map_task.replicated_ratio", "ratio", "lower", "run_s on paper_grid"),
    ("workloads.materialize.self_s", "s", "lower", "setup_s on paper_grid"),
    ("hdfs.create_file.calls", "count", "lower", "setup_s on paper_grid"),
    ("hdfs.create_file.self_s", "s", "lower", "setup_s on paper_grid"),
    ("cluster.build.self_s", "s", "lower", "setup_s and peak_rss_mb on scale_100k_meso"),
    ("hdfs.namenode_init.self_s", "s", "lower",
     "setup_s and peak_rss_mb on scale_100k_meso"),
    ("core.service_init.self_s", "s", "lower",
     "setup_s and peak_rss_mb on scale_100k_meso"),
    ("mapreduce.jobtracker_init.self_s", "s", "lower",
     "setup_s and peak_rss_mb on scale_100k_meso"),
    ("mapreduce.start_tasktrackers.self_s", "s", "lower",
     "setup_s and peak_rss_mb on scale_100k_meso"),
    ("experiments.setup.self_s", "s", "lower",
     "setup_s and peak_rss_mb on scale_100k_meso (rest of Simulation.__init__)"),
    ("mapreduce.promote.calls", "count", "lower",
     "run_s on scale_100k_meso (0 elsewhere)"),
    ("mapreduce.demote.calls", "count", "lower", "run_s on scale_100k_meso (0 elsewhere)"),
    ("mapreduce.pending_work_units.self_s", "s", "lower", "run_s on scale_100k_meso"),
    ("mapreduce.hot_nodes_by_rack.self_s", "s", "lower", "run_s on scale_100k_meso"),
    ("metrics.finalize.self_s", "s", "lower", "run_s on scale_100k_meso"),
    ("checkpoint.snapshot.calls", "count", "lower", "run_s on rollout (0 elsewhere)"),
    ("checkpoint.snapshot.self_s", "s", "lower", "run_s on rollout"),
    ("checkpoint.snapshot.bytes", "bytes", "lower", "run_s on rollout"),
    ("checkpoint.restore.calls", "count", "lower", "run_s on rollout (0 elsewhere)"),
    ("checkpoint.restore.self_s", "s", "lower", "run_s on rollout"),
    ("policies.rollout.self_s", "s", "lower", "run_s on rollout (epoch loop, tap)"),
    ("policies.score_epoch.calls", "count", "lower", "run_s on rollout (0 elsewhere)"),
    ("policies.score_epoch.total_s", "s", "lower", "run_s on rollout"),
    ("policies.score_fork.calls", "count", "lower", "run_s on rollout (0 elsewhere)"),
    ("policies.score_fork.total_s", "s", "lower", "run_s on rollout"),
    ("policies.branches_per_epoch", "count", "lower", "run_s on rollout"),
    ("observability.emit.calls", "count", "lower", "run_s on rollout (0 elsewhere)"),
    ("observability.emit.self_s", "s", "lower", "run_s on rollout"),
    ("server.submit_p50_ms", "ms", "lower", "run_s on serve"),
    ("server.result_p50_ms", "ms", "lower", "run_s on serve"),
    ("server.job_p50_ms", "ms", "lower",
     "run_s on serve (median job latency; compare.py gates it)"),
    ("server.job_p90_ms", "ms", "lower",
     "run_s tail on serve (valid from 100 jobs; compare.py gates it)"),
    ("server.jobs_per_s", "1/s", "higher",
     "run_s on serve (completed jobs per second; compare.py gates it)"),
    ("experiments.queue_wait_p50_ms", "ms", "lower", "run_s on serve"),
    ("experiments.cell_exec_p50_ms", "ms", "lower", "run_s on serve"),
    ("experiments.cells_executed_per_job", "count", "lower",
     "run_s on serve (1.0 expected)"),
    ("experiments.cache_lookups_per_executed_cell", "count", "lower",
     "run_s on serve (2.0 today: submit and run_cells both look up)"),
    ("trace.overhead_ratio", "ratio", "lower", "qualifies every traced time"),
    ("trace.layer_coverage", "ratio", "higher", "qualifies every traced time"),
)

#: stats read straight off the ledger, and whether each is a time
_LEDGER_STATS = {"calls": False, "self_s": True, "total_s": True,
                 "useful_ratio": False, "replicated_ratio": False, "bytes": False}


def ledger_metric_names() -> List[str]:
    """The per-layer metrics computed from ledger aggregates."""
    return [name for name, *_ in LAYER_METRICS
            if name.rsplit(".", 1)[1] in _LEDGER_STATS]


def is_time_metric(name: str) -> bool:
    return _LEDGER_STATS.get(name.rsplit(".", 1)[1], False)


def delta(after: Dict[str, tuple], before: Dict[str, tuple]) -> Dict[str, tuple]:
    """Aggregates accumulated between two :meth:`Ledger.totals` copies."""
    zero = (0, 0.0, 0.0, 0, 0)
    return {name: tuple(a - b for a, b in zip(vals, before.get(name, zero)))
            for name, vals in after.items()}


def ledger_values(totals: Dict[str, tuple]) -> Dict[str, float]:
    """Every ledger-derived metric from one pass's aggregates (0 if unused)."""
    values: Dict[str, float] = {}
    for metric in ledger_metric_names():
        layer, stat = metric.rsplit(".", 1)
        calls, total_s, self_s, useful, amount = totals.get(layer, (0, 0.0, 0.0, 0, 0))
        values[metric] = {
            "calls": float(calls),
            "self_s": self_s,
            "total_s": total_s,
            "useful_ratio": useful / calls if calls else 0.0,
            "replicated_ratio": useful / calls if calls else 0.0,
            "bytes": float(amount),
        }[stat]
    fork_calls = totals.get("policies.score_fork", (0,))[0]
    epoch_calls = totals.get("policies.score_epoch", (0,))[0]
    values["policies.branches_per_epoch"] = fork_calls / epoch_calls if epoch_calls else 0.0
    return values


def self_time_sum(totals: Dict[str, tuple]) -> float:
    """Seconds covered by any span (the sum of every layer's self time)."""
    return sum(vals[2] for vals in totals.values())
