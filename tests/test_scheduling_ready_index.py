"""The schedulers' ready-job lists against the full-scan pickers they replace.

``Scheduler.map_ready`` / ``reduce_ready`` are kept current by the
JobTracker's ``job_changed`` calls instead of being re-derived by a scan
of ``active_jobs`` on every pick.  The oracle schedulers below are those
scans, kept as the reference: traces must match byte for byte on cells
where speculation fires and failures requeue attempts.

``JobTracker.heartbeat`` asks for a map only while ``map_ready`` is
non-empty, and for a reduce only while ``reduce_ready`` is.  A second
oracle is the heartbeat from before those guards, which asks on every
free slot; the same cells must match it byte for byte as well.

``FairScheduler.pick_map`` refuses an offer without a walk when it
repeats the last refusal at the same instant and schedule state from a
rack without a replica of a pending map block.  The Fair oracle walks on
every offer, and mesoscale Fair cells (where rack hubs repeat offers
within a tick) must match it byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro.baselines.scarlett import ScarlettConfig
from repro.checkpoint import snapshot
from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.experiments.runner import ExperimentConfig, Simulation, make_tracer, run_experiment
from repro.mapreduce.job import JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.task import Locality
from repro.mapreduce.tasktracker import TaskTracker
from repro.observability.trace import HEARTBEAT
from repro.scheduling.fair import (
    DEFAULT_NODE_DELAY_S,
    DEFAULT_RACK_DELAY_S,
    FairScheduler,
    SkipCountFairScheduler,
)
from repro.scheduling.fifo import FifoScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1, synthesize_wl2

# -- oracles: pick by filtering active_jobs on every call ---------------------


class _ScanFifo(FifoScheduler):
    def pick_map(self, node_id, now):
        for job in self.active_jobs:
            if not job.has_pending_maps:
                continue
            found = job.find_pending_map(node_id, self.namenode, Locality.REMOTE)
            if found is not None:
                task, locality = found
                return job, task, locality
        return None

    def pick_reduce(self, node_id, now):
        for job in self.active_jobs:
            task = job.next_pending_reduce()
            if task is not None:
                return job, task
        return None


class _ScanFairOrder:
    """The Fair orderings as full scans (mixed in ahead of a Fair class)."""

    def _map_order(self):
        jobs = [j for j in self.active_jobs if j.has_pending_maps]
        jobs.sort(key=lambda j: (j.running_maps, j.submit_time, j.spec.job_id))
        return jobs

    def pick_reduce(self, node_id, now):
        jobs = [j for j in self.active_jobs if j.reduces_schedulable]
        jobs.sort(key=lambda j: (j.running_reduces, j.submit_time, j.spec.job_id))
        for job in jobs:
            task = job.next_pending_reduce()
            if task is not None:
                return job, task
        return None


class _ScanFair(_ScanFairOrder, FairScheduler):
    def pick_map(self, node_id, now):
        """The Fair walk without the refusal memo: every offer walks."""
        for job in self._map_order():
            allowed = self._allowed_level(job, now)
            found = job.find_pending_map(node_id, self.namenode, allowed)
            if found is None:
                if job.delay_wait_started is None:
                    job.delay_wait_started = now
                continue
            task, locality = found
            if locality is Locality.NODE_LOCAL:
                job.delay_wait_started = None
            return job, task, locality
        return None


class _ScanSkipCount(_ScanFairOrder, SkipCountFairScheduler):
    pass


_ORACLES = {"fifo": _ScanFifo, "fair": _ScanFair, "fair-skip": _ScanSkipCount}


def _scan_pending_work_units(self) -> int:
    total = 0
    speculative = self.speculation is not None
    for job in self.scheduler.active_jobs:
        total += len(job.pending_maps)
        if job.reduces_schedulable:
            total += len(job.reduces) - job.running_reduces - job.finished_reduces
        if speculative:
            total += job.running_maps
    return total


def _scan_hot_nodes_by_rack(self) -> Dict[int, List[int]]:
    nn = self.namenode
    key = (self.sched_version, nn.replica_version)
    if key != self._hot_cache_key:
        by_rack: Dict[int, List[int]] = {}
        seen: set = set()
        locs_by_id = nn._locs_by_id
        rack_of = nn._rack_of
        for job in self.scheduler.active_jobs:
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


def _use_full_scans(monkeypatch):
    """From here on, every scheduler pick and hub read is a full scan."""
    monkeypatch.setattr(
        runner, "make_scheduler", lambda name, fair_delay_s=None: _ORACLES[name]()
    )
    monkeypatch.setattr(JobTracker, "pending_work_units", _scan_pending_work_units)
    monkeypatch.setattr(JobTracker, "hot_nodes_by_rack", _scan_hot_nodes_by_rack)


# -- oracle: the heartbeat that asks the scheduler on every free slot ----------


def _unguarded_heartbeat(
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
    free_map = self.slots.free_map
    free_reduce = self.slots.free_reduce
    while free_map[node_id] > 0:
        pick = scheduler.pick_map(node_id, now)
        if pick is None:
            break
        if tt is None:
            tt = promote(node_id)
        job, task, locality = pick
        self._launch_map(job, task, locality, tt, now)
    while free_reduce[node_id] > 0:
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


def _use_unguarded_heartbeat(monkeypatch):
    """From here on, every heartbeat offers each free slot to the scheduler."""
    monkeypatch.setattr(JobTracker, "heartbeat", _unguarded_heartbeat)


def _assert_oracles_agree(cell, tmp_path, monkeypatch):
    """Run ``cell(trace_path)`` as is and under each oracle; traces must match.

    Returns the unpatched run's result.
    """
    result = cell(tmp_path / "listed.jsonl")
    listed = (tmp_path / "listed.jsonl").read_bytes()
    for use_oracle in (_use_full_scans, _use_unguarded_heartbeat):
        trace = tmp_path / f"{use_oracle.__name__}.jsonl"
        with monkeypatch.context() as patch:
            use_oracle(patch)
            cell(trace)
        assert trace.read_bytes() == listed, use_oracle.__name__
    return result


SEED = 5
FAILURES = ((40.0, 3), (90.0, 7), (150.0, 11))


def _paper_cell(scheduler, trace_path):
    config = ExperimentConfig(
        scheduler=scheduler,
        dare=DareConfig.elephant_trap(),
        seed=SEED,
        speculative=True,
        failures=FAILURES,
        trace_path=str(trace_path),
    )
    workload = synthesize_wl2(np.random.default_rng(SEED), n_jobs=60)
    return run_experiment(config, workload)


def _mesoscale_cell(trace_path):
    config = ExperimentConfig(
        cluster_spec=scale_spec(150, mesoscale=True),
        scheduler="fair",
        dare=DareConfig.elephant_trap(),
        seed=SEED,
        trace_path=str(trace_path),
    )
    workload = synthesize_wl1(np.random.default_rng(SEED), n_jobs=30)
    return run_experiment(config, workload)


@pytest.mark.parametrize("scheduler", sorted(_ORACLES))
def test_ready_lists_match_full_scans_under_failures_and_speculation(
    scheduler, tmp_path, monkeypatch
):
    listed = _assert_oracles_agree(
        lambda trace: _paper_cell(scheduler, trace), tmp_path, monkeypatch
    )
    # failures requeue attempts in every cell, re-admitting their jobs;
    # of these cells only FIFO's launches speculative duplicates
    assert listed.tasks_requeued > 0
    if scheduler == "fifo":
        assert listed.speculative_launched > 0


def test_ready_lists_match_full_scans_on_mesoscale_hubs(tmp_path, monkeypatch):
    _assert_oracles_agree(_mesoscale_cell, tmp_path, monkeypatch)


# -- the Fair refusal memo against the walk it skips ---------------------------

ET = DareConfig.elephant_trap()

#: mesoscale Fair cells, each with the result counters that must be
#: positive for the cell to exercise what it names
_MEMO_CELLS = {
    # two nodes killed while they run maps (requeue + repair)
    "2k-failures": (dict(nodes=2000, dare=ET, failures=((70.0, 473), (136.0, 1283))),
                    ("tasks_requeued",)),
    "2k-scarlett": (dict(nodes=2000, dare=ET, scarlett=ScarlettConfig(epoch_s=20.0)),
                    ("scarlett_replicas_created",)),
    # DARE replicas, evictions and repairs change replica sets mid-run
    "120-lru-failures": (dict(nodes=120, n_jobs=60, dare=DareConfig.greedy_lru(),
                              failures=((40.0, 3), (90.0, 7))),
                         ("blocks_created", "repairs_completed")),
    "2k-delays-0-0": (dict(nodes=2000, dare=ET, delays=(0.0, 0.0)), ()),
    "2k-delays-0-1.5": (dict(nodes=2000, dare=ET, delays=(0.0, 1.5)), ()),
}


def _fair_inputs(trace_path, nodes, dare, n_jobs=30, failures=(), scarlett=None):
    """``(config, workload)`` of a mesoscale WL2 Fair cell."""
    config = ExperimentConfig(
        cluster_spec=scale_spec(nodes, mesoscale=True),
        scheduler="fair",
        dare=dare,
        seed=SEED,
        failures=failures,
        scarlett=scarlett,
        trace_path=str(trace_path),
    )
    return config, synthesize_wl2(np.random.default_rng(SEED), n_jobs=n_jobs)


def _fair_cell(**spec):
    """A mesoscale Fair cell, as ``cell(trace_path) -> ExperimentResult``."""
    return lambda trace_path: run_experiment(*_fair_inputs(trace_path, **spec))


def _counted(calls: Counter, name: str, fn: Callable) -> Callable:
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("name", sorted(_MEMO_CELLS))
def test_fair_refusal_memo_matches_the_walk_on_mesoscale_cells(
    name, tmp_path, monkeypatch
):
    spec, exercised = _MEMO_CELLS[name]
    spec = dict(spec)
    delays = spec.pop("delays", (DEFAULT_NODE_DELAY_S, DEFAULT_RACK_DELAY_S))
    cell = _fair_cell(**spec)
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(
            runner, "make_scheduler", lambda name, fair_delay_s=None: FairScheduler(*delays)
        )
        for method in ("pick_map", "_map_order"):
            patch.setattr(
                FairScheduler, method, _counted(calls, method, getattr(FairScheduler, method))
            )
        result = cell(tmp_path / "memo.jsonl")
    with monkeypatch.context() as patch:
        _use_full_scans(patch)
        patch.setattr(
            runner, "make_scheduler", lambda name, fair_delay_s=None: _ScanFair(*delays)
        )
        cell(tmp_path / "walk.jsonl")
    assert (tmp_path / "memo.jsonl").read_bytes() == (tmp_path / "walk.jsonl").read_bytes()
    for counter in exercised:
        assert getattr(result, counter) > 0, counter
    if delays == (0.0, 0.0):
        # with no delay a waiting job launches anywhere, so every refusal
        # starts a clock and none is remembered
        assert calls["_map_order"] == calls["pick_map"]
    else:
        assert calls["_map_order"] < calls["pick_map"]  # the memo fired


def test_fair_refusal_memo_survives_a_checkpoint(tmp_path):
    cold = tmp_path / "cold.jsonl"
    run_experiment(*_fair_inputs(cold, 2000, ET))
    config, workload = _fair_inputs(tmp_path / "warm.jsonl", 2000, ET)
    sim = Simulation(config, workload, tracer=make_tracer(config))
    sim.run(until=70.0)  # mid map wave: a refusal is remembered
    assert sim.scheduler.refusal is not None
    snap = snapshot(sim)
    sim.close()
    resumed = snap.restore(trace_path=str(tmp_path / "resumed.jsonl"))
    resumed.run()
    resumed.finalize()
    resumed.close()
    assert (tmp_path / "resumed.jsonl").read_bytes() == cold.read_bytes()


# -- submission order survives a requeue --------------------------------------


def _jobtracker(cluster, namenode, scheduler):
    """A JobTracker whose trackers only beat when the test says so."""
    streams = RandomStreams(31)
    dare = DareReplicationService(DareConfig.off(), namenode, streams)
    tm = TaskTimeModel(cluster, namenode, streams.python("tm"))
    jt = JobTracker(cluster, namenode, Engine(), scheduler, tm, dare)
    for node in cluster.slaves:
        jt.tasktrackers[node.node_id] = TaskTracker(
            node, jt, jt.engine, 1.0, managed=True
        )
        jt._running_by_node[node.node_id] = {}
    return jt


@pytest.fixture
def jt(small_cluster, loaded_namenode):
    """A FIFO JobTracker whose trackers only beat when the test says so."""
    return _jobtracker(small_cluster, loaded_namenode, FifoScheduler())


def _launch_every_map(jt, job, now):
    """Place all of ``job``'s maps through the scheduler (it is head of line)."""
    for tt in jt.tasktrackers.values():
        while job.pending_maps and tt.free_map_slots > 0:
            picked, task, locality = jt.scheduler.pick_map(tt.node_id, now)
            assert picked is job
            jt._launch_map(job, task, locality, tt, now)
    assert not job.pending_maps


def test_requeued_map_returns_its_job_ahead_of_later_submissions(jt):
    a = jt.submit(JobSpec(0, 0.0, "warm"))
    b = jt.submit(JobSpec(1, 1.0, "hot"))
    scheduler = jt.scheduler
    _launch_every_map(jt, a, 2.0)
    assert scheduler.map_ready == [b]

    node = a.maps[0].node_id
    assert jt.requeue_tasks_from(node) >= 1
    assert scheduler.map_ready == [a, b]
    job, task, _ = scheduler.pick_map(node, now=3.0)
    assert job is a and task in a.pending_maps


def test_requeued_reduce_returns_its_job_ahead_of_later_submissions(jt):
    a = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
    b = jt.submit(JobSpec(1, 1.0, "hot", n_reduces=1))
    scheduler = jt.scheduler
    _launch_every_map(jt, a, 2.0)
    _launch_every_map(jt, b, 2.0)
    jt.engine.run(until=1000.0)  # map completions only: no heartbeats
    assert a.maps_done and b.maps_done
    assert scheduler.reduce_ready == [a, b]

    tt = next(iter(jt.tasktrackers.values()))
    job, rtask = scheduler.pick_reduce(tt.node_id, now=1000.0)
    assert job is a
    jt._launch_reduce(a, rtask, tt, 1000.0)
    assert scheduler.reduce_ready == [b]

    assert jt.requeue_tasks_from(tt.node_id) == 1
    assert scheduler.reduce_ready == [a, b]
    job, rtask = scheduler.pick_reduce(tt.node_id, now=1001.0)
    assert job is a and rtask is a.reduces[0]


# -- a pick over empty ready lists is a no-op ----------------------------------


@pytest.mark.parametrize(
    "scheduler", [FifoScheduler, FairScheduler, SkipCountFairScheduler]
)
def test_picks_over_empty_ready_lists_return_none_and_change_nothing(
    scheduler, small_cluster, loaded_namenode
):
    jt = _jobtracker(small_cluster, loaded_namenode, scheduler())
    done = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
    trackers = list(jt.tasktrackers.values())
    for task, tt in zip(list(done.pending_maps), trackers):
        jt._launch_map(done, task, Locality.REMOTE, tt, 0.0)
    jt.engine.run(until=1000.0)  # map completions only: no heartbeats
    fresh = jt.submit(JobSpec(1, 1000.0, "hot"))
    picker = jt.scheduler
    assert picker.map_ready == [fresh] and picker.reduce_ready == [done]

    # the ready lists are a picker's only input: emptied, they must yield
    # nothing, although ``fresh`` has pending maps and ``done`` a pending
    # reduce.  Walking ``fresh`` would launch it, start its delay clock
    # (Fair) or add a skip (skip-count Fair)
    picker.map_ready.clear()
    picker.reduce_ready.clear()
    waits = [job.delay_wait_started for job in jt.jobs]
    for tt in trackers:
        assert picker.pick_map(tt.node_id, 1001.0) is None
        assert picker.pick_reduce(tt.node_id, 1001.0) is None
    assert [job.delay_wait_started for job in jt.jobs] == waits


def test_heartbeat_asks_for_each_slot_type_only_while_its_list_has_jobs(
    jt, monkeypatch
):
    scheduler = jt.scheduler
    asked = []

    def logged(name):
        pick = getattr(scheduler, name)

        def wrapper(*args):
            asked.append(name)
            return pick(*args)

        return wrapper

    for name in ("pick_map", "pick_reduce"):
        monkeypatch.setattr(scheduler, name, logged(name))
    trackers = list(jt.tasktrackers.values())

    def beat_all():
        asked.clear()
        for tt in trackers:
            jt.heartbeat(tt.node_id, tt)

    beat_all()  # nothing submitted: both lists empty
    assert asked == []

    job = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
    beat_all()  # maps pending, no reduce schedulable yet
    assert not job.pending_maps and job.running_maps == len(job.maps)
    assert "pick_map" in asked and "pick_reduce" not in asked

    jt.engine.run(until=1000.0)  # map completions only: no heartbeats
    beat_all()  # the reduce is schedulable, no map is pending
    assert job.running_reduces == 1
    assert "pick_reduce" in asked and "pick_map" not in asked
