"""Idle rack ticks and pooled offers against the hub tick they replace.

A :class:`~repro.mapreduce.heartbeat_hub.HeartbeatHub` tick with no
pending-work budget left visits only its rack's control set (the
NameNode's per-rack set of nodes with queued control traffic), and a
pooled mesoscale member is offered work without a TaskTracker: the
JobTracker promotes it right before a pick places a task on it.  The
oracle below is the earlier tick, which walked every member and promoted
a pooled member before every beat; traces must match byte for byte on
cells where failures requeue attempts, speculation launches duplicates
and DARE evicts replicas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, Simulation, run_experiment
from repro.mapreduce.heartbeat_hub import HeartbeatHub
from repro.observability.trace import TASK_SCHEDULED, Tracer
from repro.workloads.swim import synthesize_wl1, synthesize_wl2
from tests.conftest import materialize_hubs

# -- oracle: walk every member, promote before every beat ---------------------


def _seed_tick(self) -> None:
    jt = self.jobtracker
    nn = jt.namenode
    datanodes = nn.datanodes
    free_map = jt.slots.free_map
    free_reduce = jt.slots.free_reduce
    trackers = jt.tasktrackers
    self.ticks += 1

    budget = jt.pending_work_units()
    # replica holders of pending blocks first: they are the nodes whose
    # slots buy data locality
    if budget > 0:
        for nid in jt.hot_nodes_by_rack().get(self.rack, ()):
            if free_map[nid] <= 0 and free_reduce[nid] <= 0:
                continue
            tt = trackers.get(nid)
            if tt is None:
                tt = self.promote(nid)
            before = jt.sched_version
            tt.beat()
            budget -= jt.sched_version - before

    for nid in self.member_ids:
        dn = datanodes.get(nid)
        control = dn is not None and (bool(dn.outbox) or bool(dn.pending_deletion))
        # liveness read as the hub reads it: an unbuilt node is alive
        offer = (budget > 0 and (free_map[nid] > 0 or free_reduce[nid] > 0)
                 and ((node := jt.cluster.nodes[nid]) is None or node.alive))
        if not control and not offer:
            continue
        tt = trackers.get(nid)
        if tt is None:
            tt = self.promote(nid)
        before = jt.sched_version
        tt.beat()
        if offer:
            launched = jt.sched_version - before
            # an offer that placed nothing still consumes budget, so a
            # tick cannot walk every idle node when the scheduler is
            # deferring (e.g. fair-share delay scheduling)
            budget -= launched if launched else 1

    for nid in sorted(self.accurate):
        if self._demotable(nid):
            self.demote(nid)

    if not jt.finished:
        self.engine.reschedule_in(self.interval_s, self._hb_event, self._hb_label)


SEED = 5
N_NODES = 120
FAILURES = ((40.0, 3), (90.0, 7), (150.0, 11))


def _config(scheduler, policy, *, trace_path="", **overrides):
    return ExperimentConfig(
        cluster_spec=scale_spec(N_NODES, mesoscale=True),
        scheduler=scheduler,
        dare=policy,
        seed=SEED,
        trace_path=str(trace_path),
        **overrides,
    )


def _workload():
    return synthesize_wl2(np.random.default_rng(SEED), n_jobs=60)


def _hub_cell(scheduler, policy, trace_path):
    config = _config(
        scheduler,
        policy,
        trace_path=trace_path,
        speculative=True,
        failures=FAILURES,
        check_invariants=True,
    )
    return run_experiment(config, _workload())


#: (scheduler, policy, pooled): an unpooled cell runs every hub with all
#: its members materialised, the oracle of the deleted batched-accurate mode
_CELLS = [
    ("fifo", "lru", True),
    ("fair", "lru", True),
    ("fair-skip", "lru", True),
    ("fifo", "et", False),
]


@pytest.mark.parametrize("scheduler,policy,pooled", _CELLS)
def test_hub_traces_match_the_full_member_walk(
    scheduler, policy, pooled, tmp_path, monkeypatch
):
    if not pooled:
        materialize_hubs(monkeypatch)
    dare = DareConfig.greedy_lru() if policy == "lru" else DareConfig.elephant_trap()
    result = _hub_cell(scheduler, dare, tmp_path / "idle.jsonl")
    # failures requeue attempts, stragglers get duplicates and DARE queues
    # control traffic in every cell; the plain Fair cell never evicts
    assert result.tasks_requeued > 0
    assert result.speculative_launched > 0
    assert result.blocks_created > 0
    if scheduler != "fair":
        assert result.blocks_evicted > 0
    monkeypatch.setattr(HeartbeatHub, "_tick", _seed_tick)
    _hub_cell(scheduler, dare, tmp_path / "walked.jsonl")
    assert (tmp_path / "idle.jsonl").read_bytes() == (
        tmp_path / "walked.jsonl"
    ).read_bytes()


# -- what the pool pays for ----------------------------------------------------


def test_promotions_are_bounded_by_launches():
    # 1000 mostly idle nodes under Fair delay scheduling: most offers are
    # refused, and a refused offer must not build a TaskTracker
    launches = []
    tracer = Tracer()
    tracer.subscribe(lambda r: launches.append(r) if r.type == TASK_SCHEDULED else None)
    config = ExperimentConfig(
        cluster_spec=scale_spec(1000, mesoscale=True),
        scheduler="fair",
        dare=DareConfig.greedy_lru(),
        seed=SEED,
    )
    workload = synthesize_wl1(np.random.default_rng(SEED), n_jobs=20)
    sim = Simulation(config, workload, tracer=tracer)
    sim.run()
    sim.finalize()
    sim.close()
    promotions = sum(hub.promotions for hub in sim.jobtracker.hubs)
    # a pooled member is promoted only right before a task lands on it
    assert 0 < promotions <= len(launches)


class _RecordingDict(dict):
    """A dict that records every key read through ``[]`` or ``get``."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.keys_read: set = set()

    def __getitem__(self, key):
        self.keys_read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.keys_read.add(key)
        return super().get(key, default)


def test_tick_without_budget_or_control_traffic_beats_nobody(monkeypatch):
    # DARE off: no node ever queues control traffic
    sim = Simulation(_config("fifo", DareConfig.off()), _workload())
    sim.run(until=40.0)
    jt, nn = sim.jobtracker, sim.namenode
    assert not any(nn.control_by_rack)
    hubs = jt.hubs
    accurate = set().union(*(hub.accurate for hub in hubs))
    ticks = sum(hub.ticks for hub in hubs)

    beats = []
    heartbeat = jt.heartbeat

    def counted(node_id, *rest):
        beats.append(node_id)
        heartbeat(node_id, *rest)

    monkeypatch.setattr(jt, "pending_work_units", lambda: 0)
    monkeypatch.setattr(jt, "heartbeat", counted)
    datanodes = nn.datanodes = _RecordingDict(nn.datanodes)
    sim.run(until=40.0 + sim.cluster.spec.heartbeat_s)

    assert sum(hub.ticks for hub in hubs) == ticks + len(hubs)
    assert beats == []
    # only the end-of-tick demotion checks read DataNodes, and only those
    # of promoted members: the idle walk itself visits no member
    assert datanodes.keys_read <= accurate
    sim.close()


def test_a_failed_member_does_not_stall_its_rack():
    config = ExperimentConfig(
        cluster_spec=scale_spec(20, mesoscale=True), seed=7, failures=((30.0, 1),)
    )
    sim = Simulation(config, synthesize_wl1(np.random.default_rng(7), n_jobs=3))
    sim.engine.max_events = 100_000
    sim.run()
    assert sim.finished
