"""Unit tests: the InvariantChecker catches seeded corruption."""

from __future__ import annotations

import copy
import re

import numpy as np
import pytest

from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.experiments.runner import ExperimentConfig, Simulation, make_tracer
from repro.mapreduce.job import JobSpec
from repro.mapreduce.slots import SlotStore
from repro.observability.invariants import InvariantChecker, InvariantViolation
from repro.observability.trace import (
    BLOCK_REPLICATED,
    HEARTBEAT,
    TASK_SCHEDULED,
    Tracer,
)
from repro.scheduling.base import Scheduler
from repro.workloads.swim import synthesize_wl1, synthesize_wl2


def make_service(namenode, streams, tracer, policy="lru", budget_blocks=3):
    config = (
        DareConfig.greedy_lru()
        if policy == "lru"
        else DareConfig.elephant_trap(p=1.0, threshold=1)
    )
    service = DareReplicationService(config, namenode, streams, tracer=tracer)
    for node_id in namenode.cluster.slave_ids:
        namenode.datanode(node_id).dynamic_capacity_bytes = (
            budget_blocks * namenode.block_size
        )
    return service


def remote_target(namenode, block_id):
    """A node that does not hold ``block_id`` (a remote read is possible)."""
    for node_id in namenode.cluster.slave_ids:
        if not namenode.datanode(node_id).has_block(block_id):
            return node_id
    raise AssertionError("block replicated everywhere; enlarge the cluster")


class JtStub:
    """Duck-typed JobTracker: the slot store, (empty) scheduler and (no)
    rack hubs the checker audits."""

    def __init__(self, namenode):
        # two map and two reduce slots on every slave, none on the master
        caps = [0] + [2] * namenode.cluster.n_slaves
        self.slots = SlotStore(caps, caps)
        self.scheduler = Scheduler()
        self.hubs = []
        self.sched_version = 0
        self._hot_cache_key = None  # hot-node map never read


def _sim_with_pending_maps(scheduler="fifo"):
    """A run paused while eight submitted jobs all have pending maps."""
    workload = synthesize_wl2(np.random.default_rng(5), n_jobs=20)
    sim = Simulation(
        ExperimentConfig(scheduler=scheduler, dare=DareConfig.elephant_trap(), seed=5),
        workload,
    )
    sim.run(until=70.0)
    assert len(sim.scheduler.map_ready) >= 3
    return sim


def _sim_with_control_traffic():
    """A FIFO LRU run paused while nodes 3, 4 and 7 have queued traffic."""
    workload = synthesize_wl2(np.random.default_rng(5), n_jobs=20)
    sim = Simulation(
        ExperimentConfig(scheduler="fifo", dare=DareConfig.greedy_lru(), seed=5),
        workload,
    )
    sim.run(until=68.0)
    queued = [
        n for n, dn in sim.namenode.datanodes.items() if dn.outbox or dn.pending_deletion
    ]
    assert queued
    return sim, queued


def _mesoscale_sim():
    """A 120-node mesoscale FIFO LRU run paused at t=40 (rack hubs)."""
    workload = synthesize_wl2(np.random.default_rng(5), n_jobs=60)
    sim = Simulation(
        ExperimentConfig(
            cluster_spec=scale_spec(120, mesoscale=True),
            scheduler="fifo",
            dare=DareConfig.greedy_lru(),
            seed=5,
        ),
        workload,
    )
    sim.run(until=40.0)
    return sim


def _sparse_mesoscale_sim():
    """A 2,000-node mesoscale FIFO LRU run paused at t=20, and a pooled
    node that has no DataNode (it holds no block and ran no map)."""
    workload = synthesize_wl1(np.random.default_rng(5), n_jobs=10)
    sim = Simulation(
        ExperimentConfig(
            cluster_spec=scale_spec(2000, mesoscale=True),
            scheduler="fifo",
            dare=DareConfig.greedy_lru(),
            seed=5,
        ),
        workload,
    )
    sim.run(until=20.0)
    jt, nn = sim.jobtracker, sim.namenode
    bare = min(
        nid
        for hub in jt.hubs
        for nid in hub.member_ids
        if nid not in hub.accurate and nid not in nn.datanodes
    )
    return sim, bare


class TestHealthyState:
    def test_clean_replication_passes_every_check(self, loaded_namenode, streams):
        tracer = Tracer()
        loaded_namenode.tracer = tracer
        for node_id in loaded_namenode.cluster.slave_ids:
            loaded_namenode.datanode(node_id).tracer = tracer
        service = make_service(loaded_namenode, streams, tracer)
        InvariantChecker(
            loaded_namenode, dare=service, full_sweep_every=1
        ).attach(tracer)
        block = loaded_namenode.blocks[0]
        node = remote_target(loaded_namenode, block.block_id)
        assert service.on_map_task(node, block, data_local=False, now=1.0)
        # settled record triggers the strict full sweep
        tracer.emit(TASK_SCHEDULED, 1.0, node=node, kind="map")
        loaded_namenode.process_heartbeat(node, 2.0)

    def test_checker_counts_records_and_sweeps(self, loaded_namenode):
        tracer = Tracer()
        checker = InvariantChecker(loaded_namenode, full_sweep_every=1).attach(tracer)
        tracer.emit(HEARTBEAT, 0.0, node=1, free_map_slots=2, free_reduce_slots=2)
        tracer.emit(BLOCK_REPLICATED, 0.0, node=1, block=0, bytes=1)
        assert checker.records_seen == 2
        assert checker.sweeps_run == 1  # only the settled heartbeat swept

    def test_finalize_sweeps_once_after_the_heartbeat_flush(self):
        """The end-of-run flush beats every slave: its records still get
        their node checks, and finalize's own sweep is the flush's one."""
        config = ExperimentConfig(
            dare=DareConfig.elephant_trap(), seed=5,
            check_invariants=True, invariant_sweep_every=1,
        )
        workload = synthesize_wl2(np.random.default_rng(5), n_jobs=6)
        sim = Simulation(config, workload, tracer=make_tracer(config))
        sim.run()
        swept, seen = sim.checker.sweeps_run, sim.checker.records_seen
        result = sim.finalize()
        assert result.invariant_sweeps == swept + 1
        assert result.trace_records_checked >= seen + sim.cluster.n_slaves


class TestSeededCorruption:
    def test_budget_accounting_drift_is_caught(self, loaded_namenode, streams):
        tracer = Tracer()
        for node_id in loaded_namenode.cluster.slave_ids:
            loaded_namenode.datanode(node_id).tracer = tracer
        service = make_service(loaded_namenode, streams, tracer)
        InvariantChecker(
            loaded_namenode, dare=service, full_sweep_every=1
        ).attach(tracer)
        block = loaded_namenode.blocks[0]
        node = remote_target(loaded_namenode, block.block_id)
        service.on_map_task(node, block, data_local=False, now=1.0)
        loaded_namenode.datanode(node).dynamic_bytes_used += 7  # corrupt
        with pytest.raises(InvariantViolation, match="dynamic_bytes_used"):
            tracer.emit(HEARTBEAT, 2.0, node=node)

    def test_budget_overrun_is_caught(self, loaded_namenode, streams):
        tracer = Tracer()
        for node_id in loaded_namenode.cluster.slave_ids:
            loaded_namenode.datanode(node_id).tracer = tracer
        service = make_service(loaded_namenode, streams, tracer, budget_blocks=1)
        InvariantChecker(
            loaded_namenode, dare=service, full_sweep_every=1
        ).attach(tracer)
        block = loaded_namenode.blocks[0]
        node = remote_target(loaded_namenode, block.block_id)
        service.on_map_task(node, block, data_local=False, now=1.0)
        # shrink the budget under the stored bytes: overrun must be flagged
        loaded_namenode.datanode(node).dynamic_capacity_bytes = 1
        with pytest.raises(InvariantViolation, match="budget exceeded"):
            tracer.emit(HEARTBEAT, 2.0, node=node)

    def test_phantom_policy_entry_is_caught(self, loaded_namenode, streams):
        tracer = Tracer()
        service = make_service(loaded_namenode, streams, tracer)
        InvariantChecker(
            loaded_namenode, dare=service, full_sweep_every=1
        ).attach(tracer)
        # the policy tracks a block its DataNode never stored
        node = loaded_namenode.cluster.slave_ids[0]
        service.node_state(node).policy.add(loaded_namenode.blocks[0])
        with pytest.raises(InvariantViolation, match="no live dynamic replica"):
            tracer.emit(HEARTBEAT, 1.0, node=node)

    def test_untracked_replica_on_a_node_without_state_is_caught(
        self, loaded_namenode, streams
    ):
        tracer = Tracer()
        service = make_service(loaded_namenode, streams, tracer)
        checker = InvariantChecker(loaded_namenode, dare=service, full_sweep_every=1)
        # no node has run a map task, so no node has a policy; a dynamic
        # replica inserted behind DARE's back is tracked by nobody
        block = loaded_namenode.blocks[0]
        node = remote_target(loaded_namenode, block.block_id)
        loaded_namenode.datanode(node).insert_dynamic(block, 1.0)
        assert not service.states
        with pytest.raises(
            InvariantViolation,
            match=re.escape(
                f"policy tracks [] but live dynamic replicas are [{block.block_id}]"
            ),
        ):
            checker.check_now()

    def test_slot_overflow_is_caught(self, loaded_namenode):
        tracer = Tracer()
        node = loaded_namenode.cluster.slave_ids[0]
        jt = JtStub(loaded_namenode)
        jt.slots.free_map[node] = -1
        InvariantChecker(
            loaded_namenode, jobtracker=jt, full_sweep_every=1
        ).attach(tracer)
        with pytest.raises(InvariantViolation, match="free map slots"):
            tracer.emit(HEARTBEAT, 1.0, node=node)

    def test_replica_map_inconsistency_is_caught(self, loaded_namenode):
        tracer = Tracer()
        InvariantChecker(loaded_namenode, full_sweep_every=1).attach(tracer)
        # NameNode claims a replica on a node that never stored the block
        block_id = 0
        missing = next(
            n
            for n in loaded_namenode.cluster.slave_ids
            if not loaded_namenode.datanode(n).has_block(block_id)
        )
        loaded_namenode._locations[block_id].add(missing)
        with pytest.raises(InvariantViolation, match="replica-map consistency"):
            tracer.emit(HEARTBEAT, 1.0, node=missing)

    def test_violation_carries_trace_tail(self, loaded_namenode):
        tracer = Tracer()
        node = loaded_namenode.cluster.slave_ids[0]
        jt = JtStub(loaded_namenode)
        InvariantChecker(
            loaded_namenode, jobtracker=jt, full_sweep_every=1
        ).attach(tracer)
        tracer.emit(BLOCK_REPLICATED, 0.5, node=node, block=7, bytes=1)
        jt.slots.free_map[node] = 99  # corrupt between records
        with pytest.raises(InvariantViolation) as exc_info:
            tracer.emit(HEARTBEAT, 1.0, node=node)
        violation = exc_info.value
        assert violation.record is not None
        assert violation.record.type == HEARTBEAT
        assert any(r.type == BLOCK_REPLICATED for r in violation.tail)
        assert "trace tail" in str(violation)
        assert "block.replicated" in str(violation)

    @pytest.mark.parametrize("corruption", ["drop", "swap"])
    def test_ready_list_drift_is_caught(self, corruption):
        sim = _sim_with_pending_maps()
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=sim.jobtracker)
        checker.check_now()  # the untouched lists equal the full scan
        ready = sim.scheduler.map_ready
        if corruption == "drop":
            del ready[1]
        else:
            ready[0], ready[1] = ready[1], ready[0]
        with pytest.raises(InvariantViolation, match="scheduler: map_ready"):
            checker.check_now()

    def test_stale_hot_node_cache_is_caught(self):
        sim = _mesoscale_sim()
        jt, nn = sim.jobtracker, sim.namenode
        # a job whose maps are all pending: its blocks' holders are hot
        job = jt.submit(JobSpec(len(jt.jobs), jt.engine.now, next(iter(nn.files))))
        checker = InvariantChecker(nn, dare=sim.dare, jobtracker=jt)
        hot = jt.hot_nodes_by_rack()  # cached under the current key
        checker.check_now()  # the cached map equals a fresh scan
        bid = next(iter(job.pending_block_ids))
        cold = next(
            n for n in nn.cluster.slave_ids
            if n not in hot.get(nn._rack_of[n], ()) and not nn.datanode(n).has_block(bid)
        )
        version = nn.replica_version
        nn.add_repaired_replica(bid, cold)  # a real, consistent replica ...
        nn.replica_version = version  # ... whose change skipped the bump
        with pytest.raises(InvariantViolation, match="hot-node cache"):
            checker.check_now()

    @pytest.mark.parametrize("corruption, problem", [
        ("no-clock", "has no running delay clock"),
        ("waited-out", "may launch REMOTE"),
    ])
    def test_unsound_fair_refusal_memo_is_caught(self, corruption, problem):
        sim = _sim_with_pending_maps("fair")
        jt, scheduler = sim.jobtracker, sim.scheduler
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        now = jt.engine.now
        # a sound memo: every map-ready job waits, none long enough to
        # launch anywhere
        for job in scheduler.map_ready:
            job.delay_wait_started = now
        scheduler.refusal = (now, jt.sched_version)
        checker.check_now()
        job = scheduler.map_ready[1]
        if corruption == "no-clock":
            job.delay_wait_started = None
        else:
            job.delay_wait_started = now - scheduler.node_delay_s - scheduler.rack_delay_s
        with pytest.raises(
            InvariantViolation, match=f"map-ready job {job.spec.job_id} {problem}"
        ):
            checker.check_now()

    @pytest.mark.parametrize("corruption", ["drop", "add"])
    def test_control_set_drift_is_caught(self, corruption):
        sim, queued = _sim_with_control_traffic()
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=sim.jobtracker)
        checker.check_now()  # the untouched sets equal the DataNode scan
        nn = sim.namenode
        if corruption == "drop":
            node = queued[0]
            nn.datanode(node).control.discard(node)
        else:
            node = next(n for n in nn.cluster.slave_ids if n not in queued)
            nn.datanode(node).control.add(node)
        with pytest.raises(InvariantViolation, match="control set holds"):
            checker.check_now()

    def test_occupied_slot_on_a_pooled_node_is_caught(self):
        sim = _mesoscale_sim()
        jt = sim.jobtracker
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        checker.check_now()
        pooled = min(
            nid for hub in jt.hubs for nid in hub.member_ids if nid not in hub.accurate
        )
        # still inside [0, capacity], so the per-node slot check passes it
        jt.slots.free_map[pooled] -= 1
        with pytest.raises(
            InvariantViolation, match=f"pooled node {pooled} holds occupied slots"
        ):
            checker.check_now()

    @pytest.mark.parametrize("problem", ["has a TaskTracker", "has in-flight attempts"])
    def test_work_on_a_pooled_node_is_caught(self, problem):
        sim = _mesoscale_sim()
        jt = sim.jobtracker
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        checker.check_now()
        hub, pooled = min(
            ((hub, nid) for hub in jt.hubs for nid in hub.member_ids
             if nid not in hub.accurate),
            key=lambda pair: pair[1],
        )
        if problem == "has a TaskTracker":
            # a TaskTracker the hub does not count as promoted
            hub._materialize(pooled)
            hub.accurate.discard(pooled)
        else:
            jt._running_by_node[pooled] = {("job", "map", 0): None}
        with pytest.raises(
            InvariantViolation, match=f"pooled node {pooled} {problem}"
        ):
            checker.check_now()

    def test_pool_audit_reads_only_working_nodes(self, monkeypatch):
        """A full sweep checks pooled members that have work, not each
        of the 1,999 hub members."""
        from repro.mapreduce.slots import SlotStore

        sim, _ = _sparse_mesoscale_sim()
        jt = sim.jobtracker
        members = sum(len(hub.member_ids) for hub in jt.hubs)
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        reads = []
        all_free = SlotStore.all_free

        def spy(self, node_id):
            reads.append(node_id)
            return all_free(self, node_id)

        monkeypatch.setattr(SlotStore, "all_free", spy)
        checker.check_now()
        assert members == 1999
        assert len(reads) * 10 < members

    @pytest.mark.parametrize("corruption, problem", [
        ("occupied", "pooled node {bare} holds occupied slots"),
        ("overflow", "node {bare}: free map slots -1 outside"),
    ], ids=["occupied", "overflow"])
    def test_occupied_slot_on_a_node_without_a_datanode_is_caught(
        self, corruption, problem
    ):
        sim, bare = _sparse_mesoscale_sim()
        jt = sim.jobtracker
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        checker.check_now()
        # the slot and pool audits cover every slave, built DataNode or not
        # (the slot audit runs first: an overflow is reported as one)
        if corruption == "occupied":
            jt.slots.free_map[bare] -= 1
        else:
            jt.slots.free_map[bare] = -1
        with pytest.raises(InvariantViolation, match=problem.format(bare=bare)):
            checker.check_now()

    @pytest.mark.parametrize("corruption, problem", [
        ("DataNode", "node {node}: its DataNode runs on a Node object the cluster does not hold"),
        ("TaskTracker", "node {node}: its TaskTracker runs on a Node object the cluster does not hold"),
        ("unbuilt-dead", "node {node}: listed dead but never built"),
        ("alive-dead", "node {node}: listed dead but alive"),
    ], ids=["datanode", "tracker", "unbuilt-dead", "alive-dead"])
    def test_node_identity_drift_is_caught(self, corruption, problem):
        """A holder on a Node the cluster would not return, or a dead
        slave the node table does not show stopped, fails the sweep."""
        sim, bare = _sparse_mesoscale_sim()
        cluster, jt = sim.cluster, sim.jobtracker
        checker = InvariantChecker(sim.namenode, dare=sim.dare, jobtracker=jt)
        checker.check_now()
        assert cluster.nodes[bare] is None  # no DataNode, never promoted
        node = min(sim.namenode.datanodes)
        if corruption == "DataNode":
            sim.namenode.datanodes[node].node = copy.copy(cluster.node(node))
        elif corruption == "TaskTracker":
            node = bare
            hub = next(h for h in jt.hubs if bare in h.member_ids)
            hub.promote(bare).node = copy.copy(cluster.node(bare))
        elif corruption == "unbuilt-dead":
            node = bare
            cluster.dead_slaves.append(bare)
        else:
            cluster.dead_slaves.append(node)
        with pytest.raises(InvariantViolation, match=re.escape(problem.format(node=node))):
            checker.check_now()

    def test_replica_on_a_node_without_a_datanode_is_caught(self):
        sim, bare = _sparse_mesoscale_sim()
        nn = sim.namenode
        checker = InvariantChecker(nn, dare=sim.dare, jobtracker=sim.jobtracker)
        checker.check_now()
        nn._locations[0].add(bare)  # a replica set naming the bare node
        assert bare not in nn.datanodes
        message = f"NameNode claims block 0 on node {bare}, which has no DataNode"
        with pytest.raises(AssertionError, match=message):
            nn.check_integrity()
        with pytest.raises(InvariantViolation, match=message):
            checker.check_now()

    def test_policy_state_on_a_node_without_a_datanode_is_caught(self):
        sim, bare = _sparse_mesoscale_sim()
        checker = InvariantChecker(
            sim.namenode, dare=sim.dare, jobtracker=sim.jobtracker
        )
        checker.check_now()
        # DARE state that tracks a block on a node that stores nothing
        sim.dare.node_state(bare).policy.add(sim.namenode.blocks[0])
        assert bare not in sim.namenode.datanodes
        with pytest.raises(
            InvariantViolation,
            match=re.escape(
                f"node {bare}: policy tracks blocks [0] with no live dynamic replica"
            ),
        ):
            checker.check_now()
