"""Unit tests: the DARE replication service (budget + policy + NameNode)."""

import numpy as np
import pytest

from repro.cluster.cluster import scale_spec
from repro.core.budget import ReplicationBudget
from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.experiments.runner import ExperimentConfig, Simulation
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.simulation.rng import RandomStreams
from repro.workloads.swim import synthesize_wl1


def make_service(namenode, config):
    return DareReplicationService(config, namenode, RandomStreams(99))


def remote_node_for(namenode, block):
    return next(
        nid
        for nid in namenode.cluster.slave_ids
        if nid not in namenode.locations(block.block_id)
    )


class TestBudgetSizing:
    def test_capacity_proportional_to_physical_data(self, loaded_namenode):
        nn = loaded_namenode
        cap = ReplicationBudget(0.2).per_node_capacity_bytes(nn)
        physical = sum(f.size_bytes * f.replication for f in nn.files.values())
        assert cap == int(0.2 * physical / len(nn.cluster.slave_ids))

    def test_apply_sets_all_datanodes(self, loaded_namenode):
        cap = ReplicationBudget(0.5).apply(loaded_namenode)
        assert all(
            loaded_namenode.datanode(nid).dynamic_capacity_bytes == cap
            for nid in loaded_namenode.cluster.slave_ids
        )

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            ReplicationBudget(-0.1)

    def test_empty_namespace_zero_capacity(self, namenode):
        assert ReplicationBudget(0.2).per_node_capacity_bytes(namenode) == 0


class TestOffPolicy:
    def test_off_never_replicates(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.off())
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        assert svc.on_map_task(node, blk, data_local=False, now=1.0) is False
        assert svc.total_replications == 0


class TestGreedyService:
    def test_remote_read_creates_replica(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        assert svc.on_map_task(node, blk, data_local=False, now=1.0) is True
        assert loaded_namenode.datanode(node).has_dynamic(blk.block_id)

    def test_local_read_never_replicates(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        blk = loaded_namenode.file("hot").blocks[0]
        local = next(iter(loaded_namenode.locations(blk.block_id)))
        assert svc.on_map_task(local, blk, data_local=True, now=1.0) is False
        assert svc.total_replications == 0

    def test_duplicate_remote_read_skipped(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        svc.on_map_task(node, blk, False, 1.0)
        assert svc.on_map_task(node, blk, False, 1.5) is False
        assert svc.total_replications == 1

    def test_block_larger_than_capacity_never_replicated(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        for nid in loaded_namenode.cluster.slave_ids:
            loaded_namenode.datanode(nid).dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE // 2
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        assert svc.on_map_task(node, blk, False, 1.0) is False

    def test_eviction_makes_room(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        for nid in loaded_namenode.cluster.slave_ids:
            # one-block budget
            loaded_namenode.datanode(nid).dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        hot = loaded_namenode.file("hot").blocks[0]
        cold = loaded_namenode.file("cold").blocks[0]
        node = next(
            nid
            for nid in loaded_namenode.cluster.slave_ids
            if nid not in loaded_namenode.locations(hot.block_id)
            and nid not in loaded_namenode.locations(cold.block_id)
        )
        svc.on_map_task(node, hot, False, 1.0)
        assert svc.on_map_task(node, cold, False, 2.0) is True
        dn = loaded_namenode.datanode(node)
        assert dn.has_dynamic(cold.block_id)
        assert not dn.has_block(hot.block_id)  # evicted
        assert svc.total_evictions() == 1

    def test_abandoned_when_only_same_file_victims(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        for nid in loaded_namenode.cluster.slave_ids:
            loaded_namenode.datanode(nid).dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        blocks = loaded_namenode.file("cold").blocks
        node = next(
            nid
            for nid in loaded_namenode.cluster.slave_ids
            if all(nid not in loaded_namenode.locations(b.block_id) for b in blocks[:2])
        )
        svc.on_map_task(node, blocks[0], False, 1.0)
        # second block of the SAME file: the only victim shares the file
        assert svc.on_map_task(node, blocks[1], False, 2.0) is False
        assert svc.total_abandoned == 1


class TestElephantTrapService:
    def test_p_one_behaves_greedily(self, loaded_namenode):
        cfg = DareConfig.elephant_trap(p=1.0, threshold=1, budget=1.0)
        svc = make_service(loaded_namenode, cfg)
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        assert svc.on_map_task(node, blk, False, 1.0) is True

    def test_p_zero_never_replicates(self, loaded_namenode):
        cfg = DareConfig.elephant_trap(p=0.0, threshold=1, budget=1.0)
        svc = make_service(loaded_namenode, cfg)
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        for _ in range(10):
            assert svc.on_map_task(node, blk, False, 1.0) is False

    def test_local_access_refreshes_tracked_count(self, loaded_namenode):
        cfg = DareConfig.elephant_trap(p=1.0, threshold=1, budget=1.0)
        svc = make_service(loaded_namenode, cfg)
        blk = loaded_namenode.file("hot").blocks[0]
        node = remote_node_for(loaded_namenode, blk)
        svc.on_map_task(node, blk, False, 1.0)
        svc.on_map_task(node, blk, True, 2.0)  # now local: refresh
        assert svc.states[node].policy.access_count(blk.block_id) == 1

    def test_per_node_coin_streams_differ(self, loaded_namenode):
        cfg = DareConfig.elephant_trap(p=0.5, threshold=1, budget=1.0)
        svc = make_service(loaded_namenode, cfg)
        ids = loaded_namenode.cluster.slave_ids[:2]
        seq = {
            nid: [svc.node_state(nid).policy._rng.random() for _ in range(8)]
            for nid in ids
        }
        assert seq[ids[0]] != seq[ids[1]]


class TestLazyNodeState:
    def test_states_are_built_only_on_nodes_that_run_maps(self):
        """A node's policy exists once the node has run a map task, and
        not before: a 2,000-node cell builds about a dozen, not 1,999."""
        config = ExperimentConfig(
            cluster_spec=scale_spec(2000, mesoscale=True),
            scheduler="fair",
            dare=DareConfig.elephant_trap(),
        )
        workload = synthesize_wl1(np.random.default_rng(20110926), n_jobs=10)
        sim = Simulation(config, workload)
        assert not sim.dare.states
        sim.run()
        ran_maps = {r.node_id for r in sim.collector.map_records}
        assert 0 < len(ran_maps) < len(sim.cluster.slave_ids)
        assert set(sim.dare.states) == ran_maps


class TestInvariants:
    def test_piggyback_counter_equals_replications(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=1.0))
        created = 0
        for fname in ("hot", "warm", "cold"):
            for blk in loaded_namenode.file(fname).blocks:
                node = remote_node_for(loaded_namenode, blk)
                if svc.on_map_task(node, blk, False, 1.0):
                    created += 1
        assert svc.replications_piggybacked == created == svc.total_replications

    def test_budget_never_exceeded(self, loaded_namenode):
        svc = make_service(loaded_namenode, DareConfig.greedy_lru(budget=0.3))
        cap = svc.per_node_budget_bytes
        for fname in ("cold", "warm", "hot"):
            for blk in loaded_namenode.file(fname).blocks:
                for node in loaded_namenode.cluster.slave_ids:
                    if not loaded_namenode.datanode(node).has_block(blk.block_id):
                        svc.on_map_task(node, blk, False, 1.0)
        for dn in loaded_namenode.datanodes.values():
            assert dn.dynamic_bytes_used <= cap
