"""Unit tests: NameNode metadata, placement, and heartbeat control plane."""

import numpy as np
import pytest

from repro.cluster.cluster import scale_spec
from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, Simulation
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.namenode import NameNode
from repro.hdfs.protocol import DNA_DYNREPL, DatanodeCommand
from repro.metrics.placement import popularity_indices
from repro.workloads.swim import synthesize_wl1


class TestNamespace:
    def test_create_file_allocates_blocks(self, namenode):
        f = namenode.create_file("a", 3 * DEFAULT_BLOCK_SIZE)
        assert f.n_blocks == 3
        assert namenode.file("a") is f

    def test_duplicate_name_rejected(self, namenode):
        namenode.create_file("a", DEFAULT_BLOCK_SIZE)
        with pytest.raises(ValueError):
            namenode.create_file("a", DEFAULT_BLOCK_SIZE)

    def test_missing_file_raises(self, namenode):
        with pytest.raises(FileNotFoundError):
            namenode.file("ghost")

    def test_block_ids_globally_unique(self, namenode):
        a = namenode.create_file("a", 2 * DEFAULT_BLOCK_SIZE)
        b = namenode.create_file("b", 2 * DEFAULT_BLOCK_SIZE)
        ids = [blk.block_id for blk in a.blocks + b.blocks]
        assert len(set(ids)) == 4

    def test_total_dataset_bytes(self, loaded_namenode):
        assert loaded_namenode.total_dataset_bytes == 10 * DEFAULT_BLOCK_SIZE


class TestInitialPlacement:
    def test_each_block_gets_rf_replicas(self, namenode):
        f = namenode.create_file("a", 4 * DEFAULT_BLOCK_SIZE, replication=3)
        for blk in f.blocks:
            assert namenode.replica_count(blk.block_id) == 3

    def test_replicas_on_distinct_slaves(self, namenode):
        f = namenode.create_file("a", 4 * DEFAULT_BLOCK_SIZE, replication=3)
        for blk in f.blocks:
            locs = namenode.locations(blk.block_id)
            assert len(locs) == len(set(locs))
            assert all(namenode.cluster.nodes[n].is_master is False for n in locs)

    def test_datanodes_actually_store_replicas(self, namenode):
        f = namenode.create_file("a", 2 * DEFAULT_BLOCK_SIZE, replication=2)
        for blk in f.blocks:
            for node_id in namenode.locations(blk.block_id):
                assert namenode.datanode(node_id).has_block(blk.block_id)

    def test_rf_capped_at_slave_count(self, namenode):
        f = namenode.create_file("a", DEFAULT_BLOCK_SIZE, replication=100)
        assert namenode.replica_count(f.blocks[0].block_id) == len(
            namenode.cluster.slave_ids
        )

    def test_is_local(self, namenode):
        f = namenode.create_file("a", DEFAULT_BLOCK_SIZE)
        bid = f.blocks[0].block_id
        loc = next(iter(namenode.locations(bid)))
        assert namenode.is_local(bid, loc)


class TestHeartbeatControlPlane:
    def test_dynrepl_becomes_visible_on_heartbeat(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        dn.insert_dynamic(blk, now=1.0)
        # not visible until the heartbeat delivers the DNA_DYNREPL
        assert outsider not in nn.locations(blk.block_id)
        nn.process_heartbeat(outsider, now=2.0)
        assert outsider in nn.locations(blk.block_id)

    def test_invalidate_removes_from_view(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        dn.insert_dynamic(blk, 1.0)
        nn.process_heartbeat(outsider, 2.0)
        dn.mark_for_deletion(blk.block_id, 3.0)
        nn.process_heartbeat(outsider, 4.0)
        assert outsider not in nn.locations(blk.block_id)
        assert blk.block_id not in dn.dynamic_blocks  # physically dropped

    def test_control_set_tracks_queued_traffic(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        queued = nn.control_by_rack[nn._rack_of[outsider]]
        assert dn.control is queued and outsider not in queued
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        dn.insert_dynamic(blk, 1.0)
        assert outsider in queued
        nn.process_heartbeat(outsider, 2.0)
        assert outsider not in queued
        dn.mark_for_deletion(blk.block_id, 3.0)
        assert outsider in queued
        nn.fail_node(outsider)  # a dead node's queued messages are dropped
        assert outsider not in queued

    def test_command_log_records_applied_messages(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        dn.insert_dynamic(blk, 1.0)
        cmds = nn.process_heartbeat(outsider, 2.0)
        assert [(c.op, c.block_id) for c in cmds] == [(DNA_DYNREPL, blk.block_id)]
        assert outsider in nn.locations(blk.block_id)
        assert nn.process_heartbeat(outsider, 3.0) == []  # the outbox drained

    def test_replica_version_counts_every_replica_change(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        version = nn.replica_version
        dn.insert_dynamic(blk, 1.0)
        assert nn.replica_version == version  # announced, not yet applied
        nn.process_heartbeat(outsider, 2.0)
        assert nn.replica_version == version + 1
        dn.mark_for_deletion(blk.block_id, 3.0)
        nn.process_heartbeat(outsider, 4.0)
        assert nn.replica_version == version + 2
        # changes made outside any heartbeat: a landed copy, Scarlett's aging
        nn.add_repaired_replica(blk.block_id, outsider)
        assert nn.replica_version == version + 3
        nn._locations[blk.block_id].add(outsider)  # already there: no change
        assert nn.replica_version == version + 3
        assert nn.remove_static_replica(blk.block_id, outsider)
        assert nn.replica_version == version + 4
        assert outsider not in nn.locations(blk.block_id)
        assert not nn.remove_static_replica(blk.block_id, outsider)  # gone already
        assert nn.replica_version == version + 4
        nn.check_integrity()

    def test_heartbeat_with_empty_outbox_is_noop(self, loaded_namenode):
        before = dict(loaded_namenode._locations)
        loaded_namenode.process_heartbeat(1, now=1.0)
        assert loaded_namenode._locations == before

    def test_integrity_check_passes_on_fresh_namespace(self, loaded_namenode):
        loaded_namenode.check_integrity()

    def test_integrity_check_detects_phantom_replica(self, loaded_namenode):
        nn = loaded_namenode
        blk = nn.file("hot").blocks[0]
        phantom = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        nn._locations[blk.block_id].add(phantom)
        with pytest.raises(AssertionError, match="does not store"):
            nn.check_integrity()


class TestIntegrityExemptions:
    """Each way ``check_integrity`` excuses a lagging view, and each way
    it refuses one, pinned one state at a time."""

    @staticmethod
    def _dynamic_replica(nn, announced):
        """A dynamic replica of a "hot" block on a node without a static
        one, its DNA_DYNREPL applied (``announced``) or still queued."""
        blk = nn.file("hot").blocks[0]
        outsider = next(
            nid for nid in nn.cluster.slave_ids if nid not in nn.locations(blk.block_id)
        )
        dn = nn.datanode(outsider)
        dn.dynamic_capacity_bytes = DEFAULT_BLOCK_SIZE
        dn.insert_dynamic(blk, now=1.0)
        if announced:
            nn.process_heartbeat(outsider, now=2.0)
        return blk.block_id, outsider, dn

    def test_claim_excused_by_a_queued_invalidate(self, loaded_namenode):
        nn = loaded_namenode
        bid, node, dn = self._dynamic_replica(nn, announced=True)
        dn.mark_for_deletion(bid, 3.0)
        dn.complete_deletions()  # dropped before the heartbeat reports it
        assert not dn.has_block(bid) and bid not in dn.pending_deletion
        assert node in nn.locations(bid)
        nn.check_integrity()
        dn.outbox.clear()  # without the queued DNA_INVALIDATE: refused
        with pytest.raises(AssertionError, match="does not store"):
            nn.check_integrity()

    def test_claim_excused_by_a_pending_deletion(self, loaded_namenode):
        nn = loaded_namenode
        bid, node, dn = self._dynamic_replica(nn, announced=True)
        dn.mark_for_deletion(bid, 3.0)
        dn.outbox.clear()  # only the pending deletion is left to excuse it
        assert not dn.has_block(bid) and bid in dn.pending_deletion
        nn.check_integrity()
        dn.complete_deletions()  # dropped, and nothing queued: refused
        with pytest.raises(AssertionError, match="does not store"):
            nn.check_integrity()

    def test_stored_block_unknown_to_the_namenode(self, loaded_namenode):
        nn = loaded_namenode
        bid, node, dn = self._dynamic_replica(nn, announced=True)
        nn.locations(bid).discard(node)
        with pytest.raises(AssertionError, match="unknown to the NameNode"):
            nn.check_integrity()

    def test_stored_block_excused_by_a_queued_dynrepl(self, loaded_namenode):
        nn = loaded_namenode
        bid, node, dn = self._dynamic_replica(nn, announced=False)
        assert node not in nn.locations(bid)
        nn.check_integrity()
        dn.outbox.clear()  # the announcement lost: refused
        with pytest.raises(AssertionError, match="unknown to the NameNode"):
            nn.check_integrity()


class TestProtocolValidation:
    def test_unknown_op_rejected(self):
        cmd = DatanodeCommand("DNA_WHATEVER", 1, 2, 0.0)
        with pytest.raises(ValueError):
            cmd.validate()

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            DatanodeCommand(DNA_DYNREPL, -1, 2, 0.0).validate()

    def test_constructors(self):
        a = DatanodeCommand.dynrepl(1, 2, 3.0)
        b = DatanodeCommand.invalidate(1, 2, 3.0)
        a.validate()
        b.validate()
        assert a.op != b.op


class TestDataNodesOnFirstUse:
    def test_a_fresh_namenode_builds_none(self, namenode):
        assert namenode.datanodes == {}

    def test_datanode_builds_on_first_use(self, small_cluster):
        nn = NameNode(small_cluster)
        nn.dynamic_capacity_bytes = 5 * DEFAULT_BLOCK_SIZE
        dn = nn.datanode(3)
        assert nn.datanodes == {3: dn}
        assert nn.datanode(3) is dn
        assert dn.node is small_cluster.node(3)
        assert dn.control is nn.control_by_rack[nn._rack_of[3]]
        assert dn.dynamic_capacity_bytes == 5 * DEFAULT_BLOCK_SIZE
        assert dn.tracer is nn.tracer

    @pytest.mark.parametrize("node_id", [0, -1, 8, 100])
    def test_master_and_out_of_range_ids_are_refused(self, namenode, node_id):
        with pytest.raises(KeyError):
            namenode.datanode(node_id)
        assert namenode.datanodes == {}

    def test_read_only_paths_build_nothing(self, namenode):
        namenode.flush_all_heartbeats(1.0)
        namenode.check_integrity()
        # every slave still has a (zero) popularity index
        assert popularity_indices(namenode, {}).tolist() == [0.0] * 7
        assert namenode.datanodes == {}

    def test_writers_build_their_target_only(self, namenode):
        f = namenode.create_file("a", DEFAULT_BLOCK_SIZE, replication=2)
        holders = set(namenode.locations(f.blocks[0].block_id))
        assert set(namenode.datanodes) == holders
        outsider = min(set(namenode.cluster.slave_ids) - holders)
        namenode.add_repaired_replica(f.blocks[0].block_id, outsider)
        assert set(namenode.datanodes) == holders | {outsider}
        namenode.check_integrity()

    def test_mesoscale_cell_builds_datanodes_where_blocks_or_maps_are(self):
        # 2,000 nodes, Fair + ElephantTrap, WL1 x 10: ~200 slaves hold no
        # block and run no map, and get no DataNode
        sim = Simulation(
            ExperimentConfig(
                cluster_spec=scale_spec(2000, mesoscale=True),
                scheduler="fair",
                dare=DareConfig.elephant_trap(),
                seed=1,
            ),
            synthesize_wl1(np.random.default_rng(20110926), n_jobs=10),
        )
        sim.run()
        sim.finalize()
        nn = sim.namenode
        holders = {n for locs in nn._locations.values() for n in locs}
        ran_maps = {r.node_id for r in sim.collector.map_records}
        assert ran_maps
        assert set(nn.datanodes) == holders | ran_maps
        assert len(nn.datanodes) < sim.cluster.n_slaves
