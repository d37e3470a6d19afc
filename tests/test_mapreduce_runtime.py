"""Unit tests: the task time model."""

import pytest

from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.mapreduce.runtime import TaskTimeModel
from repro.simulation.rng import RandomStreams


@pytest.fixture
def model(small_cluster, loaded_namenode):
    return TaskTimeModel(small_cluster, loaded_namenode, RandomStreams(5).python("tm"))


class TestMapDurations:
    def test_local_map_duration_components(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        node = next(iter(loaded_namenode.locations(blk.block_id)))
        duration, source, cpu = model.map_duration(node, blk, True, map_cpu_s=4.0)
        assert source is None
        read = blk.size_bytes / (model.cluster.node(node).disk_bw_mbps * 1e6)
        assert duration == pytest.approx(model.overhead_s + read + cpu)
        # per-attempt jitter is mild on dedicated hardware
        assert 0.6 * 4.0 < cpu < 1.6 * 4.0

    def test_remote_map_slower_than_local(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        local = next(iter(loaded_namenode.locations(blk.block_id)))
        remote = next(
            nid for nid in loaded_namenode.cluster.slave_ids
            if nid not in loaded_namenode.locations(blk.block_id)
        )
        t_local, _, cpu_l = model.map_duration(local, blk, True, 4.0)
        t_remote, source, cpu_r = model.map_duration(remote, blk, False, 4.0)
        assert source is not None
        # compare the data-path portions (cpu draws differ per attempt)
        assert (t_remote - cpu_r) > (t_local - cpu_l) * 0.9

    def test_remote_source_is_a_replica_holder(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        remote = next(
            nid for nid in loaded_namenode.cluster.slave_ids
            if nid not in loaded_namenode.locations(blk.block_id)
        )
        _, source, _ = model.map_duration(remote, blk, False, 4.0)
        assert source in loaded_namenode.locations(blk.block_id)
        assert source != remote

    def test_no_remote_replica_raises(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        # pretend the destination is the only holder
        loaded_namenode._locations[blk.block_id] = {3}
        with pytest.raises(ValueError, match="no remote replica"):
            model.choose_source(blk, 3)

    def test_contention_slows_local_reads(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        node = next(iter(loaded_namenode.locations(blk.block_id)))
        t1, _, _ = model.map_duration(node, blk, True, 0.0)
        model.cluster.node(node).active_disk_reads = 7
        t2, _, _ = model.map_duration(node, blk, True, 0.0)
        assert t2 > t1 * 3

    def test_source_selection_prefers_less_loaded(self, model, loaded_namenode):
        blk = loaded_namenode.file("hot").blocks[0]
        locs = sorted(loaded_namenode.locations(blk.block_id))
        remote = next(
            nid for nid in loaded_namenode.cluster.slave_ids if nid not in locs
        )
        # load every replica holder except one
        for nid in locs[1:]:
            model.cluster.node(nid).active_net_transfers = 5
        assert model.choose_source(blk, remote) == locs[0]


class TestContentionBookkeeping:
    def test_transfer_counters_balance(self, model):
        model.start_transfer(1, 2)
        assert model.cluster.node(1).active_net_transfers == 1
        assert model.cluster.node(2).active_net_transfers == 1
        model.end_transfer(1, 2)
        assert model.cluster.node(1).active_net_transfers == 0

    def test_disk_counters_balance(self, model):
        model.start_local_read(3)
        assert model.cluster.node(3).active_disk_reads == 1
        model.end_local_read(3)
        assert model.cluster.node(3).active_disk_reads == 0


class TestReduceAndIdeal:
    def test_reduce_duration_positive_and_monotone_in_bytes(self, model):
        small = model.reduce_duration(1, 10**7, 10**7, 2.0)
        large = model.reduce_duration(1, 10**9, 10**9, 2.0)
        assert 0 < small < large

    def test_ideal_map_uses_mean_disk(self, model):
        t = model.ideal_map_seconds(DEFAULT_BLOCK_SIZE, 4.0)
        read = DEFAULT_BLOCK_SIZE / (model.mean_disk_bw * 1e6)
        assert t == pytest.approx(model.overhead_s + read + 4.0)

    def test_ideal_reduce_accounts_for_output_pipeline(self, model):
        no_out = model.ideal_reduce_seconds(10**8, 0, 1.0)
        with_out = model.ideal_reduce_seconds(10**8, 10**8, 1.0)
        assert with_out > no_out

    def test_cpu_scale_multiplies_compute(self, small_cluster, loaded_namenode):
        fast = TaskTimeModel(small_cluster, loaded_namenode, RandomStreams(5).python("a"))
        t_fast = fast.ideal_map_seconds(DEFAULT_BLOCK_SIZE, 4.0)
        small_cluster.spec = small_cluster.spec._replace(cpu_scale=3.0)
        slow = TaskTimeModel(small_cluster, loaded_namenode, RandomStreams(5).python("b"))
        assert slow.ideal_map_seconds(DEFAULT_BLOCK_SIZE, 4.0) == pytest.approx(
            t_fast + 8.0
        )
