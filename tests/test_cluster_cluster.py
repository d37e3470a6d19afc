"""Unit tests: cluster assembly and the measurement probes."""

import random

import numpy as np
import pytest

from repro.cluster.cluster import CCT_SPEC, EC2_SPEC, build_cluster, scale_spec
from repro.cluster.disk import DiskModel
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.probes import (
    SummaryStats,
    bandwidth_ratio,
    measure_disk_bandwidth,
    measure_network_bandwidth,
    ping_all_pairs,
    probe_report,
    traceroute_hop_histogram,
)
from repro.cluster.topology import Topology
from repro.simulation.rng import RandomStreams


class TestNode:
    def test_effective_bandwidths_fair_share(self):
        n = Node(1, 0, disk_bw_mbps=100.0, net_bw_mbps=50.0)
        assert n.effective_disk_bw() == 100.0
        n.active_disk_reads = 4
        assert n.effective_disk_bw() == 25.0
        n.active_net_transfers = 2
        assert n.effective_net_bw() == 25.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Node(1, 0, disk_bw_mbps=0.0, net_bw_mbps=50.0)

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            Node(1, 0, 100.0, 50.0, map_slots=-1)


def _nodes_drawn_one_at_a_time(spec, seed):
    """Oracle: the cluster's nodes as built by a loop with one disk draw,
    one NIC rate and one rack lookup per node."""
    streams = RandomStreams(seed)
    topology = Topology(
        spec.family,
        spec.n_nodes,
        streams.numpy("cluster.topology"),
        racks_per_agg=spec.racks_per_agg,
        nodes_per_rack_mean=spec.nodes_per_rack_mean,
        dedicated_racks=spec.dedicated_racks,
    )
    network = NetworkModel(
        topology, spec.network, streams.numpy("cluster.network"), lite=spec.lite_network
    )
    disk_model = DiskModel(spec.disk, streams.numpy("cluster.disk"))
    net_rng = streams.numpy("cluster.node-nics")
    nic_jitter = (
        net_rng.uniform(0.97, 1.03, size=spec.n_nodes) if spec.lite_network else None
    )
    nodes = []
    for i in range(spec.n_nodes):
        is_master = i == 0
        if nic_jitter is not None:
            nic = float(network.node_bw(i)) * float(nic_jitter[i])
        else:
            pair_bws = network._pair_bw[i]
            finite = pair_bws[np.isfinite(pair_bws)]
            nic = float(finite.mean()) if finite.size else spec.network.bw_mean
            nic *= float(net_rng.uniform(0.97, 1.03))
        nodes.append(
            Node(
                node_id=i,
                rack=int(topology.rack_of[i]),
                disk_bw_mbps=disk_model.sample(),
                net_bw_mbps=nic,
                map_slots=0 if is_master else spec.map_slots,
                reduce_slots=0 if is_master else spec.reduce_slots,
                storage_bytes=spec.storage_bytes,
                is_master=is_master,
            )
        )
    return nodes


def _bits(value):
    """A node attribute with its type, floats as their exact bits."""
    return type(value), value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("spec", [
    CCT_SPEC,
    EC2_SPEC,
    scale_spec(1000),
    scale_spec(2000, mesoscale=True),
], ids=["cct", "ec2", "scale1000", "scale2000-meso"])
@pytest.mark.parametrize("seed", [1, 20110926])
def test_bulk_draws_build_the_same_nodes(spec, seed):
    """Every node read through ``Cluster.node`` in shuffled order (a
    mesoscale cluster builds each then, after its draws) equals the
    per-node-draw oracle bit for bit."""
    cluster = build_cluster(spec, seed=seed)
    oracle = _nodes_drawn_one_at_a_time(spec, seed)
    assert len(cluster.nodes) == len(oracle) == spec.n_nodes
    order = list(range(spec.n_nodes))
    random.Random(seed).shuffle(order)
    for node_id in order:
        got = cluster.node(node_id)
        for attr in Node.__slots__:
            assert _bits(getattr(got, attr)) == _bits(getattr(oracle[node_id], attr)), (
                node_id, attr
            )
    assert cluster.slaves == cluster.nodes[1:]


@pytest.mark.parametrize("spec", [CCT_SPEC, EC2_SPEC, scale_spec(1000, mesoscale=True)],
                         ids=["cct", "ec2", "scale1000-meso"])
def test_grouping_and_bandwidth_sums_build_no_node(spec):
    """``slaves_by_rack`` and ``slave_bandwidths`` read the set-up draws:
    the same groups and floats as a walk over the built nodes."""
    cluster = build_cluster(spec, seed=3)
    by_rack = cluster.slaves_by_rack
    disk_bw, net_bw = cluster.slave_bandwidths()
    if spec.mesoscale:
        assert cluster.nodes[1:] == [None] * cluster.n_slaves
    oracle = {}
    for node in cluster.slaves:
        oracle.setdefault(node.rack, []).append(node.node_id)
    assert list(by_rack.items()) == sorted(oracle.items())
    assert disk_bw == [n.disk_bw_mbps for n in cluster.slaves]
    assert net_bw == [n.net_bw_mbps for n in cluster.slaves]


class TestClusterAssembly:
    def test_master_is_node_zero_with_no_slots(self, small_cluster):
        assert small_cluster.master.node_id == 0
        assert small_cluster.master.map_slots == 0
        assert small_cluster.master.reduce_slots == 0

    def test_slaves_have_spec_slots(self, small_cluster):
        for n in small_cluster.slaves:
            assert n.map_slots == small_cluster.spec.map_slots
            assert n.reduce_slots == small_cluster.spec.reduce_slots

    def test_total_slots(self, small_cluster):
        n_slaves = len(small_cluster.slaves)
        assert small_cluster.total_map_slots == n_slaves * small_cluster.spec.map_slots

    @pytest.mark.parametrize("spec", [CCT_SPEC, scale_spec(40, mesoscale=True)],
                             ids=["cct", "meso"])
    def test_node_refuses_an_id_outside_the_cluster(self, spec):
        """A negative id used to index from the end (``node(-1)`` was the
        last slave); a lazy cluster would file a bogus node there."""
        cluster = build_cluster(spec)
        n = spec.n_nodes
        for node_id in (-1, -n, n, n + 5):
            with pytest.raises(IndexError, match=rf"node id {node_id} is outside \[0, {n}\)"):
                cluster.node(node_id)
            with pytest.raises(IndexError, match=f"node id {node_id} "):
                cluster.stop_node(node_id)
        assert cluster.dead_slaves == []
        assert all(n is None for n in cluster.nodes[1:]) == spec.mesoscale

    def test_mesoscale_cluster_builds_a_node_on_first_use(self):
        cluster = build_cluster(scale_spec(200, mesoscale=True))
        assert cluster.master.is_master and cluster.nodes[0] is cluster.master
        assert cluster.nodes[1:] == [None] * 199
        node = cluster.node(5)
        assert cluster.node(5) is node and cluster.nodes[5] is node
        assert [i for i, n in enumerate(cluster.nodes) if n is not None] == [0, 5]
        cluster.stop_node(7)  # stopping builds the node it stops
        assert cluster.nodes[7] is not None and not cluster.nodes[7].alive
        assert cluster.dead_slaves == [7]
        assert cluster.slave_ids == list(range(1, 200))
        assert cluster.total_map_slots == 199 * cluster.spec.map_slots
        slaves = cluster.slaves  # builds the rest
        assert None not in cluster.nodes and slaves[4] is node
        assert [n.alive for n in slaves].count(False) == 1

    def test_build_cluster_deterministic(self):
        a = build_cluster(CCT_SPEC, seed=5)
        b = build_cluster(CCT_SPEC, seed=5)
        assert [n.disk_bw_mbps for n in a.nodes] == [n.disk_bw_mbps for n in b.nodes]

    def test_ec2_spec_has_scattered_topology(self):
        c = build_cluster(EC2_SPEC)
        assert c.topology.n_racks > 10


class TestProbes:
    def test_summary_stats_of(self):
        s = SummaryStats.of(np.array([1.0, 2.0, 3.0]))
        assert s.min == 1.0 and s.max == 3.0
        assert s.mean == pytest.approx(2.0)

    def test_summary_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            SummaryStats.of(np.array([]))

    def test_ping_matches_table1_cct(self):
        stats = ping_all_pairs(build_cluster(CCT_SPEC))
        assert 0.10 < stats.mean < 0.30  # paper: 0.18 ms

    def test_disk_probe_matches_table2(self):
        stats = measure_disk_bandwidth(build_cluster(CCT_SPEC))
        assert 150 < stats.mean < 165  # paper: 157.8 MB/s

    def test_network_probe_matches_table2(self):
        stats = measure_network_bandwidth(build_cluster(CCT_SPEC))
        assert 116 < stats.mean < 119  # paper: 117.7 MB/s

    def test_bandwidth_ratio_higher_on_dedicated(self):
        # Section II-B's key insight
        cct = bandwidth_ratio(build_cluster(CCT_SPEC))
        ec2 = bandwidth_ratio(build_cluster(EC2_SPEC._replace(n_nodes=20)))
        assert cct > ec2

    def test_hop_histogram_fig1_mode(self):
        hist = traceroute_hop_histogram(build_cluster(EC2_SPEC._replace(n_nodes=20)))
        assert int(np.argmax(hist)) in (3, 4, 5)

    def test_probe_report_keys(self):
        report = probe_report(build_cluster(CCT_SPEC))
        assert set(report) == {"rtt_ms", "disk_bw_mbps", "net_bw_mbps"}

    def test_stats_row_formatting(self):
        s = SummaryStats.of(np.array([1.0, 2.0]))
        row = s.row("label", "ms")
        assert "label" in row and "ms" in row
