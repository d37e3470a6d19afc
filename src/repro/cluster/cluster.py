"""Cluster assembly: spec + topology + models -> a concrete cluster."""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Optional

import numpy as np

from repro.cluster.disk import CCT_DISK, EC2_DISK, DiskModel, DiskParams
from repro.cluster.network import (
    CCT_NETWORK,
    EC2_NETWORK,
    NetworkModel,
    NetworkParams,
)
from repro.cluster.node import Node
from repro.cluster.topology import DEDICATED, VIRTUALIZED, Topology
from repro.simulation.rng import RandomStreams


class ClusterSpec(NamedTuple):
    """Everything needed to instantiate a cluster deterministically."""

    name: str
    family: str  # DEDICATED or VIRTUALIZED
    n_nodes: int  # master included
    map_slots: int
    reduce_slots: int
    network: NetworkParams
    disk: DiskParams
    heartbeat_s: float  # TaskTracker heartbeat interval
    storage_bytes: int  # per-node HDFS capacity
    racks_per_agg: int = 4
    nodes_per_rack_mean: float = 2.0
    #: relative CPU slowness of a node (m1.small ~2.5x a CCT core)
    cpu_scale: float = 1.0
    #: rack count for dedicated clusters (CCT is single-rack)
    dedicated_racks: int = 1
    #: per-attempt CPU jitter: sigma of a lognormal multiplier
    cpu_jitter_sigma: float = 0.08
    #: probability an attempt hits a processor-sharing stall (virtualized)
    cpu_stall_prob: float = 0.0
    #: stall magnitude: uniform multiplier range
    cpu_stall_range: tuple = (2.0, 5.0)
    #: O(N) per-node network model instead of the O(N^2) pairwise matrix
    #: (required beyond ~10k nodes; different draws, so opt-in)
    lite_network: bool = False
    #: per-rack batched heartbeat hubs instead of per-node heartbeat events
    hb_batch: bool = False
    #: pool idle nodes into aggregate rack actors (implies hb_batch);
    #: nodes with tasks, replicas, or control traffic stay event-accurate
    mesoscale: bool = False


#: the Illinois Cloud Computing Testbed cluster of the paper:
#: 1 master + 19 slaves, single rack, Hadoop-default 2 map / 2 reduce slots.
#: Hadoop 0.21 heartbeats sub-second on small clusters; we use 1 s (the
#: Fair scheduler's delay is 1.5 heartbeats, Hadoop's default ratio).
CCT_SPEC = ClusterSpec(
    name="cct",
    family=DEDICATED,
    n_nodes=20,
    map_slots=2,
    reduce_slots=2,
    network=CCT_NETWORK,
    disk=CCT_DISK,
    heartbeat_s=1.0,
    storage_bytes=2 * 10**12,
)

#: the EC2 cluster of the paper: 1 master + 99 slaves, m1.small instances
#: (1 virtual core -> 2 map / 1 reduce slots), scattered over racks.
EC2_SPEC = ClusterSpec(
    name="ec2",
    family=VIRTUALIZED,
    n_nodes=100,
    map_slots=2,
    reduce_slots=1,
    network=EC2_NETWORK,
    disk=EC2_DISK,
    heartbeat_s=1.0,
    storage_bytes=160 * 10**9,
    racks_per_agg=12,
    cpu_scale=2.5,
    cpu_jitter_sigma=0.25,
    cpu_stall_prob=0.04,
    cpu_stall_range=(3.0, 10.0),
)


class Cluster:
    """A concrete cluster: nodes + topology + network/disk models.

    Node 0 is the master (NameNode + JobTracker host) and runs no tasks and
    stores no blocks, mirroring the paper's "1 master, N-1 slaves" setups.
    """

    def __init__(self, spec: ClusterSpec, streams: RandomStreams) -> None:
        self.spec = spec
        self.streams = streams
        topo_rng = streams.numpy("cluster.topology")
        self.topology = Topology(
            spec.family,
            spec.n_nodes,
            topo_rng,
            racks_per_agg=spec.racks_per_agg,
            nodes_per_rack_mean=spec.nodes_per_rack_mean,
            dedicated_racks=spec.dedicated_racks,
        )
        self.network = NetworkModel(
            self.topology,
            spec.network,
            streams.numpy("cluster.network"),
            lite=spec.lite_network,
        )
        disk_model = DiskModel(spec.disk, streams.numpy("cluster.disk"))
        net_rng = streams.numpy("cluster.node-nics")
        nic_jitter = (
            net_rng.uniform(0.97, 1.03, size=spec.n_nodes)
            if spec.lite_network
            else None
        )
        self.nodes: List[Node] = []
        for i in range(spec.n_nodes):
            is_master = i == 0
            if nic_jitter is not None:
                # lite model: the node's own sampled line rate, jittered
                nic = float(self.network.node_bw(i)) * float(nic_jitter[i])
            else:
                # steady per-node NIC capacity: mean of this node's pair
                # bandwidths
                pair_bws = self.network._pair_bw[i]
                finite = pair_bws[np.isfinite(pair_bws)]
                nic = float(finite.mean()) if finite.size else spec.network.bw_mean
                nic *= float(net_rng.uniform(0.97, 1.03))
            self.nodes.append(
                Node(
                    node_id=i,
                    rack=int(self.topology.rack_of[i]),
                    disk_bw_mbps=disk_model.sample(),
                    net_bw_mbps=nic,
                    map_slots=0 if is_master else spec.map_slots,
                    reduce_slots=0 if is_master else spec.reduce_slots,
                    storage_bytes=spec.storage_bytes,
                    is_master=is_master,
                )
            )

    # -- convenience -------------------------------------------------------

    @property
    def master(self) -> Node:
        """The master node (NameNode + JobTracker)."""
        return self.nodes[0]

    @property
    def slaves(self) -> List[Node]:
        """All worker nodes (DataNode + TaskTracker)."""
        return self.nodes[1:]

    @property
    def slave_ids(self) -> List[int]:
        """Node ids of the workers."""
        return [n.node_id for n in self.slaves]

    # node slot counts never change after __init__: sum them once (the
    # slowdown metric reads both totals once per job)
    @cached_property
    def total_map_slots(self) -> int:
        """Cluster-wide map slot count."""
        return sum(n.map_slots for n in self.slaves)

    @cached_property
    def total_reduce_slots(self) -> int:
        """Cluster-wide reduce slot count."""
        return sum(n.reduce_slots for n in self.slaves)

    def node(self, node_id: int) -> Node:
        """Node by id."""
        return self.nodes[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {self.spec.name!r} {self.spec.n_nodes} nodes, "
            f"{self.topology.n_racks} racks>"
        )


def build_cluster(spec: ClusterSpec, seed: int = 20110926) -> Cluster:
    """Build a cluster from a spec with a fresh seeded stream factory."""
    return Cluster(spec, RandomStreams(seed))


#: nodes striped per rack in scale specs (a typical production rack row)
SCALE_NODES_PER_RACK = 40


def scale_spec(
    n_nodes: int,
    *,
    mesoscale: bool = False,
    hb_batch: Optional[bool] = None,
    heartbeat_s: float = 3.0,
    name: Optional[str] = None,
) -> ClusterSpec:
    """A dedicated-family spec sized for 10k-100k-node scale runs.

    Uses the CCT hardware models with the O(N) lite network path and
    ~40-node racks (production-like striping).  ``mesoscale`` pools idle
    nodes into rack hubs; ``hb_batch`` (default: follows ``mesoscale``)
    batches heartbeats while keeping every node event-accurate.
    """
    if n_nodes < 2:
        raise ValueError("scale spec needs a master and at least one slave")
    return ClusterSpec(
        name=name or f"scale{n_nodes}",
        family=DEDICATED,
        n_nodes=n_nodes,
        map_slots=2,
        reduce_slots=2,
        network=CCT_NETWORK,
        disk=CCT_DISK,
        heartbeat_s=heartbeat_s,
        storage_bytes=2 * 10**12,
        dedicated_racks=max(1, n_nodes // SCALE_NODES_PER_RACK),
        lite_network=True,
        hb_batch=mesoscale if hb_batch is None else hb_batch,
        mesoscale=mesoscale,
    )
