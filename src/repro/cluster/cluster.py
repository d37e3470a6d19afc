"""Cluster assembly: spec + topology + models -> a concrete cluster."""

from __future__ import annotations

from bisect import insort
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

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
from repro.core.config import check_number
from repro.simulation.rng import RandomStreams


#: hard ceiling on a cluster's node count; the simulator is sized (and
#: CI-gated) up to here
MAX_SCALE_NODES = 100_000

#: above this, event-accurate per-node heartbeats are a footgun: tens of
#: millions of heartbeat events per simulated hour.  ``run --nodes``
#: requires the mesoscale opt-in instead of silently grinding
MESOSCALE_FLOOR = 25_000

#: the pairwise network model and the virtualized family's hop detours
#: each hold an N x N matrix (3.2 GB at 20k nodes); a larger cluster needs
#: a dedicated-family spec with ``lite_network``
MAX_PAIRWISE_NODES = 10_000

#: heartbeat interval floor, ten times below the presets' 1 s: a shorter
#: interval spends the engine's event budget on heartbeats
MIN_HEARTBEAT_S = 0.1


class ClusterSpec(NamedTuple):
    """Everything needed to instantiate a cluster deterministically."""

    name: str
    family: str  # DEDICATED or VIRTUALIZED
    n_nodes: int  # master included; at most MAX_SCALE_NODES
    map_slots: int
    reduce_slots: int
    network: NetworkParams
    disk: DiskParams
    heartbeat_s: float  # TaskTracker heartbeat interval, >= MIN_HEARTBEAT_S
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
    #: (required beyond MAX_PAIRWISE_NODES; different draws, so opt-in)
    lite_network: bool = False
    #: per-rack heartbeat hubs instead of per-node heartbeat events, with
    #: idle nodes pooled into them; nodes with tasks, replicas, or control
    #: traffic stay event-accurate
    mesoscale: bool = False

    def validate(self) -> "ClusterSpec":
        """Raise ``ValueError`` naming the first field that cannot build a
        cluster or lets no run end; return self.

        O(1) and builds nothing, so a server can check every submitted
        cell.  ``name`` and ``storage_bytes`` are labels the simulation
        never reads.
        """
        if self.family not in (DEDICATED, VIRTUALIZED):
            raise ValueError(
                f"family must be {DEDICATED!r} or {VIRTUALIZED!r} (got {self.family!r})"
            )
        n = self.n_nodes
        check_number("n_nodes", n, 2, MAX_SCALE_NODES, integer=True)
        if n > MAX_PAIRWISE_NODES and not (self.lite_network and self.family == DEDICATED):
            raise ValueError(
                f"n_nodes above {MAX_PAIRWISE_NODES:,} needs lite_network and the "
                f"{DEDICATED!r} family, whose models hold no N x N matrix (got {n:,})"
            )
        check_number("map_slots", self.map_slots, 1, integer=True)
        check_number("reduce_slots", self.reduce_slots, 1, integer=True)
        check_number("heartbeat_s", self.heartbeat_s, MIN_HEARTBEAT_S)
        check_number("racks_per_agg", self.racks_per_agg, 1, integer=True)
        check_number("dedicated_racks", self.dedicated_racks, 1, n, integer=True)
        check_number("nodes_per_rack_mean", self.nodes_per_rack_mean, 1, n)
        check_number("cpu_scale", self.cpu_scale, 0, above=True)
        check_number("cpu_jitter_sigma", self.cpu_jitter_sigma, 0)
        check_number("cpu_stall_prob", self.cpu_stall_prob, 0, 1)
        stall = self.cpu_stall_range
        if not isinstance(stall, tuple) or len(stall) != 2:
            raise ValueError(f"cpu_stall_range must be (low, high) (got {stall!r})")
        check_number("cpu_stall_range low", stall[0], 1)
        check_number("cpu_stall_range high", stall[1], stall[0])

        net = self.network
        for field in ("jitter_mu", "bw_mean", "degraded_low"):
            check_number(f"network.{field}", getattr(net, field))
        check_number("network.degraded_high", net.degraded_high, net.degraded_low)
        for field in ("per_hop_ms", "jitter_sigma", "stall_mean_ms", "bw_sigma"):
            check_number(f"network.{field}", getattr(net, field), 0)
        for field in ("stall_prob", "degraded_prob"):
            check_number(f"network.{field}", getattr(net, field), 0, 1)
        check_number("network.bw_min", net.bw_min, 0, above=True)
        check_number("network.bw_max", net.bw_max, net.bw_min)
        check_number("network.cross_rack_factor", net.cross_rack_factor, 1)

        disk = self.disk
        if disk.kind not in ("normal", "mixture"):
            raise ValueError(f"disk.kind must be 'normal' or 'mixture' (got {disk.kind!r})")
        for field in ("mean", "burst_mean"):
            check_number(f"disk.{field}", getattr(disk, field))
        for field in ("sigma", "burst_sigma"):
            check_number(f"disk.{field}", getattr(disk, field), 0)
        check_number("disk.lo", disk.lo, 0, above=True)
        check_number("disk.hi", disk.hi, disk.lo)
        check_number("disk.burst_prob", disk.burst_prob, 0, 1)
        return self


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

    Every node's hardware is drawn at construction.  A mesoscale cluster
    builds a slave's :class:`Node` from those draws only when
    :meth:`node` first asks for it (in practice: when it gets a DataNode
    or a TaskTracker, or stops); any other cluster builds every node up
    front.
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
        # every node's disk bandwidth in one call: the same floats as one
        # draw per node (DiskModel.sample_nodes)
        disk_bw = DiskModel(spec.disk, streams.numpy("cluster.disk")).sample_nodes(
            spec.n_nodes
        )
        net_rng = streams.numpy("cluster.node-nics")
        if spec.lite_network:
            # lite model: the node's own sampled line rate, jittered
            nic_bw = self.network._node_bw * net_rng.uniform(
                0.97, 1.03, size=spec.n_nodes
            )
        else:
            # steady per-node NIC capacity: mean of this node's pair
            # bandwidths
            nic_list = []
            for pair_bws in self.network._pair_bw:
                finite = pair_bws[np.isfinite(pair_bws)]
                nic = float(finite.mean()) if finite.size else spec.network.bw_mean
                nic_list.append(nic * float(net_rng.uniform(0.97, 1.03)))
            nic_bw = np.array(nic_list)
        storage = spec.storage_bytes
        master = Node(0, self.topology.rack_of.item(0), disk_bw.item(0),
                      nic_bw.item(0), 0, 0, storage, True)
        #: every node by id, the master first.  A mesoscale cluster holds
        #: None for a slave until :meth:`node` builds it; an unbuilt node
        #: is alive with no contention
        self.nodes: List[Optional[Node]]
        #: (disk, NIC) bandwidth per node id while some node is unbuilt,
        #: else None
        self._columns: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if spec.mesoscale:
            # only nodes that get a DataNode or a TaskTracker are ever
            # built: ~4% of a 100k-node cell's slaves
            self.nodes = [master] + [None] * (spec.n_nodes - 1)
            self._columns = (disk_bw, nic_bw)
        else:
            # every slave gets a TaskTracker at start: build them all now,
            # in one pass (positional Node(node_id, rack, disk_bw_mbps,
            # net_bw_mbps, map_slots, reduce_slots, storage_bytes); keywords
            # cost ~25% more at 100k nodes)
            m, r = spec.map_slots, spec.reduce_slots
            self.nodes = [master]
            self.nodes += [
                Node(i, rack, disk, nic, m, r, storage)
                for i, rack, disk, nic in zip(
                    range(1, spec.n_nodes),
                    self.topology.rack_of[1:].tolist(),
                    disk_bw[1:].tolist(),
                    nic_bw[1:].tolist(),
                )
            ]
        #: ascending ids of the stopped slaves (see :meth:`stop_node`)
        self.dead_slaves: List[int] = []

    # -- convenience -------------------------------------------------------

    @property
    def master(self) -> Node:
        """The master node (NameNode + JobTracker)."""
        return self.nodes[0]

    @property
    def slaves(self) -> List[Node]:
        """All worker nodes (DataNode + TaskTracker), every one built."""
        if self._columns is not None:
            self._build_all()
        return self.nodes[1:]

    @property
    def slave_ids(self) -> List[int]:
        """Node ids of the workers."""
        if self._columns is None:  # every node built: share their id ints
            return [n.node_id for n in self.nodes[1:]]
        return list(range(1, self.spec.n_nodes))

    @property
    def n_slaves(self) -> int:
        """Worker count."""
        return self.spec.n_nodes - 1

    @cached_property
    def slaves_by_rack(self) -> Dict[int, List[int]]:
        """Worker ids grouped by rack: racks and ids both ascending.

        Built once and shared, not copied, by the default placement
        policy and the mesoscale rack hubs.
        """
        racks = self.topology.rack_of[1:]
        order = np.argsort(racks, kind="stable")  # ids ascending per rack
        ranked = racks[order]
        ids = (order + 1).tolist()
        bounds = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(ids)]
        return {
            rack: ids[lo:hi]
            for rack, lo, hi in zip(ranked[bounds[:-1]].tolist(), bounds, bounds[1:])
        }

    @property
    def total_map_slots(self) -> int:
        """Cluster-wide map slot count."""
        return self.n_slaves * self.spec.map_slots

    @property
    def total_reduce_slots(self) -> int:
        """Cluster-wide reduce slot count."""
        return self.n_slaves * self.spec.reduce_slots

    def slave_bandwidths(self) -> Tuple[List[float], List[float]]:
        """Every slave's disk and NIC bandwidth (MB/s) in id order; builds
        no node."""
        if self._columns is None:
            slaves = self.nodes[1:]
            return [n.disk_bw_mbps for n in slaves], [n.net_bw_mbps for n in slaves]
        disk_bw, nic_bw = self._columns
        return disk_bw[1:].tolist(), nic_bw[1:].tolist()

    def node(self, node_id: int) -> Node:
        """Node by id; a mesoscale cluster builds it on first use.

        Raises ``IndexError`` naming an id outside ``[0, n_nodes)``.
        """
        if node_id >= 0:
            try:
                node = self.nodes[node_id]
            except IndexError:
                pass
            else:
                return node if node is not None else self._build(node_id)
        raise IndexError(
            f"node id {node_id} is outside [0, {self.spec.n_nodes}) "
            f"({self.spec.name!r} has {self.spec.n_nodes} nodes)"
        )

    def _build(self, node_id: int) -> Node:
        """Build slave ``node_id`` from its set-up draws."""
        spec = self.spec
        disk_bw, nic_bw = self._columns
        node = self.nodes[node_id] = Node(
            node_id,
            self.topology.rack_of.item(node_id),
            disk_bw.item(node_id),
            nic_bw.item(node_id),
            spec.map_slots,
            spec.reduce_slots,
            spec.storage_bytes,
        )
        return node

    def _build_all(self) -> None:
        """Build every unbuilt slave; the set-up draws go."""
        nodes = self.nodes
        for node_id in range(1, len(nodes)):
            if nodes[node_id] is None:
                self._build(node_id)
        self._columns = None

    def stop_node(self, node_id: int) -> None:
        """A slave's machine stops: the one writer of ``Node.alive = False``
        and of :attr:`dead_slaves`, which it keeps ascending.  An unbuilt
        node is built first, so ``Node.alive`` stays the one record."""
        self.node(node_id).alive = False
        insort(self.dead_slaves, node_id)

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
    heartbeat_s: float = 3.0,
    name: Optional[str] = None,
) -> ClusterSpec:
    """A dedicated-family spec sized for 10k-100k-node scale runs.

    Uses the CCT hardware models with the O(N) lite network path and
    ~40-node racks (production-like striping).  ``mesoscale`` replaces
    the per-node heartbeat chains with rack hubs that pool idle nodes.
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
        mesoscale=mesoscale,
    )
