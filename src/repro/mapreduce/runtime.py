"""Task time model: how long map and reduce tasks take.

The model captures the data-path costs that make locality matter:

* a **data-local map** streams its block from the local disk at the node's
  (contention-shared) disk bandwidth;
* a **remote map** streams the block from a replica holder at the
  (contention-shared) pairwise network bandwidth, bounded by the source
  disk, plus an RTT of connection setup — this is the read DARE piggybacks
  on;
* a **reduce** pulls its shuffle partition across the network, computes,
  and writes job output through the HDFS pipeline (one local write plus
  ``rf - 1`` network copies).

Contention is a fair-share approximation: transfer durations are fixed at
start using the current number of concurrent flows/reads on the involved
nodes (a standard trick that avoids re-timing in-flight transfers while
still penalizing hotspots — precise flow-level max-min sharing is not
needed for the paper's comparative results).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.hdfs.block import Block
from repro.hdfs.namenode import NameNode

#: fixed per-task overhead (JVM spawn, split bookkeeping), seconds
TASK_OVERHEAD_S = 1.0
#: replication factor of job output files written by reduces
OUTPUT_REPLICATION = 3


class TaskTimeModel:
    """Computes task durations and manages contention counters."""

    def __init__(
        self,
        cluster: Cluster,
        namenode: NameNode,
        rng: random.Random,
        overhead_s: float = TASK_OVERHEAD_S,
    ) -> None:
        self.cluster = cluster
        self.namenode = namenode
        self._rng = rng
        self.overhead_s = overhead_s
        # cluster-wide means used by the ideal-runtime (slowdown) model
        disk_bw, net_bw = cluster.slave_bandwidths()
        self.mean_disk_bw = sum(disk_bw) / len(disk_bw)
        self.mean_net_bw = sum(net_bw) / len(net_bw)

    # -- source selection ---------------------------------------------------

    def choose_source(self, block: Block, dest: int) -> int:
        """Pick the replica holder a remote map streams from.

        Hadoop picks the topologically closest replica; ties break by
        current load, then randomly.
        """
        locs = [n for n in self.namenode.locations(block.block_id) if n != dest]
        if not locs:
            raise ValueError(
                f"no remote replica of block {block.block_id} (dest={dest})"
            )
        topo = self.cluster.topology
        best: List[int] = []
        best_key: Optional[Tuple[int, int]] = None
        for n in locs:
            key = (topo.hops(dest, n), self.cluster.node(n).active_net_transfers)
            if best_key is None or key < best_key:
                best, best_key = [n], key
            elif key == best_key:
                best.append(n)
        return best[0] if len(best) == 1 else self._rng.choice(best)

    # -- map tasks ------------------------------------------------------------

    def local_read_seconds(self, node_id: int, nbytes: int) -> float:
        """Streaming a block from local disk under current contention."""
        node = self.cluster.node(node_id)
        return nbytes / (node.effective_disk_bw() * 1e6)

    def remote_read_seconds(self, source: int, dest: int, nbytes: int) -> float:
        """Streaming a block from a remote replica under current contention."""
        src = self.cluster.node(source)
        dst = self.cluster.node(dest)
        contention = 1 + max(dst.active_net_transfers, src.active_net_transfers)
        net_time = self.cluster.network.transfer_seconds(
            nbytes, source, dest, contention
        )
        # the source disk also has to produce the bytes
        disk_time = nbytes / (src.effective_disk_bw() * 1e6)
        return max(net_time, disk_time)

    def attempt_cpu_seconds(self, map_cpu_s: float) -> float:
        """CPU time of one attempt: scaled, jittered, occasionally stalled.

        The stall term models processor sharing on virtualized hosts (Wang
        & Ng) — the straggler source speculative execution exists for.
        """
        spec = self.cluster.spec
        cpu = map_cpu_s * spec.cpu_scale
        if spec.cpu_jitter_sigma > 0:
            cpu *= self._rng.lognormvariate(0.0, spec.cpu_jitter_sigma)
        if spec.cpu_stall_prob > 0 and self._rng.random() < spec.cpu_stall_prob:
            cpu *= self._rng.uniform(*spec.cpu_stall_range)
        return cpu

    def map_duration(
        self, node_id: int, block: Block, data_local: bool, map_cpu_s: float
    ) -> Tuple[float, Optional[int], float]:
        """Return (duration, source_node, cpu_seconds_drawn).

        ``source_node`` is None for a data-local read.  The CPU component
        is sampled per attempt (see :meth:`attempt_cpu_seconds`), so the
        caller needs it back to locate the read/compute boundary.
        """
        cpu = self.attempt_cpu_seconds(map_cpu_s)
        if data_local:
            read = self.local_read_seconds(node_id, block.size_bytes)
            return self.overhead_s + read + cpu, None, cpu
        source = self.choose_source(block, node_id)
        read = self.remote_read_seconds(source, node_id, block.size_bytes)
        return self.overhead_s + read + cpu, source, cpu

    # -- reduce tasks ------------------------------------------------------------

    def reduce_duration(
        self,
        node_id: int,
        shuffle_bytes: int,
        output_bytes: int,
        reduce_cpu_s: float,
    ) -> float:
        """Shuffle + compute + pipelined output write."""
        node = self.cluster.node(node_id)
        cpu = reduce_cpu_s * self.cluster.spec.cpu_scale
        shuffle = shuffle_bytes / (node.effective_net_bw() * 1e6)
        write_local = output_bytes / (node.effective_disk_bw() * 1e6)
        write_remote = (
            output_bytes * (OUTPUT_REPLICATION - 1) / (node.effective_net_bw() * 1e6)
        )
        return self.overhead_s + shuffle + cpu + write_local + write_remote

    # -- contention bookkeeping ----------------------------------------------------

    def start_local_read(self, node_id: int) -> None:
        """Register a disk read for contention accounting."""
        self.cluster.node(node_id).active_disk_reads += 1

    def end_local_read(self, node_id: int) -> None:
        """Unregister a disk read."""
        node = self.cluster.node(node_id)
        node.active_disk_reads -= 1
        assert node.active_disk_reads >= 0

    def start_transfer(self, source: int, dest: int) -> None:
        """Register a network transfer on both endpoints."""
        self.cluster.node(source).active_net_transfers += 1
        self.cluster.node(dest).active_net_transfers += 1

    def end_transfer(self, source: int, dest: int) -> None:
        """Unregister a network transfer."""
        src = self.cluster.node(source)
        dst = self.cluster.node(dest)
        src.active_net_transfers -= 1
        dst.active_net_transfers -= 1
        assert src.active_net_transfers >= 0 and dst.active_net_transfers >= 0

    # -- ideal (dedicated-cluster) runtime for the slowdown metric -------------------

    def ideal_map_seconds(self, block_bytes: int, map_cpu_s: float) -> float:
        """One map task on a free cluster with 100% locality."""
        cpu = map_cpu_s * self.cluster.spec.cpu_scale
        return self.overhead_s + block_bytes / (self.mean_disk_bw * 1e6) + cpu

    def ideal_reduce_seconds(
        self, shuffle_bytes: int, output_bytes: int, reduce_cpu_s: float
    ) -> float:
        """One reduce task on a free cluster."""
        shuffle = shuffle_bytes / (self.mean_net_bw * 1e6)
        write = output_bytes / (self.mean_disk_bw * 1e6) + output_bytes * (
            OUTPUT_REPLICATION - 1
        ) / (self.mean_net_bw * 1e6)
        cpu = reduce_cpu_s * self.cluster.spec.cpu_scale
        return self.overhead_s + shuffle + cpu + write
