"""NameNode: the HDFS metadata master."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.cluster import Cluster
from repro.hdfs.block import DEFAULT_BLOCK_SIZE, Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.inode import INode
from repro.hdfs.ordered_set import OrderedSet
from repro.hdfs.placement import DefaultPlacementPolicy, Excluding
from repro.hdfs.protocol import DNA_DYNREPL, DNA_INVALIDATE, DatanodeCommand
from repro.observability.trace import HDFS_HEARTBEAT, NULL_TRACER, Tracer


class ReplicaSet(OrderedSet[int]):
    """One block's location set, wired into the NameNode's replica indexes.

    Every mutation — wherever it originates (heartbeat control plane,
    block copies, Scarlett's aging, tests poking ``_locations`` directly)
    — bumps the NameNode's ``replica_version`` and keeps two structures
    consistent:

    * ``rack_counts``: replicas per rack, the rack-shard the locality scan
      (:meth:`repro.mapreduce.job.Job.find_pending_map`) tests in O(1)
      instead of an ``isdisjoint`` over the rack's member set;
    * the NameNode's per-node reverse index (``_blocks_on``), which turns
      ``fail_node`` from a full block-map scan into a per-node lookup.

    Iteration order stays insertion order (it feeds RNG draws downstream),
    and pickling restores entries through ``__setitem__``.  The backref and
    the derived ``rack_counts`` are deliberately *not* pickled — they are
    pure functions of the membership and the (static) topology, and
    carrying one index dict per block roughly doubles snapshot cost — so a
    ReplicaSet is only fully usable again after
    :meth:`NameNode.__setstate__` has re-linked it.
    """

    __slots__ = ("_nn", "block_id", "rack_counts")

    def __getstate__(self):
        # membership travels as dict items; _nn and rack_counts are
        # rebuilt by NameNode.__setstate__ (a tuple: a falsy state, block
        # 0's id, would skip __setstate__)
        return (self.block_id,)

    def __setstate__(self, state) -> None:
        (self.block_id,) = state

    def __init__(self, nn: "NameNode", block_id: int, targets: Sequence[int] = ()) -> None:
        self._nn = nn
        self.block_id = block_id
        counts: Dict[int, int] = {}
        self.rack_counts = counts
        # one pass files each distinct target as :meth:`add` would
        rack_of = nn._rack_of
        blocks_on = nn._blocks_on
        for node_id in targets:
            if node_id in self:
                continue
            self[node_id] = None
            rack = rack_of[node_id]
            counts[rack] = counts.get(rack, 0) + 1
            held = blocks_on.get(node_id)
            if held is None:
                blocks_on[node_id] = {block_id}
            else:
                held.add(block_id)
        nn.replica_version += len(self)

    def add(self, node_id: int) -> None:
        if node_id in self:
            return
        dict.__setitem__(self, node_id, None)
        nn = self._nn
        nn.replica_version += 1
        rack = nn._rack_of[node_id]
        self.rack_counts[rack] = self.rack_counts.get(rack, 0) + 1
        nn._blocks_on.setdefault(node_id, set()).add(self.block_id)

    def discard(self, node_id: int) -> None:
        if node_id not in self:
            return
        dict.pop(self, node_id, None)
        nn = self._nn
        nn.replica_version += 1
        rack = nn._rack_of[node_id]
        left = self.rack_counts.get(rack, 0) - 1
        if left > 0:
            self.rack_counts[rack] = left
        else:
            self.rack_counts.pop(rack, None)
        holder = nn._blocks_on.get(node_id)
        if holder is not None:
            holder.discard(self.block_id)

    def remove(self, node_id: int) -> None:
        if node_id not in self:
            raise KeyError(node_id)
        self.discard(node_id)


class NameNode:
    """Metadata master: namespace, block map, and replica bookkeeping.

    The scheduler (and any other client) resolves block locations through
    :meth:`locations`; that view is updated by DataNode heartbeats, so
    DARE-created replicas become schedulable one heartbeat after insertion,
    exactly as in the paper's modified Hadoop.  The NameNode tolerates
    over-replicated blocks (implementation change (b) in Section V-A) —
    dynamic replicas may push a block's replica count above the file's
    nominal replication factor without triggering re-replication or pruning.

    Block ids are dense and ascending, so the hottest read path — the
    locality scan — indexes ``_locs_by_id`` (a list sharing the same
    :class:`ReplicaSet` objects as the ``_locations`` dict) instead of
    hashing into the global block map.

    A slave's :class:`DataNode` is built on first use (:meth:`datanode`):
    by the paths that store a block or queue control traffic on it, and
    when it launches a map.  Most slaves of a large cluster never get one.
    Read-only paths look the node up in :attr:`datanodes` and treat a
    missing DataNode as an empty one.
    """

    def __init__(
        self,
        cluster: Cluster,
        block_size: int = DEFAULT_BLOCK_SIZE,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.cluster = cluster
        self.block_size = block_size
        self.tracer = tracer
        self.files: Dict[str, INode] = {}
        self.blocks: Dict[int, Block] = {}
        # python-int rack ids (topology.rack_of holds numpy scalars, too
        # slow to hash on the per-mutation index updates)
        self._rack_of: List[int] = cluster.topology.rack_of.tolist()
        #: node id -> block ids the NameNode's view places on that node
        self._blocks_on: Dict[int, Set[int]] = {}
        #: bumped by every replica-set change (see ReplicaSet), so a cache
        #: over replica holders can key on it
        self.replica_version = 0
        # insertion-ordered so replica scans (and the RNG draws they feed)
        # are identical on both sides of a checkpoint restore; keys are
        # ascending block ids (allocation order)
        self._locations: Dict[int, ReplicaSet] = {}
        #: dense block-id -> ReplicaSet, aliasing _locations' values
        self._locs_by_id: List[ReplicaSet] = []
        #: rack -> ids of its nodes with queued control traffic (a
        #: non-empty outbox or pending deletions); each set is shared with
        #: the rack's DataNodes, which add themselves when a queue grows
        self.control_by_rack: List[Set[int]] = [
            set() for _ in range(cluster.topology.n_racks)
        ]
        #: the DataNodes built so far (see :meth:`datanode`), by node id
        self.datanodes: Dict[int, DataNode] = {}
        #: the dynamic-replica capacity a DataNode is built with (set,
        #: with every built DataNode's, by ReplicationBudget.apply)
        self.dynamic_capacity_bytes = 0
        self.placement = DefaultPlacementPolicy(
            cluster.slave_ids,
            cluster.slaves_by_rack,
            cluster.topology,
            cluster.streams.python("hdfs.placement"),
        )
        self._next_file_id = 0
        self._next_block_id = 0

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # the replica indexes are derived state: dropping them (and the
        # per-set counters, see ReplicaSet.__getstate__) keeps checkpoint
        # snapshots at their pre-index size
        state = self.__dict__.copy()
        for key in ("_blocks_on", "_locs_by_id"):
            del state[key]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._blocks_on = {}
        self._locs_by_id = []
        rack_of = self._rack_of
        for locs in self._locations.values():
            locs._nn = self
            counts: Dict[int, int] = {}
            for node_id in locs:
                rack = rack_of[node_id]
                counts[rack] = counts.get(rack, 0) + 1
                self._blocks_on.setdefault(node_id, set()).add(locs.block_id)
            locs.rack_counts = counts
            self._locs_by_id.append(locs)

    # -- namespace ----------------------------------------------------------

    def create_file(
        self,
        name: str,
        size_bytes: int,
        replication: int = 3,
        writer: Optional[int] = None,
        now: float = 0.0,
    ) -> INode:
        """Create a file, allocate blocks, and place the static replicas."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        inode = INode(self._next_file_id, name, replication, created_at=now)
        self._next_file_id += 1
        blocks = inode.allocate_blocks(size_bytes, self._next_block_id, self.block_size)
        self._next_block_id += len(blocks)
        # one pass per block: place it, index its replicas, store them
        choose_targets = self.placement.choose_targets
        block_map = self.blocks
        locations = self._locations
        locs_by_id = self._locs_by_id
        datanodes = self.datanodes
        for block in blocks:
            block_id = block.block_id
            targets = choose_targets(replication, writer)
            block_map[block_id] = block
            locs = locations[block_id] = ReplicaSet(self, block_id, targets)
            locs_by_id.append(locs)
            for t in targets:
                dn = datanodes.get(t)
                if dn is None:
                    dn = self.datanode(t)
                dn.store_static(block)
        self.files[name] = inode
        return inode

    def file(self, name: str) -> INode:
        """Look up a file by name."""
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def block(self, block_id: int) -> Block:
        """Look up a block by id."""
        return self.blocks[block_id]

    # -- replica views --------------------------------------------------------

    def locations(self, block_id: int) -> ReplicaSet:
        """Node ids known (to the NameNode) to hold the block."""
        return self._locations[block_id]

    def new_holders(self, block_id: int) -> Excluding:
        """The alive slaves that do not hold the block, ascending.

        Built from the dead-slave list and the block's holders, so a
        draw from it (Scarlett copies, repairs) never walks every slave.
        """
        skip = set(self.cluster.dead_slaves)
        skip.update(self._locations[block_id])
        return Excluding(self.placement.slave_ids, skip)

    def is_local(self, block_id: int, node_id: int) -> bool:
        """True when the NameNode's view places a replica on ``node_id``."""
        return node_id in self._locs_by_id[block_id]

    def replica_count(self, block_id: int) -> int:
        """Current replica count in the NameNode's view."""
        return len(self._locs_by_id[block_id])

    def datanode(self, node_id: int) -> DataNode:
        """The DataNode running on slave ``node_id``, built on first use.

        A new DataNode joins its rack's control set and starts with the
        current :attr:`dynamic_capacity_bytes`.  The master and ids
        outside the cluster raise ``KeyError``.
        """
        dn = self.datanodes.get(node_id)
        if dn is None:
            if not 0 < node_id < self.cluster.spec.n_nodes:  # node 0 is the master
                raise KeyError(node_id)
            dn = self.datanodes[node_id] = DataNode(
                self.cluster.node(node_id),
                self.dynamic_capacity_bytes,
                tracer=self.tracer,
                control=self.control_by_rack[self._rack_of[node_id]],
            )
        return dn

    @property
    def total_dataset_bytes(self) -> int:
        """Sum of logical file sizes (one copy each, not counting replicas)."""
        return sum(f.size_bytes for f in self.files.values())

    # -- heartbeat control plane ----------------------------------------------

    def process_heartbeat(self, node_id: int, now: float) -> List[DatanodeCommand]:
        """Apply the control messages a heartbeating DataNode reports.

        Returns the applied commands (useful for logging/tests).  This is
        where ``DNA_DYNREPL`` replicas enter — and invalidated replicas
        leave — the scheduler's location view.  A node without a DataNode
        reports nothing, and gets none built.
        """
        dn = self.datanodes.get(node_id)
        cmds: List[DatanodeCommand] = []
        # most heartbeats carry no control messages: skip the outbox drain
        # and deletion scan entirely on that path (this runs for every
        # TaskTracker beat, so the empty case is by far the hottest)
        if dn is not None:
            if dn.outbox:
                cmds = dn.drain_outbox()
                for cmd in cmds:
                    cmd.validate()
                    if cmd.op == DNA_DYNREPL:
                        self._locations[cmd.block_id].add(node_id)
                    elif cmd.op == DNA_INVALIDATE:
                        self._locations[cmd.block_id].discard(node_id)
                dn.control.discard(node_id)
            # physical lazy deletion happens when the node is idle enough to
            # heartbeat, matching "blocks marked for deletion are lazily
            # removed"
            if dn.pending_deletion:
                dn.complete_deletions()
                dn.control.discard(node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                HDFS_HEARTBEAT, now, node=node_id, commands=len(cmds)
            )
        return cmds

    def flush_all_heartbeats(self, now: float = 0.0) -> None:
        """Process a heartbeat from every slave, in id order (test/metric
        helper)."""
        for node_id in self.cluster.slave_ids:
            self.process_heartbeat(node_id, now)

    # -- failures -----------------------------------------------------------------

    def fail_node(self, node_id: int) -> Dict[int, int]:
        """Remove a dead DataNode from every block's location set.

        Returns ``{block_id: remaining_replicas}`` for each block that lost
        a replica — the input to re-replication.  The node's queued control
        messages are dropped (a dead node never heartbeats again).

        The per-node reverse index makes this O(blocks on the node) rather
        than a scan of the whole block map; the emitted ordering — stored
        blocks first (DataNode insertion order), then stale announced-only
        entries ascending by block id — matches the original full-scan
        implementation exactly, because the block map's iteration order is
        allocation order.
        """
        dn = self.datanode(node_id)
        dn.outbox.clear()
        lost: Dict[int, int] = {}
        locs_by_id = self._locs_by_id
        for bid in list(dn.stored_block_ids()) + list(dn.pending_deletion):
            locs = locs_by_id[bid]
            if node_id in locs:
                locs.discard(node_id)
                lost[bid] = len(locs)
        # stale location entries (e.g. announced replicas) via the reverse
        # index; the first pass already removed its bids from it
        stale = self._blocks_on.get(node_id)
        if stale:
            for bid in sorted(stale):
                locs = locs_by_id[bid]
                locs.discard(node_id)
                lost[bid] = len(locs)
        dn.static_blocks.clear()
        dn.dynamic_blocks.clear()
        dn.pending_deletion.clear()
        dn.control.discard(node_id)
        dn.dynamic_bytes_used = 0
        return lost

    def add_repaired_replica(self, block_id: int, node_id: int) -> None:
        """Install a static replica on a target node: a landed
        :class:`~repro.hdfs.copier.BlockCopier` copy or a pinned block."""
        block = self.blocks[block_id]
        dn = self.datanode(node_id)
        if dn.has_block(block_id):
            raise ValueError(f"node {node_id} already stores block {block_id}")
        dn.store_static(block)
        self._locations[block_id].add(node_id)

    def remove_static_replica(self, block_id: int, node_id: int) -> bool:
        """Drop a static replica (Scarlett ages out its copies this way);
        False when the node does not store it, e.g. since it failed."""
        if self.datanode(node_id).static_blocks.pop(block_id, None) is None:
            return False
        self._locations[block_id].discard(node_id)
        return True

    # -- integrity ---------------------------------------------------------------

    def check_integrity(self) -> None:
        """Assert the location map is consistent with DataNode contents.

        The NameNode view may *lag* the DataNodes (pending announcements /
        invalidations), but must never claim a replica that neither exists
        nor is pending announcement, and every stored block must either be
        in the view or awaiting its DNA_DYNREPL.  A replica on a node with
        no DataNode is a claim of the first kind.
        """
        datanodes = self.datanodes
        locations = self._locations
        # cheap membership tests first: the outbox scans only run for the
        # rare claim or stored block that they are left to excuse
        for block_id, locs in locations.items():
            for node_id in locs:
                dn = datanodes.get(node_id)
                if dn is None:
                    raise AssertionError(
                        f"NameNode claims block {block_id} on node {node_id}, "
                        "which has no DataNode"
                    )
                if dn.has_block(block_id) or block_id in dn.pending_deletion:
                    continue
                if not any(
                    c.op == DNA_INVALIDATE and c.block_id == block_id for c in dn.outbox
                ):
                    raise AssertionError(
                        f"NameNode claims block {block_id} on node {node_id}, "
                        "but the DataNode does not store it"
                    )
        for node_id, dn in datanodes.items():
            if not (dn.static_blocks or dn.dynamic_blocks):
                continue  # e.g. a node that only ran maps
            for bid in dn.stored_block_ids():
                if node_id in locations[bid]:
                    continue
                if not any(c.op == DNA_DYNREPL and c.block_id == bid for c in dn.outbox):
                    raise AssertionError(
                        f"node {node_id} stores block {bid} unknown to the NameNode"
                    )
