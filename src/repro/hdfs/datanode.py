"""DataNode: per-node block storage and dynamic-replica accounting."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster.node import Node
from repro.hdfs.block import Block
from repro.hdfs.ordered_set import OrderedSet
from repro.hdfs.protocol import DatanodeCommand
from repro.observability.trace import (
    BLOCK_EVICTED,
    BLOCK_REPLICATED,
    BUDGET_CHARGE,
    BUDGET_REFUND,
    NULL_TRACER,
    Tracer,
)


class DataNode:
    """Block storage on one slave node.

    Distinguishes *static* replicas (placed by the NameNode at file-creation
    time) from *dynamic* replicas (inserted by DARE on the back of remote
    reads).  Dynamic replicas consume a separate budgeted capacity and are
    the only replicas DARE may evict.

    Outgoing control-plane messages (``DNA_DYNREPL`` announcements and
    ``DNA_INVALIDATE`` confirmations) accumulate in :attr:`outbox` and are
    drained by the next heartbeat.  :attr:`control` is the NameNode's set,
    shared by every DataNode on the rack, of nodes with queued control
    traffic: the two methods that grow a queue add this node to it, and
    the NameNode removes it when the queues are emptied.
    """

    __slots__ = (
        "node",
        "static_blocks",
        "dynamic_blocks",
        "dynamic_bytes_used",
        "dynamic_capacity_bytes",
        "pending_deletion",
        "outbox",
        "control",
        "disk_writes",
        "blocks_replicated",
        "blocks_evicted",
        "tracer",
    )

    def __init__(
        self,
        node: Node,
        dynamic_capacity_bytes: int = 0,
        tracer: Tracer = NULL_TRACER,
        control: Optional[Set[int]] = None,
    ) -> None:
        self.node = node
        self.static_blocks: Dict[int, Block] = {}
        self.dynamic_blocks: Dict[int, Block] = {}
        self.dynamic_bytes_used = 0
        self.dynamic_capacity_bytes = dynamic_capacity_bytes
        #: blocks marked for lazy deletion, not yet reported to the NameNode
        #: (insertion-ordered so deletion sweeps replay identically after a
        #: checkpoint restore)
        self.pending_deletion: OrderedSet[int] = OrderedSet()
        self.outbox: List[DatanodeCommand] = []
        #: ids of the rack's nodes with a non-empty outbox or pending
        #: deletions (owned by the NameNode; a private set when standalone)
        self.control: Set[int] = control if control is not None else set()
        # lifetime counters for the disk-write / thrashing analyses
        self.disk_writes = 0
        self.blocks_replicated = 0
        self.blocks_evicted = 0
        self.tracer = tracer

    # -- queries -----------------------------------------------------------

    def has_block(self, block_id: int) -> bool:
        """True when the block is stored here and not awaiting deletion."""
        if block_id in self.pending_deletion:
            return False
        return block_id in self.static_blocks or block_id in self.dynamic_blocks

    def has_dynamic(self, block_id: int) -> bool:
        """True when a live *dynamic* replica of the block is stored here."""
        return block_id in self.dynamic_blocks and block_id not in self.pending_deletion

    @property
    def node_id(self) -> int:
        """Owning cluster node id."""
        return self.node.node_id

    @property
    def dynamic_bytes_free(self) -> int:
        """Remaining dynamic-replica budget in bytes."""
        return self.dynamic_capacity_bytes - self.dynamic_bytes_used

    # -- static replica placement (file creation) ---------------------------

    def store_static(self, block: Block) -> None:
        """Store an initial replica placed by the NameNode."""
        if block.block_id in self.static_blocks:
            raise ValueError(f"block {block.block_id} already stored on node {self.node_id}")
        self.static_blocks[block.block_id] = block
        self.disk_writes += 1

    # -- dynamic replicas (DARE) --------------------------------------------

    def would_exceed_budget(self, block: Block) -> bool:
        """True if inserting ``block`` would exceed the dynamic budget."""
        return self.dynamic_bytes_used + block.size_bytes > self.dynamic_capacity_bytes

    def insert_dynamic(self, block: Block, now: float) -> None:
        """Insert a dynamically replicated block (Algorithm 1/2 insert step).

        The data is already on the node — it was fetched by the remote map
        task — so this costs one local disk write and zero network traffic.
        """
        if self.has_block(block.block_id):
            raise ValueError(
                f"block {block.block_id} already on node {self.node_id}; "
                "a task reading it would have been data-local"
            )
        if self.would_exceed_budget(block):
            raise ValueError(
                f"inserting block {block.block_id} exceeds dynamic budget on "
                f"node {self.node_id} ({self.dynamic_bytes_used}+{block.size_bytes}"
                f">{self.dynamic_capacity_bytes})"
            )
        # an insert may revive a block marked for (but not yet completed)
        # lazy deletion: cancel the pending deletion instead of re-writing
        self.pending_deletion.discard(block.block_id)
        self.dynamic_blocks[block.block_id] = block
        self.dynamic_bytes_used += block.size_bytes
        self.disk_writes += 1
        self.blocks_replicated += 1
        self.outbox.append(DatanodeCommand.dynrepl(self.node_id, block.block_id, now))
        self.control.add(self.node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                BUDGET_CHARGE,
                now,
                node=self.node_id,
                block=block.block_id,
                bytes=block.size_bytes,
                used=self.dynamic_bytes_used,
                capacity=self.dynamic_capacity_bytes,
            )
            self.tracer.emit(
                BLOCK_REPLICATED,
                now,
                node=self.node_id,
                block=block.block_id,
                file=block.inode.name,
                bytes=block.size_bytes,
            )

    def mark_for_deletion(self, block_id: int, now: float) -> None:
        """Mark a dynamic replica for lazy deletion, freeing budget now.

        The paper removes victims lazily "to avoid conflicting with other
        operations"; budget is released immediately so the incoming replica
        fits, while the NameNode learns of the invalidation at the next
        heartbeat.
        """
        block = self.dynamic_blocks.get(block_id)
        if block is None:
            raise KeyError(f"block {block_id} is not a dynamic replica on node {self.node_id}")
        if block_id in self.pending_deletion:
            return
        self.pending_deletion.add(block_id)
        self.dynamic_bytes_used -= block.size_bytes
        self.blocks_evicted += 1
        self.outbox.append(DatanodeCommand.invalidate(self.node_id, block_id, now))
        self.control.add(self.node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                BUDGET_REFUND,
                now,
                node=self.node_id,
                block=block_id,
                bytes=block.size_bytes,
                used=self.dynamic_bytes_used,
                capacity=self.dynamic_capacity_bytes,
            )
            self.tracer.emit(
                BLOCK_EVICTED,
                now,
                node=self.node_id,
                block=block_id,
                file=block.inode.name,
                bytes=block.size_bytes,
            )

    def complete_deletions(self) -> List[int]:
        """Physically drop lazily deleted blocks; returns their ids."""
        done = list(self.pending_deletion)
        for bid in done:
            self.dynamic_blocks.pop(bid, None)
        self.pending_deletion.clear()
        return done

    def drain_outbox(self) -> List[DatanodeCommand]:
        """Take all queued control messages (called on heartbeat)."""
        out = self.outbox
        self.outbox = []
        return out

    def stored_block_ids(self) -> OrderedSet[int]:
        """All live block ids on this node, in storage-insertion order."""
        ids: OrderedSet[int] = OrderedSet(self.static_blocks)
        for bid in self.dynamic_blocks:
            ids.add(bid)
        for bid in self.pending_deletion:
            ids.discard(bid)
        return ids
