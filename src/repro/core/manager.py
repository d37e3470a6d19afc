"""The DARE replication service: per-node policy state wired into the
map-task launch path.

``DareReplicationService.on_map_task`` is the single entry point the
MapReduce runtime calls for every scheduled map task (Algorithms 1 and 2
both trigger "if a map task is scheduled").  It is careful to generate *no
data transfers of its own*: a replica is only ever created from bytes the
task already fetched, which the test suite verifies through the
``replications_piggybacked`` counter.
"""

from __future__ import annotations

from typing import Dict

from repro.core.budget import ReplicationBudget
from repro.core.config import DareConfig, Policy
from repro.core.elephant_trap import ElephantTrapPolicy
from repro.core.greedy import GreedyLFUPolicy, GreedyLRUPolicy
from repro.hdfs.block import Block
from repro.hdfs.namenode import NameNode
from repro.observability.trace import NULL_TRACER, REPLICATION_ABANDONED, Tracer
from repro.policies.learned import AccessStats, LearnedPolicy
from repro.simulation.rng import RandomStreams


class NodeReplicaState:
    """One node's DARE state: its policy instance plus counters."""

    __slots__ = ("node_id", "policy", "observe", "replications", "abandoned")

    def __init__(self, node_id: int, policy) -> None:
        self.node_id = node_id
        self.policy = policy
        #: the optional feature-observation hook, resolved once — the
        #: paper baselines don't define it and pay one None check per task
        self.observe = getattr(policy, "on_access", None)
        #: replicas successfully created on this node
        self.replications = 0
        #: replications abandoned because no victim could be found
        self.abandoned = 0

    def __getstate__(self):
        # the bound method in ``observe`` is re-resolved on restore so the
        # pickled form stays minimal and alias-stable
        return (self.node_id, self.policy, self.replications, self.abandoned)

    def __setstate__(self, state) -> None:
        self.node_id, self.policy, self.replications, self.abandoned = state
        self.observe = getattr(self.policy, "on_access", None)


class DareReplicationService:
    """Cluster-wide coordinator of the per-node replication managers.

    Each node runs its policy *independently* (the algorithm is fully
    distributed); this object only exists to own the shared configuration,
    size the budget, and aggregate counters for the metrics.
    """

    def __init__(
        self,
        config: DareConfig,
        namenode: NameNode,
        streams: RandomStreams,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        config.validate()
        self.config = config
        self.namenode = namenode
        self.streams = streams
        self.tracer = tracer
        #: per-node state, built by :meth:`node_state` on the node's first
        #: map task or forced replica (most nodes of a large cluster never
        #: run a map, and the algorithms act only "if a map task is
        #: scheduled")
        self.states: Dict[int, NodeReplicaState] = {}
        #: the cluster-wide access statistics every learned node policy
        #: reads and updates (None under the other policies)
        self.access_stats = AccessStats() if config.policy is Policy.LEARNED else None
        if config.enabled:
            budget = ReplicationBudget(config.budget)
            self.per_node_budget_bytes = budget.apply(namenode)
        else:
            self.per_node_budget_bytes = 0
        #: total replica insertions piggybacked on remote reads
        self.replications_piggybacked = 0
        #: replicas created proactively by the rollout engine
        self.replications_forced = 0

    # -- the hook ------------------------------------------------------------

    def node_state(self, node_id: int) -> NodeReplicaState:
        """``node_id``'s state, built on first use.

        Every policy draws from its own named stream, so building it at
        the node's first map task rather than at set-up changes no draw.
        """
        try:
            return self.states[node_id]
        except KeyError:
            pass
        state = self.states[node_id] = NodeReplicaState(node_id, self._build_policy(node_id))
        return state

    def _build_policy(self, node_id: int):
        """A fresh instance of the policy ``config.policy`` names."""
        config = self.config
        if config.policy is Policy.GREEDY_LRU:
            return GreedyLRUPolicy()
        if config.policy is Policy.GREEDY_LFU:
            return GreedyLFUPolicy()
        if config.policy is Policy.ELEPHANT_TRAP:
            # every fixed-seed trace draws the node's coins from this stream
            coins = self.streams.python(f"dare.coin.{node_id}")
            return ElephantTrapPolicy(config.p, config.threshold, coins)
        if config.policy is Policy.LEARNED:
            return LearnedPolicy(config.model, node_id, self.namenode, self.access_stats)
        raise ValueError(f"policy {config.policy.value!r} builds no node policy")

    def on_map_task(self, node_id: int, block: Block, data_local: bool, now: float) -> bool:
        """Called when a map task is scheduled on ``node_id`` for ``block``.

        ``data_local`` reflects whether the executing node holds a replica.
        Returns True when a dynamic replica was created by this call.
        """
        if not self.config.enabled:
            return False
        state = self.node_state(node_id)
        policy = state.policy
        if state.observe is not None:
            # feature-aware policies see every access before deciding
            state.observe(block, data_local, now)
        if data_local:
            # local read: (possibly coin-gated) usage refresh
            if not policy.probabilistic or policy.wants_refresh(block):
                policy.on_local_access(block)
            return False
        # remote read: the node has just fetched the block anyway —
        # decide whether to keep it
        if not policy.wants_replica(block):
            return False
        return self._try_replicate(state, block, now)

    def force_replicate(self, node_id: int, block: Block, now: float) -> bool:
        """Proactively replicate ``block`` onto ``node_id`` (rollout engine).

        Unlike :meth:`on_map_task` this is not piggybacked on a fetch the
        task already paid for — the caller is responsible for charging
        the transfer.  Budget enforcement and victim eviction go through
        the node's policy exactly as for an organic replication.
        """
        if not self.config.enabled:
            return False
        return self._try_replicate(self.node_state(node_id), block, now, forced=True)

    def _try_replicate(
        self, state: NodeReplicaState, block: Block, now: float, forced: bool = False
    ) -> bool:
        dn = self.namenode.datanode(state.node_id)
        if dn.has_block(block.block_id):
            # e.g. two concurrent remote tasks for the same block: the
            # second fetch finds the replica already inserted
            return False
        if block.size_bytes > dn.dynamic_capacity_bytes:
            return False  # budget can never hold this block
        while dn.would_exceed_budget(block):
            victim = state.policy.pick_victim(block)
            if victim is None:
                # couldn't find a block to evict; will not replicate
                state.abandoned += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        REPLICATION_ABANDONED,
                        now,
                        node=state.node_id,
                        block=block.block_id,
                        file=block.inode.name,
                    )
                return False
            state.policy.remove(victim.block_id)
            dn.mark_for_deletion(victim.block_id, now)
        dn.insert_dynamic(block, now)
        state.policy.add(block)
        state.replications += 1
        if forced:
            self.replications_forced += 1
        else:
            self.replications_piggybacked += 1
        return True

    # -- aggregate counters ---------------------------------------------------

    @property
    def total_replications(self) -> int:
        """Dynamic replicas created across all nodes."""
        return sum(s.replications for s in self.states.values())

    @property
    def total_abandoned(self) -> int:
        """Replications abandoned for lack of a victim."""
        return sum(s.abandoned for s in self.states.values())

    def total_disk_writes(self) -> int:
        """Disk writes attributable to dynamic replication."""
        return sum(dn.blocks_replicated for dn in self.namenode.datanodes.values())

    def total_evictions(self) -> int:
        """Dynamic replicas evicted across all nodes."""
        return sum(dn.blocks_evicted for dn in self.namenode.datanodes.values())
