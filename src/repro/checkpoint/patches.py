"""What-if patches: small counterfactual edits applied to a restored run.

A :class:`Patch` mutates a live (paused) :class:`Simulation` between
``run(until=t)`` and the resuming ``run()`` — the "replay what-if" loop:
reconstruct the world as of time *t* from a checkpoint, change one thing,
and watch the divergent future unfold under the same RNG streams.

Patches are deterministic: applying the same patch to a forked restore
and to a cold run paused at the same time produces byte-identical
continuations, so the what-if delta is attributable to the patch alone.

``parse_patch`` maps the CLI's compact specs onto patch objects:

===========================  =================================================
``kill:NODE[:DELAY]``        crash node ``NODE`` ``DELAY`` seconds from now
                             (default: immediately), with HDFS-style
                             detection and re-replication
``policy:NAME``              swap every node's DARE policy to the one a
                             :data:`~repro.core.config.POLICY_NAMES` name
                             gives (at its default tunables), carrying live
                             dynamic replicas over into the new policy state
``pin:BLOCK:NODE``           materialize a *static* replica of ``BLOCK`` on
                             ``NODE`` — static replicas are never
                             DARE-evicted, so the block is pinned there
===========================  =================================================
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Simulation


class Patch:
    """One counterfactual edit; subclasses implement :meth:`apply`."""

    def apply(self, sim: "Simulation") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class KillNode(Patch):
    """Crash a slave node ``delay_s`` seconds after the patch point.

    Reuses the failure-injection machinery end to end: in-flight tasks are
    requeued immediately and the NameNode prunes the node (triggering
    re-replication) after the configured detection delay.  A run without a
    failure plan gains the repair service on demand.
    """

    def __init__(self, node_id: int, delay_s: float = 0.0) -> None:
        if delay_s < 0:
            raise ValueError("kill delay must be nonnegative")
        self.node_id = node_id
        self.delay_s = delay_s

    def apply(self, sim: "Simulation") -> None:
        n_nodes = len(sim.cluster.nodes)
        if not (1 <= self.node_id < n_nodes):
            raise ValueError(
                f"node {self.node_id} is not a slave (master is 0, "
                f"cluster has {n_nodes} nodes)"
            )
        sim.engine.schedule_in(
            self.delay_s,
            partial(sim.failure_injector()._fail, self.node_id),
            f"fail:node{self.node_id}",
        )

    def describe(self) -> str:
        when = "now" if self.delay_s == 0 else f"in {self.delay_s:g}s"
        return f"kill node {self.node_id} ({when})"


class FlipPolicy(Patch):
    """Swap the cluster's DARE configuration mid-run.

    Builds a fresh :class:`DareReplicationService` under the new config and
    re-registers every live dynamic replica into the new per-node policy
    state, so the new eviction policy governs the replicas the old one
    created.  Replica counters restart at zero — the result's
    ``blocks_created`` reflects post-flip activity only.
    """

    def __init__(self, dare: DareConfig) -> None:
        self.dare = dare.validate()

    def apply(self, sim: "Simulation") -> None:
        service = DareReplicationService(
            self.dare, sim.namenode, sim.streams, tracer=sim.tracer
        )
        if self.dare.enabled:
            # node-id order: the order the new per-node states are built in
            for node_id, dn in sorted(sim.namenode.datanodes.items()):
                for bid, block in dn.dynamic_blocks.items():
                    if bid not in dn.pending_deletion:
                        service.node_state(node_id).policy.add(block)
                # a shrunken budget grandfathers existing replicas: they
                # stay until the policy evicts them to admit new ones
                if dn.dynamic_bytes_used > dn.dynamic_capacity_bytes:
                    dn.dynamic_capacity_bytes = dn.dynamic_bytes_used
        sim.dare = service
        sim.jobtracker.dare = service
        if sim.checker is not None:
            sim.checker.dare = service

    def describe(self) -> str:
        return f"flip DARE policy to {self.dare.policy.value}"


class PinReplica(Patch):
    """Materialize a static replica of a block on a chosen node.

    Static replicas are outside the dynamic budget and never evicted, so
    this pins the block to the node for the rest of the run (the
    locality counterfactual: "what if the hot block had been *here*?").
    A no-op when the node already stores the block.
    """

    def __init__(self, block_id: int, node_id: int) -> None:
        self.block_id = block_id
        self.node_id = node_id

    def apply(self, sim: "Simulation") -> None:
        namenode = sim.namenode
        if self.block_id not in namenode.blocks:
            raise ValueError(f"unknown block {self.block_id}")
        try:
            dn = namenode.datanode(self.node_id)
        except KeyError:
            raise ValueError(f"node {self.node_id} runs no DataNode") from None
        if dn.has_block(self.block_id):
            return
        namenode.add_repaired_replica(self.block_id, self.node_id)

    def describe(self) -> str:
        return f"pin block {self.block_id} on node {self.node_id}"


def parse_patch(spec: str) -> Patch:
    """Parse a CLI patch spec (see the module docstring's table)."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "kill":
            node, _, delay = rest.partition(":")
            return KillNode(int(node), float(delay) if delay else 0.0)
        if kind == "policy":
            return FlipPolicy(DareConfig.named(rest))
        if kind == "pin":
            block, _, node = rest.partition(":")
            return PinReplica(int(block), int(node))
    except ValueError as exc:
        raise ValueError(f"bad patch spec {spec!r}: {exc}") from None
    raise ValueError(
        f"bad patch spec {spec!r} (expected kill:NODE[:DELAY], "
        "policy:NAME, or pin:BLOCK:NODE)"
    )
