"""Replication budget sizing.

The paper limits "the extra storage consumed by the dynamically replicated
data" to a configurable fraction.  We interpret the fraction relative to the
per-node share of the *physical* data already stored (logical data times its
replication factor), so ``budget = 0.2`` lets dynamic replicas grow total
cluster storage use by at most 20 % — the natural reading of "extra storage
consumed".
"""

from __future__ import annotations

from repro.hdfs.namenode import NameNode


class ReplicationBudget:
    """Computes the per-node dynamic-replica capacity in bytes."""

    def __init__(self, fraction: float) -> None:
        if fraction < 0:
            raise ValueError("budget fraction must be >= 0")
        self.fraction = fraction

    def per_node_capacity_bytes(self, namenode: NameNode) -> int:
        """Dynamic capacity for one slave, given the current namespace."""
        n_slaves = namenode.cluster.n_slaves
        if n_slaves == 0:
            return 0
        physical = sum(
            f.size_bytes * f.replication for f in namenode.files.values()
        )
        return int(self.fraction * physical / n_slaves)

    def apply(self, namenode: NameNode) -> int:
        """Set every DataNode's dynamic capacity, and the capacity the
        NameNode builds later ones with; returns the per-node bytes."""
        cap = self.per_node_capacity_bytes(namenode)
        namenode.dynamic_capacity_bytes = cap
        for dn in namenode.datanodes.values():
            dn.dynamic_capacity_bytes = cap
        return cap
