"""The replication-policy protocol.

A *node policy* is the per-node object
:class:`~repro.core.manager.DareReplicationService` consults on every
scheduled map task.  The protocol below is exactly the surface the
service uses; the service builds the policy ``DareConfig.policy`` names
(greedy-LRU, greedy-LFU, ElephantTrap or learned), and each satisfies it.

Decision flow (``DareReplicationService.on_map_task``):

* every access is first offered to the optional :meth:`~ReplicationPolicy
  .on_access` observer hook (feature-aware policies accumulate state
  here; the paper baselines do not define it and pay nothing);
* a **local** read refreshes usage via :meth:`~ReplicationPolicy
  .on_local_access` (coin-gated by :meth:`~ReplicationPolicy
  .wants_refresh` when ``probabilistic``);
* a **remote** read asks :meth:`~ReplicationPolicy.wants_replica`; a
  ``True`` answer replicates the just-fetched bytes, evicting
  :meth:`~ReplicationPolicy.pick_victim` victims while the budget
  overflows (``None`` abandons the replication).

Everything reachable from a policy must be picklable: policies live
inside the :class:`~repro.experiments.runner.Simulation` object graph
that :mod:`repro.checkpoint` snapshots and forks, and the rollout engine
relies on their state surviving the round-trip bit-exactly.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.hdfs.block import Block


@runtime_checkable
class ReplicationPolicy(Protocol):
    """Structural protocol every per-node replication policy satisfies."""

    #: when True, the service coin-gates refreshes via :meth:`wants_refresh`
    probabilistic: bool

    def __contains__(self, block_id: int) -> bool:
        """Whether the policy currently tracks ``block_id``."""

    def add(self, block: "Block") -> None:
        """Track a freshly inserted dynamic replica."""

    def remove(self, block_id: int) -> None:
        """Stop tracking an evicted replica."""

    def on_local_access(self, block: "Block") -> None:
        """A (possibly coin-gated) local read of ``block`` happened."""

    def wants_replica(self, block: "Block") -> bool:
        """Should the remote-fetched ``block`` be kept as a replica?"""

    def wants_refresh(self, block: "Block") -> bool:
        """Probabilistic policies: gate the usage refresh of a local read."""

    def pick_victim(self, evicting: "Block") -> Optional["Block"]:
        """A tracked block to evict for ``evicting``, or None to abandon."""
