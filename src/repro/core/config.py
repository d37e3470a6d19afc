"""DARE configuration.

The three tunables match the configuration parameters the paper added to
Hadoop (Section V-A): the ElephantTrap sampling probability ``p``, the aging
``threshold``, and the storage ``budget``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence, Tuple


class Policy(enum.Enum):
    """Which replica-management scheme a node runs.

    :class:`~repro.core.manager.DareReplicationService` builds the node
    policy each member names (OFF builds none).
    """

    #: vanilla Hadoop — no dynamic replication
    OFF = "off"
    #: Algorithm 1 — greedy insertion, LRU eviction
    GREEDY_LRU = "greedy-lru"
    #: Algorithm 2 — probabilistic insertion, ElephantTrap aging eviction
    ELEPHANT_TRAP = "elephant-trap"
    #: ablation baseline — greedy insertion, least-frequently-used eviction
    GREEDY_LFU = "greedy-lfu"
    #: beyond the paper — offline-trained logistic scorer (repro train)
    LEARNED = "learned"


class DareConfig(NamedTuple):
    """Immutable DARE parameter set.

    Parameters
    ----------
    policy:
        Replica-management scheme.
    p:
        ElephantTrap sampling probability (coin-toss for both replication
        and access-count refresh).  Ignored by the greedy policies.
    threshold:
        ElephantTrap aging threshold: a block whose (halved) access count
        drops below this value is evictable.  The paper sweeps 1..5.
    budget:
        Dynamic-replica storage budget as a fraction of the per-node share
        of stored (physical) data.  The paper calls 0.10–0.20 reasonable
        and sweeps 0.0–0.9.
    model:
        Logistic weights of the :data:`Policy.LEARNED` scorer (features +
        trailing bias, see :mod:`repro.policies.learned`).  Kept here — a
        tuple of floats — so learned cells stay hashable and cacheable
        like every other cell; empty for all other policies.
    """

    policy: Policy = Policy.OFF
    p: float = 0.3
    threshold: int = 1
    budget: float = 0.2
    model: Tuple[float, ...] = ()

    def validate(self) -> "DareConfig":
        """Raise ``ValueError`` on out-of-range parameters; return self."""
        if not isinstance(self.policy, Policy):
            names = ", ".join(policy.value for policy in Policy)
            raise ValueError(f"policy must be one of {names}, got {self.policy!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not (0.0 <= self.budget):
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.policy is Policy.LEARNED:
            from repro.policies.learned import N_FEATURES

            if len(self.model) != N_FEATURES + 1:
                raise ValueError(
                    f"learned policy needs {N_FEATURES + 1} model weights "
                    f"({N_FEATURES} features + bias), got {len(self.model)}"
                )
        return self

    @property
    def enabled(self) -> bool:
        """True when dynamic replication is active."""
        return self.policy is not Policy.OFF

    @classmethod
    def off(cls) -> "DareConfig":
        """Vanilla Hadoop (no DARE)."""
        return cls(policy=Policy.OFF)

    @classmethod
    def greedy_lru(cls, budget: float = 0.2) -> "DareConfig":
        """Algorithm 1 with the given budget."""
        return cls(policy=Policy.GREEDY_LRU, budget=budget).validate()

    @classmethod
    def elephant_trap(
        cls, p: float = 0.3, threshold: int = 1, budget: float = 0.2
    ) -> "DareConfig":
        """Algorithm 2 — the paper's headline configuration is the default."""
        return cls(
            policy=Policy.ELEPHANT_TRAP, p=p, threshold=threshold, budget=budget
        ).validate()

    @classmethod
    def greedy_lfu(cls, budget: float = 0.2) -> "DareConfig":
        """The greedy-insertion / LFU-eviction ablation."""
        return cls(policy=Policy.GREEDY_LFU, budget=budget).validate()

    @classmethod
    def learned(
        cls, weights: Sequence[float], budget: float = 0.2
    ) -> "DareConfig":
        """The offline-trained scored policy with the given model weights."""
        return cls(
            policy=Policy.LEARNED,
            budget=budget,
            model=tuple(float(w) for w in weights),
        ).validate()
