"""DARE configuration.

The three tunables match the configuration parameters the paper added to
Hadoop (Section V-A): the ElephantTrap sampling probability ``p``, the aging
``threshold``, and the storage ``budget``.  :func:`check_number` is the
one numeric field check every part of a cell shares.
"""

from __future__ import annotations

import enum
import math
import numbers
from typing import Any, Dict, NamedTuple, Sequence, Tuple


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


#: every name a cell's policy goes by: the short CLI names and each
#: :class:`Policy` value.  ``run --policy``, ``checkpoint save --policy``,
#: ``policy:NAME`` what-if patches and the policy bench all read it.
POLICY_NAMES: Dict[str, Policy] = {
    "off": Policy.OFF,
    "lru": Policy.GREEDY_LRU,
    "et": Policy.ELEPHANT_TRAP,
    "lfu": Policy.GREEDY_LFU,
    **{policy.value: policy for policy in Policy},
}


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
        if self.budget == float("inf"):
            raise ValueError(f"budget must be finite, got {self.budget}")
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
    def named(cls, name: str, p: float = 0.3, threshold: int = 1, budget: float = 0.2,
              model: Sequence[float] = ()) -> "DareConfig":
        """The config a :data:`POLICY_NAMES` name describes, unvalidated.

        Keeps only the parameters the policy reads, so a tunable it
        ignores never changes the cell or its cache key: ElephantTrap
        keeps ``p``, ``threshold`` and ``budget``; the greedy policies
        keep ``budget``; the learned policy keeps ``budget`` and
        ``model`` (the baked-in weights when empty); off keeps none.
        An unknown name raises ``ValueError`` listing the table.
        """
        if name not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {name!r} (expected one of {', '.join(POLICY_NAMES)})"
            )
        policy = POLICY_NAMES[name]
        if policy is Policy.OFF:
            return cls()
        if policy is Policy.ELEPHANT_TRAP:
            return cls(policy, p, threshold, budget)
        if policy is Policy.LEARNED:
            from repro.policies.learned import DEFAULT_WEIGHTS

            weights = tuple(float(w) for w in model or DEFAULT_WEIGHTS)
            return cls(policy, budget=budget, model=weights)
        return cls(policy, budget=budget)

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
    def learned(
        cls, weights: Sequence[float], budget: float = 0.2
    ) -> "DareConfig":
        """The offline-trained scored policy with the given model weights."""
        return cls(
            policy=Policy.LEARNED,
            budget=budget,
            model=tuple(float(w) for w in weights),
        ).validate()


def check_number(field: str, value: Any, lo: float = -math.inf, hi: float = math.inf,
                 *, integer: bool = False, above: bool = False) -> None:
    """Raise ``ValueError`` naming ``field`` unless ``value`` is a finite
    number (an integer when ``integer``; never a bool) in ``[lo, hi]``, or
    in ``(lo, hi]`` when ``above``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, kind) and not isinstance(value, bool) and lo <= value <= hi
            and abs(value) < math.inf and not (above and value == lo)):
        return
    rule = "an integer" if integer else "a finite number"
    if hi < math.inf:
        rule += f" in [{lo:g}, {hi:g}]"
    elif lo > -math.inf:
        rule += f" {'>' if above else '>='} {lo:g}"
    raise ValueError(f"{field} must be {rule} (got {value!r})")
