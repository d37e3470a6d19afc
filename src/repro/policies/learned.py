"""The offline-trained scored policy: a stdlib logistic scorer.

Direction named by PAPERS.md (H-SVM-LRU, 2023; RL-based replica
management, Lee 2020): replace the hand-written keep/evict heuristics
with a classifier over per-block access features.  The model is a plain
logistic regression — six features plus bias, weights carried in
``DareConfig.model`` so a learned cell stays hashable, cacheable, and
picklable like every other cell.

Feature definitions live here in one place (:func:`feature_vector`) and
are computed identically in two settings:

* **live** — :class:`LearnedPolicy` instances on every node share the
  one :class:`AccessStats` the ``DareReplicationService`` owns
  (``access_stats``) and update it from the
  ``DareReplicationService.on_map_task`` observer hook;
* **offline** — ``repro train`` replays the ``task.scheduled`` records
  of a JSONL trace through the same :class:`AccessStats`, emitting one
  example per remote-read decision point (see
  :mod:`repro.policies.train`).

Training and inference therefore see the same distribution, and the
whole pipeline is deterministic: same traces → same weights → same
decisions.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdfs.block import Block
from repro.hdfs.namenode import NameNode

#: feature names, in vector order (bias is appended as the last weight)
FEATURE_NAMES = (
    "node_block_accesses",   # log1p of accesses of this block on this node
    "block_accesses",        # log1p of accesses of this block cluster-wide
    "local_fraction",        # fraction of the block's accesses that were local
    "recency",               # exp(-age/600s) of the block's *previous* access
    "budget_utilization",    # node's dynamic budget used/capacity
    "replica_count",         # log1p of the block's current replica count
)

N_FEATURES = len(FEATURE_NAMES)

#: seconds for the recency feature to decay to 1/e
RECENCY_TAU_S = 600.0

#: decision threshold on the sigmoid score
SCORE_THRESHOLD = 0.5

#: weights fit by ``repro train`` on the smoke trace corpus (wl1 x 48
#: jobs, seeds 20110926/7/11/23, greedy-lru + elephant-trap cells; 541
#: examples, 74.1% training accuracy); baked in so ``repro run --policy
#: learned`` works without a model file
DEFAULT_WEIGHTS = (
    -0.51071, 0.31425, -0.33773, 1.06286, -33.93841, 3.45851, -4.74192,
)


def sigmoid(z: float) -> float:
    """Numerically safe logistic function."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def score(weights: Sequence[float], features: Sequence[float]) -> float:
    """Sigmoid of the affine score (bias is the trailing weight)."""
    z = weights[N_FEATURES]
    for w, f in zip(weights, features):
        z += w * f
    return sigmoid(z)


class AccessStats:
    """Cluster-wide per-block access counters shared by the node policies.

    Models the NameNode-assisted statistics a production learned policy
    would query; kept deliberately tiny (four dicts of scalars) so it
    pickles fast inside checkpoint snapshots and never perturbs the
    simulation.
    """

    __slots__ = ("node_block", "total", "local", "last_seen", "prev_seen")

    def __init__(self) -> None:
        #: (node_id, block_id) -> accesses observed on that node
        self.node_block: Dict[Tuple[int, int], int] = {}
        #: block_id -> accesses observed cluster-wide
        self.total: Dict[int, int] = {}
        #: block_id -> data-local accesses cluster-wide
        self.local: Dict[int, int] = {}
        #: block_id -> simulation time of the last access
        self.last_seen: Dict[int, float] = {}
        #: block_id -> time of the access *before* the last one.  The
        #: recency feature reads this: decision points immediately follow
        #: an ``observe`` of the same block, so the last access is always
        #: "now" and only the previous one carries information.
        self.prev_seen: Dict[int, float] = {}

    def observe(self, node_id: int, block_id: int, data_local: bool, now: float) -> None:
        """Record one scheduled map access of ``block_id`` on ``node_id``."""
        key = (node_id, block_id)
        self.node_block[key] = self.node_block.get(key, 0) + 1
        self.total[block_id] = self.total.get(block_id, 0) + 1
        if data_local:
            self.local[block_id] = self.local.get(block_id, 0) + 1
        last = self.last_seen.get(block_id)
        if last is not None:
            self.prev_seen[block_id] = last
        self.last_seen[block_id] = now

    def __getstate__(self):
        return (self.node_block, self.total, self.local, self.last_seen, self.prev_seen)

    def __setstate__(self, state) -> None:
        self.node_block, self.total, self.local, self.last_seen, self.prev_seen = state


def feature_vector(
    stats: AccessStats,
    node_id: int,
    block_id: int,
    replicas: int,
    utilization: float,
    now: float,
) -> List[float]:
    """The model's input for one (node, block) decision point."""
    total = stats.total.get(block_id, 0)
    local = stats.local.get(block_id, 0)
    last = stats.prev_seen.get(block_id)
    return [
        math.log1p(stats.node_block.get((node_id, block_id), 0)),
        math.log1p(total),
        (local / total) if total else 0.0,
        math.exp(-(now - last) / RECENCY_TAU_S) if last is not None else 0.0,
        utilization,
        math.log1p(replicas),
    ]


class LearnedPolicy:
    """Per-node scored policy: replicate/evict by logistic score.

    A remote read is kept when its score clears
    :data:`SCORE_THRESHOLD`; eviction victims are the lowest-scored
    tracked blocks, and a replication is abandoned (victim ``None``)
    when even the worst victim scores at least as high as the incoming
    block — the learned analogue of ElephantTrap's thrashing guard.
    """

    probabilistic = False

    def __init__(
        self,
        weights: Sequence[float],
        node_id: int,
        namenode: NameNode,
        stats: AccessStats,
    ) -> None:
        if len(weights) != N_FEATURES + 1:
            raise ValueError(
                f"learned policy needs {N_FEATURES + 1} weights "
                f"({N_FEATURES} features + bias), got {len(weights)}"
            )
        self.weights = tuple(float(w) for w in weights)
        self.node_id = node_id
        self.namenode = namenode
        self.stats = stats
        #: tracked dynamic replicas, in insertion order (dicts preserve it)
        self._tracked: Dict[int, Block] = {}
        #: last observed simulation time (fed by on_access)
        self._now = 0.0

    def __len__(self) -> int:
        return len(self._tracked)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._tracked

    # -- observation ---------------------------------------------------------

    def on_access(self, block: Block, data_local: bool, now: float) -> None:
        """Observer hook: every scheduled access updates the shared stats."""
        self.stats.observe(self.node_id, block.block_id, data_local, now)
        self._now = now

    # -- the protocol ---------------------------------------------------------

    def add(self, block: Block) -> None:
        if block.block_id in self._tracked:
            raise ValueError(f"block {block.block_id} already tracked")
        self._tracked[block.block_id] = block

    def remove(self, block_id: int) -> None:
        self._tracked.pop(block_id, None)

    def on_local_access(self, block: Block) -> None:
        """Recency/frequency live in the shared stats; nothing extra here."""

    def wants_refresh(self, block: Block) -> bool:
        return True

    def _score(self, block: Block) -> float:
        dn = self.namenode.datanode(self.node_id)
        cap = dn.dynamic_capacity_bytes
        return score(
            self.weights,
            feature_vector(
                self.stats,
                self.node_id,
                block.block_id,
                self.namenode.replica_count(block.block_id),
                (dn.dynamic_bytes_used / cap) if cap else 1.0,
                self._now,
            ),
        )

    def wants_replica(self, block: Block) -> bool:
        return self._score(block) >= SCORE_THRESHOLD

    def pick_victim(self, evicting: Block) -> Optional[Block]:
        """Lowest-scored tracked block, same-file blocks excluded.

        Ties break by insertion order (oldest first), keeping eviction
        deterministic; returns ``None`` when the worst victim still
        scores at least as high as the incoming block.
        """
        best: Optional[Block] = None
        best_score = None
        for block in self._tracked.values():
            if block.same_file(evicting):
                continue
            s = self._score(block)
            if best_score is None or s < best_score:
                best, best_score = block, s
        if best is None or best_score >= self._score(evicting):
            return None
        return best

    def tracked_blocks(self) -> Dict[int, Block]:
        """Snapshot of tracked dynamic replicas (tests/metrics)."""
        return dict(self._tracked)


# -- model files --------------------------------------------------------------

MODEL_FORMAT = 1


def save_model(weights: Sequence[float], path: str, **meta) -> None:
    """Write a model file ``repro run --policy learned --model`` loads."""
    if len(weights) != N_FEATURES + 1:
        raise ValueError(f"expected {N_FEATURES + 1} weights, got {len(weights)}")
    doc = {
        "format": MODEL_FORMAT,
        "features": list(FEATURE_NAMES),
        "weights": [float(w) for w in weights],
    }
    doc.update(meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> Tuple[float, ...]:
    """Read a model file back into a weights tuple."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r} in {path}")
    if list(doc.get("features", ())) != list(FEATURE_NAMES):
        raise ValueError(
            f"model {path} was trained on features {doc.get('features')}, "
            f"this build expects {list(FEATURE_NAMES)}"
        )
    weights = tuple(float(w) for w in doc["weights"])
    if len(weights) != N_FEATURES + 1:
        raise ValueError(f"expected {N_FEATURES + 1} weights, got {len(weights)}")
    return weights
