"""Scarlett: epoch-based proactive replication (EuroSys'11), simplified.

At every epoch boundary the service:

1. reads the file access counts observed during the epoch just ended;
2. computes a per-file target replication factor by *water-filling*: the
   file with the highest accesses-per-replica repeatedly receives one more
   replica until the extra-storage budget is spent (this smooths hotspots,
   Scarlett's stated goal);
3. removes its previously created replicas for files that fell out of the
   hot set (replica aging);
4. creates the missing replicas by copying blocks over the network — the
   rebalancing traffic DARE avoids — throttled by a concurrency cap (the
   paper's Scarlett bounds rebalancing bandwidth the same way).

Differences from the real system are intentional simplifications: we use
access counts rather than measured concurrency, and a single learning
window equal to the epoch.  Both preserve the property the comparison needs:
replication factors only change at epoch boundaries, so popularity shifts
inside an epoch go unserved — exactly the behaviour DARE was designed to
beat.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.hdfs.copier import BlockCopier
from repro.metrics.traffic import TrafficMeter
from repro.observability.trace import NULL_TRACER, SCARLETT_EPOCH, Tracer
from repro.simulation.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.job import Job


class ScarlettConfig(NamedTuple):
    """Scarlett parameters."""

    #: seconds between recomputation rounds
    epoch_s: float = 600.0
    #: extra-storage budget, fraction of stored physical bytes (same
    #: semantics as DARE's budget, for apples-to-apples comparisons)
    budget: float = 0.2
    #: cap on concurrent rebalancing copies
    max_concurrent: int = 4

    def validate(self) -> "ScarlettConfig":
        """Raise on malformed configs; return self."""
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {self.epoch_s}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {self.max_concurrent}")
        return self


class ScarlettService:
    """Periodic popularity-driven replication."""

    def __init__(
        self,
        config: ScarlettConfig,
        namenode: "NameNode",
        engine: Engine,
        traffic: TrafficMeter,
        rng: random.Random,
        stop_when=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config.validate()
        #: optional zero-arg predicate: when true, stop scheduling epochs
        self.stop_when = stop_when
        self.namenode = namenode
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = rng
        #: accesses per file name in the current epoch
        self._epoch_counts: Counter = Counter()
        #: extra replicas this service created: file -> [(block_id, node_id)]
        self._extra: Dict[str, List[Tuple[int, int]]] = {}
        self.copier = BlockCopier(
            namenode, engine, traffic, "rebalancing", "scarlett-copy:",
            self.config.max_concurrent, self._landed,
        )
        self.replicas_created = 0
        self.replicas_removed = 0
        self.epochs_run = 0
        self._slack_bytes: Optional[int] = None

    # -- wiring ---------------------------------------------------------------

    def arm(self) -> None:
        """Schedule the first epoch boundary."""
        self.engine.schedule_in(
            self.config.epoch_s, self._epoch_boundary, "scarlett-epoch"
        )

    def observe_submission(self, job: "Job") -> None:
        """JobTracker hook: record a file access."""
        self._epoch_counts[job.spec.input_file] += 1

    # -- epoch logic ---------------------------------------------------------------

    def budget_bytes(self) -> int:
        """Extra-storage budget in bytes (fraction of stored physical bytes)."""
        physical = sum(
            f.size_bytes * f.replication for f in self.namenode.files.values()
        )
        return int(self.config.budget * physical)

    def extra_bytes(self) -> int:
        """Bytes currently held as Scarlett extra replicas.

        Pairs on dead nodes still count until aged out — the budget is a
        bookkeeping construct, not a measure of reachable storage.
        """
        return sum(
            self.namenode.blocks[bid].size_bytes
            for pairs in self._extra.values()
            for bid, _node in pairs
        )

    def slack_bytes(self) -> int:
        """How far ``extra_bytes`` may legitimately overshoot the budget.

        Copies in flight at an epoch boundary (at most ``max_concurrent``)
        were planned against the previous epoch's water-fill and may still
        land on top of the new plan.
        """
        if self._slack_bytes is None:
            # the block set is fixed after dataset load
            self._slack_bytes = self.config.max_concurrent * max(
                (b.size_bytes for b in self.namenode.blocks.values()), default=0
            )
        return self._slack_bytes

    def _water_fill(self, counts: Counter) -> Dict[str, int]:
        """Extra replicas per file: highest accesses-per-replica first."""
        n_slaves = self.namenode.cluster.n_slaves
        budget = self.budget_bytes()
        extra: Dict[str, int] = {}
        spent = 0
        # candidate heap approximated with repeated max over the hot set
        hot = [name for name, c in counts.items() if c > 0]
        if not hot:
            return extra
        while True:
            best, best_key = None, 0.0
            for name in hot:
                inode = self.namenode.file(name)
                replicas = inode.replication + extra.get(name, 0)
                if replicas >= n_slaves:
                    continue
                if spent + inode.size_bytes > budget:
                    continue
                key = counts[name] / replicas
                if key > best_key:
                    best, best_key = name, key
            if best is None:
                return extra
            extra[best] = extra.get(best, 0) + 1
            spent += self.namenode.file(best).size_bytes

    def _epoch_boundary(self) -> None:
        self.epochs_run += 1
        # drop copy work left over from the previous epoch: those copies
        # were sized against the *old* water-fill plan, and letting them
        # land on top of the new plan overshoots the budget without bound
        self.copier.queue.clear()
        counts = self._epoch_counts
        self._epoch_counts = Counter()
        targets = self._water_fill(counts)
        # age out replicas of files no longer hot enough
        for name in list(self._extra):
            want = targets.get(name, 0)
            while self._extra_count(name) > want:
                self._remove_one(name)
        # create what is missing
        for name, want in targets.items():
            missing = want - self._extra_count(name)
            for _ in range(max(0, missing)):
                self._enqueue_file_copy(name)
        self.copier.pump()
        if self.tracer.enabled:
            self.tracer.emit(
                SCARLETT_EPOCH,
                self.engine.now,
                epoch=self.epochs_run,
                files_hot=len(targets),
                extra_replicas=sum(len(p) for p in self._extra.values()),
                budget_bytes=self.budget_bytes(),
                spent_bytes=self.extra_bytes(),
                slack_bytes=self.slack_bytes(),
                replicas_created=self.replicas_created,
                replicas_removed=self.replicas_removed,
                queued=len(self.copier.queue),
            )
        if self.stop_when is None or not self.stop_when():
            self.engine.schedule_in(
                self.config.epoch_s, self._epoch_boundary, "scarlett-epoch"
            )

    # -- replica bookkeeping ---------------------------------------------------------

    def _extra_count(self, name: str) -> int:
        """Extra whole-file replica count currently held for ``name``."""
        pairs = self._extra.get(name, [])
        if not pairs:
            return 0
        n_blocks = self.namenode.file(name).n_blocks
        return len(pairs) // max(1, n_blocks)

    def _remove_one(self, name: str) -> None:
        """Drop one whole-file extra replica (newest first)."""
        inode = self.namenode.file(name)
        pairs = self._extra.get(name, [])
        for _ in range(inode.n_blocks):
            if not pairs:
                break
            bid, node_id = pairs.pop()
            if self.namenode.remove_static_replica(bid, node_id):
                self.replicas_removed += 1
        if not pairs:
            self._extra.pop(name, None)

    def _enqueue_file_copy(self, name: str) -> None:
        """Queue copies of every block of ``name`` to one fresh node each."""
        inode = self.namenode.file(name)
        for block in inode.blocks:
            candidates = self.namenode.new_holders(block.block_id)
            if not candidates:
                continue
            locs = self.namenode.locations(block.block_id)
            src_choices = [
                n for n in locs if self.namenode.cluster.node(n).alive
            ]
            if not src_choices:
                continue
            dst = self._rng.choice(candidates)
            src = self._rng.choice(src_choices)
            self.copier.queue.append((block.block_id, src, dst))

    def _landed(self, bid: int, dst: int, installed: bool) -> None:
        if installed:
            name = self.namenode.blocks[bid].inode.name
            self._extra.setdefault(name, []).append((bid, dst))
            self.replicas_created += 1
