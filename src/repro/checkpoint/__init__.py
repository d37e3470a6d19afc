"""Simulation checkpoints: snapshot/restore and what-if patches.

See ``docs/CHECKPOINT.md`` for the snapshot format, the determinism
contract, and the sweep prefix-sharing heuristic built on top of it.
"""

from repro.checkpoint.incremental import SnapshotSession, snapshot
from repro.checkpoint.patches import (
    FlipPolicy,
    KillNode,
    Patch,
    PinReplica,
    parse_patch,
)
from repro.checkpoint.snapshot import SNAPSHOT_FORMAT, Snapshot, StaticPool

__all__ = [
    "SNAPSHOT_FORMAT",
    "Snapshot",
    "snapshot",
    "SnapshotSession",
    "StaticPool",
    "Patch",
    "KillNode",
    "FlipPolicy",
    "PinReplica",
    "parse_patch",
]
