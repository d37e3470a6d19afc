"""Incremental (delta) snapshots for repeated same-run forking.

The rollout engine snapshots the same live simulation once per decision
epoch, and most of what it pickles never changes between epochs: the
frozen :class:`ExperimentConfig`, the synthesized workload, the cluster
topology, and the HDFS file tree (INodes and Blocks are immutable once
``Simulation.__init__`` has created them — HDFS files are read-only and
replica locations live in the DataNode maps, not on the blocks).

:class:`SnapshotSession` exploits that: it pickles those *static* roots
once, records the pickle-memo index every static object landed at, and
then pickles each epoch's *delta* payload with every static object
replaced by a bare-``int`` persistent id (its memo index).  Restoring a
:class:`DeltaSnapshot` unpickles the static payload once per process
(cached in a :class:`StaticPool`), reads the resulting memo to map
indices back to objects, and resolves the delta's int tokens against it.
Because the static objects are genuinely immutable, every fork restored
from the same session may *share* them — with the pool and with each
other — without any cross-talk.

Dirty detection: the session fingerprints the file tree
(``(len(files), len(blocks))``) at every :meth:`SnapshotSession.snapshot`
and transparently rebases (re-pickles the static payload) if it changed,
so a future mid-run file creation degrades to correct-but-slower rather
than corrupting forks.  ``check=True`` additionally verifies every delta
snapshot against a classic full snapshot: both are restored and
re-pickled with the same tokenless pickler, and the byte streams must
match exactly.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.checkpoint.snapshot import (
    _SimulationPickler,
    _SimulationUnpickler,
    snapshot as full_snapshot,
)
from repro.experiments.runner import Simulation
from repro.experiments.serialize import config_to_dict
from repro.observability.trace import NULL_TRACER, Tracer

#: format tag carried by delta snapshots (full snapshots use format 1)
DELTA_FORMAT = 2


def _static_roots(sim: Simulation) -> Tuple:
    """The immutable-after-setup subsystems shared by every epoch.

    Order matters: the tuple is pickled as one document and its memo
    indices become the token namespace for every delta pickled against
    it.
    """
    return (
        sim.config,
        sim.workload,
        sim.cluster.topology,
        tuple(sim.namenode.files.values()),
    )


def _file_tree_version(sim: Simulation) -> Tuple[int, int]:
    """Cheap fingerprint of the one static subsystem that *could* grow."""
    return (len(sim.namenode.files), len(sim.namenode.blocks))


def _pickle_static(roots: Tuple) -> Tuple[bytes, Dict[int, Tuple[int, object]]]:
    """Pickle the static roots; return (payload, pickle memo).

    The memo maps ``id(obj) -> (memo_index, obj)``; keeping it (and thus
    a reference to every memoized object) alive is what keeps the
    ``id()`` keys valid for the session's lifetime.
    """
    buffer = io.BytesIO()
    pickler = _SimulationPickler(buffer)
    pickler.dump(roots)
    return buffer.getvalue(), pickler.memo.copy()


def _unpickle_static(payload: bytes) -> Dict[int, object]:
    """Unpickle a static payload; return its memo as {index: object}."""
    unpickler = _SimulationUnpickler(io.BytesIO(payload), NULL_TRACER)
    unpickler.load()
    return unpickler.memo.copy()


class StaticPool:
    """Restore-side cache of unpickled static payloads.

    Keyed by payload bytes, so a session rebase (new static payload)
    naturally misses and re-populates.  Holding one pool per process —
    host or pool worker — means the static graph is unpickled once and
    shared by every subsequent fork, which is safe because the objects
    are immutable.
    """

    def __init__(self) -> None:
        # one (payload, memo) slot, swapped as a unit so a restore never
        # sees a payload/memo mismatch
        self._entry: Optional[Tuple[bytes, Dict[int, object]]] = None

    def resolve(self, payload: bytes) -> Dict[int, object]:
        """The {memo-index: object} map for ``payload``, cached."""
        entry = self._entry
        if entry is None or entry[0] != payload:
            entry = (payload, _unpickle_static(payload))
            self._entry = entry
        return entry[1]


@dataclass
class DeltaSnapshot:
    """One epoch's mutable state, pickled against a static payload.

    Unlike :class:`~repro.checkpoint.snapshot.Snapshot` this is an
    in-memory handoff between the rollout driver and its fork scorers —
    it carries no trace prefix and has no disk round-trip.
    """

    format: int
    #: simulation time the snapshot was taken at
    time: float
    #: engine callbacks fired before the snapshot
    events_processed: int
    #: the cell's full config (serialize.config_to_dict), for inspection
    config: Dict
    #: the source tracer's firehose flag, reproduced on restore
    engine_events: bool
    #: whether the source run had an enabled tracer
    traced: bool
    #: the delta-pickled Simulation graph (static objects tokened out)
    payload: bytes
    #: the static payload the delta's int tokens resolve against
    static_payload: bytes

    def restore(
        self,
        tracer: Optional[Tracer] = None,
        pool: Optional[StaticPool] = None,
    ) -> Simulation:
        """Materialize an independent fork of the snapshotted simulation.

        Forks share the (immutable) static objects — with each other when
        the same ``pool`` is passed, and with the live host simulation
        when the pool belongs to its :class:`SnapshotSession`.  Without a
        ``tracer`` the fork gets an enabled sinkless bus when the source
        was traced, else the null tracer.
        """
        if tracer is None:
            if self.traced:
                tracer = Tracer(engine_events=self.engine_events)
            else:
                tracer = NULL_TRACER
        static_map = (pool or StaticPool()).resolve(self.static_payload)
        sim = _SimulationUnpickler(
            io.BytesIO(self.payload), tracer, static_map
        ).load()
        if sim.checker is not None and tracer.enabled:
            sim.checker.attach(tracer)
        return sim

    #: forking is restoring — every call yields an independent copy
    fork = restore


class SnapshotSession:
    """Per-run snapshot factory that amortizes the static subsystems.

    Create one per host simulation, call :meth:`snapshot` at every
    decision epoch.  The first call (and any call after the file tree
    changed) pays a full static pickle; steady-state calls pickle only
    the mutable graph.  The session's :attr:`pool` resolves host-side
    restores against the host's own static objects, so in-process forks
    don't even unpickle the static payload.
    """

    def __init__(self, sim: Simulation, check: bool = False) -> None:
        self.sim = sim
        self.check = check
        #: host-side restore cache (shares the live sim's static objects)
        self.pool = StaticPool()
        self._version: Optional[Tuple[int, int]] = None
        self._static_payload = b""
        self._static_ids: Dict[int, int] = {}
        #: the static pickler's memo, kept alive so id() keys stay valid
        self._memo: Dict[int, Tuple[int, object]] = {}
        # rack_members() populates a lazy per-rack cache on first use;
        # warm it now so the topology is frozen before it is pickled
        topo = sim.cluster.topology
        if topo.n_nodes:
            topo.rack_members(0)

    def _rebase(self) -> None:
        """(Re-)pickle the static payload from the live simulation."""
        roots = _static_roots(self.sim)
        self._static_payload, self._memo = _pickle_static(roots)
        self._static_ids = {
            obj_id: entry[0] for obj_id, entry in self._memo.items()
        }
        self._version = _file_tree_version(self.sim)
        # pre-seed the host pool with the live objects themselves: a
        # host-side restore then shares them instead of unpickling
        self.pool._entry = (
            self._static_payload,
            {entry[0]: entry[1] for entry in self._memo.values()},
        )

    def snapshot(self) -> DeltaSnapshot:
        """Freeze the current state as a :class:`DeltaSnapshot`.

        Same calling contract as :func:`repro.checkpoint.snapshot`: only
        between ``run()`` calls, never from inside an event callback.
        """
        if self._version is None or _file_tree_version(self.sim) != self._version:
            self._rebase()
        buffer = io.BytesIO()
        _SimulationPickler(buffer, self._static_ids).dump(self.sim)
        tracer = self.sim.tracer
        snap = DeltaSnapshot(
            format=DELTA_FORMAT,
            time=self.sim.engine.now,
            events_processed=self.sim.engine.events_processed,
            config=config_to_dict(self.sim.config),
            engine_events=tracer.engine_events,
            traced=tracer.enabled,
            payload=buffer.getvalue(),
            static_payload=self._static_payload,
        )
        if self.check:
            self._self_check(snap)
        return snap

    def _self_check(self, snap: DeltaSnapshot) -> None:
        """Assert delta-restore ≡ full-snapshot-restore, byte-for-byte.

        Both restored simulations are re-pickled with the plain
        (tokenless) pickler; the streams must match exactly.  Costs a
        full snapshot + two restores + two pickles per epoch, which is
        why it rides the ``--check-invariants`` flag.
        """
        full = full_snapshot(self.sim)
        delta_sim = snap.restore(tracer=NULL_TRACER)
        full_sim = full.restore(tracer=NULL_TRACER)
        delta_bytes = _repickle(delta_sim)
        full_bytes = _repickle(full_sim)
        if delta_bytes != full_bytes:
            raise AssertionError(
                "delta snapshot diverged from full snapshot at "
                f"t={snap.time}: restored graphs re-pickle to different "
                f"bytes ({len(delta_bytes)} vs {len(full_bytes)})"
            )


def _repickle(sim: Simulation) -> bytes:
    """Pickle a restored simulation with the plain tokenless pickler."""
    buffer = io.BytesIO()
    _SimulationPickler(buffer).dump(sim)
    return buffer.getvalue()
