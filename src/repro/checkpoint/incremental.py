"""Taking snapshots: the per-run :class:`SnapshotSession`.

Every :class:`~repro.checkpoint.snapshot.Snapshot` is taken by a session.
The rollout engine snapshots the same live simulation once per decision
epoch, and most of what it pickles never changes between epochs: the
frozen :class:`ExperimentConfig`, the synthesized workload, the cluster
topology, and the HDFS file tree (INodes and Blocks are immutable once
``Simulation.__init__`` has created them — HDFS files are read-only and
replica locations live in the DataNode maps, not on the blocks).

A session pickles those *static* roots once and keeps that pickler's
memo (token slots, then every static object at its index); each
snapshot's *delta* payload is pickled by a fresh pickler seeded with a
copy of it, so every static object is a memo reference.  A one-shot
:func:`snapshot` is a session of one that also embeds the trace prefix,
for checkpoints that are saved to disk or forked per what-if cell.

Dirty detection: the session fingerprints the file tree
(``(len(files), len(blocks))``) at every :meth:`SnapshotSession.snapshot`
and transparently rebases (re-pickles the static payload) if it changed,
so a future mid-run file creation degrades to correct-but-slower rather
than corrupting forks.  ``check=True`` additionally verifies every
snapshot against a plain pickle of the live run (token slots only): both are
materialized and re-pickled, and the byte streams must match exactly.
"""

from __future__ import annotations

import io
from typing import Optional, Tuple

from repro.checkpoint.snapshot import (
    SNAPSHOT_FORMAT,
    Snapshot,
    StaticPool,
    _pickler,
    _token_memo,
    _unpickler,
)
from repro.experiments.runner import Simulation
from repro.experiments.serialize import config_to_dict
from repro.observability.trace import NULL_TRACER, JsonlSink

#: former name of the per-epoch snapshot; ``e2e_bench/layers.py`` still
#: wraps ``DeltaSnapshot.restore`` by it
DeltaSnapshot = Snapshot


def _static_roots(sim: Simulation) -> Tuple:
    """The immutable-after-setup subsystems shared by every epoch.

    Order matters: the tuple is pickled as one document and its memo
    indices are the references of every delta pickled against it.
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


def _dumps(sim: Simulation, memo=None) -> bytes:
    """Pickle ``sim`` against ``memo`` (by default its token slots only)."""
    buffer = io.BytesIO()
    _pickler(buffer, _token_memo(sim) if memo is None else memo).dump(sim)
    return buffer.getvalue()


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
        #: the static pickler's memo: seeds each delta, keeps statics alive
        self._memo = None
        # rack_members() populates a lazy per-rack cache on first use;
        # warm it now so the topology is frozen before it is pickled
        topo = sim.cluster.topology
        if topo.n_nodes:
            topo.rack_members(0)

    def _rebase(self) -> None:
        """(Re-)pickle the static payload from the live simulation."""
        buffer = io.BytesIO()
        pickler = _pickler(buffer, _token_memo(self.sim))
        pickler.dump(_static_roots(self.sim))
        self._static_payload = buffer.getvalue()
        self._memo = pickler.memo
        self._version = _file_tree_version(self.sim)
        self.pool.share(self._static_payload, self._memo)

    def snapshot(self) -> Snapshot:
        """Freeze the current state as a :class:`Snapshot`.

        Only between ``run()`` calls, never from inside an event
        callback.  Never touches the trace sink: the snapshot carries no
        trace prefix.
        """
        if self._version is None or _file_tree_version(self.sim) != self._version:
            self._rebase()
        tracer = self.sim.tracer
        snap = Snapshot(
            format=SNAPSHOT_FORMAT,
            time=self.sim.engine.now,
            events_processed=self.sim.engine.events_processed,
            config=config_to_dict(self.sim.config),
            engine_events=tracer.engine_events,
            traced=tracer.enabled,
            payload=_dumps(self.sim, self._memo),
            static_payload=self._static_payload,
        )
        if self.check:
            self._self_check(snap)
        return snap

    def _self_check(self, snap: Snapshot) -> None:
        """Assert snapshot-restore ≡ plain pickle round trip, byte-for-byte.

        The snapshot is restored from its own payloads (a fresh pool, so
        a static object mutated behind the session's back shows up); the
        live run is pickled against its token slots only and unpickled.
        Both graphs are re-pickled the same way and the streams must
        match exactly.  Costs a pickle round trip of the live run, a
        restore and two re-pickles per epoch, which is why it rides the
        ``--check-invariants`` flag.
        """
        restored = _dumps(snap.restore(tracer=NULL_TRACER))
        live = _dumps(_unpickler(_dumps(self.sim), NULL_TRACER).load())
        if restored != live:
            raise AssertionError(
                "snapshot diverged from the live run at "
                f"t={snap.time}: restored graphs re-pickle to different "
                f"bytes ({len(restored)} vs {len(live)})"
            )


def snapshot(sim: Simulation) -> Snapshot:
    """Freeze a (typically paused) simulation, embedding its trace prefix.

    A one-shot :class:`SnapshotSession`; same calling contract.  The
    source simulation is left fully usable; its trace sink is flushed so
    the embedded prefix covers every record emitted so far.
    """
    snap = SnapshotSession(sim).snapshot()
    tracer = sim.tracer
    if tracer.enabled:
        for sink in tracer._sinks:
            if isinstance(sink, JsonlSink):
                sink.flush()
                with open(sink.path, "rb") as fh:
                    snap.trace_prefix = fh.read()
                break
    return snap
