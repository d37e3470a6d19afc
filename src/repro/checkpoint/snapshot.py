"""The snapshot format: one class, one pickle path, one restore.

A :class:`Snapshot` freezes a live :class:`Simulation` mid-run — engine
clock and event heap (every event action is a typed intent: a
``functools.partial`` over a bound method or a ``__slots__`` callable,
never a closure), NameNode/DataNode block maps and budgets,
JobTracker/TaskTracker slots and in-flight attempts, policy state
(greedy LRU order, ElephantTrap clock hand and counts, Scarlett epoch
accounting), and every RNG stream.  Pickle memoization preserves the
aliasing the simulator relies on (each heap entry's ``Event`` is the same
object the running attempt or heartbeat chain holds; tasks
back-reference their jobs), so a restored run continues exactly where
the original paused.

The graph is stored as two payloads.  The *static* payload pickles the
subsystems that never change after setup (config, workload, topology,
HDFS file tree); the *delta* payload pickles everything else against the
static pickler's memo, so each static object is a C-level memo
reference, not a second copy.  Restore unpickles the static payload once
per :class:`StaticPool` and seeds the delta's unpickler with it, so
forks restored through one pool share the immutable static objects.
Snapshots are taken by :mod:`repro.checkpoint.incremental`.

Both payloads' memos start with two token slots — ``NULL_TRACER`` and
the run's own :class:`Tracer` (it holds an open file handle) — so
neither tracer is pickled: restore binds the slots to ``NULL_TRACER``
and the restore-time bus.  Any other tracer in the graph fails the
snapshot.

Nor does a snapshot carry ``Simulation.engine_wall_s``, the run's other
wall-clock state: a restored simulation starts it at zero, and two
snapshots of the same state are the same bytes.

Determinism contract: a restored (or forked) run produces a JSONL trace
byte-identical to the cold run from the same seed.  A one-shot
:func:`~repro.checkpoint.incremental.snapshot` embeds the flushed
trace-prefix bytes of the source run's sink, restore writes them to the
new trace path, and the resumed run appends — so the file is
indistinguishable from one written in a single pass.
"""

from __future__ import annotations

import copyreg
import functools
import io
import pickle
import struct
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import Simulation
from repro.observability.trace import NULL_TRACER, JsonlSink, Tracer

#: bump when the pickled payload layout changes shape
SNAPSHOT_FORMAT = 13

#: memo slots ahead of a payload's own objects (see :func:`_token_memo`)
_N_TOKENS = 2


def _refuse(obj: object):
    raise pickle.PicklingError(
        f"a {type(obj).__name__} that is not the snapshotted run's own is in its graph"
    )


def _token_memo(sim: Simulation) -> Dict[int, Tuple[int, object]]:
    """A pickler memo holding ``sim``'s token slots: ``NULL_TRACER`` and
    its tracer.  An untraced run's tracer slot holds a fresh placeholder,
    so the two stay distinct and a payload's own objects always start at
    index :data:`_N_TOKENS`."""
    tracer = sim.tracer if sim.tracer is not NULL_TRACER else object()
    return {i: (i, obj) for i, obj in enumerate((NULL_TRACER, tracer))}


def _pickler(buffer: io.BytesIO, memo) -> pickle.Pickler:
    """A pickler whose memo starts as ``memo`` (a dict or a memo proxy).

    Its reducers are copyreg's plus a refusal for any tracer outside the
    token slots (an object in the memo is never reduced).
    """
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {**copyreg.dispatch_table, Tracer: _refuse}
    pickler.memo = memo
    return pickler


@functools.lru_cache(maxsize=4)
def _seed_stream(n: int) -> bytes:
    """A pickle that memoizes persistent ids ``0 .. n-1`` in order.

    ``Unpickler.memo`` cannot seed an unpickler: CPython drops a dict
    assigned to it, and a copied memo proxy keeps the objects but not
    their count, so the payload's first ``MEMOIZE`` overwrites slot 0.
    Read first by the same unpickler, this leaves exactly ``n`` entries.
    """
    step = pickle.BINPERSID + pickle.MEMOIZE + pickle.POP
    body = b"".join(pickle.BININT + struct.pack("<i", i) + step for i in range(n))
    body += pickle.NONE + pickle.STOP
    return pickle.PROTO + b"\x04" + pickle.FRAME + struct.pack("<Q", len(body)) + body


def _unpickler(payload: bytes, tracer: Tracer, static: Sequence[object] = ()) -> pickle.Unpickler:
    """An unpickler for ``payload`` whose memo starts with the token slots
    (bound to ``NULL_TRACER`` and ``tracer``), then ``static``."""
    slots = [NULL_TRACER, tracer, *static]
    unpickler = pickle.Unpickler(io.BytesIO(_seed_stream(len(slots)) + payload))
    unpickler.persistent_load = slots.__getitem__
    unpickler.load()  # the seed stream
    return unpickler


class StaticPool:
    """Restore-side cache of unpickled static payloads.

    Keyed by payload bytes, so a session rebase (new static payload)
    misses and re-populates.  One pool per process (host or pool worker)
    unpickles the static graph once for every later fork, which is safe
    because the objects are immutable.
    """

    def __init__(self) -> None:
        # one (payload, objects) slot, swapped as a unit so a restore
        # never sees a payload/objects mismatch
        self._entry: Optional[Tuple[bytes, List[object]]] = None

    def objects(self, payload: bytes) -> List[object]:
        """``payload``'s objects in memo order after the token slots, cached."""
        entry = self._entry
        if entry is None or entry[0] != payload:
            unpickler = _unpickler(payload, NULL_TRACER)
            unpickler.load()
            memo = unpickler.memo.copy()
            entry = (payload, [memo[i] for i in range(_N_TOKENS, len(memo))])
            self._entry = entry
        return entry[1]

    def share(self, payload: bytes, memo) -> None:
        """Serve ``payload`` with the live objects of the pickler ``memo``
        that wrote it, so restores share them instead of unpickling."""
        entries = sorted(memo.copy().values())  # (memo index, obj)
        self._entry = (payload, [obj for _, obj in entries[_N_TOKENS:]])


@dataclass
class Snapshot:
    """A paused simulation, frozen as bytes plus restart metadata."""

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
    #: the delta-pickled Simulation graph (static objects memo references)
    payload: bytes
    #: the static payload whose memo the delta's references index
    static_payload: bytes
    #: flushed JSONL bytes of the source run's trace file, if embedded
    trace_prefix: Optional[bytes] = None

    def restore(
        self,
        trace_path: str = "",
        tracer: Optional[Tracer] = None,
        pool: Optional[StaticPool] = None,
    ) -> Simulation:
        """Materialize an independent live Simulation from the snapshot.

        Each call unpickles a fresh copy, so calling repeatedly *forks*:
        the copies share nothing mutable and can be run (and patched)
        separately.  Forks share the immutable static objects — with each
        other when the same ``pool`` is passed, and with the live host
        when the pool belongs to its
        :class:`~repro.checkpoint.incremental.SnapshotSession`.

        ``trace_path`` continues the source run's trace there: the
        embedded prefix is written first and the resumed run appends,
        yielding a file byte-identical to a cold run's.  Requires a
        snapshot with a trace prefix.  Without ``trace_path`` the run is
        restored with an enabled (but sinkless) bus when the source was
        traced, else with the null tracer.  An explicit ``tracer``
        overrides all of that.
        """
        if tracer is None:
            if trace_path:
                if self.trace_prefix is None:
                    raise ValueError(
                        "snapshot has no trace prefix (the source run did not "
                        "trace to a file); restore without trace_path instead"
                    )
                with open(trace_path, "wb") as fh:
                    fh.write(self.trace_prefix)
                tracer = Tracer(engine_events=self.engine_events)
                tracer.add_sink(JsonlSink(trace_path, append=True))
            elif self.traced:
                tracer = Tracer(engine_events=self.engine_events)
            else:
                tracer = NULL_TRACER
        static = (pool or StaticPool()).objects(self.static_payload)
        sim = _unpickler(self.payload, tracer, static).load()
        if sim.checker is not None and tracer.enabled:
            # the invariant checker's ring sink and record subscription
            # lived on the old bus; re-attach them to the new one
            sim.checker.attach(tracer)
        return sim

    # -- disk round-trip -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the snapshot to ``path`` (see :meth:`load`)."""
        with open(path, "wb") as fh:
            pickle.dump(asdict(self), fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        """Read a snapshot written by :meth:`save`.

        Raises ``ValueError`` on anything that is not a current-format
        checkpoint file, ``OSError`` on an unreadable path.
        """
        with open(path, "rb") as fh:
            try:
                doc = pickle.load(fh)
            except Exception as exc:
                raise ValueError(f"not a checkpoint file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                "unsupported snapshot format "
                f"{doc.get('format') if isinstance(doc, dict) else type(doc).__name__!r}"
            )
        return cls(**doc)
