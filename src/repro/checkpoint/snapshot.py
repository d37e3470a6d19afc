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
HDFS file tree); the *delta* payload pickles everything else, with each
static object replaced by a bare-``int`` persistent id — its memo index
in the static payload.  Restore unpickles the static payload through a
:class:`StaticPool` and resolves the delta's tokens against it, so forks
restored through one pool share the immutable static objects.  Snapshots
are taken by :mod:`repro.checkpoint.incremental`.

Two objects are *excluded* from both payloads and re-wired on restore:

* the shared :class:`Tracer` (it holds an open file handle); every
  component's reference is replaced by a persistent-id token and resolved
  to a fresh bus on load, and
* the sampling profiler (wall-clock state, meaningless after restore).

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

import io
import pickle
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.runner import Simulation
from repro.observability.profiling import CallbackProfiler
from repro.observability.trace import NULL_TRACER, JsonlSink, Tracer

#: bump when the pickled payload layout changes shape
SNAPSHOT_FORMAT = 8

_TOKEN_TRACER = "tracer"
_TOKEN_NULL_TRACER = "null-tracer"
_TOKEN_PROFILER = "profiler"


class _SimulationPickler(pickle.Pickler):
    """Pickler that tokens out the shared tracer and the profiler.

    ``static_ids`` additionally tokens out objects pickled in the static
    payload: it maps ``id(obj)`` to that payload's pickle-memo index, and
    any object found in it is emitted as a bare-``int`` persistent id
    instead of being re-pickled.  The lookups below are ordered
    hottest-first — this method runs once per object in the graph.
    """

    def __init__(
        self,
        buffer: io.BytesIO,
        static_ids: Optional[Dict[int, int]] = None,
    ) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._static_ids = static_ids if static_ids is not None else {}

    def persistent_id(self, obj: object):
        token = self._static_ids.get(id(obj))
        if token is not None:
            return token
        if obj is NULL_TRACER:
            return _TOKEN_NULL_TRACER
        if isinstance(obj, Tracer):
            return _TOKEN_TRACER
        if isinstance(obj, CallbackProfiler):
            return _TOKEN_PROFILER
        return None


def _unpickler(
    payload: bytes,
    tracer: Tracer,
    static_map: Optional[Dict[int, object]] = None,
) -> pickle.Unpickler:
    """An unpickler that resolves every persistent id through one dict.

    Tracer tokens resolve to the restore-time bus; the ``int`` ids of a
    delta payload resolve through ``static_map`` (static-payload memo
    index -> already-unpickled static object).  The dict's own
    ``__getitem__`` serves as ``persistent_load``, so the thousands of
    static references in a delta cost a C lookup each, not a Python call.
    """
    tokens: Dict[object, object] = dict(static_map or ())
    tokens[_TOKEN_TRACER] = tracer
    tokens[_TOKEN_NULL_TRACER] = NULL_TRACER
    tokens[_TOKEN_PROFILER] = None
    unpickler = pickle.Unpickler(io.BytesIO(payload))
    unpickler.persistent_load = tokens.__getitem__
    return unpickler


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
            unpickler = _unpickler(payload, NULL_TRACER)
            unpickler.load()
            entry = (payload, unpickler.memo.copy())
            self._entry = entry
        return entry[1]


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
    #: the delta-pickled Simulation graph (static objects tokened out)
    payload: bytes
    #: the static payload the delta's int tokens resolve against
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
        static_map = (pool or StaticPool()).resolve(self.static_payload)
        sim = _unpickler(self.payload, tracer, static_map).load()
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
