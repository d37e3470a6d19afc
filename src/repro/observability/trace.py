"""The structured trace bus.

Components publish typed :class:`TraceRecord` s to a :class:`Tracer`; sinks
(ring buffer, JSONL file) store them and subscribers (the invariant checker)
react to them.  The bus is designed so that a *disabled* tracer costs one
attribute check on the hot path: every instrumented call site is guarded by
``if tracer.enabled:`` and the module-level :data:`NULL_TRACER` singleton is
permanently disabled, so simulations that don't opt in pay essentially
nothing.

Record types
------------
Each record is ``(type, time, data)`` where ``type`` is one of the module
constants below, ``time`` is the simulation clock, and ``data`` is a flat
``dict`` of JSON-serializable fields:

=====================  =========================================================
``BLOCK_REPLICATED``   dynamic replica inserted (node, block, bytes, used, cap)
``BLOCK_EVICTED``      dynamic replica marked for lazy deletion
``BUDGET_CHARGE``      dynamic budget consumed by an insertion
``BUDGET_REFUND``      dynamic budget released by an eviction
``REPLICATION_ABANDONED``  no victim found; replication given up
``TASK_SCHEDULED``     map/reduce attempt launched (node, locality, ...)
``TASK_FINISHED``      map/reduce attempt completed
``HEARTBEAT``          TaskTracker heartbeat (free slots)
``HDFS_HEARTBEAT``     DataNode block report applied (commands drained)
``FAILURE_INJECTED``   node killed by the failure injector
``FAILURE_DETECTED``   NameNode pruned a dead node's replicas
``ENGINE_EVENT``       one engine callback fired (opt-in; very hot)
``SCARLETT_EPOCH``     Scarlett epoch boundary (targets, budget, spent)
``ROLLOUT_DECISION``   rollout engine chose an action (or no-op) at an epoch
``RUN_CONFIG``         run header: experiment cell parameters (first record)
``RUN_SUMMARY``        run footer: final counters + per-node end state
=====================  =========================================================

``RUN_CONFIG`` / ``RUN_SUMMARY`` bracket a complete run so a trace is a
self-contained replayable artifact: :mod:`repro.replay` reconstructs the
control-plane end state purely from the records in between and checks it
against the footer.  A trace that ends without a ``RUN_SUMMARY`` is a
crashed (or still-running) run — still replayable up to its last record.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

# -- record types -------------------------------------------------------------

BLOCK_REPLICATED = "block.replicated"
BLOCK_EVICTED = "block.evicted"
BUDGET_CHARGE = "budget.charge"
BUDGET_REFUND = "budget.refund"
REPLICATION_ABANDONED = "replication.abandoned"
TASK_SCHEDULED = "task.scheduled"
TASK_FINISHED = "task.finished"
HEARTBEAT = "heartbeat"
HDFS_HEARTBEAT = "hdfs.heartbeat"
FAILURE_INJECTED = "failure.injected"
FAILURE_DETECTED = "failure.detected"
ENGINE_EVENT = "engine.event"
SCARLETT_EPOCH = "scarlett.epoch"
ROLLOUT_DECISION = "rollout.decision"
RUN_CONFIG = "run.config"
RUN_SUMMARY = "run.summary"

#: every record type the stack emits, for schema validation in tests
RECORD_TYPES = frozenset(
    {
        BLOCK_REPLICATED,
        BLOCK_EVICTED,
        BUDGET_CHARGE,
        BUDGET_REFUND,
        REPLICATION_ABANDONED,
        TASK_SCHEDULED,
        TASK_FINISHED,
        HEARTBEAT,
        HDFS_HEARTBEAT,
        FAILURE_INJECTED,
        FAILURE_DETECTED,
        ENGINE_EVENT,
        SCARLETT_EPOCH,
        ROLLOUT_DECISION,
        RUN_CONFIG,
        RUN_SUMMARY,
    }
)

#: JSONL keys owned by the envelope, not the record's data payload
RESERVED_KEYS = ("type", "t")

#: prefix under which colliding data keys are namespaced in the JSONL form
DATA_KEY_PREFIX = "data."

#: built once: ``json.dumps(obj, sort_keys=True)`` builds one per call
_encode = json.JSONEncoder(sort_keys=True).encode


class TraceRecord(NamedTuple):
    """One published event: ``(type, time, data)``."""

    type: str
    time: float
    data: Dict[str, object]

    def to_json(self) -> str:
        """Serialize as one JSONL line.

        The envelope owns the ``type`` and ``t`` keys.  A data field that
        collides with them (or that itself starts with the namespacing
        prefix) is written as ``data.<key>`` so the line stays one valid
        JSON object and the round-trip through
        :func:`repro.replay.reader.read_trace` is lossless.
        """
        payload: Dict[str, object] = {"type": self.type, "t": self.time}
        for key, value in self.data.items():
            if key in RESERVED_KEYS or key.startswith(DATA_KEY_PREFIX):
                key = DATA_KEY_PREFIX + key
            payload[key] = value
        return _encode(payload)


# -- sinks ---------------------------------------------------------------------


class RingBufferSink:
    """Keeps the last ``capacity`` records in memory (the diagnostic tail)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)

    def write(self, record: TraceRecord) -> None:
        self.records.append(record)

    def tail(self, n: int = 20) -> List[TraceRecord]:
        """The most recent ``n`` records, oldest first."""
        return list(self.records)[-n:]

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink:
    """Appends every record to a JSONL file (one object per line).

    Flushes to the OS every ``flush_every`` records so a crashed run's
    trace is replayable up to (nearly) its last event; the runner closes
    the sink in a ``try/finally`` which flushes the remainder.

    ``append=True`` continues an existing file instead of truncating it —
    the checkpoint layer restores a run by writing the snapshot's trace
    prefix and appending the resumed run's records after it.
    """

    def __init__(self, path: str, flush_every: int = 256, append: bool = False) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self._fh = open(path, "a" if append else "w", encoding="utf-8")
        self.records_written = 0
        self._flush_every = flush_every

    def write(self, record: TraceRecord) -> None:
        self._fh.write(record.to_json())
        self._fh.write("\n")
        self.records_written += 1
        if self.records_written % self._flush_every == 0:
            self._fh.flush()

    def flush(self) -> None:
        """Push buffered records to the OS without closing the file."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the bus ---------------------------------------------------------------------


class Tracer:
    """Publish/subscribe bus for simulation trace records.

    ``enabled`` is the master switch: call sites guard their ``emit`` with
    it, and :meth:`emit` itself re-checks so an unguarded call is still
    safe.  ``engine_events`` additionally opts in to the per-callback
    :data:`ENGINE_EVENT` firehose, which is orders of magnitude hotter than
    the rest of the schema and off by default even on enabled tracers.
    """

    __slots__ = ("enabled", "engine_events", "_sinks", "_subscribers")

    def __init__(self, enabled: bool = True, engine_events: bool = False) -> None:
        self.enabled = enabled
        self.engine_events = engine_events
        self._sinks: List[object] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []

    # -- wiring ---------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a storage sink (anything with ``write(record)``)."""
        self._sinks.append(sink)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Attach a reactive subscriber called with every record."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach a subscriber added by :meth:`subscribe`.

        A no-op when ``fn`` was never attached, so teardown paths can
        call it unconditionally.
        """
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # -- publishing -------------------------------------------------------------

    def emit(self, type: str, time: float, **data: object) -> Optional[TraceRecord]:
        """Publish one record to every sink and subscriber.

        Returns the record (or ``None`` when disabled) so tests can assert
        on what was published.
        """
        if not self.enabled:
            return None
        record = TraceRecord(type, time, data)
        for sink in self._sinks:
            sink.write(record)
        for fn in self._subscribers:
            fn(record)
        return record

    def close(self) -> None:
        """Close every sink that supports closing."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: the permanently disabled tracer every component defaults to
NULL_TRACER = Tracer(enabled=False)
