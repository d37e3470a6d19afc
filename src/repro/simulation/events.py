"""Event objects and the event queue.

Events are small, immutable-ish records ordered by ``(time, seq)``.  ``seq``
is a global monotonically increasing counter assigned at scheduling time, so
events scheduled earlier run earlier among ties — this gives the simulator
deterministic, insertion-ordered tie-breaking, which matters for
reproducibility of heartbeat races.

The heap holds ``(time, seq, event)`` tuples rather than the events
themselves, so ``heapq`` compares keys in C; ``seq`` is unique, so a
comparison never reaches the :class:`Event`.

Cancellation is lazy (O(1)): a cancelled event stays in the heap until it
reaches the top.  To keep pop/peek O(log live) amortized on cancel-heavy
workloads — speculative execution and failure unwinding can cancel most of
the heap — the queue compacts itself in place whenever cancelled entries
outnumber live ones, so the heap never carries more than ~50% garbage
(beyond a small fixed floor).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

#: below this many cancelled entries compaction is not worth the heapify
COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which the event fires.
    seq:
        Scheduling sequence number; ties on ``time`` break by ``seq``.
    action:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable tag used in traces and error messages.
    cancelled:
        Lazily-cancelled events stay in the heap but are skipped when popped.
    fired:
        Set when the event is popped live; cancelling a fired event is a
        no-op (it must not decrement the live count a second time).
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "fired")

    def __init__(self, time: float, seq: int, action: Callable[[], None], label: str = ""):
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it (lazy deletion)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} seq={self.seq} {self.label!r}{state}>"


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy cancellation.

    ``len(q)`` / ``bool(q)`` report *live* events only; the heap itself may
    additionally hold up to ``max(live, COMPACT_MIN_CANCELLED)`` cancelled
    entries awaiting lazy removal (see :meth:`compact`).
    """

    __slots__ = ("_heap", "_seq", "_live", "_cancelled", "compactions")

    def __init__(self) -> None:
        #: ``(time, seq, event)`` entries; see the module docstring
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: cancelled events still sitting in the heap
        self._cancelled = 0
        #: lifetime compaction count, for tests and the perf report
        self.compactions = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Total heap entries, live *and* cancelled (tests the compactor)."""
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        seq = self._seq
        ev = Event(time, seq, action, label)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def repush(self, event: Event, time: float, label: Optional[str] = None) -> Event:
        """Re-arm a *fired* event at a new time, reusing the object.

        Periodic processes (heartbeats) chain one event per period; reusing
        the popped object skips an allocation per period.  The event gets a
        fresh ``seq``, exactly as if it had been newly pushed at this point,
        so deterministic tie-breaking — and any trace built from it — is
        identical to the allocate-per-period behaviour.

        Only a fired event is guaranteed to be out of the heap; re-pushing a
        pending (or lazily-cancelled, still-enqueued) one would corrupt the
        heap invariant, so that is rejected.
        """
        if not event.fired:
            raise ValueError(
                f"repush of {event!r}: only a fired event can be re-armed"
            )
        seq = self._seq
        event.time = time
        event.seq = seq
        if label is not None:
            event.label = label
        event.cancelled = False
        event.fired = False
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (O(1) amortized, lazy).

        Cancelling an event that already fired — or was already cancelled —
        is a no-op, so callers may cancel defensively.  When cancelled
        entries come to outnumber live ones the heap is compacted in place,
        bounding the garbage fraction at ~50%.
        """
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._live -= 1
            self._cancelled += 1
            if (
                self._cancelled > self._live
                and self._cancelled >= COMPACT_MIN_CANCELLED
            ):
                self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place.

        In place matters: the engine's hot loop binds the heap list once,
        so compaction must mutate that same list object.  O(live), amortized
        against the >= live cancellations that triggered it.  Pop order is
        unaffected — ``(time, seq)`` is a total order, so any heap holding
        the same live events pops them identically.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def pop(self) -> Optional[Event]:
        """Pop and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if ev.cancelled:
                self._cancelled -= 1
                continue
            ev.fired = True
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop all events."""
        self._heap.clear()
        self._live = 0
        self._cancelled = 0
