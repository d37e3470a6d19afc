"""The simulation engine: a clock plus the event loop."""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Optional

from repro.observability.trace import ENGINE_EVENT, NULL_TRACER, Tracer
from repro.simulation.events import Event, EventQueue

#: bound once: Event.__new__ lookup is on the per-event scheduling path
_new_event = Event.__new__

#: the horizon of a ``run()`` without ``until``
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Engine:
    """Drives a discrete-event simulation.

    The engine owns the clock.  Components schedule work with
    :meth:`schedule` / :meth:`schedule_in` and the engine fires callbacks in
    nondecreasing time order.  The loop stops when the queue drains, when
    ``until`` is reached, or when :meth:`stop` is called from a callback.

    :meth:`run` is one loop that inlines the queue pop.  Per event it adds
    only a compare against the ``until`` horizon (infinite without one)
    and a test of the ``engine.event`` firehose flag, read once per run.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5.0]
    """

    __slots__ = (
        "now",
        "_queue",
        "_running",
        "_stopped",
        "events_processed",
        "max_events",
        "tracer",
        "drained_at",
    )

    def __init__(self, max_events: int = 200_000_000, tracer: Tracer = NULL_TRACER) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: clock value at which the queue emptied during the last
        #: ``run(until=...)`` — ``None`` unless that run drained early and
        #: had its clock advanced to the horizon.  Lets drivers that pause
        #: a simulation in epochs (the rollout engine) recover the true
        #: end time instead of reporting the inflated horizon.
        self.drained_at: Optional[float] = None
        #: hard safety limit against runaway simulations
        self.max_events = max_events
        #: trace bus; per-callback records require ``tracer.engine_events``
        self.tracer = tracer

    # -- scheduling ------------------------------------------------------
    #
    # schedule/schedule_in are the simulator's hottest entry points (one
    # call per event fired, for chained periodic processes), so both inline
    # EventQueue.push — including the Event construction, via __new__ plus
    # slot stores, which skips the __init__ call frame.  Any change here
    # must be mirrored in EventQueue.push/repush.  The guards are written
    # ``not x >= y`` so that a NaN time or delay, which would silently
    # break heap order, is rejected too.

    def schedule(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule {label!r} at t={time} in the past (now={self.now})"
            )
        queue = self._queue
        seq = queue._seq
        ev: Event = _new_event(Event)
        ev.time = time
        ev.seq = seq
        ev.action = action
        ev.label = label
        ev.cancelled = False
        ev.fired = False
        queue._seq = seq + 1
        queue._live += 1
        _heappush(queue._heap, (time, seq, ev))
        return ev

    def schedule_in(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay} for {label!r}")
        queue = self._queue
        seq = queue._seq
        time = self.now + delay
        ev: Event = _new_event(Event)
        ev.time = time
        ev.seq = seq
        ev.action = action
        ev.label = label
        ev.cancelled = False
        ev.fired = False
        queue._seq = seq + 1
        queue._live += 1
        _heappush(queue._heap, (time, seq, ev))
        return ev

    def reschedule_in(
        self, delay: float, event: Event, label: Optional[str] = None
    ) -> Event:
        """Re-arm a fired event ``delay`` seconds from now, reusing it.

        For periodic processes (heartbeats): identical semantics to
        ``schedule_in(delay, event.action, ...)`` — including the fresh
        ``seq`` — without allocating a new :class:`Event` every period.
        ``label`` of ``None`` keeps the event's current label.
        """
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay} for {event.label!r}")
        return self._queue.repush(event, self.now + delay, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self._queue.cancel(event)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or stopped.

        When ``until`` is given, the clock is advanced to exactly ``until``
        if the simulation would otherwise end earlier, mirroring SimPy's
        semantics so periodic processes can be resumed by a later ``run``.
        An ``until`` before ``now`` or not finite raises: time never goes back.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and not (self.now <= until < _INF):
            raise SimulationError(f"run(until={until}) is before now={self.now} or not finite")
        self._running = True
        self._stopped = False
        self.drained_at = None
        tracer = self.tracer
        # snapshot the firehose flag: one bool check per run, not per event
        trace_events = tracer.enabled and tracer.engine_events
        horizon = _INF if until is None else until
        queue = self._queue
        # the pop is inlined.  ``heap`` must stay bound to the queue's own
        # list object: callbacks push into it and compaction mutates it in
        # place.
        heap = queue._heap
        heappop = _heappop
        limit = self.max_events
        processed = self.events_processed
        try:
            while heap and not self._stopped:
                time, seq, ev = heappop(heap)
                if ev.cancelled:
                    queue._cancelled -= 1
                    continue
                if time > horizon:
                    # (time, seq) is a total order, so pushing the entry
                    # back leaves the pop order as if it was never taken
                    _heappush(heap, (time, seq, ev))
                    self.now = until
                    return
                ev.fired = True
                queue._live -= 1
                self.now = time
                processed += 1
                if processed > limit:
                    raise SimulationError(
                        f"exceeded max_events={limit}; runaway simulation?"
                    )
                if trace_events:
                    tracer.emit(ENGINE_EVENT, time, label=ev.label, seq=seq)
                ev.action()
            if until is not None and not self._stopped and self.now < until:
                # the queue emptied before the horizon: remember where, then
                # advance the clock to ``until`` (SimPy semantics) so a later
                # ``run`` resumes periodic processes from the horizon
                self.drained_at = self.now
                self.now = until
        finally:
            self.events_processed = processed
            self._running = False

    def stop(self) -> None:
        """Request the event loop to stop after the current callback."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    def reset(self) -> None:
        """Clear the queue and rewind the clock (for reuse in tests)."""
        self._queue.clear()
        self.now = 0.0
        self.events_processed = 0
        self._stopped = False
