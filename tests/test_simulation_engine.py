"""Unit tests: the discrete-event engine."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observability.trace import ENGINE_EVENT, NULL_TRACER, Tracer
from repro.simulation.engine import Engine, SimulationError


class TestScheduling:
    def test_run_fires_in_time_order(self, engine):
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(4.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.5]
        assert engine.now == 4.5

    def test_schedule_in_is_relative(self, engine):
        seen = []
        engine.schedule(3.0, lambda: engine.schedule_in(2.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_schedule_in_past_raises(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_in(-1.0, lambda: None)

    def test_nan_time_or_delay_raises(self, engine):
        # a NaN key compares false both ways and would break heap order
        nan = float("nan")
        with pytest.raises(SimulationError):
            engine.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_in(nan, lambda: None)
        ev = engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.reschedule_in(nan, ev)
        assert engine.pending == 0

    def test_cancel_prevents_firing(self, engine):
        fired = []
        ev = engine.schedule(1.0, lambda: fired.append(1))
        engine.cancel(ev)
        engine.run()
        assert fired == []

    def test_callbacks_can_schedule_more_work(self, engine):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule_in(1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestRunUntil:
    def test_until_pauses_before_later_events(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_until_advances_clock_when_queue_drains(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=7.0)
        assert engine.now == 7.0

    @pytest.mark.parametrize("until", [5.0, float("inf"), float("nan"), float("-inf")],
                             ids=["past", "inf", "nan", "-inf"])
    def test_until_in_the_past_or_not_finite_raises(self, engine, until):
        """The clock never moves backwards: a later event still fires
        after every earlier one."""
        fired = []
        engine.schedule(10.0, lambda: fired.append(10.0))
        engine.schedule(30.0, lambda: fired.append(30.0))
        engine.run(until=20.0)
        with pytest.raises(SimulationError, match=r"until=.*now=20\.0") as err:
            engine.run(until=until)
        assert f"until={until}" in str(err.value)
        assert engine.now == 20.0
        engine.schedule_in(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10.0, 21.0, 30.0]
        engine.run(until=engine.now)  # a horizon at the clock is no move


class TestStopAndLimits:
    def test_stop_halts_loop(self, engine):
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [(1, None)] or fired == [1]  # tuple from lambda
        assert engine.pending == 1

    def test_max_events_guards_runaway(self):
        engine = Engine(max_events=10)

        def loop():
            engine.schedule_in(1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run()

    def test_events_processed_counter(self, engine):
        for t in range(5):
            engine.schedule(float(t), lambda: None)
        engine.run()
        assert engine.events_processed == 5

    def test_reset_rewinds(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending == 0
        assert engine.events_processed == 0

    def test_reentrant_run_rejected(self, engine):
        def inner():
            engine.run()

        engine.schedule(0.0, inner)
        with pytest.raises(SimulationError, match="re-entrant"):
            engine.run()


class TestCancelSemantics:
    """Satellite coverage for Engine.cancel (ISSUE 1)."""

    def test_cancelled_event_never_fires(self, engine):
        fired = []
        keep = engine.schedule(1.0, lambda: fired.append("keep"))
        drop = engine.schedule(2.0, lambda: fired.append("drop"))
        engine.cancel(drop)
        engine.run()
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_cancel_mid_run_prevents_firing(self, engine):
        fired = []
        later = engine.schedule(5.0, lambda: fired.append("later"))
        engine.schedule(1.0, lambda: engine.cancel(later))
        engine.run()
        assert fired == []
        assert engine.now == 1.0  # the clock never reached the cancelled event

    def test_cancel_already_fired_event_is_noop(self, engine):
        fired = []
        ev = engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run(until=1.5)
        assert fired == [1] and ev.fired
        engine.cancel(ev)  # must not corrupt the live count
        assert engine.pending == 1
        engine.cancel(ev)
        assert engine.pending == 1
        engine.run()
        assert fired == [1, 2]
        assert engine.pending == 0

    def test_double_cancel_is_noop(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(ev)
        assert engine.pending == 1
        engine.cancel(ev)
        assert engine.pending == 1

    def test_events_processed_excludes_cancelled(self, engine):
        fired = []
        for t in range(4):
            engine.schedule(float(t), lambda t=t: fired.append(t))
        victim = engine.schedule(1.5, lambda: fired.append("victim"))
        engine.cancel(victim)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.events_processed == 4  # the cancelled event is not counted

    def test_pending_count_tracks_cancellations(self, engine):
        evs = [engine.schedule(float(t), lambda: None) for t in range(3)]
        assert engine.pending == 3
        engine.cancel(evs[0])
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 0


# -- the one loop against the two loops it replaced ----------------------------


def _oracle_run(self, until=None):
    """``Engine.run`` as it was with two loops: a fast path without
    horizon or firehose, and a general path that peeks and pops through
    the ``EventQueue`` methods.  Verbatim but for the deleted profiler
    hook."""
    if self._running:
        raise SimulationError("engine is already running (re-entrant run())")
    self._running = True
    self._stopped = False
    self.drained_at = None
    tracer = self.tracer
    trace_events = tracer.enabled and tracer.engine_events
    queue = self._queue
    limit = self.max_events
    try:
        if until is None and not trace_events:
            heap = queue._heap
            heappop = heapq.heappop
            processed = self.events_processed
            try:
                while heap and not self._stopped:
                    time, _, ev = heappop(heap)
                    if ev.cancelled:
                        queue._cancelled -= 1
                        continue
                    ev.fired = True
                    queue._live -= 1
                    self.now = time
                    processed += 1
                    if processed > limit:
                        raise SimulationError(
                            f"exceeded max_events={limit}; runaway simulation?"
                        )
                    ev.action()
            finally:
                self.events_processed = processed
            return

        while queue and not self._stopped:
            if until is not None:
                next_time = queue.peek_time()
                if next_time is not None and next_time > until:
                    self.now = until
                    return
            ev = queue.pop()
            if ev is None:
                break
            self.now = ev.time
            self.events_processed += 1
            if self.events_processed > limit:
                raise SimulationError(
                    f"exceeded max_events={limit}; runaway simulation?"
                )
            if trace_events:
                tracer.emit(ENGINE_EVENT, ev.time, label=ev.label, seq=ev.seq)
            ev.action()
        if until is not None and not self._stopped and self.now < until:
            self.drained_at = self.now
            self.now = until
    finally:
        self._running = False


_TIMES = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0))
_DELAYS = st.sampled_from((0.0, 0.5, 1.0, 2.5))
_SCENARIOS = st.fixed_dictionaries({
    # initial events, and which of them are cancelled before the first run
    "initial": st.lists(_TIMES, max_size=8),
    "cancel_before": st.lists(st.integers(0, 1 << 16), max_size=4),
    # what each fired callback does next, in firing order
    "ops": st.lists(
        st.one_of(
            st.tuples(st.just("schedule_in"), _DELAYS),
            st.tuples(st.just("schedule"), _DELAYS),
            st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
            st.tuples(st.just("reschedule_in"), _DELAYS),
            st.tuples(st.just("stop"), st.none()),
            st.tuples(st.just("pass"), st.none()),
        ),
        max_size=60,
    ),
    # successive run() calls: None, or a horizon this far past the clock
    "runs": st.lists(st.one_of(st.none(), _DELAYS), min_size=1, max_size=6),
    "firehose": st.booleans(),
    "max_events": st.sampled_from((1_000, 3, 12)),
})


def _drive(scenario, run):
    """Play ``scenario`` on a fresh engine whose loop is ``run``; return
    everything a caller can observe after each ``run`` call."""
    records = []
    tracer = NULL_TRACER
    if scenario["firehose"]:
        tracer = Tracer(engine_events=True)
        tracer.subscribe(lambda r: records.append((r.type, r.time, dict(r.data))))
    engine = Engine(max_events=scenario["max_events"], tracer=tracer)
    ops = iter(scenario["ops"])
    handles = []
    fired = []

    def add(event):
        handles.append(event)

    def action(label):
        def fire():
            fired.append((label, engine.now))
            op, arg = next(ops, ("pass", None))
            if op == "schedule_in":
                add(engine.schedule_in(arg, action(len(handles)), f"e{len(handles)}"))
            elif op == "schedule":
                add(engine.schedule(engine.now + arg, action(len(handles))))
            elif op == "cancel":
                engine.cancel(handles[arg % len(handles)])
            elif op == "reschedule_in":
                engine.reschedule_in(arg, handles[label])
            elif op == "stop":
                engine.stop()
        return fire

    for time in scenario["initial"]:
        add(engine.schedule(time, action(len(handles)), f"e{len(handles)}"))
    for index in scenario["cancel_before"]:
        if handles:
            engine.cancel(handles[index % len(handles)])
    seen = []
    for delta in scenario["runs"]:
        error = None
        try:
            run(engine, None if delta is None else engine.now + delta)
        except SimulationError as exc:
            error = str(exc)
        seen.append((
            list(fired), engine.now, engine.drained_at, engine.events_processed,
            engine.pending, error, list(records),
        ))
    return seen


@settings(max_examples=300, deadline=None)
@given(_SCENARIOS)
# a cancelled event past the horizon: skipped, never pushed back
@example({"initial": [0.5, 5.0], "cancel_before": [1], "ops": [],
          "runs": [2.5, None], "firehose": False, "max_events": 1_000})
# a queue that holds only cancelled events drains at the horizon
@example({"initial": [1.0, 2.0], "cancel_before": [0, 1], "ops": [],
          "runs": [2.5, 0.5, None], "firehose": True, "max_events": 1_000})
def test_one_loop_matches_the_two_loop_oracle(scenario):
    assert _drive(scenario, Engine.run) == _drive(scenario, _oracle_run)
