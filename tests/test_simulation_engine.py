"""Unit tests: the discrete-event engine."""

import pytest

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
