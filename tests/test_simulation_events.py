"""Unit tests: event objects and the event queue."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.events import COMPACT_MIN_CANCELLED, Event, EventQueue


def _noop():
    pass


#: few distinct times, so most pops break a tie on ``seq``
_TIME_SET = (0.0, 0.5, 1.0, 2.0)
_TIMES = st.sampled_from(_TIME_SET)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("repush"), st.tuples(st.integers(0, 1 << 16), _TIMES)),
        st.tuples(st.just("churn"), st.none()),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("peek"), st.none()),
    ),
    max_size=80,
)


class TestEventOrdering:
    def test_earlier_time_sorts_first(self):
        # the later event gets the smaller seq, so only time can order them
        q = EventQueue()
        b = q.push(2.0, _noop)
        a = q.push(1.0, _noop)
        assert b.seq < a.seq
        assert q.pop() is a
        assert q.pop() is b

    def test_ties_break_by_sequence(self):
        q = EventQueue()
        a = q.push(1.0, _noop)
        b = q.push(1.0, _noop)
        assert a.seq < b.seq
        assert q.pop() is a
        assert q.pop() is b

    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    # a compaction must re-heapify what it keeps
    @example([("push", 0.5), ("push", 0.5), ("churn", None)])
    # a re-pushed event ties after events pushed before it
    @example([("push", 1.0), ("push", 1.0), ("pop", None), ("repush", (0, 1.0))])
    def test_pops_follow_time_then_seq_under_churn(self, ops):
        """Interleaved push, cancel, pop and re-push of a popped event.

        Every pop must return the live event that is least by
        ``(time, seq)``.  A ``churn`` step cancels enough fresh events to
        force a compaction and a ``compact`` step forces one outright;
        neither may disturb that order.
        """
        q = EventQueue()
        made = []  # every event ever pushed, in push order
        live = set()
        fired = []  # popped and not yet re-pushed
        seq = 0

        def pop_and_check():
            ev = q.pop()
            if not live:
                assert ev is None
                return
            assert ev is min(live, key=lambda e: (e.time, e.seq))
            live.remove(ev)
            fired.append(ev)

        for op, arg in ops:
            if op == "push":
                ev = q.push(arg, _noop)
                assert ev.seq == seq
                seq += 1
                made.append(ev)
                live.add(ev)
            elif op == "cancel" and made:
                # any event: pending, already cancelled, or already fired
                ev = made[arg % len(made)]
                q.cancel(ev)
                live.discard(ev)
            elif op == "pop":
                pop_and_check()
            elif op == "repush" and fired:
                index, time = arg
                ev = fired.pop(index % len(fired))
                q.repush(ev, time)
                assert ev.seq == seq
                seq += 1
                live.add(ev)
            elif op == "churn":
                # fresh events at every time sit on every level of the
                # heap, so the compaction removes entries throughout it
                before = q.compactions
                doomed = [
                    q.push(_TIME_SET[i % len(_TIME_SET)], _noop)
                    for i in range(COMPACT_MIN_CANCELLED + len(live) + 1)
                ]
                seq += len(doomed)
                for ev in doomed:
                    q.cancel(ev)
                made.extend(doomed)
                assert q.compactions > before
            elif op == "compact":
                q.compact()
            elif op == "peek":
                assert q.peek_time() == min((e.time for e in live), default=None)
            assert len(q) == len(live)
        while live:
            pop_and_check()
        assert q.pop() is None

    def test_repr_mentions_label(self):
        ev = Event(1.0, 0, _noop, "my-label")
        assert "my-label" in repr(ev)


class TestEventQueue:
    def test_push_pop_in_time_order(self):
        q = EventQueue()
        q.push(3.0, _noop, "c")
        q.push(1.0, _noop, "a")
        q.push(2.0, _noop, "b")
        labels = [q.pop().label for _ in range(3)]
        assert labels == ["a", "b", "c"]

    def test_fifo_order_for_simultaneous_events(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, _noop, f"e{i}")
        assert [q.pop().label for _ in range(5)] == [f"e{i}" for i in range(5)]

    def test_len_counts_live_events(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        q.push(2.0, _noop)
        assert len(q) == 2
        q.cancel(ev)
        assert len(q) == 1

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, _noop, "cancelled")
        q.push(2.0, _noop, "live")
        q.cancel(ev)
        assert q.pop().label == "live"
        assert q.pop() is None

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        q.push(5.0, _noop)
        q.cancel(ev)
        assert q.peek_time() == 5.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        ev = q.push(1.0, _noop)
        assert q
        q.cancel(ev)
        assert not q

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.push(1.0, _noop)
        q.clear()
        assert q.pop() is None
        assert len(q) == 0


class TestCompaction:
    """Cancel-heavy workloads must not let the heap accrete garbage."""

    def test_heap_stays_bounded_under_cancel_churn(self):
        # regression: speculative-execution-style churn (most scheduled
        # events cancelled before firing) used to grow the heap without
        # bound, degrading every subsequent push/pop
        q = EventQueue()
        for i in range(10_000):
            ev = q.push(float(i), _noop)
            if i % 8:  # cancel 7 of every 8
                q.cancel(ev)
        live = len(q)
        assert live == 1250
        # heap holds at most live + max(live, floor) entries
        assert q.heap_size <= 2 * max(live, COMPACT_MIN_CANCELLED) + 1
        assert q.compactions > 0

    def test_compaction_preserves_pop_order(self):
        q = EventQueue()
        events = [q.push(float(i % 17), _noop, f"e{i}") for i in range(500)]
        expected = []
        for i, ev in enumerate(events):
            if i % 3:
                q.cancel(ev)
            else:
                expected.append(ev)
        expected.sort(key=lambda e: (e.time, e.seq))
        q.compact()  # force one more, on top of any automatic ones
        popped = []
        while q:
            popped.append(q.pop())
        assert [e.label for e in popped] == [e.label for e in expected]

    def test_compaction_preserves_peek(self):
        q = EventQueue()
        keep = q.push(7.0, _noop, "keep")
        for _ in range(COMPACT_MIN_CANCELLED + 1):
            q.cancel(q.push(1.0, _noop))
        assert q.peek_time() == 7.0
        assert q.pop() is keep

    def test_no_compaction_below_floor(self):
        q = EventQueue()
        for _ in range(COMPACT_MIN_CANCELLED - 1):
            q.cancel(q.push(1.0, _noop))
        assert q.compactions == 0
        assert q.heap_size == COMPACT_MIN_CANCELLED - 1

    def test_cancel_after_pop_does_not_corrupt_counters(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        q.push(2.0, _noop)
        assert q.pop() is ev
        q.cancel(ev)  # cancelling a fired event is a no-op
        assert len(q) == 1
        assert q.pop() is not None


class TestRepush:
    """Event reuse for periodic chains (heartbeats)."""

    def test_repush_assigns_fresh_seq(self):
        q = EventQueue()
        ev = q.push(1.0, _noop, "hb")
        other = q.push(1.0, _noop)
        assert q.pop() is ev
        q.repush(ev, 1.0)
        # the re-armed event ties on time with `other` but was (re)pushed
        # later, so it must pop after it — same as a fresh push would
        assert q.pop() is other
        assert q.pop() is ev

    def test_repush_matches_fresh_push_seq_assignment(self):
        q1, q2 = EventQueue(), EventQueue()
        # chain A: reuse one event
        ev = q1.push(0.0, _noop, "hb")
        q1.pop()
        q1.repush(ev, 1.0)
        # chain B: allocate per period
        q2.push(0.0, _noop, "hb")
        q2.pop()
        fresh = q2.push(1.0, _noop, "hb")
        assert ev.seq == fresh.seq
        assert ev.time == fresh.time

    def test_repush_pending_event_rejected(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        with pytest.raises(ValueError):
            q.repush(ev, 2.0)

    def test_repush_cancelled_unfired_event_rejected(self):
        q = EventQueue()
        ev = q.push(1.0, _noop)
        q.cancel(ev)
        with pytest.raises(ValueError):
            q.repush(ev, 2.0)

    def test_repush_relabels_and_clears_flags(self):
        q = EventQueue()
        ev = q.push(1.0, _noop, "start")
        q.pop()
        q.repush(ev, 2.0, "steady")
        assert ev.label == "steady"
        assert not ev.fired and not ev.cancelled
        assert q.pop() is ev
