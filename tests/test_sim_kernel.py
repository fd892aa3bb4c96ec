"""Tests for the discrete-event kernel: clock, queue, timers, determinism."""

import pytest

from repro.sim import Clock, EventQueue, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(5.5)
        assert clock.now == 5.5

    def test_cannot_move_backwards(self):
        clock = Clock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_cannot_start_negative(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_seconds(self):
        clock = Clock(1500.0)
        assert clock.seconds() == 1.5


class TestEventQueue:
    def test_pop_order_by_time(self):
        q = EventQueue()
        fired = []
        q.push(30.0, lambda: fired.append("c"))
        q.push(10.0, lambda: fired.append("a"))
        q.push(20.0, lambda: fired.append("b"))
        while True:
            entry = q.pop()
            if entry is None:
                break
            entry[2]()
        assert fired == ["a", "b", "c"]

    def test_tie_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in "abcde":
            q.push(5.0, lambda t=tag: fired.append(t))
        while (entry := q.pop()) is not None:
            entry[2]()
        assert fired == list("abcde")

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, lambda: None, label="keep")
        drop = q.push(0.5, lambda: None, label="drop")
        assert q.cancel(drop)
        popped = q.pop()
        assert popped is not None and popped[1] == keep
        assert q.pop() is None

    def test_len_tracks_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        q.peek_time()  # forces lazy cleanup of the heap entry
        assert len(q) == 1

    def test_len_reflects_cancellation_immediately(self):
        """Regression: cancel() must update len() even though the heap
        entry is only dropped lazily at pop time."""
        q = EventQueue()
        seqs = [q.push(float(i), lambda: None) for i in range(4)]
        assert q.cancel(seqs[2])
        assert len(q) == 3  # no peek/pop in between
        assert not q.cancel(seqs[2])  # idempotent: no double decrement
        assert len(q) == 3
        # Popping the remaining events drains the count to zero.
        while q.pop() is not None:
            pass
        assert len(q) == 0

    def test_len_after_pop_then_cancel(self):
        """Cancelling an already-popped event must not corrupt len()."""
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is not None and popped[1] == first
        assert len(q) == 1
        assert not q.cancel(first)  # already fired: a no-op
        assert len(q) == 1

    def test_clear_detaches_events(self):
        q = EventQueue()
        seq = q.push(1.0, lambda: None)
        q.clear()
        assert len(q) == 0
        assert not q.is_active(seq)
        assert not q.cancel(seq)  # must not drive the live count negative
        assert len(q) == 0

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(7.0, lambda: None)
        assert q.peek_time() == 7.0


class TestSimulator:
    def test_call_at_and_now(self):
        sim = Simulator()
        seen = []
        sim.call_at(100.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100.0]

    def test_call_after(self):
        sim = Simulator()
        sim.call_at(50.0, lambda: sim.call_after(25.0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [75.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_after(-1.0, lambda: None)

    def test_run_until_advances_clock_even_if_queue_drains(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run(until=500.0)
        assert sim.now == 500.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(100.0, lambda: fired.append(1))
        sim.call_at(900.0, lambda: fired.append(2))
        sim.run(until=500.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_timer_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert not handle.active

    def test_timer_active_until_fired(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        assert handle.active
        sim.run()
        assert not handle.active

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.call_at(float(i), lambda: None)
        dispatched = sim.run(max_events=4)
        assert dispatched == 4
        assert sim.now == 3.0

    def test_stop_requested_mid_run(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_determinism_same_seed(self):
        def run(seed: int):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("x")
            out = []
            for i in range(20):
                sim.call_at(rng.uniform(0, 100), lambda i=i: out.append(i))
            sim.run()
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.call_at(1.0, reenter)
        sim.run()
        assert errors and "reentrant" in errors[0]

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_at(float(i), lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_trace_records_dispatches(self):
        sim = Simulator(trace=True)
        sim.call_at(3.0, lambda: None, label="hello")
        sim.run()
        assert any("hello" in rec.message for rec in sim.trace)


class TestRunUntilPredicate:
    """``Simulator.run_until(predicate, timeout_ms)``: step until a
    condition holds, the synchronous twin of ``AsyncioKernel.run_until``."""

    @staticmethod
    def _sim_with_events(*times):
        sim = Simulator()
        fired = []
        for when in times:
            sim.call_at(when, lambda w=when: fired.append(w))
        return sim, fired

    def test_stops_right_after_the_satisfying_event(self):
        sim, fired = self._sim_with_events(10.0, 20.0, 20.0, 30.0)
        assert sim.run_until(lambda: 20.0 in fired, timeout_ms=1_000.0)
        assert fired == [10.0, 20.0]
        assert sim.now == 20.0
        assert len(sim.queue) == 2

    def test_true_predicate_dispatches_nothing(self):
        sim, fired = self._sim_with_events(10.0)
        assert sim.run_until(lambda: True, timeout_ms=1_000.0)
        assert fired == [] and sim.events_dispatched == 0

    def test_false_at_timeout(self):
        sim, fired = self._sim_with_events(5.0, 15.0, 25.0)
        assert not sim.run_until(lambda: False, timeout_ms=10.0)
        # Like the step loop it replaces, the deadline is checked before
        # each step, so the first event at or past it still dispatches.
        assert fired == [5.0, 15.0]
        assert sim.now == 15.0

    def test_false_when_queue_drains(self):
        sim, fired = self._sim_with_events(1.0, 2.0)
        assert not sim.run_until(lambda: False, timeout_ms=float("inf"))
        assert fired == [1.0, 2.0]
        assert len(sim.queue) == 0

    def test_dispatches_exactly_the_step_loop_events(self):
        """A lanes-on world driven until a crash is detected matches,
        event for event, one driven by the hand-written step loop it
        replaces (lane micro-events and ejects included)."""
        from repro.net import MercatorConfig
        from repro.world import FuseWorld

        def drive(use_run_until: bool):
            world = FuseWorld(
                n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4), trace=True
            )
            world.bootstrap()
            root, members = world.node_ids[0], world.node_ids[3:7]
            fid, status, _ = world.create_group_sync(root, members)
            assert status == "ok"
            world.run_for(90_000.0)  # lanes absorb the quiet ping traffic
            world.crash(members[2])
            sim = world.sim
            micro_before = sim.lane_plane.stats()["micro_events_dispatched"]
            notified = lambda: fid in world.fuse(root).notifications  # noqa: E731
            if use_run_until:
                assert sim.run_until(notified, timeout_ms=300_000.0)
            else:
                deadline = sim.now + 300_000.0
                while not notified() and sim.now < deadline:
                    if not sim.step():
                        break
            assert sim.lane_plane.stats()["micro_events_dispatched"] > micro_before
            return sim.events_dispatched, sim.now, [rec.message for rec in sim.trace]

        assert drive(True) == drive(False)


class TestLazyTimerMoves:
    """A move no earlier than a timer's current time pushes nothing: the
    timer rides on its old heap entry until that entry reaches the head.
    Observable behaviour must equal cancel-plus-push."""

    def _fired(self, sim):
        fired = []
        return fired, lambda tag: (lambda: fired.append((tag, sim.now)))

    def test_later_move_pushes_nothing(self):
        sim = Simulator()
        fired, cb = self._fired(sim)
        handle = sim.call_at(10.0, cb("t"))
        assert handle.reschedule_at(30.0)
        assert len(sim.queue._heap) == 1
        assert len(sim.queue) == 1 and handle.active and handle.when == 30.0
        sim.run()
        assert fired == [("t", 30.0)]
        assert not handle.active and len(sim.queue) == 0

    def test_later_then_earlier_move(self):
        sim = Simulator()
        fired, cb = self._fired(sim)
        handle = sim.call_at(10.0, cb("t"))
        sim.call_at(25.0, cb("other"))
        assert handle.reschedule_at(30.0)  # lazy
        assert handle.reschedule_at(20.0)  # earlier than 30: eager push
        assert len(sim.queue) == 2
        sim.run()
        assert fired == [("t", 20.0), ("other", 25.0)]
        assert len(sim.queue) == 0 and not sim.queue._heap

    def test_cancel_after_lazy_move(self):
        sim = Simulator()
        fired, cb = self._fired(sim)
        handle = sim.call_at(10.0, cb("t"))
        assert handle.reschedule_at(40.0)
        handle.cancel()
        assert not handle.active
        assert len(sim.queue) == 0
        assert sim.queue.snapshot() == ()
        assert not handle.reschedule_at(50.0)
        sim.run()
        assert fired == []
        assert not sim.queue._heap and not sim.queue._moved

    def test_reschedule_after_clear(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        assert handle.reschedule_at(40.0)
        sim.queue.clear()
        assert not handle.active
        assert not handle.reschedule_at(50.0)
        assert len(sim.queue) == 0 and sim.queue.snapshot() == ()
        assert sim.run() == 0

    @pytest.mark.parametrize("fresh_first", [False, True])
    def test_equal_when_tie_with_fresh_event(self, fresh_first):
        """Ties break by seq: a move draws a fresh seq exactly as an eager
        re-push would, so whichever of the move and the new event came
        first in program order dispatches first."""
        sim = Simulator()
        fired, cb = self._fired(sim)
        handle = sim.call_at(10.0, cb("moved"))
        if fresh_first:
            sim.call_at(20.0, cb("fresh"))
            assert handle.reschedule_at(20.0)
        else:
            assert handle.reschedule_at(20.0)
            sim.call_at(20.0, cb("fresh"))
        sim.run()
        want = ["fresh", "moved"] if fresh_first else ["moved", "fresh"]
        assert [tag for tag, _ in fired] == want

    def test_snapshot_lists_moved_timers(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None, label="t")
        sim.call_at(15.0, lambda: None, label="u")
        assert handle.reschedule_at(20.0)
        assert [(e[0], e[3]) for e in sim.queue.snapshot()] == [(15.0, "u"), (20.0, "t")]
        assert sim.queue.peek_time() == 15.0
        sim.step()
        assert sim.queue.peek_time() == 20.0

    def test_past_move_still_rejected(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            handle.reschedule_at(4.0)
