"""The simulation kernel: schedules and dispatches events in virtual time.

Typical use::

    sim = Simulator(seed=42)
    sim.call_at(100.0, lambda: print("fires at t=100ms"))
    handle = sim.call_after(60_000.0, on_ping_timeout)
    handle.cancel()
    sim.run()

The kernel is single-threaded and deterministic: given the same seed and
the same sequence of schedule calls, every run dispatches events in the
same order.  Determinism is what makes the protocol tests and the failure
injection experiments reproducible.

Two scheduling surfaces exist:

* ``call_at`` / ``call_after`` / ``call_soon`` return a
  :class:`TimerHandle` for callers that cancel or reschedule timers.
* ``schedule_at`` / ``schedule_after`` / ``schedule_soon`` are the
  fire-and-forget fast path — no handle is materialized, so scheduling
  allocates nothing beyond the heap tuple.  The network transmit/delivery
  path lives here.

``run()`` is the hot loop: it pops and dispatches straight off the heap
(shedding cancelled entries inline) instead of doing a peek pass plus a
pop pass per event; ``step()`` dispatches a single event, and
``run_until(predicate, timeout_ms)`` steps until a condition holds — the
drive-until-done loop synchronous drivers use.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Optional

from repro.sim.clock import Clock
from repro.sim.events import EventQueue, TimerHandle
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceLog


class Simulator:
    """Discrete-event simulator kernel.

    Args:
        seed: master seed for all derived random streams.
        trace: optionally record every dispatched event in a TraceLog.
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.metrics = MetricsRegistry(self.clock)
        self.trace: Optional[TraceLog] = TraceLog(self.clock) if trace else None
        #: optional liveness-lane plane (repro.sim.lanes.LanePlane); when
        #: set, run()/step() interleave its micro-events with the heap in
        #: global (when, seq) order.  None keeps the classic loop.
        self.lane_plane = None
        self._dispatched = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now

    def call_at(self, when: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` at absolute virtual time ``when`` (ms)."""
        clock = self.clock
        if when < clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={clock.now} when={when}"
            )
        queue = self.queue
        return TimerHandle(queue, clock, queue.push(when, callback, label), when, callback, label)

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` after ``delay`` milliseconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, label)

    def call_soon(self, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` at the current virtual time (after pending
        same-time events already in the queue)."""
        return self.call_at(self.clock.now, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_at``: no :class:`TimerHandle` is created,
        so the event cannot be cancelled or rescheduled.  Hot paths that
        never keep the handle (e.g. network transmissions) use this."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now} when={when}"
            )
        self.queue.push(when, callback, label)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_after``."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.queue.push(self.clock.now + delay, callback, label)

    def schedule_soon(self, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_soon``."""
        self.queue.push(self.clock.now, callback, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        plane = self.lane_plane
        if plane is not None:
            queue = self.queue
            heap = queue._heap
            pending = queue._pending
            while True:
                while heap and heap[0][1] not in pending:
                    queue.shed_head()
                lane_key = plane.next_key()
                if lane_key is None:
                    break
                if heap:
                    head = heap[0]
                    if (head[0], head[1]) < lane_key:
                        break
                n = plane.advance(None, 1, honor_stop=False)
                if n:
                    self._dispatched += n
                    return True
                # advance() made progress without dispatching (an eject
                # or flush moved events onto the heap); look again.
        entry = self.queue.pop()
        if entry is None:
            return False
        self.clock.advance_to(entry[0])
        if self.trace is not None:
            self.trace.record("dispatch", entry[3])
        entry[2]()
        self._dispatched += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` (ms) is reached, or
        ``max_events`` have been dispatched.  Returns events dispatched.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so wall-clock-style measurements
        (e.g. messages per second over a 10-minute window) are well-defined.
        """
        if self._running:
            raise RuntimeError("simulator is already running (reentrant run() call)")
        self._running = True
        self._stop_requested = False
        dispatched = 0
        # The dispatch loop works the heap directly: one pop per event,
        # stale entries shed through queue.shed_head (which re-pushes a
        # lazily moved timer riding on one), the until/max_events guards
        # and the clock advance inlined.  The queue invariants
        # (pending-set liveness, seq tie-breaking) are shared with
        # EventQueue.pop().
        queue = self.queue
        heap = queue._heap
        pending = queue._pending
        clock = self.clock
        trace = self.trace
        pop = heappop
        shed = queue.shed_head
        plane = self.lane_plane
        try:
            if plane is None:
                while heap and not self._stop_requested:
                    if dispatched == max_events:
                        break
                    entry = heap[0]
                    seq = entry[1]
                    if seq not in pending:
                        shed()  # stale: no dispatch
                        continue
                    when = entry[0]
                    if until is not None and when > until:
                        break
                    pop(heap)
                    pending.remove(seq)
                    # Heap order plus the no-past-scheduling guard make
                    # this monotonic, so Clock.advance_to is skipped.
                    clock._now = when
                    if trace is not None:
                        trace.record("dispatch", entry[3])
                    entry[2]()
                    dispatched += 1
            else:
                # Lane-aware loop: the plane's micro-events and the real
                # heap merge in global (when, seq) order.  Runs of lane
                # events are dispatched in plane.advance's tight loop;
                # real events are dispatched inline exactly as above.
                while not self._stop_requested:
                    if dispatched == max_events:
                        break
                    while heap and heap[0][1] not in pending:
                        shed()  # stale: no dispatch
                    lane_key = plane.next_key()
                    if heap:
                        entry = heap[0]
                        if lane_key is None or (entry[0], entry[1]) < lane_key:
                            when = entry[0]
                            if until is not None and when > until:
                                break
                            pop(heap)
                            pending.remove(entry[1])
                            clock._now = when
                            if trace is not None:
                                trace.record("dispatch", entry[3])
                            entry[2]()
                            dispatched += 1
                            continue
                    if lane_key is None:
                        break
                    if until is not None and lane_key[0] > until:
                        break
                    budget = None if max_events is None else max_events - dispatched
                    dispatched += plane.advance(until, budget)
                    # A zero return still made progress (an ejection or
                    # flush moved lane events onto the heap), so looping
                    # terminates.
            if until is not None and until > clock._now and not self._stop_requested:
                clock._now = until
        finally:
            self._dispatched += dispatched
            self._running = False
        return dispatched

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` milliseconds of virtual time from now."""
        return self.run(until=self.clock.now + duration, max_events=max_events)

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float) -> bool:
        """Dispatch events one at a time until ``predicate()`` holds,
        stopping right after the event that satisfied it.  Returns False
        if ``timeout_ms`` of virtual time passed or the queue drained
        first.  Same contract as ``AsyncioKernel.run_until``."""
        deadline = self.clock.now + timeout_ms
        while not predicate():
            if self.clock.now >= deadline or not self.step():
                return False
        return True

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stop_requested = True

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.1f}ms, pending={len(self.queue)}, "
            f"dispatched={self._dispatched})"
        )
