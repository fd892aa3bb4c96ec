"""Asyncio kernel: the simulator surface bound to a real event loop.

:class:`AsyncioKernel` duck-types the slice of
:class:`repro.sim.kernel.Simulator` that hosts and protocol layers use —
``now``, ``metrics``, ``rng``, ``trace``, ``lane_plane``,
``call_at``/``call_after``/``call_soon`` (returning cancellable handles)
and their fire-and-forget ``schedule_*`` twins — so the entire FUSE stack
runs unchanged with wall-clock timers instead of a virtual event heap.

All scheduling is in *virtual milliseconds* against the kernel's
:class:`~repro.net.backends.wallclock.WallClock`; the kernel converts to
wall delays with the clock's ``time_scale``.  One deliberate deviation
from the simulator (documented in docs/BACKENDS.md): ``call_at`` with a
time already in the past *clamps to now* instead of raising — on a wall
clock, "the past" is any instant the caller spent computing, so raising
would make every absolute-time schedule a race.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.net.backends.wallclock import WallClock
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngStreams


class LiveTimerHandle:
    """Cancellable, reschedulable timer over ``loop.call_later``.

    API-compatible with :class:`repro.sim.events.TimerHandle`: ``when``
    (virtual ms), ``active``, ``cancel()``, ``reschedule_at/after``.
    """

    __slots__ = ("_kernel", "_callback", "_label", "_handle", "_fired", "when")

    def __init__(self, kernel: "AsyncioKernel", when: float, callback: Callable[[], Any], label: str) -> None:
        self._kernel = kernel
        self._callback = callback
        self._label = label
        self._fired = False
        self.when = when
        self._handle = kernel._schedule(when, self._fire)

    def _fire(self) -> None:
        self._fired = True
        self._callback()

    @property
    def active(self) -> bool:
        return not self._fired and not self._handle.cancelled()

    def cancel(self) -> None:
        self._handle.cancel()

    def reschedule_at(self, when: float) -> bool:
        """Move a still-pending timer to virtual time ``when``."""
        if not self.active:
            return False
        self._handle.cancel()
        self.when = when
        self._handle = self._kernel._schedule(when, self._fire)
        return True

    def reschedule_after(self, delay: float) -> bool:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.reschedule_at(self._kernel.now + delay)

    def __repr__(self) -> str:
        state = "active" if self.active else "inert"
        return f"LiveTimerHandle(when={self.when:.3f}, label={self._label!r}, {state})"


class AsyncioKernel:
    """Wall-clock kernel driving protocol timers through an asyncio loop.

    The loop is owned, not shared: the kernel creates a fresh event loop
    and drives it synchronously from :meth:`run_for` / :meth:`run_until`,
    mirroring how tests and scenarios drive ``Simulator.run_for``.  No
    threads are involved — every protocol callback executes inside the
    loop between those calls.
    """

    def __init__(self, seed: int = 0, time_scale: float = 1.0) -> None:
        self.loop = asyncio.new_event_loop()
        self.clock = WallClock(time_scale=time_scale, time_fn=self.loop.time)
        self.rng = RngStreams(seed)
        self.metrics = MetricsRegistry(self.clock)
        self.trace = None
        self.lane_plane = None
        self._dispatched = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Scheduling (the Simulator surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now

    def _schedule(self, when: float, callback: Callable[[], Any]) -> asyncio.TimerHandle:
        delay_ms = when - self.clock.now
        if delay_ms < 0.0:
            delay_ms = 0.0  # clamp: wall time has no "not yet scheduled past"

        def dispatch() -> None:
            self._dispatched += 1
            callback()

        return self.loop.call_later(self.clock.wall_delay_s(delay_ms), dispatch)

    def call_at(self, when: float, callback: Callable[[], Any], label: str = "") -> LiveTimerHandle:
        return LiveTimerHandle(self, when, callback, label)

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> LiveTimerHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return LiveTimerHandle(self, self.clock.now + delay, callback, label)

    def call_soon(self, callback: Callable[[], Any], label: str = "") -> LiveTimerHandle:
        return LiveTimerHandle(self, self.clock.now, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], Any], label: str = "") -> None:
        self._schedule(when, callback)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._schedule(self.clock.now + delay, callback)

    def schedule_soon(self, callback: Callable[[], Any], label: str = "") -> None:
        self._schedule(self.clock.now, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_for(self, duration_ms: float) -> None:
        """Drive the loop for ``duration_ms`` of virtual time."""
        self.run_until_time(self.clock.now + duration_ms)

    def run_until_time(self, target_ms: float) -> None:
        """Drive the loop until virtual time reaches ``target_ms``."""
        while True:
            remaining_ms = target_ms - self.clock.now
            if remaining_ms <= 0.0:
                return
            self.loop.run_until_complete(
                asyncio.sleep(self.clock.wall_delay_s(remaining_ms))
            )

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout_ms: float,
        poll_ms: float = 20.0,
    ) -> bool:
        """Drive the loop until ``predicate()`` holds or ``timeout_ms``
        of virtual time elapses.  Returns whether the predicate held —
        the live twin of ``Simulator.run_until``."""
        deadline = self.clock.now + timeout_ms
        while not predicate():
            if self.clock.now >= deadline:
                return False
            step = min(poll_ms, max(deadline - self.clock.now, 0.1))
            self.loop.run_until_complete(asyncio.sleep(self.clock.wall_delay_s(step)))
        return True

    def run_coroutine(self, coro) -> Any:
        """Run one coroutine to completion on the owned loop (setup only —
        never call from inside a loop callback)."""
        return self.loop.run_until_complete(coro)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self.loop.close()

    def __repr__(self) -> str:
        return (
            f"AsyncioKernel(now={self.clock.now:.1f}ms, "
            f"time_scale={self.clock.time_scale}, dispatched={self._dispatched})"
        )
