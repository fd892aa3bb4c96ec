"""Event queue with cancellable timers.

Hot-path design: the heap holds plain tuples ``(when, seq, callback,
label)`` — not per-event objects — so every heap sift comparison runs in
C instead of dispatching to a Python ``__lt__``.  The sequence number
makes dispatch order deterministic for events scheduled at the same
virtual time (ties break by insertion order) and doubles as the event's
identity: liveness is a ``pending`` set of sequence numbers, so
cancellation is one set removal and the stale heap entry is shed lazily
at pop/peek time (the standard approach for heap-backed schedulers; see
the CPython ``sched``/``asyncio`` implementations).

Lazy timer moves.  Liveness timers are reset far more often than they
fire: every agreeing ping moves each shared FUSE link timer a little
later.  A move to a time no earlier than the timer's current one draws
the seq an eager re-push would draw and swaps it into ``pending``, but
pushes nothing: the queue records that the timer rides on its old,
now-stale heap entry.  When that entry reaches the head,
:meth:`EventQueue.shed_head` pushes the timer at its recorded
``(when, seq)`` instead of discarding it.  The old entry's key is smaller
than the recorded one (``when`` no earlier, seq drawn later), so the
timer is back on the heap before anything that sorts after it can be
dispatched, and global ``(when, seq)`` order is exactly that of eager
re-pushing.  Every loop that sheds a stale head — here, in the kernel
and in the lane plane — goes through ``shed_head``.  Moves to an
earlier time still push eagerly.

Paper cross-reference: §7.1 — the scheduling core of the simulator half
of the paper's testbed; the timers scheduled here implement the §6.3-§6.5
ping/repair timeout machinery.

Scheduling therefore allocates nothing beyond the heap tuple itself.  A
:class:`TimerHandle` — the cancellable/reschedulable wrapper components
hold on to — is only materialized by the kernel's ``call_*`` API for
callers that keep it; the fire-and-forget ``schedule_*`` fast path never
creates one.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.clock import Clock

EventEntry = Tuple[float, int, Callable[[], Any], str]
"""One scheduled event: ``(when_ms, seq, callback, label)``."""


class EventQueue:
    """Deterministic min-heap of ``(when, seq, callback, label)`` tuples.

    ``push`` returns the event's sequence number; ``cancel(seq)`` is
    idempotent and safe after the event fired, was cleared, or was
    already cancelled (it simply returns False then).
    """

    __slots__ = ("_heap", "_pending", "_seq", "_moved")

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []
        # Seqs scheduled but neither dispatched nor cancelled.  Membership
        # here is the single source of truth for liveness; heap entries
        # whose seq is absent are skipped (and dropped) at pop/peek time.
        self._pending: Set[int] = set()
        self._seq = itertools.count()
        # Lazily moved timers, keyed by the seq of the stale heap entry
        # each one rides on until shed_head() re-pushes it.
        self._moved: Dict[int, "TimerHandle"] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, when: float, callback: Callable[[], Any], label: str = "") -> int:
        """Schedule ``callback`` at ``when``; returns the event's seq."""
        seq = next(self._seq)
        heappush(self._heap, (when, seq, callback, label))
        self._pending.add(seq)
        return seq

    def cancel(self, seq: int) -> bool:
        """Cancel the event; True if it was still pending, else False."""
        pending = self._pending
        if seq in pending:
            pending.remove(seq)
            return True
        return False

    def is_active(self, seq: int) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return seq in self._pending

    def shed_head(self) -> None:
        """Drop the stale entry at the head of the heap.

        If a lazily moved timer rides on it, push the timer at its
        recorded ``(when, seq)`` in the entry's place.  Every loop that
        sheds a non-pending head must call this instead of ``heappop``.
        """
        heap = self._heap
        handle = self._moved.pop(heap[0][1], None)
        if handle is not None and handle._seq in self._pending:
            handle._home = handle._seq
            heapreplace(heap, (handle.when, handle._seq, handle._callback, handle._label))
        else:
            heappop(heap)

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if empty."""
        heap = self._heap
        pending = self._pending
        while heap:
            head = heap[0]
            if head[1] in pending:
                return head[0]
            self.shed_head()
        return None

    def pop(self) -> Optional[EventEntry]:
        """Remove and return the next live event entry, or None."""
        heap = self._heap
        pending = self._pending
        while heap:
            seq = heap[0][1]
            if seq in pending:
                pending.remove(seq)
                return heappop(heap)
            self.shed_head()
        return None

    def clear(self) -> None:
        """Drop every scheduled event.

        Emptying ``pending`` marks every outstanding event cancelled, so
        surviving :class:`TimerHandle`s read ``active == False`` and a
        later ``handle.cancel()`` is a no-op rather than corrupting the
        live count.
        """
        self._heap.clear()
        self._pending.clear()
        self._moved.clear()

    def snapshot(self) -> Tuple[EventEntry, ...]:
        """Live entries in dispatch order, lazily moved timers included;
        intended for tests/debugging."""
        pending = self._pending
        live = [e for e in self._heap if e[1] in pending]
        live.extend(
            (h.when, h._seq, h._callback, h._label)
            for h in self._moved.values()
            if h._seq in pending
        )
        return tuple(sorted(live))


class TimerHandle:
    """Cancellable, reschedulable reference to one scheduled callback.

    Returned by the kernel's ``call_at``/``call_after``/``call_soon`` for
    components that keep timers (liveness links, RPC timeouts, sweeps).
    The handle stays valid (but inert) after the timer fires or is
    cancelled.  The fire-and-forget ``schedule_*`` kernel API skips the
    handle entirely — that is the network transmit path.
    """

    __slots__ = ("_queue", "_clock", "_seq", "_home", "_callback", "_label", "when")

    def __init__(
        self,
        queue: EventQueue,
        clock: Clock,
        seq: int,
        when: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self._queue = queue
        self._clock = clock
        self._seq = seq
        # Seq of the heap entry that will deliver this timer: equal to
        # _seq unless a lazy move left the timer riding on an older entry.
        self._home = seq
        self._callback = callback
        self._label = label
        self.when = when

    @property
    def active(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return self._seq in self._queue._pending

    def cancel(self) -> None:
        """Cancel the timer; idempotent, and a no-op once fired/cleared."""
        self._queue.cancel(self._seq)

    def reschedule_at(self, when: float) -> bool:
        """Move a still-pending timer to ``when``, reusing its callback.

        Returns False when the timer already fired or was cancelled — the
        caller must create a fresh timer then.  Reuses the originally
        scheduled callback, including any liveness guard closed over it,
        so only reschedule timers owned by state that cannot outlive the
        callback's assumptions (e.g. a host incarnation).

        The timer takes a fresh seq either way, so ties order exactly as
        a cancel plus a new push would.  A move no earlier than the
        current ``when`` is lazy: it pushes nothing and leaves the timer
        riding on its existing heap entry, which
        :meth:`EventQueue.shed_head` turns back into the real entry when
        it reaches the head.  A move earlier re-pushes at once.
        """
        clock = self._clock
        if when < clock.now:
            raise ValueError(
                f"cannot reschedule into the past: now={clock.now} when={when}"
            )
        queue = self._queue
        pending = queue._pending
        seq = self._seq
        if seq not in pending:
            return False
        pending.remove(seq)
        if when >= self.when:
            seq = next(queue._seq)
            pending.add(seq)
            queue._moved[self._home] = self
            self._seq = seq
        else:
            queue._moved.pop(self._home, None)
            self._seq = self._home = queue.push(when, self._callback, self._label)
        self.when = when
        return True

    def reschedule_after(self, delay: float) -> bool:
        """Move a still-pending timer to ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.reschedule_at(self._clock.now + delay)

    def __repr__(self) -> str:
        state = "active" if self.active else "inert"
        return f"TimerHandle(when={self.when:.3f}, label={self._label!r}, {state})"
