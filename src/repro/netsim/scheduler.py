"""Reentrant discrete-event scheduler with a virtual clock.

Every asynchronous action in the reproduction — a datagram in flight, a
channel-close detection delay, a periodic time-service refresh — is an
:class:`Event` on one global :class:`Scheduler`.

The essential property is **reentrancy**.  The paper's Nucleus is
passive: a module's send blocks until complete, and while it is blocked
the rest of the distributed system keeps running (the Name Server
answers, gateways splice circuits, the monitor collects data).  Here a
blocking call is :meth:`Scheduler.pump_until`: it pops and runs queued
events until its predicate holds.  A handler run by the pump may itself
call ``pump_until`` — a nested, deeper pump over the same queue.  That
is exactly the recursive control structure of Sec. 6 of the paper, and
it is what lets a Name-Server request issued *from inside* a send be
served before the send completes.

Storage is the shared hierarchical timer wheel of
:mod:`repro.netsim.timerwheel` (PROTOCOL.md §11): events run in the
exact ``(time, seq)`` total order the original single heap produced,
but pushes, pops and ``pending()`` no longer pay per-event Python
comparisons or O(n) scans.  Three scheduling flavours exist:

* :meth:`schedule` — returns a cancellable :class:`Event` handle.
* :meth:`post` — no handle, so the event object is recycled through a
  free list; use for fire-and-forget hot-path work (datagram delivery,
  chaos appliers) that is never cancelled.
* :meth:`run_queue` — a named per-nucleus FIFO whose ``post`` is O(1)
  and registers only the queue head with the wheel, so idle modules
  cost nothing per tick.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import DeadlockError, SimulationError, VirtualTimeout
from repro.netsim.timerwheel import Event, EventPool, RunQueue, TimerWheel

__all__ = ["Event", "RunQueue", "Scheduler"]


class Scheduler:
    """The global event queue and virtual clock.

    Args:
        max_events: hard ceiling on total events processed, a backstop
            against runaway feedback loops (the reproduction's analogue
            of a hung testbed).
        quantum: timer-wheel bucket width in virtual seconds.  Purely a
            routing knob — the execution order is bucket-independent.
        wheel_slots: bucket count; ``quantum * wheel_slots`` is the
            wheel window, beyond which events sit in the overflow heap.
    """

    def __init__(self, max_events: int = 5_000_000,
                 quantum: float = 0.005, wheel_slots: int = 512):
        self._wheel = TimerWheel(quantum=quantum, slots=wheel_slots)
        self._pool = EventPool()
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._max_events = max_events
        self._pump_depth = 0
        self.max_pump_depth_seen = 0
        # One-shot callbacks run at the next blocking pump's entry.
        # Frame-train walks (PROTOCOL.md §13) defer per-IVC flow-grant
        # checks to the walk's end; registering the discharge here as
        # well guarantees a handler that blocks *mid-walk* can never
        # wait on a grant the deferral is holding back.
        self._pump_flushers = []

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pump_depth(self) -> int:
        """How many nested blocking pumps are currently active."""
        return self._pump_depth

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def wheel(self) -> TimerWheel:
        """The underlying timer wheel (stats: compactions, pool reuse)."""
        return self._wheel

    @property
    def pool(self) -> EventPool:
        """The free list recycling no-handle events."""
        return self._pool

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None],
                 note: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` virtual seconds from
        now.  Returns a cancellable handle (never pooled)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        event = Event(self._now + delay, self._seq, callback, note)
        self._wheel.push(event)
        return event

    def post(self, delay: float, callback: Callable[[], None],
             note: str = "") -> None:
        """Fire-and-forget :meth:`schedule`: identical ordering, but no
        handle is returned, so the event object rides the free list.
        The hot-path flavour for work that is never cancelled."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        self._wheel.push(
            self._pool.acquire(self._now + delay, self._seq, callback, note))

    def defer_flush(self, flush: Callable[[], None]) -> None:
        """Register a one-shot callback to run when the next blocking
        pump starts (idempotent callbacks expected — a callback may also
        run earlier through its owner's own discharge point)."""
        self._pump_flushers.append(flush)

    def call_soon(self, callback: Callable[[], None], note: str = "") -> Event:
        """Schedule ``callback`` at the current virtual time (after any
        already-queued events at this time)."""
        return self.schedule(0.0, callback, note)

    def run_queue(self, name: str) -> RunQueue:
        """A named per-nucleus FIFO.  Its ``post`` lands locally in
        O(1); only the queue's head deadline is registered with the
        wheel, so idle queues are never visited."""
        return RunQueue(self, name)

    def _post_queued(self, queue: RunQueue, callback: Callable[[], None],
                     note: str) -> None:
        self._seq += 1
        self._wheel.queue_push(
            queue, self._pool.acquire(self._now, self._seq, callback, note))

    # -- execution --------------------------------------------------------

    def _run(self, event: Event) -> None:
        if event.time < self._now:
            raise SimulationError(
                f"event time {event.time} precedes clock {self._now}"
            )
        self._now = event.time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"event budget exceeded ({self._max_events}); "
                "probable runaway feedback loop"
            )
        callback = event.callback
        if event._pooled:
            # No handle exists, so nothing can cancel or observe the
            # object: recycle it before the callback so bursts of
            # fire-and-forget work reuse one allocation.
            self._pool.release(event)
        callback()

    def step(self) -> bool:
        """Run the single earliest pending event.  Returns False when the
        queue is empty."""
        event = self._wheel.pop()
        if event is None:
            return False
        self._run(event)
        return True

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains; returns how many ran."""
        ran = 0
        while max_events is None or ran < max_events:
            if not self.step():
                break
            ran += 1
        return ran

    def run_for(self, duration: float) -> int:
        """Run events whose time is within ``duration`` from now, then
        advance the clock to exactly now + duration.  Returns the number
        of events run."""
        deadline = self._now + duration
        ran = 0
        while True:
            event = self._wheel.pop(deadline)
            if event is None:
                break
            self._run(event)
            ran += 1
        self._now = max(self._now, deadline)
        return ran

    def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        what: str = "",
    ) -> bool:
        """Block (in simulation terms) until ``predicate()`` is true.

        Runs queued events — possibly reentrantly, from inside another
        pump — until the predicate holds.  Returns True on success.

        With a ``timeout`` (virtual seconds from now), the clock is
        advanced to the deadline and False is returned if the predicate
        never held.  Without one, an empty queue with a false predicate
        raises :class:`DeadlockError`, since no future event could ever
        change the outcome.
        """
        if self._pump_flushers:
            flushers = self._pump_flushers
            self._pump_flushers = []
            for flush in flushers:
                flush()
        deadline = None if timeout is None else self._now + timeout
        self._pump_depth += 1
        self.max_pump_depth_seen = max(self.max_pump_depth_seen, self._pump_depth)
        wheel = self._wheel
        due_by = math.inf if deadline is None else deadline
        run = self._run
        try:
            while True:
                if predicate():
                    return True
                event = wheel.pop(due_by)
                if event is not None:
                    run(event)
                    continue
                if wheel.live:
                    # The head lies past the deadline.  Leave it in
                    # place: it belongs to whoever pumps next.
                    self._now = deadline
                    return False
                if deadline is not None:
                    self._now = max(self._now, deadline)
                    return False
                raise DeadlockError(
                    f"pump_until({what or 'predicate'}): event queue empty "
                    "and predicate false — nothing can unblock this call"
                )
        finally:
            self._pump_depth -= 1

    def wait(self, duration: float) -> None:
        """Blockingly let ``duration`` virtual seconds elapse, running any
        events that fall inside the window (a pump with an always-false
        predicate)."""
        ok = self.pump_until(lambda: False, timeout=duration, what="wait")
        if ok:  # pragma: no cover - predicate is constant False
            raise SimulationError("wait() predicate unexpectedly true")

    def sleep_until(self, when: float) -> None:
        """Blockingly advance virtual time to ``when`` (no-op if past)."""
        if when > self._now:
            self.wait(when - self._now)

    def pending(self) -> int:
        """Number of not-yet-cancelled queued events.  O(1): the wheel
        accounts for cancellations eagerly."""
        return self._wheel.live

    def raise_timeout(self, what: str) -> None:
        """Helper for callers that want the raising flavour of timeout."""
        raise VirtualTimeout(what)
