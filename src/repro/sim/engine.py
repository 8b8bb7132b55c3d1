"""Event queue and simulation clock.

Time is a float in seconds. Events scheduled at equal times fire in the
order they were scheduled (a monotonically increasing sequence number breaks
ties), which keeps runs deterministic.

Performance notes (see docs/PERFORMANCE.md): heap entries are plain
``(time, seq, callback, handle)`` tuples so the heap compares at C speed
and never falls through to Python-level ``__lt__`` — ``seq`` is unique, so
comparison always resolves on the first two slots. :meth:`Engine.schedule`
allocates an :class:`Event` handle (needed for :meth:`Engine.cancel`);
:meth:`Engine.schedule_after` is the fire-and-forget fast path that skips
the handle entirely. Cancelled entries are skipped lazily on pop, and the
heap is compacted whenever cancelled entries outnumber live ones, which
bounds memory under heavy hedged-read cancellation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

# Compact below this queue size is not worth the rebuild.
_COMPACT_MIN_QUEUE = 64

_Entry = Tuple[float, int, Callable[[], Any], Optional["Event"]]


class Event:
    """A cancellable handle for one scheduled callback.

    Handles are *not* heap entries (tuples are, for comparison speed); they
    exist so :meth:`Engine.cancel` can mark an entry dead and so timers can
    distinguish fired-vs-cancelled races deterministically.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        name: str = "",
        cancelled: bool = False,
        fired: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        self.fired = fired

    @property
    def live(self) -> bool:
        """Still pending: neither fired nor cancelled."""
        return not (self.fired or self.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"Event(t={self.time!r}, seq={self.seq}, {state}, name={self.name!r})"


class Engine:
    """A minimal deterministic discrete-event simulation engine."""

    def __init__(self) -> None:
        self._queue: List[_Entry] = []  # repro: allow[recovery-unserialized-state] -- callbacks are closures; snapshots only happen at quiescent (empty-queue) points, enforced in snapshot_state
        self._now: float = 0.0
        self._seq: int = 0
        self._events_fired: int = 0
        self._running: bool = False  # repro: allow[recovery-unserialized-state] -- transient run()-scope flag; snapshots cannot happen mid-run
        self._cancelled_pending: int = 0  # cancelled entries still in the heap
        # runtime invariant monitor (repro.recovery); None = disabled. Bound
        # locally by run() — arm before starting a run, not during one.
        self.invariant_monitor: Optional[Any] = None  # repro: allow[recovery-unserialized-state] -- monitors are re-armed by their owner after restore, never serialized

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def running(self) -> bool:
        """True while a :meth:`run` loop is executing callbacks."""
        return self._running

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    @property
    def queued_entries(self) -> int:
        """Raw heap size including not-yet-reclaimed cancelled entries."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self._now + delay
        event = Event(time, self._seq, callback, name)
        heapq.heappush(self._queue, (time, self._seq, callback, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[[], Any]) -> None:
        """Fire-and-forget fast path: schedule without a cancel handle.

        Skips the :class:`Event` allocation entirely; use for the vast
        majority of events that are never cancelled (resource completions,
        pipeline stages). Falls back to :meth:`schedule` when you need the
        handle.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback, None))

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time - self._now, callback, name=name)

    def cancel(self, event: Event) -> bool:
        """Cancel a previously scheduled event.

        Returns True when the event was still pending (the cancel mattered)
        and False when it had already fired — the distinction timers need to
        resolve completion-vs-timeout races deterministically.
        """
        if event.fired:
            return False
        if not event.cancelled:
            event.cancelled = True
            self._cancelled_pending += 1
            self._maybe_compact()
        return True

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries outnumber live ones.

        Without this, a workload that schedules-and-cancels (hedged reads,
        per-command timeout timers) grows the heap without bound: cancelled
        entries are only reclaimed when their time comes up.
        """
        queue = self._queue
        if len(queue) < _COMPACT_MIN_QUEUE:
            return
        if self._cancelled_pending * 2 <= len(queue):
            return
        # in-place so aliases held by a running run() loop stay valid
        live: List[_Entry] = []
        for entry in queue:
            event = entry[3]
            if event is None or not event.cancelled:
                live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_pending = 0

    def step(self) -> Optional[Event]:
        """Execute the next live event; return its handle, or None if empty.

        Fast-path entries (from :meth:`schedule_after`) have no persistent
        handle; for those a transient, already-fired :class:`Event` is
        returned so callers still observe time/seq.
        """
        queue = self._queue
        # drop cancelled heads without executing anything; the single
        # firing — including the one transient Event construction — happens
        # after the loop
        while queue:
            event = queue[0][3]
            if event is None or not event.cancelled:
                break
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        if not queue:
            return None
        time, seq, callback, event = heapq.heappop(queue)
        if time < self._now:
            raise RuntimeError("event queue corrupted: time went backwards")
        self._now = time
        self._events_fired += 1
        if event is None:
            event = Event(time, seq, callback, fired=True)
        else:
            event.fired = True
        callback()
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise RuntimeError("engine is already running (no reentrant run)")
        self._running = True
        # the pop loop is inlined (rather than calling step()) and binds
        # hot globals locally: this loop is the simulator's innermost path
        pop = heapq.heappop
        queue = self._queue
        monitor = self.invariant_monitor
        try:
            fired = 0
            while queue:
                head = queue[0]
                event = head[3]
                if event is not None and event.cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    continue
                time = head[0]
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    break
                pop(queue)
                if time < self._now:
                    raise RuntimeError("event queue corrupted: time went backwards")
                self._now = time
                self._events_fired += 1
                if event is not None:
                    event.fired = True
                head[2]()
                fired += 1
                if monitor is not None:
                    monitor.after_engine_event(self._now)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._cancelled_pending = 0

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Clock and sequencing state; only legal at a quiescent point.

        Pending heap entries hold arbitrary closures, which a primitive
        snapshot cannot (and should not) serialize — checkpointing is a
        quiescent-point operation, the same discipline real SSD firmware
        uses for power-loss-protected flush points.
        """
        if self._queue:
            raise RuntimeError(
                f"cannot snapshot an engine with {len(self._queue)} queued "
                "events; drain the queue (quiescent point) first"
            )
        return {
            "now": self._now,
            "seq": self._seq,
            "events_fired": self._events_fired,
            "cancelled_pending": self._cancelled_pending,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        if self._queue:
            raise RuntimeError("cannot restore into an engine with queued events")
        self._now = state["now"]
        self._seq = state["seq"]
        self._events_fired = state["events_fired"]
        self._cancelled_pending = state["cancelled_pending"]

