"""Discrete-event simulation core.

The engine keeps a priority queue of timestamped callbacks.  Everything
else in the library (bus transactions, on-board processors, interrupt
handlers, protocol threads) is built on top of this single event loop,
either directly via :meth:`Simulator.call_at` or through the
generator-based processes in :mod:`repro.sim.process`.

Time is measured in **microseconds** throughout the library.  The paper
reasons about costs in microseconds and 40 ns bus cycles, so a float
microsecond clock gives comfortable resolution (a 25 MHz cycle is
0.04 us) without the bookkeeping of integer picoseconds.

The queue is a plain heap of ``(time, key, seq)`` tuples with the
callbacks held in a side table keyed by ``seq``:

* ``key`` is an *ordering key* that breaks same-time ties **by
  content** instead of by insertion order.  Ordinary events use the
  empty tuple and therefore order by ``seq`` (schedule order), exactly
  as before.  Events that cross a boundary between independently
  running simulators -- cells arriving at a switch, returning credits
  -- carry a ``(channel..., channel_seq)`` key, so their order at a
  merge point is the same whether they were scheduled locally or
  delivered from another shard's mailbox.  This is what makes the
  sharded cluster runs of :mod:`repro.sim.parallel` bit-identical to
  single-process runs.
* Cancellation removes the side-table entry in O(1); stale heap tuples
  are skipped lazily on pop, and the heap is compacted whenever more
  than half of it is dead, so cancel-heavy models no longer accumulate
  garbage.  :attr:`Simulator.pending` is the side table's length --
  O(1), and it counts *live* entries only.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

# Ordinary events carry the empty ordering key: at equal times they
# sort before any keyed (boundary) event and among themselves by
# schedule order.
NO_KEY: tuple = ()
_INF = float("inf")

# Compaction policy: rebuild the heap once it holds this many entries
# and more than half of them are dead (cancelled or already popped
# from the side table).
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


# Installed by repro.analysis.sanitize: when set, every Simulator
# constructed afterwards owns a sanitizer instance whose on_event /
# window_begin / window_end hooks watch for monotone-time and
# shard-horizon violations.  None (the default) costs one attribute
# check per event.
_sanitizer_factory: Optional[Callable[[], object]] = None


def set_sanitizer_factory(factory: Optional[Callable[[], object]]) -> None:
    """Install (or clear) the per-Simulator sanitizer factory."""
    global _sanitizer_factory
    _sanitizer_factory = factory


class Delay:
    """Process command: suspend for ``duration`` microseconds.  Defined
    here so that both resources and the process kernel can import it."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative delay {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration})"


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("_sim", "_seq", "_time", "_cancelled")

    def __init__(self, sim: "Simulator", seq: int, time: float):
        self._sim = sim
        self._seq = seq
        self._time = time
        self._cancelled = False

    @property
    def time(self) -> float:
        """Absolute simulation time at which the callback fires."""
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        self._sim._cancel(self._seq)


class Simulator:
    """The event loop.

    A single :class:`Simulator` instance is shared by every component of
    one experiment (or, in a sharded run, by every component of one
    *shard*).  Components schedule work with :meth:`call_at` /
    :meth:`call_after` and the experiment driver advances time with
    :meth:`run`, :meth:`run_until`, or -- for conservatively
    synchronized shards -- :meth:`run_window`.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []            # (time, key, seq)
        self._live: dict[int, tuple] = {}       # seq -> (time, key, cb)
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.events_processed = 0
        # Per-cell operations a fast path (repro.sim.trains) folded
        # into arithmetic instead of heap events.  events_processed +
        # events_absorbed is the *model* event count -- comparable
        # across train and per-cell runs of the same workload.
        self.events_absorbed = 0
        self._last_event_time = 0.0
        # Latest model time a fast path computed arithmetically (a
        # folded serialization or drain completion).  Folded work can
        # postdate every heap event -- e.g. a cell lost on the wire
        # whose serialization delay was the run's final occurrence --
        # so `now` is bumped to this on drain and `last_event_time`
        # reports the max of both.
        self._model_last = 0.0
        self.sanitizer = (_sanitizer_factory()
                          if _sanitizer_factory is not None else None)

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def last_event_time(self) -> float:
        """Timestamp of the last event executed *or* folded -- unlike
        `now`, never advanced by run_until/advance_to clamping."""
        if self._model_last > self._last_event_time:
            return self._model_last
        return self._last_event_time

    def note_model_time(self, time: float) -> None:
        """Record that folded (non-event) model work occurred at
        ``time``.  Fast paths call this for every per-cell operation
        they absorb, so quiescence time matches the per-cell run."""
        if time > self._model_last:
            self._model_last = time

    def call_at(self, time: float, callback: Callable[[], None],
                key: tuple = NO_KEY) -> Timer:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``key`` is the same-time ordering key (see module docstring);
        leave it empty for ordinary events.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self._now})"
            )
        return Timer(self, self._schedule(time, key, callback), time)

    def call_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback)

    def call_now(self, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self.call_at(self._now, callback)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) queued entries -- O(1)."""
        return len(self._live)

    def _schedule(self, time: float, key: tuple,
                  callback: Callable[[], None]) -> int:
        """Queue ``callback`` at ``time >= now`` without a :class:`Timer`;
        return the seq that :meth:`_cancel` takes."""
        seq = next(self._seq)
        self._live[seq] = (time, key, callback)
        heapq.heappush(self._heap, (time, key, seq))
        return seq

    def _cancel(self, seq: int) -> None:
        """Drop the entry ``seq`` (a no-op once it fired or was dropped)."""
        live, heap = self._live, self._heap
        live.pop(seq, None)
        if len(heap) >= _COMPACT_MIN and len(live) * 2 < len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop dead tuples by rebuilding the heap from the live set, in
        place: the drain loop holds the list while callbacks cancel."""
        heap = self._heap
        heap[:] = [(time, key, seq)
                   for seq, (time, key, _cb) in self._live.items()]
        heapq.heapify(heap)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap, live = self._heap, self._live
        while heap and heap[0][2] not in live:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Run the single next event.  Returns False when queue is empty."""
        return self._drain(None, 1) == 1

    def _drain(self, horizon: Optional[float], budget: float) -> int:
        """The event loop of :meth:`step`, :meth:`run` and
        :meth:`run_window`: fire events below ``horizon`` (any, if None)
        until the queue drains or ``budget`` events have fired; return
        how many fired."""
        heap, live = self._heap, self._live
        pop = heapq.heappop
        sanitizer = self.sanitizer
        count = 0
        while count < budget and heap:
            time, key, seq = pop(heap)
            entry = live.pop(seq, None)
            if entry is None:
                continue                      # cancelled
            if horizon is not None and time >= horizon:
                live[seq] = entry             # not due: put it back
                heapq.heappush(heap, (time, key, seq))
                break
            self._now = time
            self._last_event_time = time
            self.events_processed += 1
            if sanitizer is not None:
                sanitizer.on_event(time)
            count += 1
            entry[2]()
        return count

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events executed, so callers can tell a
        drained queue from an exhausted budget: the queue drained iff
        the return value is below ``max_events`` (always, when no
        budget was given).  A zero budget runs nothing.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"negative event budget {max_events}")
        budget = _INF if max_events is None else max_events
        self._running = True
        try:
            count = self._drain(None, budget)
            # Drained?  Folded model work may postdate the last heap
            # event; land the clock where the per-cell run would.
            if count < budget and self._model_last > self._now:
                self._now = self._model_last
            return count
        finally:
            self._running = False

    def run_until(self, time: float) -> None:
        """Run events with timestamps <= ``time``; advance clock to ``time``."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            while True:
                nxt = self.peek()
                if nxt is None or nxt > time:
                    break
                self.step()
            self._now = max(self._now, time)
        finally:
            self._running = False

    def run_window(self, horizon: float) -> int:
        """Run events with timestamps strictly below ``horizon``.

        This is the conservative-synchronization primitive: a shard
        runs one window, then exchanges boundary messages with its
        peers before the horizon advances.  Unlike :meth:`run_until`
        the clock is *not* clamped to the horizon -- ``now`` stays at
        the last executed event, so an idle shard's clock (and its
        hosts' statistics) match what a single-process run would show.
        Returns the number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        if self.sanitizer is not None:
            self.sanitizer.window_begin(horizon)
        try:
            return self._drain(horizon, _INF)
        finally:
            if self.sanitizer is not None:
                self.sanitizer.window_end()
            self._running = False

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without running events.

        Used after a sharded run terminates: every shard's clock is
        fast-forwarded to the fabric-wide last event time so snapshots
        (host statistics, reports) read one consistent instant.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if time > self._now:
            nxt = self.peek()
            if nxt is not None and nxt < time:
                raise SimulationError(
                    f"advance_to({time}) would skip an event at {nxt}")
            self._now = time

    def run_while(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> None:
        """Run while ``predicate()`` is true and events remain."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            count = 0
            while predicate():
                if not self.step():
                    return
                count += 1
                if count >= max_events:
                    raise SimulationError(
                        f"run_while exceeded {max_events} events; "
                        "likely a livelock in the model"
                    )
        finally:
            self._running = False


__all__ = ["Simulator", "SimulationError", "Timer", "Delay", "NO_KEY",
           "set_sanitizer_factory"]
