"""Timed resources for simulation processes.

:class:`Resource` models a server with finite capacity and a FIFO (or
priority) wait queue -- the TURBOchannel bus, a DMA engine, or a CPU are
all capacity-1 resources.  :class:`Store` is a producer/consumer channel
used for cell pipes and inter-process queues.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Optional

from .core import Delay, SimulationError, Simulator


class Grant:
    """A held unit of a resource; release exactly once."""

    __slots__ = ("resource", "released", "acquired_at")

    def __init__(self, resource: "Resource", acquired_at: float):
        self.resource = resource
        self.released = False
        self.acquired_at = acquired_at

    def release(self) -> None:
        if self.released:
            raise SimulationError("double release of resource grant")
        self.released = True
        self.resource.release()


class _Request:
    """Awaitable command produced by :meth:`Resource.request`.

    The process kernel grants it at once when a unit is free; otherwise
    it waits in the resource's heap as ``(priority, seq, request)``.
    """

    __slots__ = ("resource", "priority", "seq", "_resume")

    def __init__(self, resource: "Resource", priority: float, seq: int):
        self.resource = resource
        self.priority = priority
        self.seq = seq
        self._resume: Optional[Callable[[Any], None]] = None

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # The kernel found no free unit: wait for a release.
        self._resume = resume
        heapq.heappush(self.resource._waiting,
                       (self.priority, self.seq, self))

    def __repr__(self) -> str:
        return f"{self.resource.name}.request({self.priority})"


class Resource:
    """Finite-capacity resource with priority/FIFO queueing.

    Statistics (:attr:`busy_time`, :attr:`grants`) feed utilisation
    reports in the benchmark harness.
    """

    def __init__(self, sim: Simulator, name: str = "resource",
                 capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        # Heap of (priority, seq, request): the tuple compares in C.
        self._waiting: list[tuple[float, int, _Request]] = []
        self._seq = itertools.count()
        self.busy_time = 0.0
        self.grants = 0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> _Request:
        """Awaitable: yields a :class:`Grant` once capacity is available.

        Lower ``priority`` values are served first; ties are FIFO.
        """
        return _Request(self, priority, next(self._seq))

    def try_acquire(self) -> bool:
        """Take a free unit without yielding, or return False.

        The fast path of a request: a process that finds a unit free
        takes it exactly when a yielded request would have been
        granted, without a :class:`Grant` or a trip through the process
        kernel.  Give the unit back with :meth:`release`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grants += 1
            if self._busy_since is None:
                self._busy_since = self.sim._now
            return True
        return False

    def release(self) -> None:
        """Return one unit, taken by :meth:`try_acquire` or granted to a
        request, and hand it to the first waiter."""
        if self._in_use == 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim._now - self._busy_since
            self._busy_since = None
        if self._waiting and self._in_use < self.capacity:
            request = heapq.heappop(self._waiting)[2]
            request._resume(self._take())

    def use(self, duration: float,
            priority: float = 0.0) -> Generator[Any, Any, None]:
        """Subroutine: acquire, hold ``duration`` microseconds, release.

        Use as ``yield from resource.use(t)`` inside a process.  A free
        unit is taken without yielding, exactly when a yielded request
        would have been granted.
        """
        if not self.try_acquire():
            yield self.request(priority)
        try:
            yield Delay(duration)
        finally:
            self.release()

    def _take(self) -> Grant:
        """Hand out a free unit as a :class:`Grant` (the caller checked
        there is one)."""
        self.try_acquire()
        return Grant(self, self.sim._now)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy (any units in use)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        total = elapsed if elapsed is not None else self.sim.now
        if total <= 0:
            return 0.0
        return busy / total

    def __repr__(self) -> str:
        return (f"Resource({self.name!r}, {self._in_use}/{self.capacity} "
                f"in use, {len(self._waiting)} waiting)")


class _Get:
    """Awaitable command produced by :meth:`Store.get`."""

    __slots__ = ("store", "_resume")

    def __init__(self, store: "Store"):
        self.store = store
        self._resume: Optional[Callable[[Any], None]] = None

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # The kernel found the store empty: wait for a deposit.
        self._resume = resume
        self.store._getters.append(self)

    def __repr__(self) -> str:
        return f"{self.store.name}.get()"


class _Put:
    """Awaitable command produced by :meth:`Store.put`."""

    __slots__ = ("store", "item", "_resume")

    def __init__(self, store: "Store", item: Any):
        self.store = store
        self.item = item
        self._resume: Optional[Callable[[Any], None]] = None

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # The kernel found the store full: wait for a get to admit it.
        self._resume = resume
        self.store._putters.append(self)

    def __repr__(self) -> str:
        return f"{self.store.name}.put({self.item!r})"


class Store:
    """FIFO channel between processes, with optional capacity bound.

    ``yield store.get()`` blocks until an item is available;
    ``yield store.put(item)`` blocks while the store is full.  A process
    may yield the same get command again once it has been answered.  A get
    that finds the store non-empty is answered inside the process
    kernel's loop; a putter blocked on a full store is let in once the
    getter that made room blocks (see :meth:`Process._step`).
    """

    def __init__(self, sim: Simulator, name: str = "store",
                 capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[_Get] = deque()
        self._putters: deque[_Put] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> Any:
        """The oldest item, left in place; None when the store is empty."""
        return self._items[0] if self._items else None

    def get(self) -> _Get:
        return _Get(self)

    def put(self, item: Any) -> _Put:
        return _Put(self, item)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._deposit(item)
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_putter()
        return True, item

    def _deposit(self, item: Any) -> None:
        """Hand ``item`` to the first waiting getter, else queue it."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft()._resume(item)
        else:
            self._items.append(item)

    def _admit_putter(self) -> None:
        """Let the first blocked putter in, if there is room now."""
        if self._putters and (self.capacity is None
                              or len(self._items) < self.capacity):
            putter = self._putters.popleft()
            self._deposit(putter.item)
            putter._resume(None)

    def __repr__(self) -> str:
        return (f"Store({self.name!r}, {len(self._items)} items, "
                f"{len(self._getters)} getters, {len(self._putters)} putters)")


__all__ = ["Resource", "Grant", "Store"]
