"""An O(1) per-VCI queue manager for million-circuit switch ports.

The seed switch kept ``dict[vci] -> deque`` plus a linear scan to find
the longest backlog when a full port needed a push-out victim -- fine
at tens of VCIs, O(V) per drop at the 10^5-10^6 circuits the north
star asks for.  :class:`ActiveQueueIndex` is the FORTH "Queue
Management in Network Processors" design translated to Python: all
per-queue state lives in flat dictionaries (the software analogue of
linked lists threaded through one memory array), and *every* operation
the drain and admission paths need is O(1) amortized:

* ``enqueue`` / ``pop_rr`` / ``pop_fifo`` -- append to the VCI's cell
  deque and maintain an *active ring* (round-robin) or a per-cell
  arrival order (FIFO); no operation ever walks the VCI table.  Ring
  entries are generation-tagged and deleted lazily -- a queue emptied
  by push-out leaves a stale entry the next rotation discards, and a
  re-enqueued VCI joins at the *back* with a fresh generation (the
  rotation position an eager ``deque.remove``, itself O(active VCIs),
  would have produced).
* A drained queue gives its memory back, as FORTH's free list does:
  only a VCI with cells queued holds a deque, and only one a ring
  entry still names holds a generation.
* ``longest()`` / ``drop_tail()`` -- an **occupancy index** maps each
  backlog length to the set of VCIs currently at that length
  (insertion-ordered, so the choice is deterministic).  A queue's
  length changes by one per operation, so moving its VCI between
  adjacent buckets is O(1), and the tracked maximum moves by single
  steps -- push-out-longest stops degrading with VCI count.

Victim choice is content-deterministic: among equally-longest queues,
the one that *reached* that length first is evicted (bucket FIFO
order), a tie-break every shard reproduces because it depends only on
the port's event sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class VirtualOccupancy:
    """Occupancy of cells a fused train committed past this queue.

    When a :class:`~repro.sim.trains.CellTrain` is absorbed at a
    switch port, its cells never enter the real queue -- their whole
    trajectory (arrival, service start, departure) is computed at
    commit time.  They still occupy the port for real simulated time,
    so admission checks, congestion thresholds, and depth statistics
    for any *later* per-cell arrival must see them.  This tracker
    holds the committed cells' service-start times; a cell occupies
    the queue from its (already accounted) arrival until its service
    starts, so the residual at ``now`` is the count of starts still in
    the future.

    Starts are committed in nondecreasing order (the port's busy time
    only moves forward), so the deque stays sorted and both
    operations are O(1) amortized.
    """

    __slots__ = ("_starts",)

    def __init__(self) -> None:
        self._starts: deque = deque()

    def commit(self, starts) -> None:
        """Record committed cells' service-start times (ascending)."""
        self._starts.extend(starts)

    def residual(self, now: float) -> int:
        """Committed cells still occupying the queue at ``now``.

        A start at exactly ``now`` counts as popped: service begins in
        an unkeyed (drain) event, which sorts before any keyed arrival
        at the same timestamp.
        """
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        return len(starts)

    def pending(self, now: float) -> list:
        """The residual cells' service-start times, ascending."""
        self.residual(now)
        return list(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)


class ActiveQueueIndex:
    """Per-VCI cell queues with O(1) drain, FIFO, and longest-queue
    operations, independent of how many VCIs are live."""

    __slots__ = ("_cells", "_ring", "_gen", "_order", "_buckets",
                 "_maxlen", "depth")

    def __init__(self) -> None:
        self._cells: dict = {}      # vci -> non-empty deque of cells
        # rr rotation order: (vci, generation) entries.  An entry is
        # live iff it carries the VCI's current generation AND the VCI
        # holds cells; anything else is stale and skipped on pop.
        self._ring: deque = deque()
        self._gen: dict = {}
        self._order: deque = deque()  # fifo: one VCI entry per cell
        # occupancy index: backlog length -> {vci: None} at that
        # length, insertion-ordered; _maxlen tracks the top bucket.
        self._buckets: dict = {}
        self._maxlen = 0
        self.depth = 0

    # -- occupancy index ----------------------------------------------------

    def _reindex(self, vci: int, old: int, new: int) -> None:
        """Move ``vci`` between adjacent length buckets (O(1))."""
        if old > 0:
            bucket = self._buckets[old]
            del bucket[vci]
            if not bucket:
                del self._buckets[old]
        if new > 0:
            self._buckets.setdefault(new, {})[vci] = None
            if new > self._maxlen:
                self._maxlen = new
        while self._maxlen > 0 and self._maxlen not in self._buckets:
            self._maxlen -= 1

    # -- producers ----------------------------------------------------------

    def enqueue(self, vci: int, cell, fifo: bool = False) -> int:
        """Append a cell; returns the VCI's new backlog length."""
        queue = self._cells.get(vci)
        if queue is None:
            queue = self._cells[vci] = deque()
            if not fifo:
                gen = self._gen.get(vci, 0) + 1
                self._gen[vci] = gen
                self._ring.append((vci, gen))
        if fifo:
            self._order.append(vci)
        queue.append(cell)
        length = len(queue)
        self._reindex(vci, length - 1, length)
        self.depth += 1
        return length

    # -- consumers ----------------------------------------------------------

    def pop_rr(self) -> Optional[tuple]:
        """(vci, cell) under round-robin service, or None when idle."""
        while self._ring:
            vci, gen = self._ring.popleft()
            if gen != self._gen[vci]:
                continue                # stale: re-enqueued since
            # The VCI's newest entry: its older ones were popped first.
            queue = self._cells.get(vci)
            if queue is None:           # stale: emptied by push-out
                del self._gen[vci]
                continue
            cell = queue.popleft()
            if queue:
                self._ring.append((vci, gen))  # rotate to the back
            else:
                del self._cells[vci]
                del self._gen[vci]
            self._reindex(vci, len(queue) + 1, len(queue))
            self.depth -= 1
            return vci, cell
        return None

    def pop_fifo(self) -> Optional[tuple]:
        """(vci, cell) in global arrival order, or None when idle."""
        if not self._order:
            return None
        vci = self._order.popleft()
        queue = self._cells[vci]
        cell = queue.popleft()
        if not queue:
            del self._cells[vci]
        self._reindex(vci, len(queue) + 1, len(queue))
        self.depth -= 1
        return vci, cell

    # -- push-out support ---------------------------------------------------

    def queue_len(self, vci: int) -> int:
        queue = self._cells.get(vci)
        return len(queue) if queue is not None else 0

    def longest(self) -> Optional[tuple]:
        """(vci, backlog length) of the longest queue, O(1); among
        ties, the queue that reached that length earliest."""
        if self._maxlen == 0:
            return None
        bucket = self._buckets[self._maxlen]
        return next(iter(bucket)), self._maxlen

    def drop_tail(self, vci: int):
        """Remove and return ``vci``'s newest cell (push-out).

        Only meaningful under round-robin service: the FIFO arrival
        order would be left holding a consumed entry.  An emptied
        queue leaves the rotation -- its ring entry goes stale and a
        later re-enqueue rejoins at the back.
        """
        queue = self._cells[vci]
        cell = queue.pop()
        if not queue:
            del self._cells[vci]
        self._reindex(vci, len(queue) + 1, len(queue))
        self.depth -= 1
        return cell


__all__ = ["ActiveQueueIndex", "VirtualOccupancy"]
