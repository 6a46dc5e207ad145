"""Physical link models.

A :class:`CellPipe` is one 155 Mbps channel: cells serialize at line
rate, experience a propagation delay plus a per-cell queueing delay
supplied by a skew model, and are delivered *in order* (delays are
clamped so a cell never overtakes its predecessor on the same link --
precisely the paper's definition of skew-class misordering).

Serialization is arithmetic: :meth:`CellPipe.submit` computes each
cell's completion time from the lane's busy-until time, and one
arrival computation (fault filter, skew, in-order clamp, count) runs
for every cell -- by default from a real per-cell event at that time.
The **fast path** (:meth:`CellPipe.enable_trains`, used by the
cluster fabric when cell trains are on) runs it at submission
instead: contiguous surviving cells accumulate into a
:class:`~repro.sim.trains.CellTrain`, and per-cell events exist only
where ordering can matter -- a nonzero skew sample, an in-order
clamp, or a fault site with a scheduled state change due before the
cell finishes serializing (which defers every queued cell to its own
event until the hazard passes).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..hw.specs import ATM_CELL_BYTES
from ..sim import Simulator
from .cell import Cell

DeliverFn = Callable[[Cell], None]

OC3_MBPS = 155.52


class CellPipe:
    """One point-to-point physical channel carrying ATM cells."""

    def __init__(self, sim: Simulator, link_id: int,
                 deliver: Optional[DeliverFn],
                 rate_mbps: float = OC3_MBPS,
                 prop_delay_us: float = 5.0,
                 queueing_delay: Optional[Callable[[], float]] = None,
                 name: str = ""):
        self.sim = sim
        self.link_id = link_id
        self.deliver = deliver
        self.rate_mbps = rate_mbps
        self.prop_delay_us = prop_delay_us
        self.queueing_delay = queueing_delay
        self.name = name or f"link{link_id}"
        self.cell_time_us = ATM_CELL_BYTES * 8.0 / rate_mbps
        self.cells_carried = 0
        # Optional FaultSite (repro.faults): consulted at emission time;
        # a lost cell is simply never scheduled for delivery.
        self.fault_site = None
        self._last_arrival = 0.0
        # Per-cell delivery scheduler.  The cluster fabric replaces this
        # to route the arrival through a keyed boundary channel instead
        # of calling ``deliver`` (which it then leaves None);
        # `arrival >= emission time + prop_delay_us` is the lookahead
        # guarantee the replacement relies on.
        self.schedule_delivery: Callable[[float, Cell], None] = \
            self._schedule_local
        # Fast path (cell trains): installed by the fabric via
        # enable_trains(); None means every cell takes its own event.
        self._train_port = None
        self._busy_until = 0.0
        self._open_train = None
        self._deferred: deque = deque()     # (cell, t_done) pairs

    def enable_trains(self, train_port) -> None:
        """Switch the link to the arithmetic fast path.

        ``train_port`` is the fabric's emission helper for this lane's
        boundary channel: ``open(arrival, cell)`` starts a train
        (allocating its key block), ``append_bump()`` burns one channel
        sequence number for an appended cell, and ``allowed(cell)``
        says whether trains may form at all for this cell's destination
        (a shard forbids them across boundaries).  A cell that rides
        alone goes out through :attr:`schedule_delivery`, exactly as
        without trains.
        """
        self._train_port = train_port

    def submit(self, cell: Cell) -> None:
        """Hand a cell to the link (never blocks; the pipe queues)."""
        cell.link_id = self.link_id
        now = self.sim.now
        busy = self._busy_until
        start = busy if busy > now else now
        t_done = start + self.cell_time_us
        self._busy_until = t_done
        site = self.fault_site
        if (self._train_port is None or self._deferred
                or (site is not None and site.next_scheduled() < t_done)):
            # Without a train port every cell takes its own event at
            # its completion time.  With one, a scheduled flap/kill
            # landing before this cell finishes serializing means its
            # fate cannot be decided now: it takes that event too, and
            # so does every cell behind it until the backlog drains
            # past the hazard.
            self._open_train = None
            self._deferred.append((cell, t_done))
            if len(self._deferred) == 1:
                self.sim.call_at(t_done, self._deferred_step)
            return
        self._finish_cell(cell, t_done, absorbed=True)

    def _deferred_step(self) -> None:
        cell, t_done = self._deferred.popleft()
        self._finish_cell(cell, t_done, absorbed=False)
        if self._deferred:
            self.sim.call_at(self._deferred[0][1], self._deferred_step)

    def _finish_cell(self, cell: Cell, t_done: float,
                     absorbed: bool) -> None:
        """Serialization finished at ``t_done``: the one arrival
        computation -- fault filter, skew, in-order clamp, count --
        then emission.  The per-cell event runs it at ``t_done``; the
        fast path runs it at submission (``absorbed``), folding the
        serialization event."""
        if absorbed:
            self.sim.events_absorbed += 1
        if self.fault_site is not None:
            cell = self.fault_site.filter(cell, t_done)
            if cell is None:
                if absorbed:
                    # No later event covers a lost cell; the clock
                    # must still land where its serialization event
                    # would have left it.  (A surviving cell is
                    # always covered: its arrival event, train commit,
                    # or expansion all postdate t_done.)
                    self.sim.note_model_time(t_done)
                self._open_train = None     # a gap breaks the train
                return
        extra = self.queueing_delay() if self.queueing_delay else 0.0
        arrival = t_done + self.prop_delay_us + max(0.0, extra)
        clamped = arrival < self._last_arrival
        if clamped:
            # Cells on one physical link stay in order.
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.cells_carried += 1
        port = self._train_port
        if (not absorbed or extra != 0.0 or clamped
                or not port.allowed(cell)):
            # A real serialization event, or ordering can matter
            # here (skew sample, in-order clamp, a shard boundary):
            # per-cell event.
            self._open_train = None
            self.schedule_delivery(arrival, cell)
            return
        train = self._open_train
        if train is not None and train.try_append(cell, arrival):
            port.append_bump()
        else:
            self._open_train = train = port.open(arrival, cell)
        if cell.eom or cell.atm_last:
            self._open_train = None     # trains carry one PDU's cells

    def _schedule_local(self, arrival: float, cell: Cell) -> None:
        self.sim.call_at(arrival, self._make_delivery(cell))

    def _make_delivery(self, cell: Cell) -> Callable[[], None]:
        def fire() -> None:
            self.deliver(cell)
        return fire


__all__ = ["CellPipe", "OC3_MBPS"]
