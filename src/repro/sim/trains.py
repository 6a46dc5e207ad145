"""Cell trains: one event standing in for a burst of contiguous cells.

The simulator's throughput ceiling is per-cell heap traffic: a cell
crossing the fabric costs a serialization delay on its link, a keyed
switch-arrival event, a drain delay at its output port, and a delivery
event -- four heap operations for work whose timing is pure arithmetic
whenever nothing contends.  A :class:`CellTrain` is the DPDK burst
idiom applied to simulation: on an uncontended segment, a contiguous
run of cells from one PDU travels as a *single* event carrying the
cells and their per-cell timestamps, and the receiving stage either
*fuses* (absorbs the whole burst arithmetically, bumping
``Simulator.events_absorbed`` for the events it folded) or *expands*
back to ordinary per-cell events wherever ordering can matter.

Invariants (see DESIGN.md section 10):

* A train only forms while the emitting link is continuously busy --
  ``times`` is the exact per-cell arrival sequence the per-cell path
  would have produced, bit for bit.
* Every cell keeps the boundary-channel ordering key it would have
  carried alone: the train owns the block ``(chan, n0) .. (chan,
  n0 + len - 1)``, and the train event itself is keyed ``(chan, n0)``
  -- the first cell's key -- so it sorts exactly where the first
  per-cell event would have.
* A train is mutable only until its event fires: the emitter may
  append cells while simulation time is still before ``times[0]``;
  the ``fired`` flag closes it.
* Trains never cross a shard boundary; the emitting side expands
  them into per-cell messages first (a mailboxed train could not
  accept appends: the peer unpickles a snapshot of it).
"""

from __future__ import annotations

from typing import List


class CellTrain:
    """A contiguous burst of cells riding one boundary channel.

    ``cells[i]`` arrives at ``times[i]``; its ordering key on the
    channel is ``chan + (n0 + i,)``.  Arrival times are explicit (not
    a stride) so a train can carry any in-order burst -- uplink
    serialization grids and switch departure grids alike.
    """

    __slots__ = ("cells", "times", "chan", "n0", "fired")

    def __init__(self, cells: List, times: List[float], chan: tuple,
                 n0: int):
        self.cells = cells
        self.times = times
        self.chan = chan
        self.n0 = n0
        self.fired = False

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def key(self) -> tuple:
        """The train event's ordering key: the first cell's."""
        return self.chan + (self.n0,)

    def cell_key(self, i: int) -> tuple:
        """The ordering key cell ``i`` would carry alone."""
        return self.chan + (self.n0 + i,)

    def try_append(self, cell, time: float) -> bool:
        """Append one cell if the train is still open (its event has
        not fired).  The caller owns the channel counter: a successful
        append must be matched by one bump of ``chan``'s sequence."""
        if self.fired:
            return False
        self.cells.append(cell)
        self.times.append(time)
        return True


__all__ = ["CellTrain"]
