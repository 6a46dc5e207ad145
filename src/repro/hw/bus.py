"""TURBOchannel bus and the host memory system.

The bus is a capacity-1 timed resource.  On the DECstation 5000/200
*every* memory transaction -- DMA bursts, CPU cache fills and
write-backs -- occupies it, so CPU activity slows DMA and vice versa
(paper, section 4).  On the DEC 3000/600 a buffered crossbar lets CPU
memory traffic proceed concurrently with DMA, so only DMA and
programmed I/O touch the bus resource.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import Delay, Resource, Simulator
from .specs import BusSpec, MachineSpec

# The TURBOchannel arbitrates fairly per transaction: requests are
# served in arrival order.  (An absolute-priority scheme starves host
# dual-port accesses behind a saturated DMA stream -- the driver would
# only make progress in inter-PDU gaps.)
PRIO_DMA = 0.0
PRIO_CPU = 0.0

# CPU memory traffic is made of individual transactions; it interleaves
# with DMA at transaction granularity rather than monopolizing the bus
# for a whole software phase (otherwise long software phases would
# overflow the board's cell FIFO).  The bus is taken this long at most.
BUS_SLICE_US = 1.0


class TurboChannel:
    """The I/O bus: timed transactions with the paper's cycle costs."""

    def __init__(self, sim: Simulator, spec: BusSpec, name: str = "tc"):
        self.sim = sim
        self.spec = spec
        self.resource = Resource(sim, name, capacity=1)
        self.dma_bytes_read = 0
        self.dma_bytes_written = 0
        self.pio_words = 0
        # Transaction times by size, filled as sizes occur (a run uses
        # a handful: one or two cells, and page-boundary remainders).
        self._read_us: dict[int, float] = {}
        self._write_us: dict[int, float] = {}

    def dma_read(self, nbytes: int) -> Generator[Any, Any, None]:
        """One DMA transaction reading host memory (transmit direction)."""
        self.dma_bytes_read += nbytes
        cost = self._read_us.get(nbytes)
        if cost is None:
            cost = self._read_us[nbytes] = self.spec.dma_read_us(nbytes)
        return self.resource.use(cost, PRIO_DMA)

    def dma_write(self, nbytes: int) -> Generator[Any, Any, None]:
        """One DMA transaction writing host memory (receive direction)."""
        self.dma_bytes_written += nbytes
        cost = self._write_us.get(nbytes)
        if cost is None:
            cost = self._write_us[nbytes] = self.spec.dma_write_us(nbytes)
        return self.resource.use(cost, PRIO_DMA)

    def pio_read_words(self, nwords: int) -> Generator[Any, Any, None]:
        """Host CPU reads ``nwords`` from board memory, one word at a time."""
        self.pio_words += nwords
        cost = nwords * self.spec.pio_read_word_cycles * self.spec.cycle_us
        return self.resource.use(cost, PRIO_CPU)

    def pio_write_words(self, nwords: int) -> Generator[Any, Any, None]:
        """Host CPU writes ``nwords`` to board memory."""
        self.pio_words += nwords
        cost = nwords * self.spec.pio_write_word_cycles * self.spec.cycle_us
        return self.resource.use(cost, PRIO_CPU)

    def occupy(self, duration: float,
               priority: float = PRIO_CPU) -> Generator[Any, Any, None]:
        """Occupy the bus for an arbitrary duration (CPU memory traffic)."""
        return self.resource.use(duration, priority)

    def utilization(self, elapsed: float | None = None) -> float:
        return self.resource.utilization(elapsed)


class MemorySystem:
    """Routes CPU memory traffic either onto the TC or past it.

    ``cpu_memory_time`` is the single point that distinguishes the two
    machine generations: shared path (DS5000/200) versus
    crossbar (DEC 3000/600).
    """

    def __init__(self, sim: Simulator, machine: MachineSpec,
                 tc: TurboChannel):
        self.sim = sim
        self.machine = machine
        self.tc = tc

    def cpu_memory_time(self, duration: float) -> Generator[Any, Any, None]:
        """CPU spends ``duration`` on memory traffic.

        On a shared-path machine this occupies the bus (stalling DMA);
        on a crossbar machine it is plain CPU time.
        """
        if duration <= 0:
            return
        if not self.machine.shared_memory_path:
            yield Delay(duration)
            return
        remaining = duration
        while remaining > 0:
            slice_us = min(BUS_SLICE_US, remaining)
            yield from self.tc.occupy(slice_us, PRIO_CPU)
            remaining -= slice_us


__all__ = ["TurboChannel", "MemorySystem", "PRIO_DMA", "PRIO_CPU"]
