"""The OSIRIS DMA controllers.

Each half of the board has one controller.  The controller enforces
the transfer-length discipline of section 2.5:

* ``SINGLE_CELL`` -- every transaction is at most one AAL payload
  (44 bytes), the board's original design.
* ``DOUBLE_CELL`` -- up to two payloads (88 bytes) when the on-board
  processor decides two consecutive cells land contiguously; the
  modification that raised the receive ceiling to 587 Mbps.
* ``ARBITRARY`` -- the "ideal" controller the paper deemed too complex
  for the available programmable logic; kept for ablations.

In every mode a transaction also stops early at a page boundary (the
modification of section 2.5.2, which both engines always have), so a
partially filled cell at the end of one buffer can be completed from
the start of the next, and no transaction ever spans two pages.
:meth:`DmaController.max_burst` exposes exactly that rule to the
on-board processors.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from ..sim import Resource, SimulationError, Simulator
from .bus import TurboChannel
from .cache import DataCache
from .memory import PhysicalMemory
from .specs import AAL_PAYLOAD_BYTES


class DmaMode(enum.Enum):
    SINGLE_CELL = "single"
    DOUBLE_CELL = "double"
    ARBITRARY = "arbitrary"

    @property
    def max_bytes(self) -> Optional[int]:
        if self is DmaMode.SINGLE_CELL:
            return AAL_PAYLOAD_BYTES
        if self is DmaMode.DOUBLE_CELL:
            return 2 * AAL_PAYLOAD_BYTES
        return None


class DmaController:
    """One direction's DMA engine.

    The engine itself is a pure bus client; the bus resource inside
    :class:`TurboChannel` provides serialization against the other
    half's engine and (on the DECstation) against CPU memory traffic.
    """

    def __init__(self, sim: Simulator, tc: TurboChannel,
                 memory: PhysicalMemory, cache: Optional[DataCache],
                 mode: DmaMode = DmaMode.SINGLE_CELL,
                 page_size: int = 4096):
        self.sim = sim
        self.tc = tc
        self.memory = memory
        self.cache = cache
        self.mode = mode
        # The mode's transaction length cap (None: no cap), fixed with
        # the mode at construction.
        self.max_bytes = mode.max_bytes
        self.page_size = page_size
        # Optional scatter/gather map (section 2.2), installed by the
        # driver: addresses above its IO_BASE are translated per
        # transaction.
        self.sgmap = None
        self.transactions = 0
        self.bytes_moved = 0
        # The controller issues one bus transaction at a time; queued
        # commands wait *in the controller*, so bus arbitration sees at
        # most one pending DMA request and other agents (host PIO, CPU
        # memory traffic on a shared-path machine) interleave fairly.
        self.engine = Resource(sim, "dma-engine", capacity=1)

    def max_burst(self, addr: int, wanted: int) -> int:
        """Longest legal transaction starting at ``addr``.

        Applies the mode's length cap and the stop-at-page-boundary
        rule of section 2.5.2.
        """
        if wanted <= 0:
            raise SimulationError("DMA burst must move at least one byte")
        allowed = wanted
        cap = self.max_bytes
        if cap is not None and cap < allowed:
            allowed = cap
        to_boundary = self.page_size - (addr % self.page_size)
        if to_boundary < allowed:
            allowed = to_boundary
        return allowed

    def _check(self, nbytes: int, addr: int) -> None:
        cap = self.max_bytes
        if cap is not None and nbytes > cap:
            raise SimulationError(
                f"{self.mode.value} DMA cannot move {nbytes} bytes")
        if nbytes > self.page_size - (addr % self.page_size):
            raise SimulationError(
                f"DMA would cross a page boundary at {addr:#x}")

    def write_host(self, addr: int, data: bytes
                   ) -> Generator[Any, Any, None]:
        """Receive direction: move cell payload into host memory."""
        length = len(data)
        self._check(length, addr)
        self.transactions += 1
        self.bytes_moved += length
        engine = self.engine
        if not engine.try_acquire():
            yield engine.request()
        try:
            yield from self.tc.dma_write(length)
        finally:
            engine.release()
        if self.cache is not None:
            self.cache.dma_write(addr, data)
        else:
            self.memory.write(addr, data)

    def read_host(self, addr: int, nbytes: int
                  ) -> Generator[Any, Any, bytes]:
        """Transmit direction: pull bytes from host memory."""
        self._check(nbytes, addr)
        self.transactions += 1
        self.bytes_moved += nbytes
        engine = self.engine
        if not engine.try_acquire():
            yield engine.request()
        try:
            yield from self.tc.dma_read(nbytes)
        finally:
            engine.release()
        if self.sgmap is not None and self.sgmap.covers(addr):
            # Bursts never cross a page, so one translation covers the
            # whole transaction.
            return self.memory.read(self.sgmap.translate(addr), nbytes)
        return self.memory.read(addr, nbytes)


__all__ = ["DmaController", "DmaMode"]
