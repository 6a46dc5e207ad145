"""The in-kernel OSIRIS device driver.

Implements the host side of everything section 2 describes:

* descriptor exchange through the lock-free queues, with every word
  access across the TURBOchannel charged (section 2.1.1);
* the interrupt discipline: transmit completion detected by tail-
  pointer advance during other driver activity, a transmit-space
  interrupt only after the host found the queue full, and a receive
  thread scheduled on the queue's empty->non-empty interrupt
  (section 2.1.2);
* physical-buffer fragmentation: messages shatter into per-page
  descriptors, each costing per-buffer driver time (section 2.2);
* eager/lazy cache invalidation hooks (section 2.3);
* page wiring on the transmit path, unwired lazily when completion is
  reaped (section 2.4);
* VCI management: one VCI per x-kernel path, buffers recycled onto the
  path they served (sections 2.3 and 3.1).
"""

from __future__ import annotations

import struct
from typing import Any, Generator, Optional

from ..host.kernel import HostOS
from ..osiris.board import OsirisBoard
from ..osiris.descriptors import Descriptor, FLAG_END_OF_PDU
from ..osiris.interrupts import InterruptKind
from ..osiris.queues import DescriptorQueue
from ..sim import Resource, Signal, SimulationError, Simulator
from ..xkernel.message import Message
from ..xkernel.protocol import Protocol, Session
from .cache_policy import CachePolicy
from .config import DriverConfig

_TRAILER = struct.Struct(">II")


class DriverProtocol(Protocol):
    def __init__(self) -> None:
        super().__init__("osiris")


class DriverSession(Session):
    """Bottom of a path: one VCI's binding to the driver."""

    def __init__(self, protocol: DriverProtocol,
                 driver: "OsirisDriver", vci: int):
        super().__init__(protocol, below=None)
        self.driver = driver
        self.vci = vci
        self.space = driver.space

    def send(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self.driver.send_pdu(msg, self.vci)

    def deliver(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self._deliver_above(msg)


class OsirisDriver:
    """Host driver for one OSIRIS board."""

    def __init__(self, sim: Simulator, kernel: HostOS, board: OsirisBoard,
                 config: Optional[DriverConfig] = None):
        self.sim = sim
        self.kernel = kernel
        self.board = board
        self.config = config or DriverConfig.for_machine(kernel.machine)
        self.space = kernel.kernel_domain.space
        self.cache_policy = CachePolicy(kernel, self.config.cache_policy)
        self.protocol = DriverProtocol()
        self.bufsize = board.spec.recv_buffer_bytes

        kernel.attach_board(board)
        kernel.register_irq_handler(InterruptKind.RECEIVE, self._on_rx_irq)
        kernel.register_irq_handler(InterruptKind.TRANSMIT_SPACE,
                                    self._on_tx_space_irq)

        # The send path is a critical section: descriptors of one PDU
        # must be queued contiguously (END_OF_PDU delimits them).
        self._send_lock = Resource(sim, "driver-send", capacity=1)
        self._rx_signal = Signal("driver.rx")
        self._rx_pending = False
        self._tx_space = Signal("driver.tx-space")
        self._tx_space_pending = False

        # Transmit completion bookkeeping: descriptor counts per PDU
        # (plus wired segments and sg-map windows), reaped when the
        # tail pointer is seen to have advanced.
        self._tx_inflight: list[tuple] = []
        self._tx_inflight_descs = 0

        # Optional virtual-address DMA (section 2.2).
        self.sgmap = None
        if self.config.use_sg_map:
            from ..hw.sgmap import ScatterGatherMap
            self.sgmap = ScatterGatherMap(sim, kernel.cpu)
            board.tx_dma.sgmap = self.sgmap

        # Receive buffer pool: statically allocated contiguous kernel
        # buffers (section 2.2's traditional remedy), identity-mapped.
        self._returned: list[Descriptor] = []
        for _ in range(self.config.rx_buffers):
            addr = kernel.memory.alloc_contiguous(self.bufsize)
            self.space.map_identity(addr, self.bufsize)
            self._returned.append(Descriptor(addr=addr, length=self.bufsize))
        kq = board.kernel_channel.free_queue
        while self._returned:
            if not kq.push(self._returned[0]):
                break
            self._returned.pop(0)
        kq.host_access.reset()  # initialisation is not charged

        # ADC routing: receive interrupts for channels 1..15 are fielded
        # here (the kernel always fields interrupts, section 3.2) and
        # signalled straight into the ADC channel driver's thread.
        self._adc_rx_handlers: dict[int, Any] = {}
        self._violation_handlers: dict[int, Any] = {}
        kernel.register_irq_handler(InterruptKind.PROTECTION_VIOLATION,
                                    self._on_violation_irq)

        # Paths: VCI -> session, plus the cached-fbuf MRU bookkeeping.
        self._paths: dict[int, DriverSession] = {}
        self._next_vci = 256
        self._mru_paths: list[int] = []
        self._path_tagged: dict[int, int] = {}  # vci -> buffers tagged

        # Statistics.
        self.pdus_sent = 0
        self.pdus_received = 0
        self.rx_errors = 0
        self.tx_full_events = 0

        self.rx_thread = kernel.spawn_thread(self._rx_loop(), "osiris-rx")

    # -- path management ----------------------------------------------------------

    def open_path(self, vci: Optional[int] = None) -> DriverSession:
        """Bind a new path to a VCI (abundant-resource model)."""
        if vci is None:
            vci = self._next_vci
            self._next_vci += 1
        if vci in self._paths:
            raise SimulationError(f"VCI {vci} already has a path")
        self.board.bind_vci(vci, 0)
        session = DriverSession(self.protocol, self, vci)
        self._paths[vci] = session
        self._touch_mru(vci)
        return session

    def _touch_mru(self, vci: int) -> None:
        if vci in self._mru_paths:
            self._mru_paths.remove(vci)
        self._mru_paths.insert(0, vci)
        del self._mru_paths[self.config.fbuf_cached_paths:]

    def _recycle_tag(self, vci: int) -> int:
        """Tag for a returning buffer: keep it on its path when the
        path is among the MRU set and under quota (section 3.1).

        ``_path_tagged`` counts tagged buffers currently parked at the
        board; it is decremented as PDUs consume them (the board
        prefers the path pool, so consumption is pool-first)."""
        if vci in self._mru_paths:
            tagged = self._path_tagged.get(vci, 0)
            if tagged < self.config.fbuf_buffers_per_path:
                self._path_tagged[vci] = tagged + 1
                return vci
        return 0

    def _note_pool_consumption(self, vci: int, nbuffers: int) -> None:
        tagged = self._path_tagged.get(vci, 0)
        self._path_tagged[vci] = max(0, tagged - nbuffers)

    # -- shared helpers ----------------------------------------------------------

    def _charge_queue_access(self, queue: DescriptorQueue
                             ) -> Generator[Any, Any, None]:
        """Convert the queue's recorded host word accesses into bus
        time (dual-port accesses are expensive, section 2.1)."""
        reads, writes = queue.host_access.reset()
        if reads:
            yield from self.board.tc.pio_read_words(reads)
        if writes:
            yield from self.board.tc.pio_write_words(writes)

    # -- transmit path -------------------------------------------------------------

    def send_pdu(self, msg: Message, vci: int) -> Generator[Any, Any, None]:
        grant = yield self._send_lock.request()
        try:
            yield from self._send_pdu_locked(msg, vci)
        finally:
            grant.release()

    def _send_pdu_locked(self, msg: Message,
                         vci: int) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        queue = self.board.kernel_channel.tx_queue
        self._touch_mru(vci)

        # Completion check "as part of other driver activity".
        yield from self._reap_transmitted()

        yield from cpu.execute(costs.driver_tx_pdu)
        segments = msg.segments()
        for vaddr, length in segments:
            yield from self.kernel.wiring.wire(self.space, vaddr, length)

        mappings: list = []
        if self.sgmap is not None:
            # Virtual-address DMA: one descriptor per segment; the map
            # absorbs the per-page scatter (but charges per page).
            units = []
            for vaddr, length in segments:
                mapping = yield from self.sgmap.load(self.space, vaddr,
                                                     length)
                mappings.append(mapping)
                units.append((mapping.io_addr, mapping.length))
        else:
            units = [(b.addr, b.length) for b in msg.physical_buffers()]

        for index, (addr, length) in enumerate(units):
            yield from cpu.execute(costs.driver_tx_buffer)
            flags = FLAG_END_OF_PDU if index == len(units) - 1 else 0
            desc = Descriptor(addr=addr, length=length,
                              flags=flags, vci=vci)
            while True:
                ok = queue.push(desc)
                yield from self._charge_queue_access(queue)
                if ok:
                    break
                # Queue full: ask for the transmit-space interrupt and
                # suspend transmit activity (section 2.1.2).
                self.tx_full_events += 1
                self._tx_space_pending = False
                self.board.tx_interrupt_wanted.add(0)
                yield from self.board.tc.pio_write_words(1)
                if not self._tx_space_pending:
                    yield self._tx_space
                self._tx_space_pending = False
                yield from self._reap_transmitted()
        self._tx_inflight.append((len(units), segments, mappings))
        self._tx_inflight_descs += len(units)
        self.pdus_sent += 1

    def _reap_transmitted(self) -> Generator[Any, Any, None]:
        """Detect transmit completion by the advance of the queue's
        tail pointer; unwire the pages of completed PDUs."""
        if not self._tx_inflight:
            return
        queue = self.board.kernel_channel.tx_queue
        occupancy = queue.occupancy(by_host=True)
        yield from self._charge_queue_access(queue)
        consumed = self._tx_inflight_descs - occupancy
        while self._tx_inflight and consumed >= self._tx_inflight[0][0]:
            ndescs, segments, mappings = self._tx_inflight.pop(0)
            consumed -= ndescs
            self._tx_inflight_descs -= ndescs
            for mapping in mappings:
                self.sgmap.unload(mapping)
            for vaddr, length in segments:
                yield from self.kernel.wiring.unwire(self.space, vaddr,
                                                     length)

    # -- interrupt callbacks ----------------------------------------------------------

    def _on_rx_irq(self, kind: InterruptKind, channel_id: int) -> None:
        if channel_id != 0:
            handler = self._adc_rx_handlers.get(channel_id)
            if handler is not None:
                handler()
            return
        self._rx_pending = True
        self._rx_signal.fire()

    def _on_tx_space_irq(self, kind: InterruptKind,
                         channel_id: int) -> None:
        self._tx_space_pending = True
        self._tx_space.fire()

    def _on_violation_irq(self, kind: InterruptKind,
                          channel_id: int) -> None:
        """The OS raises an access-violation exception in the offending
        application process (section 3.2)."""
        handler = self._violation_handlers.get(channel_id)
        if handler is not None:
            handler()

    def register_adc_rx(self, channel_id: int, handler) -> None:
        self._adc_rx_handlers[channel_id] = handler

    def register_violation_handler(self, channel_id: int, handler) -> None:
        self._violation_handlers[channel_id] = handler

    # -- receive path ------------------------------------------------------------------

    def _rx_loop(self) -> Generator[Any, Any, None]:
        while True:
            if not self._rx_pending:
                yield self._rx_signal
            self._rx_pending = False
            yield from self._drain_receive_queue()

    def _drain_receive_queue(self) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        channel = self.board.kernel_channel
        queue = channel.recv_queue
        # Buffers of concurrently arriving PDUs (different VCIs)
        # interleave in the receive queue; accumulate per VCI.
        pending: dict[int, list[Descriptor]] = {}
        while True:
            desc = queue.pop(by_host=True)
            yield from self._charge_queue_access(queue)
            if desc is None:
                if any(pending.values()):
                    # Mid-PDU: the rest is on its way; keep waiting.
                    yield queue.became_nonempty
                    continue
                return
            yield from cpu.execute(costs.driver_rx_buffer)
            yield from self.cache_policy.on_receive_buffer(
                desc.addr, desc.length)
            yield from self._replenish_free_queue()
            pdu_descs = pending.setdefault(desc.vci, [])
            pdu_descs.append(desc)
            if desc.error:
                self.rx_errors += 1
                self._return_buffers(pdu_descs, vci=0)
                del pending[desc.vci]
                continue
            if desc.end_of_pdu:
                del pending[desc.vci]
                yield from self._deliver_pdu(pdu_descs)

    def _replenish_free_queue(self) -> Generator[Any, Any, None]:
        """'Add a free buffer to the free queue' (section 2.1.1)."""
        queue = self.board.kernel_channel.free_queue
        while self._returned:
            if not queue.push(self._returned[0]):
                queue.host_access.reset()
                break
            self._returned.pop(0)
            yield from self._charge_queue_access(queue)

    def _return_buffers(self, descs: list[Descriptor], vci: int) -> None:
        """Synchronous buffer return (message release callback)."""
        for desc in descs:
            tag = self._recycle_tag(vci)
            self._returned.append(
                Descriptor(addr=desc.addr, length=self.bufsize, vci=tag))

    def _deliver_pdu(self, descs: list[Descriptor]
                     ) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        yield from cpu.execute(costs.driver_rx_pdu)
        yield from cpu.execute(
            costs.driver_rx_per_byte * sum(d.length for d in descs))
        # Protocol metadata (headers at the front, AAL5 trailer at the
        # back) is read before any checksum can vouch for it, and the
        # per-path buffer recycling of section 3.1 shortens the reuse
        # distance the lazy argument of section 2.3 counts on.  A
        # partial invalidation of those few lines costs a handful of
        # cycles and removes metadata staleness; bulk data still relies
        # on checksums and natural eviction, per the paper.
        if not self.kernel.machine.cache.coherent_with_dma:
            first, last = descs[0], descs[-1]
            head_bytes = min(64, first.length)
            self.kernel.cache.invalidate(first.addr, head_bytes)
            self.kernel.cache.invalidate(last.addr + last.length - 8, 8)
            yield from cpu.execute(
                self.kernel.machine.invalidate_us(head_bytes + 8))
        vci = descs[-1].vci
        self._note_pool_consumption(vci, len(descs))
        total = sum(d.length for d in descs)
        session = self._paths.get(vci)
        if session is None:
            self.rx_errors += 1
            self._return_buffers(descs, vci=0)
            return

        data_len = yield from self._read_trailer_length(descs, total)
        if data_len is None:
            self.rx_errors += 1
            self._return_buffers(descs, vci)
            return

        segments = [(d.addr, d.length) for d in descs]
        msg = Message(self.space, segments)
        captured = list(descs)
        msg.add_release(lambda: self._return_buffers(captured, vci))
        msg.truncate(data_len)
        self.pdus_received += 1
        self._touch_mru(vci)
        yield from session.deliver(msg)

    def _read_trailer_length(self, descs: list[Descriptor], total: int
                             ) -> Generator[Any, Any, Optional[int]]:
        """Read the AAL5 trailer (through the cache!) to learn the data
        length; recover lazily when the trailer itself is stale."""
        last = descs[-1]
        trailer_addr = last.addr + last.length - 8
        for _attempt in range(2):
            raw = self.kernel.cache.read(trailer_addr, 8)
            length, _crc = _TRAILER.unpack(raw)
            pad = total - 8 - length
            if 0 <= pad < 44:
                return length
            recovered = yield from self.cache_policy.recover_range(
                trailer_addr, 8)
            if not recovered:
                return None
        return None


__all__ = ["OsirisDriver", "DriverSession", "DriverProtocol"]
