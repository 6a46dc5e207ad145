"""The OSIRIS device driver.

:class:`ChannelDriver` drives one channel's queue pair, and both host
drivers are built on it: the in-kernel :class:`OsirisDriver` on
channel 0, and the application-linked ADC channel driver on its
grant's channel, which "performs essentially the same functions as the
in-kernel OSIRIS device driver" (section 3.2).  The shared core does:

* descriptor exchange through the lock-free queues, with every word
  access across the TURBOchannel charged (section 2.1.1);
* one descriptor per physical buffer, so messages shatter into
  per-page descriptors, each costing per-buffer driver time
  (section 2.2);
* a receive thread scheduled on the queue's empty->non-empty interrupt
  (section 2.1.2), which drains the receive queue per VCI, replenishes
  the free queue and delivers each PDU up its path.

The kernel driver adds the rest of section 2:

* transmit completion detected by tail-pointer advance during other
  driver activity, and a transmit-space interrupt only after the host
  found the queue full (section 2.1.2);
* eager/lazy cache invalidation hooks (section 2.3);
* page wiring on the transmit path, unwired lazily when completion is
  reaped (section 2.4);
* VCI management: one VCI per x-kernel path, buffers recycled onto the
  path they served (sections 2.3 and 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from ..atm.aal5 import TRAILER_BYTES, trailer_length
from ..host.kernel import HostOS
from ..host.vm import AddressSpace
from ..osiris.board import Channel, OsirisBoard
from ..osiris.descriptors import Descriptor, FLAG_END_OF_PDU
from ..osiris.interrupts import InterruptKind
from ..osiris.queues import DescriptorQueue
from ..sim import Resource, Signal, SimulationError, Simulator
from ..xkernel.message import Message
from ..xkernel.protocol import Protocol, Session
from .cache_policy import CachePolicy
from .config import DriverConfig

# (paper) 64-buffer queues: the kernel's pool of receive buffers.
RX_BUFFERS = 64
# Cached-fbuf pools (section 3.1): the 16 most recently used paths
# keep their receive buffers, up to 4 parked at the board per path.
FBUF_CACHED_PATHS = 16
FBUF_BUFFERS_PER_PATH = 4


class DriverSession(Session):
    """Bottom of a path: one VCI's binding to a channel driver."""

    def __init__(self, protocol: Protocol, driver: "ChannelDriver",
                 vci: int):
        super().__init__(protocol, below=None)
        self.driver = driver
        self.vci = vci
        self.space = driver.space

    def send(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self.driver.send_pdu(msg, self.vci)

    def deliver(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self._deliver_above(msg)


class ChannelDriver:
    """Host driver of one channel's queue pair.

    Subclasses open paths into ``_paths``, stock the receive buffers
    with :meth:`_start`, and say how to wait on a full transmit queue.
    """

    def __init__(self, sim: Simulator, kernel: HostOS, board: OsirisBoard,
                 channel: Channel, space: AddressSpace, protocol: str,
                 name: str, bufsize: int):
        self.sim = sim
        self.kernel = kernel
        self.board = board
        self.channel = channel
        self.space = space
        self.protocol = Protocol(protocol)
        self.bufsize = bufsize
        # The send path is a critical section: descriptors of one PDU
        # must be queued contiguously (END_OF_PDU delimits them).
        self._send_lock = Resource(sim, f"{name}-send", capacity=1)
        self._rx_signal = Signal(f"{name}.rx")
        self._rx_pending = False
        self._returned: list[Descriptor] = []
        self._paths: dict[int, DriverSession] = {}
        self.pdus_sent = 0
        self.pdus_received = 0
        self.rx_errors = 0

    def _start(self, addrs: Iterable[int], thread: str) -> None:
        """Queue the receive buffers at ``addrs`` (those the free queue
        cannot hold wait host-side) and start the receive thread."""
        self._returned = [Descriptor(addr=addr, length=self.bufsize)
                          for addr in addrs]
        queue = self.channel.free_queue
        while self._returned and queue.push(self._returned[0]):
            self._returned.pop(0)
        queue.host_access.reset()  # initialisation is not charged
        self.rx_thread = self.kernel.spawn_thread(self._rx_loop(), thread)

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
        yield from self.kernel.cpu.execute(
            self.kernel.machine.costs.driver_tx_pdu)
        yield from self._queue_pdu(
            [(b.addr, b.length) for b in msg.physical_buffers()], vci)

    def _queue_pdu(self, units: list[tuple[int, int]],
                   vci: int) -> Generator[Any, Any, None]:
        """One descriptor per (addr, length) DMA unit, END_OF_PDU on
        the last."""
        cost = self.kernel.machine.costs.driver_tx_buffer
        cpu = self.kernel.cpu
        queue = self.channel.tx_queue
        last = len(units) - 1
        for index, (addr, length) in enumerate(units):
            yield from cpu.execute(cost)
            flags = FLAG_END_OF_PDU if index == last else 0
            desc = Descriptor(addr=addr, length=length,
                              flags=flags, vci=vci)
            while True:
                ok = queue.push(desc)
                yield from self._charge_queue_access(queue)
                if ok:
                    break
                yield from self._wait_for_tx_space()
        self.pdus_sent += 1

    def _wait_for_tx_space(self) -> Generator[Any, Any, None]:
        """Wait until the full transmit queue may have room."""
        raise NotImplementedError

    # -- receive path ------------------------------------------------------------------

    def _wake_rx(self) -> None:
        """The channel's receive interrupt, routed by the kernel."""
        self._rx_pending = True
        self._rx_signal.fire()

    def _rx_loop(self) -> Generator[Any, Any, None]:
        while True:
            if not self._rx_pending:
                yield self._rx_signal
            self._rx_pending = False
            yield from self._drain_receive_queue()

    def _drain_receive_queue(self) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        queue = self.channel.recv_queue
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
            yield from self._on_rx_buffer(desc)
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
        queue = self.channel.free_queue
        while self._returned:
            if not queue.push(self._returned[0]):
                queue.host_access.reset()
                break
            self._returned.pop(0)
            yield from self._charge_queue_access(queue)

    def _return_buffers(self, descs: list[Descriptor], vci: int) -> None:
        """Synchronous buffer return (message release callback)."""
        for desc in descs:
            self._returned.append(Descriptor(
                addr=desc.addr, length=self.bufsize,
                vci=self._recycle_tag(vci)))

    def _deliver_pdu(self, descs: list[Descriptor]
                     ) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        total = sum(d.length for d in descs)
        yield from cpu.execute(costs.driver_rx_pdu)
        yield from cpu.execute(costs.driver_rx_per_byte * total)
        vci = descs[-1].vci
        yield from self._on_rx_pdu(descs, vci)
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

        msg = Message(self.space, [(d.addr, d.length) for d in descs])
        msg.add_release(lambda: self._return_buffers(descs, vci))
        msg.truncate(data_len)
        self.pdus_received += 1
        self._touch_mru(vci)
        yield from session.deliver(msg)

    def _read_trailer_length(self, descs: list[Descriptor], total: int
                             ) -> Generator[Any, Any, Optional[int]]:
        """Read the AAL5 trailer (through the cache!) to learn the data
        length; re-read it once if :meth:`_recover_trailer` says a
        stale copy was dropped."""
        last = descs[-1]
        addr = last.addr + last.length - TRAILER_BYTES
        for _attempt in range(2):
            length = trailer_length(
                self.kernel.cache.read(addr, TRAILER_BYTES), total)
            if length is not None:
                return length
            if not (yield from self._recover_trailer(addr)):
                return None
        return None

    # -- the kernel driver's cache and recycling work; none here -------------------

    def _on_rx_buffer(self, desc: Descriptor) -> Generator[Any, Any, None]:
        """Cache work for each dequeued receive buffer."""
        yield from ()

    def _on_rx_pdu(self, descs: list[Descriptor],
                   vci: int) -> Generator[Any, Any, None]:
        """Work on a whole PDU's buffers before its path is looked up."""
        yield from ()

    def _recover_trailer(self, addr: int) -> Generator[Any, Any, bool]:
        """Drop a stale cached trailer; True when it is worth a re-read."""
        yield from ()
        return False

    def _touch_mru(self, vci: int) -> None:
        """Note that ``vci``'s path was used (per-path recycling)."""

    def _recycle_tag(self, vci: int) -> int:
        """VCI tag for a buffer going back to the free queue; 0 puts it
        in the channel's shared pool."""
        return 0


class OsirisDriver(ChannelDriver):
    """Host driver for one OSIRIS board: the kernel's channel 0."""

    def __init__(self, sim: Simulator, kernel: HostOS, board: OsirisBoard,
                 config: Optional[DriverConfig] = None):
        super().__init__(sim, kernel, board, board.kernel_channel,
                         kernel.kernel_domain.space, "osiris", "driver",
                         board.spec.recv_buffer_bytes)
        self.config = config or DriverConfig.for_machine(kernel.machine)
        self.cache_policy = CachePolicy(kernel, self.config.cache_policy)

        # Receive interrupts for every channel are fielded here (the
        # kernel always fields interrupts, section 3.2) and signalled
        # straight into the thread of the channel's driver: this one
        # for channel 0, an ADC channel driver's for channels 1..15.
        self._rx_handlers: dict[int, Callable[[], None]] = {
            0: self._wake_rx}
        self._violation_handlers: dict[int, Callable[[], None]] = {}
        kernel.attach_board(board)
        kernel.register_irq_handler(InterruptKind.RECEIVE, self._on_rx_irq)
        kernel.register_irq_handler(InterruptKind.TRANSMIT_SPACE,
                                    self._on_tx_space_irq)
        kernel.register_irq_handler(InterruptKind.PROTECTION_VIOLATION,
                                    self._on_violation_irq)

        self._tx_space = Signal("driver.tx-space")
        self._tx_space_pending = False
        self.tx_full_events = 0

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

        # Paths: VCI -> session, plus the cached-fbuf MRU bookkeeping.
        self._next_vci = 256
        self._mru_paths: list[int] = []
        self._path_tagged: dict[int, int] = {}  # vci -> buffers tagged

        # Receive buffer pool: statically allocated contiguous kernel
        # buffers (section 2.2's traditional remedy), identity-mapped.
        addrs = []
        for _ in range(RX_BUFFERS):
            addr = kernel.memory.alloc_contiguous(self.bufsize)
            self.space.map_identity(addr, self.bufsize)
            addrs.append(addr)
        self._start(addrs, "osiris-rx")

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
        del self._mru_paths[FBUF_CACHED_PATHS:]

    def _recycle_tag(self, vci: int) -> int:
        """Keep a returning buffer on its path when the path is among
        the MRU set and under quota (section 3.1).

        ``_path_tagged`` counts tagged buffers currently parked at the
        board; it is decremented as PDUs consume them (the board
        prefers the path pool, so consumption is pool-first)."""
        if vci in self._mru_paths:
            tagged = self._path_tagged.get(vci, 0)
            if tagged < FBUF_BUFFERS_PER_PATH:
                self._path_tagged[vci] = tagged + 1
                return vci
        return 0

    # -- transmit path -------------------------------------------------------------

    def _send_pdu_locked(self, msg: Message,
                         vci: int) -> Generator[Any, Any, None]:
        self._touch_mru(vci)
        # Completion check "as part of other driver activity".
        yield from self._reap_transmitted()

        yield from self.kernel.cpu.execute(
            self.kernel.machine.costs.driver_tx_pdu)
        segments = msg.segments()
        for vaddr, length in segments:
            yield from self.kernel.wiring.wire(self.space, vaddr, length)

        mappings: list = []
        if self.sgmap is not None:
            # Virtual-address DMA: one descriptor per segment; the map
            # absorbs the per-page scatter (but charges per page).
            for vaddr, length in segments:
                mapping = yield from self.sgmap.load(self.space, vaddr,
                                                     length)
                mappings.append(mapping)
            units = [(m.io_addr, m.length) for m in mappings]
        else:
            units = [(b.addr, b.length) for b in msg.physical_buffers()]
        yield from self._queue_pdu(units, vci)
        self._tx_inflight.append((len(units), segments, mappings))
        self._tx_inflight_descs += len(units)

    def _wait_for_tx_space(self) -> Generator[Any, Any, None]:
        """Ask for the transmit-space interrupt and suspend transmit
        activity until it comes (section 2.1.2)."""
        self.tx_full_events += 1
        self._tx_space_pending = False
        self.board.tx_interrupt_wanted.add(0)
        yield from self.board.tc.pio_write_words(1)
        if not self._tx_space_pending:
            yield self._tx_space
        self._tx_space_pending = False
        yield from self._reap_transmitted()

    def _reap_transmitted(self) -> Generator[Any, Any, None]:
        """Detect transmit completion by the advance of the queue's
        tail pointer; unwire the pages of completed PDUs."""
        if not self._tx_inflight:
            return
        queue = self.channel.tx_queue
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
        handler = self._rx_handlers.get(channel_id)
        if handler is not None:
            handler()

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
        self._rx_handlers[channel_id] = handler

    def register_violation_handler(self, channel_id: int, handler) -> None:
        self._violation_handlers[channel_id] = handler

    # -- receive path ------------------------------------------------------------------

    def _on_rx_buffer(self, desc: Descriptor) -> Generator[Any, Any, None]:
        yield from self.cache_policy.on_receive_buffer(desc.addr,
                                                       desc.length)

    def _on_rx_pdu(self, descs: list[Descriptor],
                   vci: int) -> Generator[Any, Any, None]:
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
            self.kernel.cache.invalidate(
                last.addr + last.length - TRAILER_BYTES, TRAILER_BYTES)
            yield from self.kernel.cpu.execute(
                self.kernel.machine.invalidate_us(head_bytes
                                                  + TRAILER_BYTES))
        tagged = self._path_tagged.get(vci, 0)
        self._path_tagged[vci] = max(0, tagged - len(descs))

    def _recover_trailer(self, addr: int) -> Generator[Any, Any, bool]:
        """Lazy recovery (section 2.3): invalidate the trailer's lines
        so the re-read sees what the DMA wrote."""
        return (yield from self.cache_policy.recover_range(
            addr, TRAILER_BYTES))


__all__ = [
    "ChannelDriver", "OsirisDriver", "DriverSession",
    "RX_BUFFERS", "FBUF_CACHED_PATHS", "FBUF_BUFFERS_PER_PATH",
]
