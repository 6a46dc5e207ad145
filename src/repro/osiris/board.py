"""The OSIRIS board: dual-port layout, channels, demux tables.

The 128 KB dual-port memory is split exactly as section 3.2 describes:
the transmit half is divided into sixteen 4 KB pages, each holding one
transmit queue; the receive half is partitioned likewise, each page
holding a free-buffer queue and a receive queue.  Channel 0 is the
operating system's; the rest can be mapped into application address
spaces as application device channels.

The board performs *early demultiplexing*: a VCI table maps each
incoming cell to a channel (and hence to that channel's buffers and
receive queue) before a single host cycle is spent -- the property
both fbufs and ADCs build on (sections 3.1, 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.bus import TurboChannel
from ..hw.cache import DataCache
from ..hw.dma import DmaController, DmaMode
from ..hw.memory import DualPortMemory, PhysicalMemory, TestAndSetRegister
from ..hw.specs import DEFAULT_BOARD, MachineSpec
from ..sim import SimulationError, Simulator, Store
from .descriptors import Descriptor
from .interrupts import InterruptKind, InterruptLine
from .queues import DescriptorQueue

N_CHANNELS = 16
_TX_PAGE = 4096
_RX_BASE = 64 * 1024
_RECV_OFFSET = 2048


@dataclass
class Channel:
    """One transmit/receive queue-pair page group.

    ``allowed_pages`` is the list of physical page base addresses the
    OS authorized for this channel's DMA (None = unrestricted, used by
    the kernel channel).  ``priority`` orders transmit service; lower
    is served first.
    """

    channel_id: int
    tx_queue: DescriptorQueue
    free_queue: DescriptorQueue
    recv_queue: DescriptorQueue
    priority: int = 0
    vcis: set[int] = field(default_factory=set)
    allowed_pages: Optional[set[int]] = None
    open: bool = False

    # Board-local receive buffer pools filled from the free queue.
    # Descriptors pushed with vci=0 are anonymous (uncached fbufs);
    # descriptors tagged with a VCI form that path's cached-fbuf pool.
    anon_pool: list[Descriptor] = field(default_factory=list)
    path_pools: dict[int, list[Descriptor]] = field(default_factory=dict)

    # Statistics.
    pdus_sent: int = 0
    pdus_received: int = 0
    cells_dropped: int = 0
    cached_buffer_hits: int = 0
    uncached_buffer_uses: int = 0

    def page_authorized(self, addr: int, length: int, page_size: int) -> bool:
        if self.allowed_pages is None:
            return True
        first = addr - (addr % page_size)
        last = (addr + length - 1) - ((addr + length - 1) % page_size)
        page = first
        while page <= last:
            if page not in self.allowed_pages:
                return False
            page += page_size
        return True


class OsirisBoard:
    """The adaptor: dual-port memory, queues, DMA engines, IRQ line.

    The processor loops live in :mod:`repro.osiris.tx_processor` and
    :mod:`repro.osiris.rx_processor`; they are attached by
    :meth:`repro.net.host_node.Host` assembly (or directly in tests).
    """

    def __init__(self, sim: Simulator, machine: MachineSpec,
                 tc: TurboChannel, memory: PhysicalMemory,
                 cache: Optional[DataCache],
                 tx_dma_mode: DmaMode = DmaMode.SINGLE_CELL,
                 rx_dma_mode: DmaMode = DmaMode.SINGLE_CELL):
        self.sim = sim
        self.machine = machine
        self.spec = DEFAULT_BOARD
        self.tc = tc
        self.memory = memory
        self.dualport = DualPortMemory(self.spec.dualport_bytes)
        self.irq = InterruptLine(sim, self.spec.interrupt_assert_us)
        self.tx_lock = TestAndSetRegister()
        self.rx_lock = TestAndSetRegister()

        self.tx_dma = DmaController(sim, tc, memory, cache, mode=tx_dma_mode,
                                    page_size=machine.page_size)
        self.rx_dma = DmaController(sim, tc, memory, cache, mode=rx_dma_mode,
                                    page_size=machine.page_size)

        self.channels: list[Channel] = []
        entries = self.spec.queue_entries
        for cid in range(N_CHANNELS):
            tx_base = cid * _TX_PAGE
            rx_base = _RX_BASE + cid * _TX_PAGE
            self.channels.append(Channel(
                channel_id=cid,
                tx_queue=DescriptorQueue(
                    self.dualport, tx_base, entries,
                    host_is_writer=True, name=f"ch{cid}.tx"),
                free_queue=DescriptorQueue(
                    self.dualport, rx_base, entries,
                    host_is_writer=True, name=f"ch{cid}.free"),
                recv_queue=DescriptorQueue(
                    self.dualport, rx_base + _RECV_OFFSET, entries,
                    host_is_writer=False, name=f"ch{cid}.recv"),
            ))

        # VCI -> channel id, maintained by the OS at connection setup.
        self.vci_table: dict[int, int] = {}
        # On-board receive cell FIFO (bounded; overflowing cells drop).
        self.rx_fifo: Store = Store(sim, "rx-fifo",
                                    capacity=self.spec.fifo_cells)
        self.rx_fifo_drops = 0
        self.unknown_vci_drops = 0

        # Set by the host to request a transmit-space interrupt when
        # the queue drains to half empty (per channel).
        self.tx_interrupt_wanted: set[int] = set()

    # -- channel management (OS side) ---------------------------------------

    @property
    def kernel_channel(self) -> Channel:
        return self.channels[0]

    def open_channel(self, channel_id: int, priority: int = 0,
                     allowed_pages: Optional[set[int]] = None) -> Channel:
        channel = self.channels[channel_id]
        if channel.open:
            raise SimulationError(f"channel {channel_id} already open")
        channel.open = True
        channel.priority = priority
        channel.allowed_pages = allowed_pages
        return channel

    def close_channel(self, channel_id: int) -> None:
        channel = self.channels[channel_id]
        for vci in list(channel.vcis):
            self.unbind_vci(vci)
        channel.open = False
        channel.anon_pool.clear()
        channel.path_pools.clear()

    def bind_vci(self, vci: int, channel_id: int) -> None:
        """Route incoming cells with ``vci`` to ``channel_id``."""
        if vci in self.vci_table:
            raise SimulationError(f"VCI {vci} already bound")
        self.vci_table[vci] = channel_id
        self.channels[channel_id].vcis.add(vci)

    def unbind_vci(self, vci: int) -> None:
        channel_id = self.vci_table.pop(vci, None)
        if channel_id is not None:
            self.channels[channel_id].vcis.discard(vci)

    # -- cell arrival from the network --------------------------------------

    def deliver_cell(self, cell) -> None:
        """Link-side entry point; drops when the on-board FIFO is full."""
        if not self.rx_fifo.try_put(cell):
            self.rx_fifo_drops += 1

    # -- receive buffer intake (board side) ----------------------------------

    def intake_free_buffers(self, channel: Channel) -> int:
        """Drain the channel's free queue into the board-local pools.

        Descriptors tagged with a VCI feed that path's cached-fbuf
        pool; anonymous descriptors feed the shared pool.  Returns how
        many descriptors were taken.
        """
        taken = 0
        while True:
            desc = channel.free_queue.pop(by_host=False)
            if desc is None:
                break
            if desc.vci:
                channel.path_pools.setdefault(desc.vci, []).append(desc)
            else:
                channel.anon_pool.append(desc)
            taken += 1
        return taken

    def take_receive_buffer(self, channel: Channel,
                            vci: int) -> Optional[Descriptor]:
        """Pick a reassembly buffer for ``vci`` (section 3.1 strategy).

        Prefer the path's preallocated (cached-fbuf) pool; fall back to
        the anonymous (uncached) pool; replenish from the free queue on
        demand; return None when the host has starved the board.
        """
        pool = channel.path_pools.get(vci)
        if not pool:
            self.intake_free_buffers(channel)
            pool = channel.path_pools.get(vci)
        if pool:
            channel.cached_buffer_hits += 1
            return pool.pop(0)
        if not channel.anon_pool:
            self.intake_free_buffers(channel)
        if channel.anon_pool:
            channel.uncached_buffer_uses += 1
            return channel.anon_pool.pop(0)
        return None

    # -- interrupt helpers ----------------------------------------------------

    def raise_receive_irq(self, channel: Channel) -> None:
        self.irq.assert_irq(InterruptKind.RECEIVE, channel.channel_id)

    def raise_tx_space_irq(self, channel: Channel) -> None:
        self.irq.assert_irq(InterruptKind.TRANSMIT_SPACE, channel.channel_id)

    def raise_protection_irq(self, channel: Channel) -> None:
        self.irq.assert_irq(InterruptKind.PROTECTION_VIOLATION,
                            channel.channel_id)


__all__ = ["OsirisBoard", "Channel", "N_CHANNELS"]
