"""Application device channels: OS-side setup (paper, section 3.2).

An ADC gives an application *restricted but direct* access to the
adaptor: the OS maps one transmit page and one receive page of the
board's dual-port memory into the application's address space, assigns
a set of VCIs, a priority, and a list of physical pages the
application may use as buffers.  Afterwards the kernel is bypassed on
the data path; it remains involved only in connection setup/teardown,
interrupt fielding, and policing (the board raises a protection
interrupt if the application queues an unauthorized address).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..host.domains import ProtectionDomain
from ..host.kernel import HostOS
from ..osiris.board import Channel, N_CHANNELS, OsirisBoard
from ..sim import SimulationError


@dataclass
class AdcGrant:
    """What the OS hands the application at ADC setup."""

    channel: Channel
    domain: ProtectionDomain
    vcis: list[int]
    priority: int
    # Physical receive buffers (OS-allocated, mapped into the app).
    rx_buffers: list[int]
    buffer_bytes: int
    # A transmit region the app may send from (pre-wired).
    tx_region_addr: int
    tx_region_bytes: int
    tx_region_vaddr: int = 0
    rx_buffer_vaddrs: list[int] = field(default_factory=list)


def grants_overlap(a: AdcGrant, b: AdcGrant) -> bool:
    """True when two ADCs share any authorized physical page --
    which would let one application corrupt another's buffers."""
    pages_a = a.channel.allowed_pages or set()
    pages_b = b.channel.allowed_pages or set()
    return bool(pages_a & pages_b)


class AdcManager:
    """The kernel's ADC service: open/close application device channels."""

    def __init__(self, kernel: HostOS, board: OsirisBoard):
        self.kernel = kernel
        self.board = board
        self._next_vci = 0x4000
        self.grants: dict[int, AdcGrant] = {}

    def open(self, domain: ProtectionDomain, priority: int = 1,
             n_vcis: int = 1, n_rx_buffers: int = 8,
             tx_region_bytes: int = 64 * 1024,
             channel_id: Optional[int] = None) -> AdcGrant:
        """Create an ADC for ``domain``.

        Allocates physically contiguous buffers (the OS controls the
        page list, so it can), maps everything into the application's
        address space, wires it once, authorizes exactly those pages
        on the board, and binds the VCIs to the channel.
        """
        if channel_id is None:
            channel_id = self._pick_channel()
        if not 1 <= channel_id < N_CHANNELS:
            raise SimulationError("ADC channels are 1..15")
        memory = self.kernel.memory
        page = memory.page_size
        buffer_bytes = self.board.spec.recv_buffer_bytes

        rx_buffers = []
        rx_vaddrs = []
        allowed: set[int] = set()
        for _ in range(n_rx_buffers):
            addr = memory.alloc_contiguous(buffer_bytes)
            rx_buffers.append(addr)
            vaddr = domain.space.map_identity(addr, buffer_bytes)
            rx_vaddrs.append(vaddr)
            self._authorize(allowed, addr, buffer_bytes, page)

        tx_addr = memory.alloc_contiguous(tx_region_bytes)
        tx_vaddr = domain.space.map_identity(tx_addr, tx_region_bytes)
        self._authorize(allowed, tx_addr, tx_region_bytes, page)
        # ADC pages are wired once at setup -- no per-send wiring cost.
        domain.space.wire(tx_vaddr, tx_region_bytes)

        channel = self.board.open_channel(channel_id, priority=priority,
                                          allowed_pages=allowed)
        vcis = []
        for _ in range(n_vcis):
            vci = self._next_vci
            self._next_vci += 1
            self.board.bind_vci(vci, channel_id)
            vcis.append(vci)

        grant = AdcGrant(channel=channel, domain=domain, vcis=vcis,
                         priority=priority, rx_buffers=rx_buffers,
                         buffer_bytes=buffer_bytes,
                         tx_region_addr=tx_addr,
                         tx_region_bytes=tx_region_bytes,
                         tx_region_vaddr=tx_vaddr,
                         rx_buffer_vaddrs=rx_vaddrs)
        self.grants[channel_id] = grant
        return grant

    def close(self, grant: AdcGrant) -> None:
        channel_id = grant.channel.channel_id
        self.board.close_channel(channel_id)
        del self.grants[channel_id]

    def _pick_channel(self) -> int:
        for cid in range(1, N_CHANNELS):
            if not self.board.channels[cid].open:
                return cid
        raise SimulationError("no free ADC channels")

    @staticmethod
    def _authorize(allowed: set[int], addr: int, nbytes: int,
                   page: int) -> None:
        first = addr - (addr % page)
        last = addr + nbytes - 1
        pos = first
        while pos <= last:
            allowed.add(pos)
            pos += page


__all__ = ["AdcManager", "AdcGrant", "grants_overlap"]
