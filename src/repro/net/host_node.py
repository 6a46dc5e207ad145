"""A complete host: hardware + OS + board + driver + protocol stack.

This is the library's main entry point: a :class:`Host` assembles the
CPU/cache/bus models, the OSIRIS board, the kernel, the driver, and
an x-kernel graph (test programs over UDP/IP or raw over the driver),
all sharing one simulator.
"""

from __future__ import annotations

from typing import Optional

from ..atm.aal5 import SegmentMode
from ..atm.striping import StripedLink
from ..driver.config import DriverConfig
from ..driver.osiris_driver import OsirisDriver
from ..host.kernel import HostOS
from ..hw.bus import MemorySystem, TurboChannel
from ..hw.cache import DataCache
from ..hw.cpu import HostCPU
from ..hw.memory import PhysicalMemory
from ..hw.specs import MachineSpec
from ..osiris.board import OsirisBoard
from ..osiris.rx_processor import RxProcessor
from ..osiris.tx_processor import TxProcessor
from ..sim import SimulationError, Simulator
from ..xkernel.protocol import Path
from ..xkernel.protocols.ip import IpProtocol, IpSession
from ..xkernel.protocols.testproto import TestProgram, TestProtocol
from ..xkernel.protocols.udp import UdpProtocol, UdpSession


class Host:
    """One workstation with an OSIRIS board."""

    def __init__(self, sim: Simulator, machine: MachineSpec,
                 name: str = "host",
                 config: Optional[DriverConfig] = None,
                 ip_mtu: Optional[int] = None,
                 udp_checksum: bool = False,
                 memory_bytes: int = 16 * 1024 * 1024,
                 reserved_bytes: int = 4 * 1024 * 1024):
        self.sim = sim
        self.machine = machine
        self.name = name
        self.config = config or DriverConfig.for_machine(machine)

        self.memory = PhysicalMemory(memory_bytes, machine.page_size,
                                     reserved_bytes=reserved_bytes)
        self.cache = DataCache(machine.cache, self.memory)
        self.tc = TurboChannel(sim, machine.bus, name=f"{name}.tc")
        self.memsys = MemorySystem(sim, machine, self.tc)
        self.cpu = HostCPU(sim, machine, self.memsys)
        self.kernel = HostOS(sim, self.cpu, self.cache, self.memory,
                             wiring_style=self.config.wiring_style)
        self.board = OsirisBoard(sim, machine, self.tc, self.memory,
                                 self.cache,
                                 tx_dma_mode=self.config.tx_dma_mode,
                                 rx_dma_mode=self.config.rx_dma_mode)
        self.driver = OsirisDriver(sim, self.kernel, self.board,
                                   self.config)

        # (paper, section 4): IP MTU of 16 KB -- fragment payloads are
        # page-multiples, so fragment boundaries align with pages.
        from ..xkernel.protocols.ip import HEADER_BYTES as IP_HEADER
        self.ip = IpProtocol(self.cpu,
                             mtu=ip_mtu or (16 * 1024 + IP_HEADER))
        self.udp = UdpProtocol(self.cpu, cache=self.cache,
                               checksum_enabled=udp_checksum,
                               cache_policy=self.driver.cache_policy)
        self.test = TestProtocol(self.cpu, sim)

        self.txp: Optional[TxProcessor] = None
        self.rxp: Optional[RxProcessor] = None

    # -- wiring to the network -----------------------------------------------------

    def connect(self, link: Optional[StripedLink],
                segment_mode: SegmentMode = SegmentMode.IN_ORDER,
                flow_controlled: bool = False,
                deliver=None) -> None:
        """Attach the board's processor loops to an outgoing link (or a
        direct deliver callback for loopback rigs)."""
        if self.txp is not None:
            raise SimulationError(f"{self.name} is already connected")
        self.txp = TxProcessor(self.sim, self.board, link=link,
                               deliver=deliver, segment_mode=segment_mode)
        self.rxp = RxProcessor(
            self.sim, self.board, reassembly_mode=segment_mode,
            interrupt_mode=self.config.interrupt_mode,
            flow_controlled=flow_controlled)

    def connect_receive_only(self, flow_controlled: bool = True,
                             segment_mode: SegmentMode =
                             SegmentMode.IN_ORDER) -> None:
        """Receive-side isolation rig (figures 2 and 3): no transmit."""
        self.rxp = RxProcessor(
            self.sim, self.board, reassembly_mode=segment_mode,
            interrupt_mode=self.config.interrupt_mode,
            flow_controlled=flow_controlled)

    # -- path construction -------------------------------------------------------------

    def open_udp_path(self, local_port: int, remote_port: int,
                      vci: Optional[int] = None,
                      echo: bool = False, touch_data: bool = False,
                      keep_data: bool = False) -> tuple[TestProgram, Path]:
        """Test program over UDP/IP over the driver, bound to a VCI."""
        drv = self.driver.open_path(vci)
        ip = IpSession(self.ip, drv)
        udp = UdpSession(self.udp, ip, local_port, remote_port)
        app = TestProgram(self.test, udp, echo=echo,
                          touch_data=touch_data, keep_data=keep_data)
        return app, Path(drv.vci, [drv, ip, udp, app])

    def stats(self):
        """A :class:`repro.net.stats.HostStats` snapshot of every
        counter this host's models maintain."""
        from .stats import snapshot
        return snapshot(self)

    def open_raw_path(self, vci: Optional[int] = None, echo: bool = False,
                      touch_data: bool = False,
                      keep_data: bool = False) -> tuple[TestProgram, Path]:
        """Test program directly on the driver (Table 1's 'ATM' rows)."""
        drv = self.driver.open_path(vci)
        app = TestProgram(self.test, drv, echo=echo,
                          touch_data=touch_data, keep_data=keep_data)
        return app, Path(drv.vci, [drv, app])


__all__ = ["Host"]
