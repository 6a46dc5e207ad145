"""The user-space ADC channel driver (paper, section 3.2).

'Linked with the application is an ADC channel driver, which performs
essentially the same functions as the in-kernel OSIRIS device driver.'
It talks to its own pair of dual-port pages directly -- no system
call, no domain crossing -- and its receive thread is signalled from
the kernel's interrupt handler.

Differences from the kernel driver that matter for latency:

* no per-send page wiring: the OS wired the ADC's buffers at setup;
* no protection-domain crossing anywhere on the data path;
* buffers come from the fixed OS-authorized set, recycled in place.
"""

from __future__ import annotations

import struct
from typing import Any, Generator, Optional

from ..host.kernel import HostOS
from ..osiris.board import OsirisBoard
from ..osiris.descriptors import Descriptor, FLAG_END_OF_PDU
from ..osiris.queues import DescriptorQueue
from ..sim import Resource, Signal, SimulationError, Simulator
from ..xkernel.message import Message
from ..xkernel.protocol import Protocol, Session
from .channel import AdcGrant

_TRAILER = struct.Struct(">II")


class AdcProtocol(Protocol):
    def __init__(self) -> None:
        super().__init__("adc")


class AdcSession(Session):
    """Bottom of an application-linked path over an ADC."""

    def __init__(self, protocol: AdcProtocol,
                 driver: "AdcChannelDriver", vci: int):
        super().__init__(protocol, below=None)
        self.driver = driver
        self.vci = vci
        self.space = driver.grant.domain.space

    def send(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self.driver.send_pdu(msg, self.vci)

    def deliver(self, msg: Message) -> Generator[Any, Any, None]:
        yield from self._deliver_above(msg)


class AccessViolation(Exception):
    """The board rejected an unauthorized buffer address."""


class AdcChannelDriver:
    """Application-side driver over one ADC queue-pair."""

    def __init__(self, sim: Simulator, kernel: HostOS,
                 board: OsirisBoard, grant: AdcGrant, kernel_driver):
        self.sim = sim
        self.kernel = kernel
        self.board = board
        self.grant = grant
        self.protocol = AdcProtocol()
        self.bufsize = grant.buffer_bytes
        self._send_lock = Resource(sim, "adc-send", capacity=1)
        self._rx_signal = Signal("adc.rx")
        self._rx_pending = False
        self._tx_cursor = 0
        self._paths: dict[int, AdcSession] = {}
        self.pdus_sent = 0
        self.pdus_received = 0
        self.rx_errors = 0
        self.violations = 0

        channel = grant.channel
        for addr in grant.rx_buffers:
            if not channel.free_queue.push(
                    Descriptor(addr=addr, length=self.bufsize)):
                raise SimulationError("ADC free queue too small")
        channel.free_queue.host_access.reset()
        self._returned: list[Descriptor] = []

        kernel_driver.register_adc_rx(channel.channel_id, self._on_rx)
        kernel_driver.register_violation_handler(
            channel.channel_id, self._on_violation)
        self.rx_thread = kernel.spawn_thread(
            self._rx_loop(), f"adc{channel.channel_id}-rx")

    # -- paths --------------------------------------------------------------------

    def open_path(self, vci: Optional[int] = None) -> AdcSession:
        if vci is None:
            vci = self.grant.vcis[0]
        if vci not in self.grant.vcis:
            raise SimulationError(f"VCI {vci} not assigned to this ADC")
        if vci in self._paths:
            raise SimulationError(f"VCI {vci} already open")
        session = AdcSession(self.protocol, self, vci)
        self._paths[vci] = session
        return session

    # -- transmit ------------------------------------------------------------------

    def new_message(self, data: bytes) -> Message:
        """Place outgoing data in the ADC's authorized transmit region."""
        if self._tx_cursor + len(data) > self.grant.tx_region_bytes:
            self._tx_cursor = 0  # ring reuse
        vaddr = self.grant.tx_region_vaddr + self._tx_cursor
        self._tx_cursor += max(len(data), 1)
        space = self.grant.domain.space
        space.write(vaddr, data)
        return Message(space, [(vaddr, len(data))])

    def send_pdu(self, msg: Message,
                 vci: int) -> Generator[Any, Any, None]:
        """Queue a PDU directly -- no kernel, no wiring (pre-wired)."""
        grant = yield self._send_lock.request()
        try:
            yield from self._send_pdu_locked(msg, vci)
        finally:
            grant.release()

    def _send_pdu_locked(self, msg: Message,
                         vci: int) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        queue = self.grant.channel.tx_queue
        yield from cpu.execute(costs.driver_tx_pdu)
        buffers = msg.physical_buffers()
        for index, buf in enumerate(buffers):
            yield from cpu.execute(costs.driver_tx_buffer)
            flags = FLAG_END_OF_PDU if index == len(buffers) - 1 else 0
            desc = Descriptor(addr=buf.addr, length=buf.length,
                              flags=flags, vci=vci)
            while True:
                ok = queue.push(desc, by_host=True)
                yield from self._charge_queue_access(queue)
                if ok:
                    break
                from ..sim import Delay
                yield Delay(20.0)  # spin briefly; ADC queues are shallow
        self.pdus_sent += 1

    # -- receive --------------------------------------------------------------------

    def _on_rx(self) -> None:
        self._rx_pending = True
        self._rx_signal.fire()

    def _on_violation(self) -> None:
        self.violations += 1

    def _charge_queue_access(self, queue: DescriptorQueue
                             ) -> Generator[Any, Any, None]:
        reads, writes = queue.host_access.reset()
        if reads:
            yield from self.board.tc.pio_read_words(reads)
        if writes:
            yield from self.board.tc.pio_write_words(writes)

    def _rx_loop(self) -> Generator[Any, Any, None]:
        while True:
            if not self._rx_pending:
                yield self._rx_signal
            self._rx_pending = False
            yield from self._drain()

    def _drain(self) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        channel = self.grant.channel
        queue = channel.recv_queue
        pending: dict[int, list[Descriptor]] = {}
        while True:
            desc = queue.pop(by_host=True)
            yield from self._charge_queue_access(queue)
            if desc is None:
                if any(pending.values()):
                    yield queue.became_nonempty
                    continue
                return
            yield from cpu.execute(costs.driver_rx_buffer)
            yield from self._replenish()
            pdu = pending.setdefault(desc.vci, [])
            pdu.append(desc)
            if desc.error:
                self.rx_errors += 1
                self._returned.extend(
                    Descriptor(addr=d.addr, length=self.bufsize)
                    for d in pdu)
                del pending[desc.vci]
                continue
            if desc.end_of_pdu:
                del pending[desc.vci]
                yield from self._deliver(pdu)

    def _replenish(self) -> Generator[Any, Any, None]:
        queue = self.grant.channel.free_queue
        while self._returned:
            if not queue.push(self._returned[0]):
                queue.host_access.reset()
                break
            self._returned.pop(0)
            yield from self._charge_queue_access(queue)

    def _deliver(self, descs: list[Descriptor]
                 ) -> Generator[Any, Any, None]:
        costs = self.kernel.machine.costs
        cpu = self.kernel.cpu
        yield from cpu.execute(costs.driver_rx_pdu)
        total = sum(d.length for d in descs)
        yield from cpu.execute(costs.driver_rx_per_byte * total)
        session = self._paths.get(descs[-1].vci)
        if session is None:
            self.rx_errors += 1
            self._returned.extend(
                Descriptor(addr=d.addr, length=self.bufsize)
                for d in descs)
            return
        data_len = self._trailer_length(descs, total)
        if data_len is None:
            self.rx_errors += 1
            self._returned.extend(
                Descriptor(addr=d.addr, length=self.bufsize)
                for d in descs)
            return
        segments = [(d.addr, d.length) for d in descs]
        msg = Message(self.grant.domain.space, segments)
        captured = list(descs)
        msg.add_release(lambda: self._returned.extend(
            Descriptor(addr=d.addr, length=self.bufsize)
            for d in captured))
        msg.truncate(data_len)
        self.pdus_received += 1
        yield from session.deliver(msg)

    def _trailer_length(self, descs: list[Descriptor],
                        total: int) -> Optional[int]:
        last = descs[-1]
        raw = self.kernel.cache.read(last.addr + last.length - 8, 8)
        length, _crc = _TRAILER.unpack(raw)
        pad = total - 8 - length
        if 0 <= pad < 44:
            return length
        return None


__all__ = ["AdcChannelDriver", "AdcSession", "AdcProtocol",
           "AccessViolation"]
