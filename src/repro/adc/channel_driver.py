"""The user-space ADC channel driver (paper, section 3.2).

'Linked with the application is an ADC channel driver, which performs
essentially the same functions as the in-kernel OSIRIS device driver.'
It is the same queue-pair driver
(:class:`repro.driver.osiris_driver.ChannelDriver`), run on the ADC's
own pair of dual-port pages -- no system call, no domain crossing --
with its receive thread signalled from the kernel's interrupt handler.

Differences from the kernel driver that matter for latency:

* no per-send page wiring: the OS wired the ADC's buffers at setup;
* no protection-domain crossing anywhere on the data path;
* buffers come from the fixed OS-authorized set, recycled in place.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..driver.osiris_driver import ChannelDriver, DriverSession
from ..host.kernel import HostOS
from ..osiris.board import OsirisBoard
from ..sim import Delay, SimulationError, Simulator
from ..xkernel.message import Message
from .channel import AdcGrant


class AdcChannelDriver(ChannelDriver):
    """Application-side driver over one ADC queue-pair."""

    def __init__(self, sim: Simulator, kernel: HostOS,
                 board: OsirisBoard, grant: AdcGrant, kernel_driver):
        channel = grant.channel
        super().__init__(sim, kernel, board, channel, grant.domain.space,
                         "adc", "adc", grant.buffer_bytes)
        self.grant = grant
        self._tx_cursor = 0
        self.violations = 0
        kernel_driver.register_adc_rx(channel.channel_id, self._wake_rx)
        kernel_driver.register_violation_handler(
            channel.channel_id, self._on_violation)
        self._start(grant.rx_buffers, f"adc{channel.channel_id}-rx")

    def open_path(self, vci: Optional[int] = None) -> DriverSession:
        if vci is None:
            vci = self.grant.vcis[0]
        if vci not in self.grant.vcis:
            raise SimulationError(f"VCI {vci} not assigned to this ADC")
        if vci in self._paths:
            raise SimulationError(f"VCI {vci} already open")
        session = DriverSession(self.protocol, self, vci)
        self._paths[vci] = session
        return session

    def new_message(self, data: bytes) -> Message:
        """Place outgoing data in the ADC's authorized transmit region."""
        if self._tx_cursor + len(data) > self.grant.tx_region_bytes:
            self._tx_cursor = 0  # ring reuse
        vaddr = self.grant.tx_region_vaddr + self._tx_cursor
        self._tx_cursor += max(len(data), 1)
        self.space.write(vaddr, data)
        return Message(self.space, [(vaddr, len(data))])

    def _wait_for_tx_space(self) -> Generator[Any, Any, None]:
        yield Delay(20.0)  # spin briefly; ADC queues are shallow

    def _on_violation(self) -> None:
        self.violations += 1


__all__ = ["AdcChannelDriver"]
