"""Driver configuration knobs.

Every optimization the paper discusses is a switch here, so the
benchmark harness can run the same system in any configuration
(single/double-cell DMA, eager/lazy invalidation, coalesced/per-PDU
interrupts, Mach/fast wiring).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..hw.dma import DmaMode
from ..host.wiring import WiringStyle
from ..osiris.rx_processor import InterruptMode


class CachePolicyKind(enum.Enum):
    LAZY = "lazy"       # section 2.3's optimization
    EAGER = "eager"     # invalidate after every received buffer
    NONE = "none"       # coherent hardware (DEC 3000 class)


@dataclass
class DriverConfig:
    """Configuration of one host's OSIRIS driver."""

    cache_policy: CachePolicyKind = CachePolicyKind.LAZY
    interrupt_mode: InterruptMode = InterruptMode.COALESCED
    tx_dma_mode: DmaMode = DmaMode.SINGLE_CELL
    rx_dma_mode: DmaMode = DmaMode.SINGLE_CELL
    wiring_style: WiringStyle = WiringStyle.FAST_LOW_LEVEL
    # Virtual-address DMA through a hardware scatter/gather map
    # (section 2.2): one descriptor per message segment instead of one
    # per physical buffer, at a per-page map-update cost.
    use_sg_map: bool = False

    @staticmethod
    def for_machine(machine) -> "DriverConfig":
        """Default config: lazy invalidation only where DMA is not
        cache-coherent."""
        policy = (CachePolicyKind.NONE if machine.cache.coherent_with_dma
                  else CachePolicyKind.LAZY)
        return DriverConfig(cache_policy=policy)


__all__ = ["DriverConfig", "CachePolicyKind"]
