"""Machine, bus and board parameter sets.

Every timing constant in the library lives here.  Values marked
``(paper)`` are stated directly in the paper; the remaining software
costs are calibrated so that the harness reproduces the paper's anchor
numbers (see DESIGN.md section 3).

All times are microseconds; all sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BusSpec:
    """TURBOchannel I/O bus parameters (paper section 2.5.1).

    The paper derives its DMA ceilings from these constants:
    44-byte reads: 11/(11+13) * 800 = 367 Mbps, writes: 11/(11+8) * 800
    = 463 Mbps; 88-byte: 503 / 587 Mbps.
    """

    mhz: float = 25.0                      # (paper) 25 MHz, 32-bit
    word_bytes: int = 4
    dma_read_overhead_cycles: int = 13     # (paper) memory -> board
    dma_write_overhead_cycles: int = 8     # (paper) board -> memory
    pio_read_word_cycles: int = 13         # word-sized host read of board
    pio_write_word_cycles: int = 8         # word-sized host write to board

    @property
    def cycle_us(self) -> float:
        return 1.0 / self.mhz

    @property
    def peak_mbps(self) -> float:
        """Raw data bandwidth: 32 bits per cycle."""
        return self.mhz * self.word_bytes * 8.0

    def dma_read_us(self, nbytes: int) -> float:
        """Bus time for one DMA transaction reading main memory."""
        words = -(-nbytes // self.word_bytes)
        return (self.dma_read_overhead_cycles + words) * self.cycle_us

    def dma_write_us(self, nbytes: int) -> float:
        """Bus time for one DMA transaction writing main memory."""
        words = -(-nbytes // self.word_bytes)
        return (self.dma_write_overhead_cycles + words) * self.cycle_us

    def dma_read_ceiling_mbps(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.dma_read_us(nbytes)

    def dma_write_ceiling_mbps(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.dma_write_us(nbytes)


@dataclass(frozen=True)
class CacheSpec:
    """Host data cache parameters."""

    size_bytes: int
    line_bytes: int
    coherent_with_dma: bool
    # (paper) partial invalidation costs ~1 CPU cycle per 32-bit word.
    invalidate_cycles_per_word: float = 1.0


@dataclass(frozen=True)
class SoftwareCosts:
    """Calibrated per-machine software path costs (microseconds).

    The DS5000/200 anchors: interrupt service 75 us and UDP/IP PDU
    service 200 us are stated in section 2.1.2 of the paper; the
    decomposition into driver/IP/UDP components is ours, constrained so
    the components sum to the stated totals for a typical 16 KB PDU.
    """

    interrupt_service: float        # enter/exit handler + ack board
    interrupt_dispatch: float       # wake the driver thread

    driver_tx_pdu: float            # queue one PDU for transmission
    driver_tx_buffer: float         # per physical buffer descriptor
    driver_rx_pdu: float            # dequeue + hand PDU upward
    driver_rx_buffer: float         # per physical buffer processed
    driver_rx_per_byte: float       # buffer walking / pmap bookkeeping

    page_wire_fast: float           # low-level Mach wiring (section 2.4)
    page_wire_mach: float           # standard vm_wire-style wiring

    ip_tx_pdu: float
    ip_rx_pdu: float
    ip_frag_overhead: float         # extra per additional fragment
    udp_tx_pdu: float
    udp_rx_pdu: float
    checksum_per_byte: float        # UDP checksum over resident data
    data_touch_per_byte: float      # CPU reads uncached network data
    test_program_pdu: float         # in-kernel test program per message

    domain_crossing: float          # protection-domain boundary (IPC)
    copy_per_byte: float            # data copy within host memory
    fbuf_cached_transfer: float     # pass a cached fbuf across a domain
    fbuf_uncached_transfer: float   # map pages on first use (section 3.1)

    # Fraction of software execution time that occupies the shared
    # memory path (relevant only when the machine has no crossbar).
    cpu_bus_fraction: float
    data_touch_bus_fraction: float

    # Eager cache invalidation: the paper charges ~1 cycle per word
    # *plus the cost of subsequent cache misses caused by the
    # invalidation of unrelated cached data*.  The factor scales the
    # raw word-loop cost to include that aftermath; the fraction is
    # the share of it that is memory traffic.
    invalidate_aftermath_factor: float = 1.1
    invalidate_bus_fraction: float = 0.45


@dataclass(frozen=True)
class MachineSpec:
    """A host workstation."""

    name: str
    cpu_mhz: float
    page_size: int
    memory_bytes: int
    cache: CacheSpec
    bus: BusSpec
    # True: CPU memory traffic and DMA serialize on one path (DS5000/200).
    # False: crossbar lets them proceed concurrently (DEC 3000/600).
    shared_memory_path: bool
    costs: SoftwareCosts

    @property
    def cpu_cycle_us(self) -> float:
        return 1.0 / self.cpu_mhz

    def invalidate_us(self, nbytes: int) -> float:
        """CPU time for a partial cache invalidation of ``nbytes``."""
        words = -(-nbytes // 4)
        return words * self.cache.invalidate_cycles_per_word * self.cpu_cycle_us


@dataclass(frozen=True)
class BoardSpec:
    """OSIRIS board parameters (identical in both hosts).

    The i960 per-cell budgets are calibrated against the measured
    ceilings: transmit tops out at 325 Mbps (figure 4) even on the
    faster host => ~1.08 us per transmitted cell in the tx processor;
    the receive processor must stay under the 0.76 us single-cell bus
    slot to let the host reach 463 Mbps pure-DMA (section 2.5.1).
    """

    dualport_bytes: int = 128 * 1024       # (paper) 128 KB region
    queue_entries: int = 64                # (paper) 64-entry queues
    # (paper) 16 KB receive buffers, rounded down to a whole number of
    # 44-byte payloads (372 cells): reassembly stops filling a buffer
    # when the next cell would not fit (cf. section 2.5.2).
    recv_buffer_bytes: int = 372 * 44      # 16368
    fifo_cells: int = 64                   # on-board receive cell FIFO

    tx_pdu_overhead_us: float = 3.0        # per-PDU segmentation setup
    # Serial per-cell command-issue cost *in addition to* the DMA bus
    # time.  The transmit ceiling of figure 4 (325 Mbps) emerges from
    # the 0.96 us 44-byte bus read plus this plus the host's dual-port
    # descriptor traffic on the same bus.
    tx_cell_us: float = 0.02
    rx_pdu_overhead_us: float = 3.0        # per-PDU reassembly wrap-up
    # Receive-side per-cell work runs concurrently with the DMA engine
    # (the 463 Mbps single-cell ceiling leaves no serial headroom).
    rx_cell_us: float = 0.55               # header inspection + command
    rx_dma_queue_depth: int = 4            # outstanding DMA commands
    interrupt_assert_us: float = 1.0


ATM_CELL_BYTES = 53
ATM_PAYLOAD_BYTES = 48
# (paper) 44-byte payloads because of AAL overhead.
AAL_PAYLOAD_BYTES = 44
LINK_MBPS = 622.08                         # OC-12 line rate
STRIPE_LINKS = 4                           # (paper) 4 x 155 Mbps
# (paper) "516 Mbps data bandwidth available in a 622 Mbps SONET/ATM
# link when 44 byte cell payloads are used".
LINK_PAYLOAD_MBPS = 516.0


def _ds5000_costs() -> SoftwareCosts:
    # Decomposition constrained by the paper's anchors:
    #  * ATM 1-byte one-way (Table 1: 353/2 us) ~= send sw (~35) +
    #    board/link (~15) + interrupt 75+8 + receive sw (~45);
    #  * UDP adds (598-353)/2 ~= 122 us one way: ip_tx + udp_tx +
    #    ip_rx + udp_rx = 30 + 24 + 38 + 30;
    #  * 16 KB received UDP/IP PDU service ~= 200 us (section 2.1.2):
    #    18 + 2x10 + 38 + 30 + 0.005 * 16384 ~= 188, plus queue PIO.
    return SoftwareCosts(
        interrupt_service=75.0,          # (paper)
        interrupt_dispatch=8.0,
        driver_tx_pdu=16.0,
        driver_tx_buffer=7.0,
        driver_rx_pdu=18.0,
        driver_rx_buffer=10.0,
        driver_rx_per_byte=0.0035,
        page_wire_fast=4.0,
        page_wire_mach=45.0,
        ip_tx_pdu=30.0,
        ip_rx_pdu=38.0,
        ip_frag_overhead=25.0,
        udp_tx_pdu=24.0,
        udp_rx_pdu=30.0,
        checksum_per_byte=0.012,         # add data_touch when uncached
        data_touch_per_byte=0.080,       # => ~80 Mbps CPU-read ceiling
        test_program_pdu=12.0,
        domain_crossing=95.0,
        copy_per_byte=0.050,
        fbuf_cached_transfer=12.0,
        fbuf_uncached_transfer=120.0,
        cpu_bus_fraction=0.28,
        data_touch_bus_fraction=0.90,
    )


def _alpha_costs() -> SoftwareCosts:
    # The Alpha is 7x the clock but only ~1.5x faster on protocol
    # processing (Table 1: UDP adds 81 us one-way versus the DS's
    # 122) -- the work is memory-latency bound, as the paper's own
    # numbers show.  Calibrated against Table 1's Alpha column and
    # figure 3 (438 Mbps checksummed receive).
    return SoftwareCosts(
        interrupt_service=20.0,
        interrupt_dispatch=4.0,
        driver_tx_pdu=6.0,
        driver_tx_buffer=1.5,
        driver_rx_pdu=7.0,
        driver_rx_buffer=1.8,
        driver_rx_per_byte=0.0015,
        page_wire_fast=1.0,
        page_wire_mach=12.0,
        ip_tx_pdu=20.0,
        ip_rx_pdu=22.0,
        ip_frag_overhead=5.0,
        udp_tx_pdu=16.0,
        udp_rx_pdu=20.0,
        checksum_per_byte=0.013,         # => ~440 Mbps checksummed rx
        data_touch_per_byte=0.004,
        test_program_pdu=5.0,
        domain_crossing=22.0,
        copy_per_byte=0.010,
        fbuf_cached_transfer=2.5,
        fbuf_uncached_transfer=28.0,
        cpu_bus_fraction=0.0,            # crossbar: no shared path
        data_touch_bus_fraction=0.0,
    )


DS5000_200 = MachineSpec(
    name="DECstation 5000/200",
    cpu_mhz=25.0,                          # (paper) 25 MHz MIPS R3000
    page_size=4096,
    memory_bytes=32 * 1024 * 1024,
    cache=CacheSpec(
        size_bytes=64 * 1024,              # (paper) 64 KB data cache
        line_bytes=4,                      # R3000: one-word lines
        coherent_with_dma=False,           # (paper) stale after DMA
        invalidate_cycles_per_word=1.0,    # (paper)
    ),
    bus=BusSpec(),
    shared_memory_path=True,               # (paper) all transactions
    costs=_ds5000_costs(),                 # occupy the TURBOchannel
)

DEC3000_600 = MachineSpec(
    name="DEC 3000/600",
    cpu_mhz=175.0,                         # (paper) 175 MHz Alpha
    page_size=8192,
    memory_bytes=64 * 1024 * 1024,
    cache=CacheSpec(
        size_bytes=2 * 1024 * 1024,
        line_bytes=32,
        coherent_with_dma=True,            # (paper) DMA updates cache
        invalidate_cycles_per_word=1.0,
    ),
    bus=BusSpec(),
    shared_memory_path=False,              # (paper) buffered crossbar
    costs=_alpha_costs(),
)

DEFAULT_BOARD = BoardSpec()

MACHINES = {
    DS5000_200.name: DS5000_200,
    DEC3000_600.name: DEC3000_600,
}


def with_costs(machine: MachineSpec, **overrides) -> MachineSpec:
    """A copy of ``machine`` with some software costs replaced."""
    return replace(machine, costs=replace(machine.costs, **overrides))


__all__ = [
    "BusSpec", "CacheSpec", "SoftwareCosts", "MachineSpec", "BoardSpec",
    "DS5000_200", "DEC3000_600", "DEFAULT_BOARD", "MACHINES", "with_costs",
    "ATM_CELL_BYTES", "ATM_PAYLOAD_BYTES", "AAL_PAYLOAD_BYTES",
    "LINK_MBPS", "LINK_PAYLOAD_MBPS", "STRIPE_LINKS",
]
