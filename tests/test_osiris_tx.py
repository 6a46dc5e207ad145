"""Transmit processor tests: segmentation, DMA discipline, interrupts."""

from repro.atm import Reassembler, SegmentMode, cell_count
from repro.hw.dma import DmaMode
from repro.osiris import InterruptKind, TxProcessor

from conftest import BoardRig


def _collect_tx(rig, **kw):
    cells = []
    txp = TxProcessor(rig.sim, rig.board, deliver=cells.append, **kw)
    return txp, cells


def _reassemble(cells, vci):
    reasm = Reassembler(vci)
    out = []
    for cell in cells:
        pdu = reasm.push(cell)
        if pdu is not None:
            out.append(pdu)
    return out


def test_single_buffer_pdu_roundtrip(rig):
    txp, cells = _collect_tx(rig)
    data = b"the first victim of segmentation and reassembly" * 10
    rig.queue_pdu(data, vci=5)
    rig.sim.run()
    assert _reassemble(cells, 5) == [data]
    assert txp.pdus_sent == 1
    assert len(cells) == cell_count(len(data))


def test_multi_buffer_pdu_roundtrip(rig):
    txp, cells = _collect_tx(rig)
    data = bytes(range(256)) * 8  # 2048 bytes
    rig.queue_pdu(data, vci=5, buffer_split=[100, 948, 1000])
    rig.sim.run()
    assert _reassemble(cells, 5) == [data]


def test_empty_queue_processor_waits(rig):
    txp, cells = _collect_tx(rig)
    rig.sim.run()
    assert cells == []
    assert not txp.process.done


def test_back_to_back_pdus(rig):
    txp, cells = _collect_tx(rig)
    pdus = [bytes([k]) * (80 + k) for k in range(4)]
    for pdu in pdus:
        rig.queue_pdu(pdu, vci=5)
    rig.sim.run()
    assert _reassemble(cells, 5) == pdus


def test_single_cell_mode_dma_counts(rig):
    txp, cells = _collect_tx(rig)
    data = b"z" * 440  # exactly 10 payloads of data, 11 cells framed
    rig.queue_pdu(data, vci=1)
    rig.sim.run()
    # 440 data bytes in one page-aligned buffer: 10 full-cell DMAs.
    assert rig.board.tx_dma.transactions == 10
    assert rig.board.tx_dma.bytes_moved == 440
    assert len(cells) == cell_count(440)


def test_double_cell_mode_halves_transactions():
    rig = BoardRig(tx_dma_mode=DmaMode.DOUBLE_CELL)
    txp, cells = _collect_tx(rig)
    data = b"z" * 440
    rig.queue_pdu(data, vci=1)
    rig.sim.run()
    assert rig.board.tx_dma.transactions == 5
    assert _reassemble(cells, 1) == [data]


def test_page_boundary_split(rig):
    """A buffer ending mid-cell at a page boundary needs the two-address
    DMA continuation of section 2.5.2."""
    txp, cells = _collect_tx(rig)
    # Two buffers: 20 bytes then 24 bytes -> one 44-byte cell, two DMAs.
    data = b"pq" * 22
    rig.queue_pdu(data, vci=1, buffer_split=[20, 24])
    rig.sim.run()
    assert rig.board.tx_dma.transactions == 2
    assert _reassemble(cells, 1) == [data]


def test_trailer_only_cell_has_no_dma(rig):
    txp, cells = _collect_tx(rig)
    data = b"x" * 44  # data fills cell 1 exactly; cell 2 is pad+trailer
    rig.queue_pdu(data, vci=1)
    rig.sim.run()
    assert len(cells) == 2
    assert rig.board.tx_dma.transactions == 1
    assert _reassemble(cells, 1) == [data]


def test_sequence_mode_numbers_continue_across_pdus(rig):
    txp, cells = _collect_tx(rig, segment_mode=SegmentMode.SEQUENCE)
    rig.queue_pdu(b"a" * 100, vci=1)
    rig.queue_pdu(b"b" * 100, vci=1)
    rig.sim.run()
    n = cell_count(100)
    assert [c.seq for c in cells] == list(range(2 * n))


def test_priority_orders_channels(rig):
    rig.board.open_channel(1, priority=0)
    rig.board.open_channel(2, priority=5)
    txp, cells = _collect_tx(rig)
    rig.queue_pdu(b"low" * 20, vci=22, channel_id=2)
    rig.queue_pdu(b"high" * 20, vci=11, channel_id=1)
    rig.sim.run()
    assert cells[0].vci == 11  # high priority goes out first
    vcis = [c.vci for c in cells]
    assert vcis.index(22) > vcis.index(11)


def test_protection_violation_drops_pdu_and_interrupts(rig):
    from repro.osiris import Descriptor, FLAG_END_OF_PDU
    page = rig.machine.page_size
    channel = rig.board.open_channel(1, allowed_pages={7 * page})
    irqs = []
    rig.board.irq.register_handler(lambda kind, ch: irqs.append((kind, ch)))
    txp, cells = _collect_tx(rig)
    bad = Descriptor(addr=3 * page, length=50, flags=FLAG_END_OF_PDU, vci=2)
    assert channel.tx_queue.push(bad)
    rig.sim.run()
    assert cells == []
    assert txp.violations == 1
    assert irqs == [(InterruptKind.PROTECTION_VIOLATION, 1)]


def test_tx_space_interrupt_at_half_empty(rig):
    irqs = []
    rig.board.irq.register_handler(lambda kind, ch: irqs.append(kind))
    txp, cells = _collect_tx(rig)
    channel = rig.board.kernel_channel
    # Fill the queue with single-buffer PDUs until full.
    queued = 0
    while True:
        from repro.osiris import Descriptor, FLAG_END_OF_PDU
        addr = rig.memory.alloc_contiguous(64)
        rig.memory.write(addr, b"f" * 60)
        desc = Descriptor(addr=addr, length=60,
                          flags=FLAG_END_OF_PDU, vci=1)
        if not channel.tx_queue.push(desc):
            break
        queued += 1
    # Host found the queue full: requests the transmit-space interrupt.
    rig.board.tx_interrupt_wanted.add(0)
    rig.sim.run()
    assert InterruptKind.TRANSMIT_SPACE in irqs
    assert irqs.count(InterruptKind.TRANSMIT_SPACE) == 1
    assert txp.pdus_sent == queued


def test_cells_carry_the_bytes_each_dma_burst_read(rig):
    """The board samples a buffer when its DMA moves it, as the
    hardware does: bytes the host rewrites after the PDU's first cell
    left, before their burst, are the bytes sent, and the AAL5 CRC
    covers them."""
    data = bytes(range(256)) * 8  # 2048 bytes, 47 cells
    (desc,) = rig.queue_pdu(data, vci=5)
    patch = b"rewritten" * 10
    cells = []

    def deliver(cell):
        if not cells:
            rig.memory.write(desc.addr + 1000, patch)
        cells.append(cell)

    TxProcessor(rig.sim, rig.board, deliver=deliver)
    rig.sim.run()
    expected = data[:1000] + patch + data[1000 + len(patch):]
    assert _reassemble(cells, 5) == [expected]


def test_tx_timing_is_roughly_single_cell_rate(rig):
    """44 bytes per ~0.98 us => just under the 367 Mbps DMA ceiling
    on an idle bus (descriptor PIO and per-PDU setup take the rest)."""
    txp, cells = _collect_tx(rig)
    data = b"m" * 16384
    rig.queue_pdu(data, vci=1)
    rig.sim.run()
    mbps = len(data) * 8.0 / rig.sim.now
    assert 300 < mbps < 367
