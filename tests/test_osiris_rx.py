"""Receive processor tests: placement, combining, interrupts, drops."""

from repro.atm import SegmentMode, cell_count, decode_pdu, segment
from repro.hw.dma import DmaMode
from repro.osiris import (
    FramedPduSource, InterruptKind, InterruptMode, RxProcessor,
)
from repro.sim import spawn

from conftest import BoardRig


def _feed(rig, cells, gap_us=0.0):
    """Feed cells into the on-board FIFO, blocking when it fills."""
    from repro.sim import Delay

    def feeder():
        for cell in cells:
            if gap_us:
                yield Delay(gap_us)
            yield rig.board.rx_fifo.put(cell)

    return spawn(rig.sim, feeder(), "feeder")


def _setup(rig, vci=5, buffers=8, **rx_kw):
    rig.board.bind_vci(vci, 0)
    rig.feed_free_buffers(buffers)
    return RxProcessor(rig.sim, rig.board, **rx_kw)


def test_single_pdu_lands_in_host_memory(rig):
    rxp = _setup(rig)
    data = b"Isis reassembles Osiris" * 20
    _feed(rig, segment(data, vci=5))
    rig.sim.run()
    descs = rig.drain_received()
    assert len(descs) == 1
    assert descs[0].end_of_pdu
    assert descs[0].vci == 5
    framed = rig.reassemble_host_side(descs)
    assert [decode_pdu(f) for f in framed] == [data]
    assert rxp.pdus_received == 1


def test_multiple_pdus(rig):
    rxp = _setup(rig)
    pdus = [bytes([65 + k]) * (200 + k * 37) for k in range(5)]
    cells = []
    for pdu in pdus:
        cells += segment(pdu, vci=5)
    _feed(rig, cells)
    rig.sim.run()
    framed = rig.reassemble_host_side(rig.drain_received())
    assert [decode_pdu(f) for f in framed] == pdus


def test_pdu_spanning_multiple_buffers(rig):
    """A PDU larger than the 16 KB receive buffer arrives as several
    descriptors; only the last carries END_OF_PDU (section 2.2)."""
    rxp = _setup(rig)
    data = b"B" * (40 * 1024)
    _feed(rig, segment(data, vci=5))
    rig.sim.run()
    descs = rig.drain_received()
    assert len(descs) == 3
    assert [d.end_of_pdu for d in descs] == [False, False, True]
    assert descs[0].length == 372 * 44
    framed = rig.reassemble_host_side(descs)
    assert decode_pdu(framed[0]) == data


def test_unknown_vci_cells_dropped(rig):
    rxp = _setup(rig, vci=5)
    _feed(rig, segment(b"lost", vci=77))
    rig.sim.run()
    assert rig.board.unknown_vci_drops == 1
    assert rig.drain_received() == []


def test_coalesced_interrupts_less_than_one_per_pdu(rig):
    irqs = []
    rig.board.irq.register_handler(lambda kind, ch: irqs.append(kind))
    rxp = _setup(rig, buffers=32)
    pdus = [b"t" * 600] * 10
    cells = []
    for pdu in pdus:
        cells += segment(pdu, vci=5)
    _feed(rig, cells)  # back-to-back burst, host never drains
    rig.sim.run()
    receive_irqs = [k for k in irqs if k is InterruptKind.RECEIVE]
    # One transition: the queue never goes empty during the burst.
    assert len(receive_irqs) == 1
    assert rxp.pdus_received == 10


def test_per_pdu_interrupt_baseline(rig):
    irqs = []
    rig.board.irq.register_handler(lambda kind, ch: irqs.append(kind))
    rxp = _setup(rig, buffers=32,
                 interrupt_mode=InterruptMode.PER_PDU)
    cells = []
    for _ in range(7):
        cells += segment(b"u" * 600, vci=5)
    _feed(rig, cells)
    rig.sim.run()
    assert irqs.count(InterruptKind.RECEIVE) == 7


def test_spaced_pdus_interrupt_each_time_host_drains(rig):
    """Low-rate traffic: each PDU finds an empty queue (host drained it)
    and so asserts an interrupt -- low latency for singletons."""
    irqs = []

    def handler(kind, ch):
        irqs.append(kind)
        rig.drain_received()  # host empties the queue immediately

    rig.board.irq.register_handler(handler)
    rxp = _setup(rig, buffers=32)
    for _ in range(3):
        cells = segment(b"v" * 300, vci=5)
        _feed(rig, cells)
        rig.sim.run()
        # Allow the host model (the handler) to drain between PDUs.
    assert irqs.count(InterruptKind.RECEIVE) == 3


def test_buffer_exhaustion_drops_pdus(rig):
    rxp = _setup(rig, buffers=1)
    pdus = [b"w" * 600] * 4
    cells = []
    for pdu in pdus:
        cells += segment(pdu, vci=5)
    _feed(rig, cells)
    rig.sim.run()
    assert rxp.cells_dropped_no_buffer > 0
    framed = rig.reassemble_host_side(rig.drain_received())
    assert len(framed) == 1  # only the first PDU made it
    assert decode_pdu(framed[0]) == pdus[0]


def test_double_cell_combining_on_backed_up_fifo():
    rig = BoardRig(rx_dma_mode=DmaMode.DOUBLE_CELL)
    rxp = _setup(rig)
    data = b"x" * 4000
    _feed(rig, segment(data, vci=5))
    rig.sim.run()
    assert rxp.combined_dmas > 20
    framed = rig.reassemble_host_side(rig.drain_received())
    assert decode_pdu(framed[0]) == data
    # Roughly half as many bus transactions as cells.
    n = cell_count(len(data))
    assert rig.board.rx_dma.transactions < n * 0.65


def test_double_cell_combining_respects_page_boundaries():
    rig = BoardRig(rx_dma_mode=DmaMode.DOUBLE_CELL)
    rxp = _setup(rig)
    data = b"y" * 16000
    _feed(rig, segment(data, vci=5))
    rig.sim.run()
    framed = rig.reassemble_host_side(rig.drain_received())
    assert decode_pdu(framed[0]) == data
    # No transaction may have crossed a 4 KB boundary: implicitly
    # verified by DmaController raising; combining must still happen.
    assert rxp.combined_dmas > 0


def test_sequence_mode_with_misordered_cells(rig):
    rxp = _setup(rig, reassembly_mode=SegmentMode.SEQUENCE)
    data = b"z" * 2000
    cells = segment(data, vci=5, mode=SegmentMode.SEQUENCE)
    # Swap pairs: 1,0,3,2,... (skew-like, bounded misordering).
    swapped = []
    for i in range(0, len(cells) - 1, 2):
        swapped += [cells[i + 1], cells[i]]
    if len(cells) % 2:
        swapped.append(cells[-1])
    _feed(rig, swapped)
    rig.sim.run()
    framed = rig.reassemble_host_side(rig.drain_received())
    assert decode_pdu(framed[0]) == data


def test_concurrent_mode_with_lagging_link(rig):
    rxp = _setup(rig, reassembly_mode=SegmentMode.CONCURRENT)
    data = b"c" * 3000
    cells = segment(data, vci=5, mode=SegmentMode.CONCURRENT)
    for i, cell in enumerate(cells):
        cell.link_id = i % 4
    lagging = [c for c in cells if c.link_id == 1]
    prompt = [c for c in cells if c.link_id != 1]
    _feed(rig, prompt + lagging)
    rig.sim.run()
    framed = rig.reassemble_host_side(rig.drain_received())
    assert decode_pdu(framed[0]) == data


def _pattern(nbytes):
    return (b"OSIRIS!" * (nbytes // 7 + 1))[:nbytes]


def test_fictitious_source_generates_valid_pdus(rig):
    rig.board.bind_vci(1, 0)
    rig.feed_free_buffers(16)
    rxp = RxProcessor(rig.sim, rig.board, flow_controlled=True)
    src = FramedPduSource(rig.sim, rig.board, vci=1,
                          pdus=[_pattern(2048)], repeat=5)
    rig.sim.run()
    assert src.rounds_generated == 5
    framed = rig.reassemble_host_side(rig.drain_received())
    assert len(framed) == 5
    for f in framed:
        assert decode_pdu(f) == _pattern(2048)


def test_flow_controlled_source_waits_for_buffers(rig):
    """With no buffers the flow-controlled source must stall, then
    proceed when the host feeds the free queue."""
    from repro.sim import Delay

    rig.board.bind_vci(1, 0)
    rxp = RxProcessor(rig.sim, rig.board, flow_controlled=True)
    src = FramedPduSource(rig.sim, rig.board, vci=1,
                          pdus=[_pattern(512)], repeat=2)

    def late_feeder():
        yield Delay(5000.0)
        rig.feed_free_buffers(4)

    spawn(rig.sim, late_feeder(), "late")
    rig.sim.run()
    assert src.rounds_generated == 2
    framed = rig.reassemble_host_side(rig.drain_received())
    assert len(framed) == 2
    assert rxp.cells_dropped_no_buffer == 0
    assert rig.sim.now > 5000.0
