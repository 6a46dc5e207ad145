"""E11 -- Striping skew versus double-cell DMA (section 2.6).

Claims: with no skew, the receive processor combines most consecutive
cell pairs into 88-byte DMAs; as skew grows, the combine rate -- and
with it the double-cell advantage -- collapses ('once skew is
introduced, the probability that two successive cells will be
received in order is greatly reduced').  Both skew strategies still
deliver correct data.
"""

import pytest

from repro.atm import SegmentMode, SkewModel, StripedLink, decode_pdu
from repro.hw import DS5000_200, DataCache, PhysicalMemory, TurboChannel
from repro.hw.dma import DmaMode
from repro.osiris import Descriptor, OsirisBoard, RxProcessor, TxProcessor
from repro.sim import Simulator


def run_skew_transfer(jitter_us: float, mode: SegmentMode,
                      pdu_bytes: int = 16 * 1024,
                      pdus: int = 4) -> dict:
    """Board-to-board transfer over a striped link with skew."""
    sim = Simulator()
    rigs = []
    for side in range(2):
        memory = PhysicalMemory(8 * 1024 * 1024, DS5000_200.page_size,
                                reserved_bytes=4 * 1024 * 1024)
        cache = DataCache(DS5000_200.cache, memory)
        tc = TurboChannel(sim, DS5000_200.bus, name=f"tc{side}")
        board = OsirisBoard(sim, DS5000_200, tc, memory, cache,
                            rx_dma_mode=DmaMode.DOUBLE_CELL)
        rigs.append((memory, board))
    tx_memory, tx_board = rigs[0]
    rx_memory, rx_board = rigs[1]

    skew = (SkewModel(switch_jitter_us=jitter_us, seed=17)
            if jitter_us > 0 else SkewModel.none())
    link = StripedLink(sim, rx_board.deliver_cell, skew=skew)
    TxProcessor(sim, tx_board, link=link, segment_mode=mode)
    rxp = RxProcessor(sim, rx_board, reassembly_mode=mode)

    rx_board.bind_vci(5, 0)
    size = rx_board.spec.recv_buffer_bytes
    for _ in range(16):
        addr = rx_memory.alloc_contiguous(size)
        rx_board.kernel_channel.free_queue.push(
            Descriptor(addr=addr, length=size, vci=0))

    from repro.osiris import FLAG_END_OF_PDU
    from repro.sim import Delay, spawn

    payloads = [bytes([65 + k]) * pdu_bytes for k in range(pdus)]

    def sender():
        for data in payloads:
            addr = tx_memory.alloc_contiguous(len(data))
            tx_memory.write(addr, data)
            tx_board.kernel_channel.tx_queue.push(
                Descriptor(addr=addr, length=len(data),
                           flags=FLAG_END_OF_PDU, vci=5))
            yield Delay(600.0)  # beyond the skew reorder window

    spawn(sim, sender(), "sender")
    sim.run()

    received = []
    current = bytearray()
    while True:
        desc = rx_board.kernel_channel.recv_queue.pop(by_host=True)
        if desc is None:
            break
        current += rx_memory.read(desc.addr, desc.length)
        if desc.end_of_pdu:
            received.append(decode_pdu(bytes(current)))
            current = bytearray()

    total = rxp.combined_dmas + rxp.single_dmas
    return {
        "combine_rate": rxp.combined_dmas / max(total, 1),
        "correct": received == payloads,
        "errors": rxp.pdus_errored,
    }


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for jitter in (0.0, 2.0, 5.0, 10.0, 20.0):
        out[jitter] = run_skew_transfer(jitter, SegmentMode.SEQUENCE)
    return out


def test_skew_benchmark(benchmark, sweep):
    benchmark.pedantic(
        lambda: run_skew_transfer(5.0, SegmentMode.SEQUENCE, pdus=2),
        rounds=1, iterations=1)
    print()
    print("Double-cell combine rate vs switch-queueing skew "
          "(sequence-number reassembly):")
    for jitter, r in sweep.items():
        print(f"  jitter {jitter:5.1f} us: combine rate "
              f"{r['combine_rate']:.2f}, correct={r['correct']}")
        benchmark.extra_info[f"jitter_{jitter}"] = round(
            r["combine_rate"], 3)
    assert sweep[0.0]["combine_rate"] > 0.6
    assert sweep[20.0]["combine_rate"] < sweep[0.0]["combine_rate"] * 0.5


def test_no_skew_combines_most_pairs(sweep):
    assert sweep[0.0]["combine_rate"] > 0.6


def test_combine_rate_collapses_with_skew(sweep):
    rates = [sweep[j]["combine_rate"] for j in (0.0, 5.0, 20.0)]
    assert rates[0] > rates[1] > rates[2]


def test_data_correct_under_all_skew(sweep):
    for jitter, r in sweep.items():
        assert r["correct"], f"corruption at jitter {jitter}"
        assert r["errors"] == 0


def test_concurrent_strategy_also_correct_under_skew():
    r = run_skew_transfer(10.0, SegmentMode.CONCURRENT, pdus=3)
    assert r["correct"]
    assert r["errors"] == 0
