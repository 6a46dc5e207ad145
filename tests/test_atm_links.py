"""Link and striping model tests."""

import pytest

from repro.atm import Cell, CellPipe, SkewModel, StripedLink, segment
from repro.sim import Simulator


def _cells(n, vci=1):
    return [Cell(vci=vci, payload=bytes([i % 256]) * 44) for i in range(n)]


def _send_pdu(stripe, cells):
    stripe.start_pdu()
    for cell in cells:
        stripe.submit(cell)


def test_cell_pipe_delivers_in_order_at_line_rate():
    sim = Simulator()
    got = []
    pipe = CellPipe(sim, 0, deliver=lambda c: got.append((sim.now, c)),
                    prop_delay_us=5.0)
    for cell in _cells(3):
        pipe.submit(cell)
    sim.run()
    assert len(got) == 3
    times = [t for t, _ in got]
    assert times == sorted(times)
    # One cell serializes in 53*8/155.52 = 2.726 us, plus 5 us propagation.
    assert times[0] == pytest.approx(7.726, abs=0.01)
    assert times[1] - times[0] == pytest.approx(2.726, abs=0.01)


def test_cell_pipe_jitter_never_reorders():
    sim = Simulator()
    got = []
    import random
    rng = random.Random(7)
    pipe = CellPipe(sim, 0, deliver=lambda c: got.append(c),
                    queueing_delay=lambda: rng.uniform(0, 50))
    cells = _cells(50)
    for cell in cells:
        pipe.submit(cell)
    sim.run()
    assert got == cells  # same objects, same order


def test_striped_link_round_robin_assignment():
    sim = Simulator()
    got = []
    stripe = StripedLink(sim, deliver=lambda c: got.append(c))
    cells = _cells(8)
    _send_pdu(stripe, cells)
    sim.run()
    assert [c.link_id for c in cells] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(got) == 8


def test_striper_resets_per_pdu():
    sim = Simulator()
    stripe = StripedLink(sim, deliver=lambda c: None)
    first = _cells(3)
    second = _cells(2)
    _send_pdu(stripe, first)
    _send_pdu(stripe, second)
    sim.run()
    assert [c.link_id for c in first] == [0, 1, 2]
    assert [c.link_id for c in second] == [0, 1]


def test_no_skew_preserves_global_order():
    sim = Simulator()
    got = []
    stripe = StripedLink(sim, deliver=lambda c: got.append(c),
                         skew=SkewModel.none())
    cells = _cells(16)
    _send_pdu(stripe, cells)
    sim.run()
    assert got == cells


def test_skew_misorders_across_links_but_not_within():
    sim = Simulator()
    got = []
    skew = SkewModel(fixed_offsets_us=(0.0, 30.0, 0.0, 30.0))
    stripe = StripedLink(sim, deliver=lambda c: got.append(c), skew=skew)
    cells = _cells(32)
    _send_pdu(stripe, cells)
    sim.run()
    assert len(got) == 32
    arrival_order = [cells.index(c) for c in got]
    assert arrival_order != list(range(32))  # misordered globally
    for link in range(4):
        on_link = [i for i in arrival_order if i % 4 == link]
        assert on_link == sorted(on_link)  # ordered per link


def test_aggregate_payload_rate_is_516_mbps():
    sim = Simulator()
    stripe = StripedLink(sim, deliver=lambda c: None)
    assert stripe.aggregate_payload_mbps == pytest.approx(516.5, abs=1.0)


def test_sustained_stripe_throughput_approaches_516():
    sim = Simulator()
    done = {"bytes": 0, "last": 0.0}

    def deliver(cell):
        done["bytes"] += len(cell.payload)
        done["last"] = sim.now

    stripe = StripedLink(sim, deliver=deliver, prop_delay_us=0.0)
    data = b"z" * (64 * 1024)
    cells = segment(data, vci=1)
    _send_pdu(stripe, cells)
    sim.run()
    mbps = done["bytes"] * 8.0 / done["last"]
    assert 480 < mbps < 520


def test_skew_model_factories():
    assert not SkewModel.none().introduces_skew
    assert SkewModel.aurora_like().introduces_skew
    assert SkewModel.severe().introduces_skew


def test_skew_delay_fn_nonnegative_and_seeded():
    skew_a = SkewModel.severe(seed=1)
    skew_b = SkewModel.severe(seed=1)
    fn_a = skew_a.delay_fn(2)
    fn_b = skew_b.delay_fn(2)
    samples_a = [fn_a() for _ in range(100)]
    samples_b = [fn_b() for _ in range(100)]
    assert samples_a == samples_b  # deterministic given seed
    assert all(s >= 0 for s in samples_a)
