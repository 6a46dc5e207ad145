"""Switch-under-saturation tests.

The paper's cause-3 skew comes from 'different queuing delays
experienced by cells on different links as they pass through distinct
ports on the switches'.  These tests pin that behavior down: cross
traffic parked on one output port delays exactly that lane, queue
occupancy grows monotonically with offered load, and the cell-
conservation identity survives overload.
"""

from repro.atm import CellSwitch
from repro.atm.cell import Cell
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.hw import DS5000_200
from repro.sim import Delay, Simulator, spawn

DATA_VCI = 100
CROSS_LANE = 1


def _run_striped_burst(cross_mbps: float) -> dict:
    """Feed a 32-cell striped burst through one trunk, optionally
    against cross traffic on lane 1; return per-cell delivery times."""
    sim = Simulator()
    sw = CellSwitch(sim)
    arrivals: dict[int, float] = {}

    def deliver(cell) -> None:
        if cell.vci == DATA_VCI:
            arrivals[cell.tx_index] = sim.now

    sw.add_trunk(0, deliver)
    sw.add_route(DATA_VCI, 0)
    if cross_mbps > 0.0:
        # Two competing flows on the same port: multi-flow cross load.
        sw.inject_cross_traffic(0, CROSS_LANE, cross_mbps / 2,
                                vci=0xFFF0, duration_us=150.0)
        sw.inject_cross_traffic(0, CROSS_LANE, cross_mbps / 2,
                                vci=0xFFF1, duration_us=150.0)

    def feed():
        yield Delay(100.0)
        for i in range(32):
            sw.input_cell(Cell(vci=DATA_VCI, payload=b"", tx_index=i))
            yield Delay(2.0)

    spawn(sim, feed(), "feed")
    sim.run()
    assert sw.queued_cells() == 0
    return arrivals


def test_cross_traffic_delays_exactly_one_lane():
    quiet = _run_striped_burst(0.0)
    loaded = _run_striped_burst(300.0)
    assert set(quiet) == set(loaded) == set(range(32))
    for i in range(32):
        if i % 4 == CROSS_LANE:
            assert loaded[i] > quiet[i]       # behind the fillers
        else:
            assert loaded[i] == quiet[i]      # other ports untouched


def _saturate(rate_mbps: float) -> tuple:
    """Pure cross load on one port for a fixed window; drain fully."""
    sim = Simulator()
    sw = CellSwitch(sim)
    delivered = [0]
    sw.add_trunk(0, lambda cell: delivered.__setitem__(
        0, delivered[0] + 1))
    sw.inject_cross_traffic(0, 0, rate_mbps, duration_us=500.0)
    sim.run()
    port = sw.port_stats()[0]
    return port.max_queue_seen, delivered[0], sw


def test_max_queue_seen_monotone_with_offered_load():
    depths = []
    for rate in (60.0, 150.0, 300.0, 600.0):
        max_seen, delivered, sw = _saturate(rate)
        depths.append(max_seen)
        # Per-switch conservation at quiescence: every injected cell
        # was forwarded or dropped.
        assert sw.queued_cells() == 0
        assert sw.cross_cells_injected == delivered + sw.cells_dropped
    assert depths == sorted(depths)
    assert depths[-1] > depths[0]
    # The top rate must actually fill the port to its configured cap.
    assert depths[-1] == CellSwitch(Simulator()).port_queue_cells


def test_incast_saturation_fills_server_ports():
    """Unpaced 8-host incast: the server trunk's ports hit capacity,
    cells drop, and the fabric-wide conservation identity balances."""
    fab = Fabric(DS5000_200, 8)
    spec = WorkloadSpec(pattern="incast", kind="open", seed=1,
                        message_bytes=4096, messages_per_client=8)
    run_workload(fab, spec)
    sw = fab.switches[0]
    assert sw.cells_dropped > 0
    server_trunk = fab._attach[0][1]
    deepest = max(p.max_queue_seen for p in sw.port_stats()
                  if p.trunk_id == server_trunk)
    assert deepest == sw.port_queue_cells
    conservation = collect(fab).conservation
    assert conservation["holds"]
    assert conservation["dropped"] == sw.cells_dropped
