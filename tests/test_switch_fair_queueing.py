"""Switch-level regressions: per-VCI fair queueing, drop accounting,
cross-traffic edge cases, and the striping-width guard."""

import pytest

from repro.atm.cell import Cell
from repro.atm.switch import CellSwitch
from repro.cluster import Fabric, collect
from repro.hw import DS5000_200
from repro.sim import SimulationError, Simulator, spawn


def _single_port_switch(sim, drain_policy="rr", **kw):
    """One trunk, one lane, collecting delivered VCIs in order."""
    sw = CellSwitch(sim, drain_policy=drain_policy, **kw)
    order = []
    sw.add_trunk(0, lambda cell: order.append(cell.vci), n_lanes=1)
    sw.add_route(10, 0)
    sw.add_route(20, 0)
    return sw, order


def test_rr_drain_interleaves_flows():
    """A backlogged hog no longer serializes ahead of a light flow:
    round-robin alternates VCIs, so the light flow's two cells leave
    within its first two turns."""
    sim = Simulator()
    sw, order = _single_port_switch(sim, drain_policy="rr")
    for _ in range(6):
        sw.input_cell(Cell(vci=10, payload=b""))
    for _ in range(2):
        sw.input_cell(Cell(vci=20, payload=b""))
    sim.run()
    assert sorted(order) == [10] * 6 + [20] * 2
    assert order.index(20) <= 1 or order[1] == 20
    assert max(i for i, v in enumerate(order) if v == 20) <= 3


def test_fifo_drain_serializes_behind_backlog():
    """The comparison policy: a shared FIFO makes the light flow wait
    out the hog's entire backlog."""
    sim = Simulator()
    sw, order = _single_port_switch(sim, drain_policy="fifo")
    for _ in range(6):
        sw.input_cell(Cell(vci=10, payload=b""))
    for _ in range(2):
        sw.input_cell(Cell(vci=20, payload=b""))
    sim.run()
    assert order == [10] * 6 + [20] * 2


def test_full_port_pushes_out_longest_backlog():
    """Fair buffer sharing under rr: when the port is full, an arrival
    from a light flow evicts the tail of the longest backlog instead
    of being tail-dropped."""
    sim = Simulator()
    sw, _ = _single_port_switch(sim, drain_policy="rr",
                                port_queue_cells=8)
    for _ in range(8):
        sw.input_cell(Cell(vci=10, payload=b""))
    sw.input_cell(Cell(vci=20, payload=b""))
    stats = sw.port_stats()[0]
    assert stats.depth == 8              # cap respected, not exceeded
    assert sw.dropped_queue_full == 1
    assert stats.vcis[10]["dropped"] == 1   # the hog paid
    assert stats.vcis[20]["enqueued"] == 1  # the light flow got in


def test_full_port_fifo_drops_the_arrival():
    sim = Simulator()
    sw, _ = _single_port_switch(sim, drain_policy="fifo",
                                port_queue_cells=8)
    for _ in range(8):
        sw.input_cell(Cell(vci=10, payload=b""))
    sw.input_cell(Cell(vci=20, payload=b""))
    stats = sw.port_stats()[0]
    assert stats.depth == 8
    assert sw.dropped_queue_full == 1
    assert stats.vcis[20]["dropped"] == 1   # the arrival paid


def test_push_out_never_evicts_a_shorter_queue():
    """When the arriving flow already owns the longest backlog, the
    arrival itself is dropped -- eviction must not punish light
    flows."""
    sim = Simulator()
    sw, _ = _single_port_switch(sim, drain_policy="rr",
                                port_queue_cells=8)
    for _ in range(7):
        sw.input_cell(Cell(vci=10, payload=b""))
    sw.input_cell(Cell(vci=20, payload=b""))
    sw.input_cell(Cell(vci=10, payload=b""))  # hog arrival, port full
    stats = sw.port_stats()[0]
    assert stats.depth == 8
    assert stats.vcis[10]["dropped"] == 1
    assert stats.vcis[20]["dropped"] == 0


# -- drop accounting ---------------------------------------------------------


def test_drop_split_no_route_vs_queue_full():
    sim = Simulator()
    sw, _ = _single_port_switch(sim, drain_policy="fifo",
                                port_queue_cells=4)
    sw.input_cell(Cell(vci=999, payload=b""))       # no route
    for _ in range(5):                              # one over the cap
        sw.input_cell(Cell(vci=10, payload=b""))
    assert sw.dropped_no_route == 1
    assert sw.dropped_queue_full == 1
    assert sw.cells_dropped == 2                    # the compat sum


def test_fabric_conservation_with_unrouted_vci():
    """A VCI routed nowhere: the uplink counts the cells as injected,
    the switch counts them as no-route drops, and the conservation
    identity still balances."""
    fab = Fabric(DS5000_200, 2)
    app, _ = fab.hosts[0].open_raw_path(vci=0x2ABC)  # no route installed

    def go():
        yield from app.send_message(b"to nowhere" * 50)

    spawn(fab.sim, go(), "lost")
    fab.sim.run()
    report = collect(fab)
    drops = report.drops
    assert drops["no_route"] > 0
    assert drops["queue_full"] == 0
    assert fab.hosts[1].driver.pdus_received == 0
    conservation = report.conservation
    assert conservation["holds"]
    assert conservation["dropped"] == drops["no_route"]


# -- cross-traffic edge cases ------------------------------------------------


def test_zero_duration_cross_traffic_injects_nothing():
    """Regression: the pump used to inject its first cell before
    checking the stop time, so a zero-length window still produced
    one cell."""
    sim = Simulator()
    sw, order = _single_port_switch(sim)
    sw.inject_cross_traffic(0, 0, rate_mbps=300.0, duration_us=0.0)
    sim.run()
    assert sw.cross_cells_injected == 0
    assert order == []
    assert sw.cells_dropped == 0


def test_cross_traffic_rejects_nonpositive_rate():
    sim = Simulator()
    sw, _ = _single_port_switch(sim)
    with pytest.raises(SimulationError):
        sw.inject_cross_traffic(0, 0, rate_mbps=0.0)
    with pytest.raises(SimulationError):
        sw.inject_cross_traffic(0, 0, rate_mbps=-5.0)


# -- striping-width guard ----------------------------------------------------


def test_striped_cell_width_mismatch_raises():
    """A striped cell stamped with the upstream lane it rode must land
    on the same lane downstream; a trunk with a different lane count
    would silently break the reassembly invariant."""
    sim = Simulator()
    sw = CellSwitch(sim)
    sw.add_trunk(0, lambda cell: None, n_lanes=2)
    sw.add_route(10, 0)
    cell = Cell(vci=10, payload=b"", tx_index=6)
    cell.link_id = 2        # rode lane 2 of a 4-wide upstream link
    with pytest.raises(SimulationError):
        sw.input_cell(cell)  # 6 mod 2 == 0 != 2: width mismatch


def test_unstamped_cell_width_mismatch_raises():
    sim = Simulator()
    sw = CellSwitch(sim)
    sw.add_trunk(0, lambda cell: None, n_lanes=2)
    sw.add_route(10, 0)
    cell = Cell(vci=10, payload=b"")
    cell.link_id = 3        # lane 3 cannot exist on a 2-lane trunk
    with pytest.raises(SimulationError):
        sw.input_cell(cell)


def test_matching_width_passes_the_guard():
    sim = Simulator()
    sw = CellSwitch(sim)
    sw.add_trunk(0, lambda cell: None, n_lanes=4)
    sw.add_route(10, 0)
    cell = Cell(vci=10, payload=b"", tx_index=5)
    cell.link_id = 1        # 5 mod 4 == 1: consistent
    sw.input_cell(cell)
    assert sw.cells_switched == 1
