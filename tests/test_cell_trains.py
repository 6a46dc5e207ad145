"""Cell-train fast path: equivalence with the per-cell path.

The contract under test (DESIGN.md section 10): with ``trains=True``
a fabric produces a :class:`ClusterReport` byte-identical to the
``trains=False`` run -- same counters, same latencies, same fault
decisions -- while folding per-cell heap events into train events.
The parametrized matrix sweeps workload pattern x topology x faults x
shard count; the unit tests pin each expansion trigger individually.
"""

import pytest

from repro.atm.cell import Cell
from repro.atm.link import CellPipe
from repro.atm.switch import CellSwitch
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.cluster.sharded import ShardFabric, run_cluster_sharded
from repro.faults.plan import FaultPlan, FaultSite
from repro.hw.specs import DS5000_200
from repro.sim import Simulator
from repro.sim.trains import CellTrain

# ---------------------------------------------------------------------------
# Byte-identity matrix
# ---------------------------------------------------------------------------


def _kwargs(topology, faults, trains):
    kw = dict(machines=DS5000_200, n_hosts=4, topology=topology,
              backpressure="credit", credit_window_cells=64,
              drain_policy="rr", trains=trains)
    if faults:
        kw["faults"] = FaultPlan.parse("loss=0.01", seed=1)
    return kw


def _spec(pattern):
    return WorkloadSpec(pattern=pattern, kind="open", seed=1,
                        message_bytes=2048, messages_per_client=1)


_BASELINES: dict = {}


def _baseline_json(pattern, topology, faults) -> str:
    """The per-cell (trains off) single-process report."""
    key = (pattern, topology, faults)
    if key not in _BASELINES:
        fabric = Fabric(**_kwargs(topology, faults, trains=False))
        workload = run_workload(fabric, _spec(pattern))
        _BASELINES[key] = collect(fabric, workload).to_json()
    return _BASELINES[key]


@pytest.mark.parametrize("n_shards", (1, 2))
@pytest.mark.parametrize("faults", (False, True),
                         ids=("clean", "loss1pct"))
@pytest.mark.parametrize("topology", ("switched", "clos"))
@pytest.mark.parametrize("pattern", ("pairs", "incast", "all2all"))
def test_train_report_byte_identical(pattern, topology, faults,
                                     n_shards):
    kwargs = _kwargs(topology, faults, trains=True)
    if n_shards == 1:
        fabric = Fabric(**kwargs)
        workload = run_workload(fabric, _spec(pattern))
        got = collect(fabric, workload).to_json()
        assert fabric.sim.events_absorbed > 0, \
            "the fast path never engaged; the test is vacuous"
    else:
        report, _run = run_cluster_sharded(
            kwargs, _spec(pattern), n_shards, backend="inline")
        got = report.to_json()
    assert got == _baseline_json(pattern, topology, faults)


def test_model_event_totals_agree():
    """processed + absorbed with trains == processed without: every
    folded event is accounted for, none double-counted."""
    totals = {}
    for trains in (True, False):
        fabric = Fabric(**_kwargs("switched", False, trains))
        run_workload(fabric, _spec("pairs"))
        totals[trains] = (fabric.sim.events_processed
                          + fabric.sim.events_absorbed)
        if not trains:
            assert fabric.sim.events_absorbed == 0
    assert totals[True] == totals[False]


# ---------------------------------------------------------------------------
# Expansion triggers, unit by unit
# ---------------------------------------------------------------------------


def _cells(vci, n, eom=True):
    out = [Cell(vci=vci, payload=b"x" * 44, tx_index=i) for i in range(n)]
    if eom:
        out[-1].eom = True
    return out


def _switch_with_train(sim, n=4, **kw):
    """A one-trunk switch and a ready-to-fuse train on lane 0."""
    sw = CellSwitch(sim, name="s", switching_delay_us=0.0, **kw)
    sw.add_trunk(0, lambda cell: None)
    sw.add_route(7, 0, 9)
    cells = [Cell(vci=7, payload=b"x" * 44, tx_index=4 * i)
             for i in range(n)]
    for c in cells:
        c.link_id = 0
    ct = sw.cell_time_us
    times = [10.0 + i * ct for i in range(n)]
    return sw, CellTrain(cells, times, ("up", 0, 0), 0)


def test_fuse_commits_counters_and_departures():
    sim = Simulator()
    sw, train = _switch_with_train(sim)
    result = sw.input_train(train)
    assert result is not None
    trunk_id, lane, cells_out, deps = result
    assert (trunk_id, lane) == (0, 0)
    assert [c.vci for c in cells_out] == [9] * 4
    assert deps == [t + sw.cell_time_us for t in train.times]
    assert sw.cells_switched == 4
    assert sim.events_absorbed == 3          # n - 1 folded arrivals


def test_train_expands_at_contention():
    """Cross traffic on the port (or any real backlog) forbids the
    fused commit: interleaving could matter, so the per-cell events
    must run."""
    sim = Simulator()
    sw, train = _switch_with_train(sim)
    sw.inject_cross_traffic(0, 0, rate_mbps=50.0, duration_us=100.0)
    assert sw.input_train(train) is None

    sim2 = Simulator()
    sw2, train2 = _switch_with_train(sim2)
    assert sw2._admit(sw2._trunks[0][0],
                      Cell(vci=9, payload=b"", link_id=0))
    assert sw2._trunks[0][0].index.depth > 0
    assert sw2.input_train(train2) is None


def test_train_expands_with_second_route_on_trunk():
    sim = Simulator()
    sw, train = _switch_with_train(sim)
    sw.add_route(8, 0, 10)      # another flow shares the trunk
    assert sw.input_train(train) is None


def test_train_expands_when_port_kill_armed():
    sim = Simulator()
    sw, train = _switch_with_train(sim)
    sw.arm_port_kill(0, 0, at_us=50.0)
    assert sw.input_train(train) is None


def test_train_expands_at_occupancy_cap():
    sim = Simulator()
    sw, train = _switch_with_train(sim, port_queue_cells=3)
    assert sw.input_train(train) is None     # 4 cells > 3-cell cap


class _CapturePort:
    """A train port that records what the pipe emits."""

    def __init__(self):
        self.singles = []
        self.trains = []
        self.seq = 0

    def allowed(self, cell):
        return True

    def emit_single(self, arrival, cell):
        self.singles.append((arrival, cell))
        self.seq += 1

    def open(self, arrival, cell):
        train = CellTrain([cell], [arrival], ("up", 0, 0), self.seq)
        self.seq += 1
        self.trains.append(train)
        return train

    def append_bump(self):
        self.seq += 1


def _captured_pipe(sim, port, trains=True):
    """A lane wired to ``port`` the way the fabric wires an uplink:
    lone cells through ``schedule_delivery``, trains through the
    port when the train path is on."""
    pipe = CellPipe(sim, 0, None, prop_delay_us=2.0)
    pipe.schedule_delivery = port.emit_single
    if trains:
        pipe.enable_trains(port)
    return pipe


def test_fault_arming_mid_train_defers_to_per_cell_events():
    """A scheduled fault change inside the burst's serialization span
    splits the train: cells finishing before the hazard are absorbed
    as usual, cells finishing after it ride real per-cell events at
    the exact pump completion times."""
    sim = Simulator()
    port = _CapturePort()
    pipe = _captured_pipe(sim, port)
    site = FaultSite(name="up.h0.l0", seed=1)
    pipe.fault_site = site
    # The hazard lands while cell 3 of 4 is still serializing.
    site.note_scheduled(2.5 * pipe.cell_time_us)
    for cell in _cells(7, 4):
        pipe.submit(cell)
    # Cells 1-2 finish before the hazard: decided now, one train.
    assert sim.events_absorbed == 2
    assert len(port.trains) == 1 and len(port.trains[0]) == 2
    # Cells 3-4 finish after it: deferred behind real events.
    assert len(pipe._deferred) == 2
    assert port.singles == []
    sim.run()
    # The deferred cells came out as per-cell emissions, in order.
    assert len(pipe._deferred) == 0
    assert len(port.singles) == 2
    assert sim.events_absorbed == 2          # nothing absorbed late
    ct = pipe.cell_time_us
    assert [t for t, _ in port.singles] == \
        [pytest.approx(i * ct + 2.0) for i in (3, 4)]


def test_clean_burst_rides_one_train():
    sim = Simulator()
    port = _CapturePort()
    pipe = _captured_pipe(sim, port)
    for cell in _cells(7, 5):
        pipe.submit(cell)
    assert len(port.trains) == 1
    assert len(port.trains[0]) == 5
    assert port.singles == []
    assert sim.events_absorbed == 5
    ct = pipe.cell_time_us
    times = port.trains[0].times
    assert times == [pytest.approx(2.0 + (i + 1) * ct)
                     for i in range(5)]
    # eom closed the train: the next PDU opens a new one.
    for cell in _cells(7, 2):
        pipe.submit(cell)
    assert len(port.trains) == 2


def test_burst_submission_matches_per_cell_submission():
    """A PDU's cells submitted back to back ride the train path to the
    same arrival times and channel positions the per-cell pump gives
    them one event at a time, and the model-event totals agree."""
    results = []
    for trains in (True, False):
        sim = Simulator()
        port = _CapturePort()
        pipe = _captured_pipe(sim, port, trains)
        for cell in _cells(7, 6):
            pipe.submit(cell)
        sim.run()
        positions = [(t.n0 + i, time) for t in port.trains
                     for i, time in enumerate(t.times)]
        positions += [(n, time) for n, (time, _cell)
                      in enumerate(port.singles)]
        results.append((sorted(positions), port.seq,
                        sim.events_processed + sim.events_absorbed))
        assert bool(port.trains) == trains
    assert results[0] == results[1]


def test_shard_boundary_forbids_trains():
    """A cell whose switch arrival would land on another shard must
    ride per-cell boundary messages; local cells may ride trains."""
    kwargs = _kwargs("switched", False, trains=True)
    shard = ShardFabric(0, 2, **kwargs)
    local = [i for i in range(4) if shard.owns_host(i)]
    remote = [i for i in range(4) if not shard.owns_host(i)]
    flow_local = shard.open_flow(local[0], local[1])
    flow_out = shard.open_flow(local[0], remote[0])
    sw = shard._attach[local[0]][0]
    cell_local = Cell(vci=flow_local.src_vci, payload=b"")
    cell_out = Cell(vci=flow_out.src_vci, payload=b"")
    assert shard._train_local(sw, local[0], cell_local)
    assert not shard._train_local(sw, local[0], cell_out)


def test_sharded_run_absorbs_events_on_local_segments():
    report, run = run_cluster_sharded(
        _kwargs("switched", False, trains=True), _spec("pairs"), 2,
        backend="inline")
    assert run.events_absorbed > 0
    assert report.to_json() == _baseline_json("pairs", "switched",
                                              False)


# ---------------------------------------------------------------------------
# Simulator.run return value (completion vs truncation)
# ---------------------------------------------------------------------------


def test_run_returns_executed_count():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    assert sim.run(max_events=3) == 3        # budget hit: truncated
    assert sim.run() == 2                    # drained: below budget
    assert sim.run() == 0
