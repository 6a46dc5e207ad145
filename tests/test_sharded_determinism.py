"""Sharded runs must be byte-identical to the single-process run.

The contract under test: for any shard count, workload pattern, and
backpressure mode, ``run_cluster_sharded`` produces a
:class:`ClusterReport` whose canonical JSON equals the plain
``Fabric`` run's, byte for byte.  The comparison covers every counter
in the report -- per-host stats, per-port switch stats, gate stalls,
latency percentiles -- so any divergence in event ordering anywhere
in the model shows up here.

A sampled matrix keeps the runtime sane; the full sweep lives in
``benchmarks/bench_cluster_scale.py``, which re-checks identity on
every benchmark run.
"""

import pytest

from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.cluster.sharded import ShardFabric, run_cluster_sharded
from repro.hw.specs import DS5000_200
from repro.sim import SimulationError


def _kwargs(backpressure, n_hosts=4, n_switches=1, **extra):
    return dict(machines=DS5000_200, n_hosts=n_hosts,
                n_switches=n_switches, backpressure=backpressure,
                credit_window_cells=64, drain_policy="rr", **extra)


def _spec(pattern, kind="open"):
    return WorkloadSpec(pattern=pattern, kind=kind, seed=1,
                        message_bytes=2048, messages_per_client=2,
                        requests_per_client=2)


_BASELINES: dict = {}


def _baseline_json(backpressure, pattern, kind="open",
                   n_switches=1) -> str:
    cache_key = (backpressure, pattern, kind, n_switches)
    if cache_key not in _BASELINES:
        fabric = Fabric(**_kwargs(backpressure, n_switches=n_switches))
        workload = run_workload(fabric, _spec(pattern, kind))
        _BASELINES[cache_key] = collect(fabric, workload).to_json()
    return _BASELINES[cache_key]


@pytest.mark.parametrize("n_shards", (2, 4))
@pytest.mark.parametrize("pattern", ("incast", "pairs", "all2all"))
@pytest.mark.parametrize("backpressure", ("credit", "efci"))
def test_sharded_report_byte_identical(backpressure, pattern, n_shards):
    report, _run = run_cluster_sharded(
        _kwargs(backpressure), _spec(pattern), n_shards)
    assert report.to_json() == _baseline_json(backpressure, pattern)


def test_inline_backend_identical_without_backpressure():
    report, _run = run_cluster_sharded(
        _kwargs("none"), _spec("incast"), 2, backend="inline")
    assert report.to_json() == _baseline_json("none", "incast")


# -- window coalescing and boundary traffic -----------------------------------
#
# pairs colocates every flow, so the coalesced run collapses to a
# single window; all2all crosses every min-cut, so the shards actually
# exchange cells.

def test_colocated_flows_coalesce_to_one_window():
    report, run = run_cluster_sharded(
        _kwargs("credit"), _spec("pairs"), 2)
    assert report.to_json() == _baseline_json("credit", "pairs")
    # Min-cut sharding keeps every pairs flow on one shard: no shard
    # can ever emit a boundary message, so the whole run is a single
    # unbounded window instead of one barrier per lookahead.
    assert run.windows == 1
    assert run.boundary_msgs == 0
    assert run.boundary_bytes == 0


@pytest.mark.parametrize("n_shards, schedule", [
    (2, (363, 1504, 151190)),
    (4, (378, 2256, 289605)),
], ids=("2", "4"))
def test_crossing_flows_report_boundary_traffic(n_shards, schedule):
    report, run = run_cluster_sharded(
        _kwargs("credit"), _spec("all2all"), n_shards)
    assert report.to_json() == _baseline_json("credit", "all2all")
    # (windows, boundary_msgs, boundary_bytes) follow from which shard
    # runs in which window and what it ships, so an engine change that
    # moves the schedule fails here.
    assert (run.windows, run.boundary_msgs, run.boundary_bytes) \
        == schedule


def test_rpc_workload_identical_across_two_switches():
    report, _run = run_cluster_sharded(
        _kwargs("credit", n_switches=2), _spec("pairs", kind="rpc"), 3)
    assert report.to_json() == _baseline_json(
        "credit", "pairs", kind="rpc", n_switches=2)


def test_merged_conservation_holds_and_fabric_is_quiescent():
    # Conservation is only globally meaningful at a barrier; the merge
    # runs at global quiescence, where every mailbox and inter-switch
    # hop has drained, so queued must be exactly zero and the identity
    # must close without slack.
    report, run = run_cluster_sharded(
        _kwargs("credit"), _spec("all2all"), 4)
    conservation = report.conservation
    assert conservation["holds"]
    assert conservation["queued"] == 0
    assert (conservation["injected"]
            == conservation["delivered"] + conservation["dropped"])
    assert run.t_end == report.sim_time_us
    # Partial snapshots must agree that nothing is in flight.
    for partial in run.partials:
        counters = partial["fabric"]["counters"]
        assert counters["isw_in_flight"] == 0
        assert counters["uplink_cells_sent"] >= 0


def test_events_processed_matches_plain_run():
    fabric = Fabric(**_kwargs("credit"))
    run_workload(fabric, _spec("pairs"))
    _report, run = run_cluster_sharded(
        _kwargs("credit"), _spec("pairs"), 2)
    assert run.events_processed == fabric.sim.events_processed


# -- fault-plan axis ----------------------------------------------------------
#
# Fault decisions are content-addressed (seed, site, per-site cell
# index), never drawn from shared call-order RNG, so every loss, bit
# flip, flap, kill, and eaten credit cell must land identically no
# matter how the hosts are sharded.

_FAULT_SPECS = {
    "loss-corrupt": "loss=0.01,corrupt=0.002",
    "flap-kill": "flap=1:1@100+80,kill=2:0@200",
    "credit-loss": "loss=0.01,credit-loss=0.1",
}

_FAULT_BASELINES: dict = {}


def _fault_kwargs(spec_name):
    from repro.faults import FaultPlan
    return _kwargs("credit", faults=FaultPlan.parse(
        _FAULT_SPECS[spec_name], seed=1), credit_regen_timeout_us=500.0)


@pytest.mark.parametrize("faultspec", sorted(_FAULT_SPECS))
def test_sharded_identical_under_faults(faultspec):
    if faultspec not in _FAULT_BASELINES:
        fabric = Fabric(**_fault_kwargs(faultspec))
        workload = run_workload(fabric, _spec("all2all"))
        _FAULT_BASELINES[faultspec] = collect(fabric, workload).to_json()
    report, _run = run_cluster_sharded(
        _fault_kwargs(faultspec), _spec("all2all"), 2)
    assert report.to_json() == _FAULT_BASELINES[faultspec]


def test_sharding_rejects_direct_topology_and_zero_lookahead():
    with pytest.raises(SimulationError, match="switched"):
        ShardFabric(0, 2, machines=[DS5000_200, DS5000_200],
                    topology="direct")
    with pytest.raises(SimulationError, match="lookahead"):
        ShardFabric(0, 2, **_kwargs("none"), prop_delay_us=0.0)
    with pytest.raises(SimulationError, match="shard index"):
        ShardFabric(5, 2, **_kwargs("none"))
    with pytest.raises(SimulationError, match="backend"):
        run_cluster_sharded(_kwargs("none"), _spec("pairs"), 2,
                            backend="mpi")
