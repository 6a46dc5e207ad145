"""Workload engine tests: patterns, determinism, open/closed loop."""

import pytest

from repro.cluster import (
    Fabric, WorkloadSpec, client_rng, collect, pattern_flows, run_workload,
)
from repro.cluster.workloads import RPC_SERVICE_US
from repro.hw import DS5000_200
from repro.sim import SimulationError


def test_pattern_flows_shapes():
    assert pattern_flows("incast", 4) == [(1, 0), (2, 0), (3, 0)]
    assert pattern_flows("incast", 4, server=2) == [(0, 2), (1, 2), (3, 2)]
    assert pattern_flows("pairs", 6) == [(0, 1), (2, 3), (4, 5)]
    # Odd host count: the last host sits out.
    assert pattern_flows("pairs", 5) == [(0, 1), (2, 3)]
    all2all = pattern_flows("all2all", 3)
    assert len(all2all) == 6
    assert all(s != d for s, d in all2all)
    with pytest.raises(SimulationError):
        pattern_flows("ring", 4)
    with pytest.raises(SimulationError):
        pattern_flows("incast", 1)


def test_client_rng_deterministic_and_distinct():
    a1 = [client_rng(7, 0).random() for _ in range(4)]
    a2 = [client_rng(7, 0).random() for _ in range(4)]
    b = [client_rng(7, 1).random() for _ in range(4)]
    other_seed = [client_rng(8, 0).random() for _ in range(4)]
    assert a1 == a2
    assert a1 != b
    assert a1 != other_seed


def test_open_loop_pairs_delivers_everything():
    fab = Fabric(DS5000_200, 4)
    spec = WorkloadSpec(pattern="pairs", kind="open", seed=3,
                        message_bytes=2048, messages_per_client=5,
                        rate_mbps=40.0)
    result = run_workload(fab, spec)
    assert len(result.clients) == 2
    for client in result.clients:
        assert client.messages_sent == 5
        assert client.messages_received == 5
        assert client.bytes_received == 5 * 2048
        assert all(lat > 0 for lat in client.latencies_us)
    conservation = collect(fab).conservation
    assert conservation["dropped"] == 0
    assert conservation["holds"]


def test_open_loop_udp_transport():
    fab = Fabric(DS5000_200, 2)
    spec = WorkloadSpec(pattern="pairs", kind="open", transport="udp",
                        message_bytes=1024, messages_per_client=3,
                        rate_mbps=20.0)
    result = run_workload(fab, spec)
    assert result.clients[0].messages_received == 3


def test_unpaced_incast_overflows_the_server_trunk():
    """Eight unpaced senders into one 4-lane trunk must overrun the
    256-cell ports; the conservation identity still balances."""
    fab = Fabric(DS5000_200, 8)
    spec = WorkloadSpec(pattern="incast", kind="open", seed=1,
                        message_bytes=4096, messages_per_client=8)
    result = run_workload(fab, spec)
    conservation = collect(fab).conservation
    assert conservation["dropped"] > 0
    assert conservation["holds"]
    assert conservation["queued"] == 0  # ran to quiescence
    received = sum(c.messages_received for c in result.clients)
    sent = sum(c.messages_sent for c in result.clients)
    assert received < sent  # incast collapse, not clean delivery


def test_rpc_workload_closed_loop():
    fab = Fabric(DS5000_200, 3)
    spec = WorkloadSpec(pattern="incast", kind="rpc", seed=5,
                        requests_per_client=4, rpc_block_bytes=8192,
                        rpc_read_fraction=1.0)
    result = run_workload(fab, spec)
    for client in result.clients:
        assert client.messages_received == 4
        # All reads: every reply is one NFS block.
        assert client.bytes_received == 4 * 8192
        assert len(client.latencies_us) == 4
    summary = result.summary()
    assert summary["latency_us"]["min"] > RPC_SERVICE_US


def test_rpc_mix_includes_writes():
    fab = Fabric(DS5000_200, 2)
    spec = WorkloadSpec(pattern="pairs", kind="rpc", seed=2,
                        requests_per_client=12, rpc_read_fraction=0.5)
    result = run_workload(fab, spec)
    client = result.clients[0]
    assert client.messages_received == 12
    # A 50/50 mix over 12 calls: some replies are 8 KB blocks, some
    # are 4-byte write acks, so totals can't be all-reads or all-writes.
    assert 12 * 4 < client.bytes_received < 12 * 8192


def test_workload_rejects_unknown_kind():
    fab = Fabric(DS5000_200, 2)
    with pytest.raises(SimulationError):
        run_workload(fab, WorkloadSpec(kind="mystery"))


def test_same_seed_reports_identical():
    def one_run():
        fab = Fabric(DS5000_200, 4)
        spec = WorkloadSpec(pattern="all2all", kind="open", seed=11,
                            message_bytes=2048, messages_per_client=3,
                            rate_mbps=60.0, arrival="poisson")
        result = run_workload(fab, spec)
        return collect(fab, result).to_json()

    assert one_run() == one_run()


def test_different_seed_changes_poisson_timing():
    def one_run(seed):
        fab = Fabric(DS5000_200, 4)
        spec = WorkloadSpec(pattern="incast", kind="open", seed=seed,
                            message_bytes=2048, messages_per_client=4,
                            rate_mbps=30.0, arrival="poisson")
        run_workload(fab, spec)
        return fab.sim.now

    assert one_run(1) != one_run(2)
