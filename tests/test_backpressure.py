"""Fabric flow control: credit windows, EFCI marking, per-VCI fairness.

The tentpole scenarios: an unpaced incast that collapses the seed
fabric runs loss-free under credit backpressure; goodput is monotone
in offered load up to saturation; EFCI marking is the cheap middle
ground; and per-VCI round-robin drain keeps a closed-loop RPC flow
alive against saturating open-loop hogs that starve it under the old
shared FIFO.
"""

import pytest

from repro.cluster import (
    Fabric, WorkloadSpec, collect, run_workload, sweep_offered_load,
)
from repro.cluster.backpressure import CreditGate
from repro.cluster.workloads import ClientResult, _setup_rpc, client_rng
from repro.hw import DS5000_200
from repro.sim import Delay, SimulationError, Simulator, spawn


# -- the gate itself ---------------------------------------------------------


def test_credit_gate_blocks_at_window_and_resumes_on_refill():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(7, window=2)
    emitted = []

    def sender():
        for i in range(4):
            yield from gate.acquire(7)
            emitted.append((i, sim.now))

    def refiller():
        yield Delay(10.0)
        gate.refill(7)
        yield Delay(10.0)
        gate.refill(7)

    spawn(sim, sender(), "sender")
    spawn(sim, refiller(), "refiller")
    sim.run()
    assert [t for _, t in emitted] == [0.0, 0.0, 10.0, 20.0]
    assert gate.stalls == 2
    assert gate.stall_time_us == pytest.approx(20.0)
    assert gate.credits_outstanding() == 2   # two refills never returned


def test_credit_gate_ignores_ungated_vcis():
    sim = Simulator()
    gate = CreditGate(sim)
    times = []

    def sender():
        for _ in range(3):
            yield from gate.acquire(0x4001)  # never opened: no gating
            times.append(sim.now)

    spawn(sim, sender(), "sender")
    sim.run()
    assert times == [0.0, 0.0, 0.0]
    assert gate.stalls == 0


def test_credit_gate_pause_holds_until_deadline_and_only_extends():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(5, window=None)    # uncounted: EFCI-style gating
    gate.pause(5, 25.0)
    gate.pause(5, 15.0)              # shorter deadline must not shorten
    times = []

    def sender():
        yield from gate.acquire(5)
        times.append(sim.now)

    spawn(sim, sender(), "sender")
    sim.run()
    assert times == [25.0]
    assert gate.stats()["flows"][5]["pauses"] == 1


def test_credit_gate_rejects_bad_windows_and_duplicates():
    gate = CreditGate(Simulator())
    gate.open_vci(9, window=4)
    with pytest.raises(SimulationError):
        gate.open_vci(9, window=4)
    with pytest.raises(SimulationError):
        gate.open_vci(11, window=0)


def test_refill_never_exceeds_the_window():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(3, window=2)
    gate.refill(3)                   # spurious: already at the window
    assert gate.stats()["flows"][3]["credits"] == 2
    assert gate.credits_outstanding() == 0


# -- credit mode over the fabric ---------------------------------------------


def test_credit_incast_zero_queue_full_drops():
    """The acceptance scenario: unpaced 8-host incast, loss-free by
    construction under credits, collapse without them."""
    spec = WorkloadSpec(pattern="incast", kind="open", seed=7,
                        message_bytes=8192, messages_per_client=12)
    fab = Fabric(DS5000_200, 8, backpressure="credit")
    report = collect(fab, run_workload(fab, spec))
    assert report.drops["queue_full"] == 0
    assert report.drops["no_route"] == 0
    assert report.conservation["holds"]
    stats = report.backpressure
    assert stats["mode"] == "credit"
    assert sum(h["stalls"] for h in stats["hosts"]) > 0   # it engaged
    # Quiescent fabric: every credit came home.
    assert all(h["credits_outstanding"] == 0 for h in stats["hosts"])

    fab2 = Fabric(DS5000_200, 8, backpressure="none")
    report2 = collect(fab2, run_workload(fab2, spec))
    assert report2.drops["queue_full"] > 0
    assert report2.backpressure is None


def test_credit_goodput_monotone_up_to_saturation():
    spec = WorkloadSpec(pattern="incast", kind="open", seed=3,
                        message_bytes=4096, messages_per_client=10)
    points = sweep_offered_load(
        lambda: Fabric(DS5000_200, 8, backpressure="credit"),
        spec, [5.0, 15.0, 40.0])
    goodputs = [p["goodput_mbps"] for p in points]
    assert goodputs == sorted(goodputs)
    assert goodputs[-1] > goodputs[0]
    assert all(p["drops"]["queue_full"] == 0 for p in points)


def test_efci_marks_relay_back_and_reduce_drops():
    """The cheap alternative: marking does not eliminate loss, but the
    relayed pauses must measurably reduce it versus no control."""
    spec = WorkloadSpec(pattern="incast", kind="open", seed=7,
                        message_bytes=8192, messages_per_client=12)
    drops = {}
    for mode in ("none", "efci"):
        fab = Fabric(DS5000_200, 8, backpressure=mode)
        report = collect(fab, run_workload(fab, spec))
        drops[mode] = report.drops["queue_full"]
        if mode == "efci":
            stats = report.backpressure
            pauses = sum(sum(f["pauses"] for f in h["flows"].values())
                         for h in stats["hosts"])
            assert pauses > 0
    assert 0 < drops["efci"] < drops["none"]


def test_backpressure_rejected_on_direct_topology():
    with pytest.raises(SimulationError):
        Fabric(DS5000_200, 2, topology="direct", backpressure="credit")


# -- per-VCI fairness --------------------------------------------------------


HOG_MESSAGES = 40
HOG_BYTES = 8192


def _rpc_under_hogs(drain_policy: str, with_hogs: bool) -> ClientResult:
    """One closed-loop RPC client (h2 -> h0), optionally against two
    unpaced open-loop hogs (h1, h3 -> h0) saturating h0's trunk."""
    fab = Fabric(DS5000_200, 4, drain_policy=drain_policy)
    spec = WorkloadSpec(kind="rpc", seed=5, requests_per_client=8,
                        rpc_read_fraction=1.0, rpc_block_bytes=8192)
    result = ClientResult(name="rpc", src=2, dst=0)
    _setup_rpc(fab, spec, client_rng(5, 0), result, 2, 0)
    if with_hogs:
        for src in (1, 3):
            app, _, _ = fab.open_raw_flow(src, 0)

            def hog(app=app):
                for _ in range(HOG_MESSAGES):
                    yield from app.send_length(HOG_BYTES)

            spawn(fab.sim, hog(), f"hog-h{src}")
    fab.sim.run()
    return result


def _p99(result: ClientResult) -> float:
    lat = sorted(result.latencies_us)
    return lat[min(len(lat) - 1, int(len(lat) * 0.99))]


def test_rr_drain_bounds_rpc_p99_under_open_loop_hogs():
    """The fairness demo: with per-VCI round-robin drain, a saturating
    pair of open-loop hogs cannot starve a closed-loop RPC flow -- its
    p99 stays within 3x of the uncontended p99."""
    base = _rpc_under_hogs("rr", with_hogs=False)
    contended = _rpc_under_hogs("rr", with_hogs=True)
    assert len(base.latencies_us) == 8
    assert len(contended.latencies_us) == 8      # every call completed
    assert _p99(contended) <= 3.0 * _p99(base)


def test_fifo_drain_starves_rpc_under_open_loop_hogs():
    """The counterfactual: under the old shared FIFO the hogs own the
    port, RPC request cells are tail-dropped, and the client never
    finishes its call sequence."""
    contended = _rpc_under_hogs("fifo", with_hogs=True)
    assert len(contended.latencies_us) < 8
