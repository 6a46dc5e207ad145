"""Fault injection and loss recovery tests.

Covers the `repro.faults` plan/site machinery, the extended
conservation law under every fault class, the credit-deadlock
watchdog, credit regeneration, striping-group degradation, and the
end-to-end story the paper's AAL5 CRC exists for: RDP completing a
transfer with correct bytes over a fabric that loses and corrupts
cells.
"""

import pytest

from repro.atm import Cell, SegmentMode
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.faults import (
    FaultPlan, FaultSite, LaneKill, LinkFlap, PortKill, fault_hash,
)
from repro.hw.specs import DS5000_200
from repro.sim import SimulationError, spawn
from repro.xkernel import RdpProtocol, RdpSession, TestProgram


# -- plan and site machinery --------------------------------------------------

def test_fault_hash_is_pure_and_bounded():
    draw = fault_hash(1, "up.h0.l0", 17, 1)
    assert draw == fault_hash(1, "up.h0.l0", 17, 1)
    assert 0.0 <= draw < 1.0
    assert draw != fault_hash(1, "up.h0.l0", 17, 2)   # salt matters
    assert draw != fault_hash(2, "up.h0.l0", 17, 1)   # seed matters
    assert draw != fault_hash(1, "up.h0.l1", 17, 1)   # site matters


def test_fault_plan_parse_grammar():
    plan = FaultPlan.parse(
        "loss=0.01,corrupt=0.001,credit-loss=0.05,"
        "flap=2:1@500+200,kill=0:3@1000,port=0:0:1@800", seed=9)
    assert plan.seed == 9
    assert plan.cell_loss == 0.01
    assert plan.corrupt == 0.001
    assert plan.credit_loss == 0.05
    assert plan.flaps == (LinkFlap(host=2, lane=1, at_us=500.0,
                                   duration_us=200.0),)
    assert plan.lane_kills == (LaneKill(host=0, lane=3, at_us=1000.0),)
    assert plan.port_kills == (PortKill(switch=0, trunk=0, lane=1,
                                        at_us=800.0),)
    assert plan.active
    assert FaultPlan.parse("seed=4", seed=9).seed == 4
    assert not FaultPlan().active
    for bad in ("loss=2.0", "bogus=1", "flap=1:2", "flap", "port=1@3"):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


def test_fault_site_down_states_and_counters():
    site = FaultSite("t", seed=1)
    cell = Cell(vci=1, payload=b"x")
    assert site.filter(cell, 0.0) is cell
    site.flap(10.0)
    assert site.filter(cell, 5.0) is None      # down
    assert site.filter(cell, 10.0) is cell     # back up at the edge
    site.kill()
    assert site.filter(cell, 99.0) is None
    assert site.cells_seen == 4
    assert site.cells_lost == 2
    assert site.cells_lost_down == 2
    assert site.stats()["dead"]


def test_fault_site_corruption_flips_exactly_one_bit():
    site = FaultSite("c", seed=3, corrupt=1.0)
    clean = bytes(44)
    out = site.filter(Cell(vci=1, payload=clean), 0.0)
    assert out.corrupted
    diff = [i for i in range(44) if out.payload[i] != clean[i]]
    assert len(diff) == 1
    assert bin(out.payload[diff[0]] ^ clean[diff[0]]).count("1") == 1
    assert site.cells_corrupted == 1


# -- conservation under injected faults --------------------------------------

def _run_cluster(faults, n_hosts=4, pattern="pairs", **fabric_kw):
    fabric = Fabric(DS5000_200, n_hosts, faults=faults, **fabric_kw)
    spec = WorkloadSpec(pattern=pattern, kind="open", seed=1,
                        message_bytes=2048, messages_per_client=4)
    result = run_workload(fabric, spec)
    return fabric, collect(fabric, result)


def test_extended_conservation_under_cell_loss():
    fabric, report = _run_cluster(FaultPlan.parse("loss=0.05", seed=7))
    cons = report.conservation
    assert cons["holds"]
    assert cons["queued"] == 0
    assert cons["lost_to_faults"] > 0
    assert cons["injected"] == (cons["delivered"] + cons["corrupted"]
                                + cons["dropped"]
                                + cons["lost_to_faults"])


def test_corruption_is_delivered_and_caught_by_crc():
    fabric, report = _run_cluster(
        FaultPlan.parse("corrupt=0.05", seed=7),
        segment_mode=SegmentMode.SEQUENCE)
    cons = report.conservation
    assert cons["holds"]
    assert cons["corrupted"] > 0
    assert cons["lost_to_faults"] == 0
    # Every corrupted PDU is discarded by the AAL5 CRC at a receiver.
    assert sum(h["rx_crc_errors"] for h in report.hosts) > 0
    assert report.faults["corrupted_delivered"] == cons["corrupted"]


def test_link_flap_loses_cells_only_while_down():
    fabric, report = _run_cluster(
        FaultPlan.parse("flap=0:0@20+40", seed=3), n_hosts=2)
    site = report.faults["sites"]["up.h0.l0"]
    assert site["cells_lost_down"] > 0
    assert site["cells_lost"] == site["cells_lost_down"]
    assert not site["dead"]
    assert report.conservation["holds"]
    # The lane carried traffic again after the flap ended.
    assert site["cells_seen"] > site["cells_lost"]


def test_link_flap_overlapping_end_of_run_still_quiesces():
    # The down window extends far past the last cell: nothing must
    # keep the simulation alive waiting for the link to come back,
    # and the accounting still closes.
    fabric, report = _run_cluster(
        FaultPlan.parse("flap=0:0@20+1000000000", seed=3), n_hosts=2)
    site = report.faults["sites"]["up.h0.l0"]
    assert site["cells_lost_down"] > 0
    assert not site["dead"]          # a flap is an outage, not a kill
    assert report.conservation["holds"]
    assert report.conservation["queued"] == 0


def test_link_flap_zero_duration_loses_nothing():
    # A zero-width down window ([at, at)) is empty: the run must be
    # indistinguishable from the fault-free baseline.
    fabric, report = _run_cluster(
        FaultPlan.parse("flap=0:0@50+0", seed=3), n_hosts=2)
    site = report.faults["sites"]["up.h0.l0"]
    assert site["cells_lost"] == 0
    assert site["cells_lost_down"] == 0
    plain_fabric, plain = _run_cluster(None, n_hosts=2)
    assert report.conservation == plain.conservation
    assert report.workload == plain.workload


def test_two_back_to_back_flaps_extend_the_outage():
    # Second flap begins the instant the first ends: the site is down
    # for the contiguous union and recovers after, exactly as a single
    # double-length flap would behave.
    def run(spec_str):
        fabric, report = _run_cluster(
            FaultPlan.parse(spec_str, seed=3), n_hosts=2)
        return report.faults["sites"]["up.h0.l0"], report

    double, rep_d = run("flap=0:0@20+30,flap=0:0@50+30")
    single, rep_s = run("flap=0:0@20+60")
    assert double["cells_lost_down"] > 0
    assert double["cells_lost_down"] == single["cells_lost_down"]
    assert not double["dead"]
    assert rep_d.conservation["holds"]
    # The lane carried traffic again once the second window closed.
    assert double["cells_seen"] > double["cells_lost"]


def test_port_kill_sinks_arrivals_at_the_switch():
    fabric, report = _run_cluster(
        FaultPlan.parse("port=0:1:0@30", seed=3), n_hosts=2)
    sw = fabric.switches[0]
    ports = {(p.trunk_id, p.lane): p for p in sw.port_stats()}
    assert ports[(1, 0)].dead
    assert ports[(1, 0)].lost_to_faults > 0
    assert sw.cells_lost_to_faults == ports[(1, 0)].lost_to_faults
    assert report.conservation["holds"]
    assert report.conservation["lost_to_faults"] > 0


def test_port_kill_rejected_on_direct_topology():
    with pytest.raises(SimulationError, match="port kills"):
        Fabric(DS5000_200, 2, topology="direct",
               faults=FaultPlan.parse("port=0:0:0@10"))


def test_fault_plan_validates_targets():
    # Without a topology the fabric still rejects bad targets at
    # construction time; lane bounds need no topology and fail at
    # parse time already.
    with pytest.raises(SimulationError, match="host"):
        Fabric(DS5000_200, 2, faults=FaultPlan.parse("kill=9:0@10"))
    with pytest.raises(ValueError, match="lane 7"):
        FaultPlan.parse("flap=0:7@10+5")
    with pytest.raises(SimulationError, match="switch"):
        Fabric(DS5000_200, 2, faults=FaultPlan.parse("port=3:0:0@10"))


def test_fault_plan_parse_validates_against_topology():
    from repro.topology import build_spec
    topo = build_spec("clos", 4, pods=2, oversubscription=1.0)
    # Good coordinates parse (leaf0 trunk 2 is its first spine uplink).
    plan = FaultPlan.parse("port=leaf0:2:1@100", topology=topo)
    assert plan.port_kills[0].switch == 0
    # Every bad coordinate names the offending token.
    for bad, why in (
            ("port=leaf9:0:0@100", "unknown switch"),
            ("port=7:0:0@100", "switch 7 out of range"),
            ("port=leaf0:9:0@100", "trunk 9 out of range"),
            ("port=leaf0:2:4@100", "lane 4 out of range"),
            ("kill=4:0@100", "host 4 out of range"),
            ("flap=0:0@-5+10", "negative"),
            ("flap=0:0@5+-10", "negative"),
    ):
        with pytest.raises(ValueError, match="bad fault token") as err:
            FaultPlan.parse(bad, topology=topo)
        assert why in str(err.value), (bad, str(err.value))
    # n_hosts alone bounds host indices without switch knowledge.
    with pytest.raises(ValueError, match="host 2 out of range"):
        FaultPlan.parse("kill=2:0@100", n_hosts=2)


# -- RDP end-to-end over an unreliable fabric ---------------------------------

def _rdp_over_fabric(fabric, flow, **proto_kw):
    sides = []
    for host, vci in ((fabric.hosts[flow.src], flow.src_vci),
                      (fabric.hosts[flow.dst], flow.dst_vci)):
        drv = host.driver.open_path(vci=vci)
        proto = RdpProtocol(host.cpu, host.sim, cache=host.cache,
                            cache_policy=host.driver.cache_policy,
                            **proto_kw)
        session = RdpSession(proto, drv)
        app = TestProgram(host.test, session, keep_data=True)
        sides.append((proto, session, app))
    return sides


def _rdp_transfer(fabric, payloads):
    flow = fabric.open_flow(0, 1)
    (pa, sa, _aa), (_pb, _sb, ab) = _rdp_over_fabric(fabric, flow)

    def go():
        for data in payloads:
            yield from _aa.send_message(data)
        ok = yield from sa.wait_all_acked()
        assert ok, "sender gave up (max retries exceeded)"

    spawn(fabric.sim, go(), "sender")
    fabric.sim.run()
    return pa, ab


def test_rdp_delivers_correct_bytes_over_one_percent_loss():
    fabric = Fabric(DS5000_200, 2,
                    faults=FaultPlan.parse("loss=0.01", seed=7))
    payloads = [bytes([40 + k]) * (900 + 61 * k) for k in range(8)]
    proto, receiver = _rdp_transfer(fabric, payloads)
    assert [r.data for r in receiver.receptions] == payloads
    assert proto.retransmissions > 0
    conservation = collect(fabric).conservation
    assert conservation["lost_to_faults"] > 0
    assert conservation["holds"]


def test_rdp_over_loss_completes_under_credit_regeneration():
    # Lost data cells and lost credit cells both eat the window; the
    # regeneration timer refills it, so the transfer still completes
    # with zero queue-full drops at the fabric.
    fabric = Fabric(DS5000_200, 2,
                    faults=FaultPlan.parse("loss=0.01,credit-loss=0.25",
                                           seed=5),
                    backpressure="credit", credit_window_cells=8,
                    credit_regen_timeout_us=1500.0)
    payloads = [bytes([40 + k]) * (900 + 61 * k) for k in range(8)]
    proto, receiver = _rdp_transfer(fabric, payloads)
    assert [r.data for r in receiver.receptions] == payloads
    report = collect(fabric)
    assert report.drops["queue_full"] == 0
    assert fabric.gates[0].stats()["regenerations"] > 0
    assert report.conservation["holds"]


def test_lane_kill_degrades_striping_group_and_transfer_survives():
    # Lane 1 of host 0's uplink dies mid-transfer: the striper
    # re-spreads over the survivors (sequence numbers place the cells)
    # and RDP resends whatever died with the lane.
    fabric = Fabric(DS5000_200, 2,
                    faults=FaultPlan.parse("kill=0:1@120", seed=2),
                    segment_mode=SegmentMode.SEQUENCE)
    payloads = [bytes([50 + k]) * 1500 for k in range(6)]
    proto, receiver = _rdp_transfer(fabric, payloads)
    assert [r.data for r in receiver.receptions] == payloads
    assert fabric.uplinks[0].degraded
    report = collect(fabric)
    assert report.faults["sites"]["up.h0.l1"]["dead"]
    assert report.conservation["holds"]


# -- credit deadlock watchdog -------------------------------------------------

def test_credit_watchdog_raises_diagnosable_error():
    # Every credit cell dies: the flow emits one window and stalls
    # forever.  Instead of silently quiescing mid-transfer, the
    # watchdog names the culprit VCI and its outstanding count.
    fabric = Fabric(DS5000_200, 2,
                    faults=FaultPlan.parse("credit-loss=1.0", seed=1),
                    backpressure="credit", credit_window_cells=4,
                    credit_watchdog_us=2000.0)
    app, _peer, flow = fabric.open_raw_flow(0, 1)
    spawn(fabric.sim, app.send_message(b"z" * 4096), "sender")
    with pytest.raises(SimulationError) as err:
        fabric.sim.run()
    message = str(err.value)
    assert "credit deadlock" in message
    assert f"{flow.src_vci:#x}" in message
    assert "4 of 4 credits outstanding" in message


def test_credit_watchdog_is_silent_on_a_healthy_fabric():
    # Stalls happen (window 4 is tiny) but every one ends with a real
    # refill, so the armed watchdogs all see a moved epoch and no-op.
    fabric = Fabric(DS5000_200, 2, backpressure="credit",
                    credit_window_cells=4, credit_watchdog_us=2000.0)
    app, _peer, _flow = fabric.open_raw_flow(0, 1)
    spawn(fabric.sim, app.send_message(b"z" * 4096), "sender")
    fabric.sim.run()
    assert fabric.hosts[1].driver.pdus_received == 1
    assert fabric.gates[0].stalls > 0


def test_regeneration_never_fires_without_faults():
    # The loss-free result must be preserved when regeneration is
    # merely enabled: at fault rate 0 every stall ends with a genuine
    # refill before any timer can matter.
    spec = WorkloadSpec(pattern="incast", kind="open", seed=1,
                        message_bytes=2048, messages_per_client=3)

    def run(**extra):
        fabric = Fabric(DS5000_200, 4, backpressure="credit",
                        credit_window_cells=8, **extra)
        result = run_workload(fabric, spec)
        return fabric, collect(fabric, result)

    plain_fabric, plain = run()
    regen_fabric, regen = run(credit_regen_timeout_us=400.0)
    assert sum(g.regenerations for g in regen_fabric.gates if g) == 0
    assert regen.conservation == plain.conservation
    assert regen.hosts == plain.hosts
    assert regen.workload == plain.workload


# -- chaos matrix -------------------------------------------------------------

def test_chaos_credit_scenario_passes_all_invariants():
    from repro.faults.chaos import build_scenarios, run_scenario
    scenario = next(s for s in build_scenarios(seed=1, quick=True)
                    if s["name"] == "credit-regen")
    result = run_scenario(scenario, shard_counts=(1, 2),
                          backend="inline")
    assert result["ok"], result["failures"]
    assert result["conservation"]["holds"]
