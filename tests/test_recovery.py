"""Self-healing fabric: failure detection, deterministic reroute,
and recovery-time SLOs.

Covers the `repro.recovery` control plane end to end: heartbeat
detection of killed elements, masked-ECMP re-resolution with fresh
wire VCIs, graceful degradation when no alternate path survives,
convergence measurement, and byte-identical reports across shard
counts.
"""

import pytest

from repro.atm import SegmentMode
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.faults import FaultPlan
from repro.hw.specs import DS5000_200
from repro.recovery import RECOVERY_MODES, RecoveryConfig
from repro.sim import SimulationError
from repro.topology import build_spec
from repro.topology.routing import build_ecmp_tables

CLOS = dict(topology="clos", pods=2, oversubscription=1.0)


def _clos_topo():
    return build_spec("clos", 4, pods=2, oversubscription=1.0)


def _fabric(recovery=None, faults="port=leaf0:2:1@1000", **kw):
    plan = (FaultPlan.parse(faults, topology=_clos_topo())
            if faults else None)
    base = dict(machines=DS5000_200, n_hosts=4,
                segment_mode=SegmentMode.SEQUENCE, **CLOS)
    base.update(kw)
    return Fabric(faults=plan, recovery=recovery, **base)


def _spec(messages=6):
    return WorkloadSpec(pattern="all2all", kind="open", seed=1,
                        message_bytes=2048, rate_mbps=20.0,
                        arrival="poisson",
                        messages_per_client=messages)


def _run(fabric, messages=6):
    result = run_workload(fabric, _spec(messages),
                          max_events=50_000_000)
    return collect(fabric, result)


# -- configuration -------------------------------------------------------------

def test_recovery_config_validation():
    assert RECOVERY_MODES == ("off", "detect", "reroute")
    for mode in RECOVERY_MODES:
        assert RecoveryConfig(mode=mode).mode == mode
    with pytest.raises(SimulationError):
        RecoveryConfig(mode="heal")
    with pytest.raises(SimulationError):
        RecoveryConfig(hb_interval_us=0.0)
    with pytest.raises(SimulationError):
        RecoveryConfig(detect_timeout_us=-1.0)


def test_recovery_rejected_on_direct_topology():
    with pytest.raises(SimulationError, match="recovery"):
        Fabric(DS5000_200, 2, topology="direct",
               recovery=RecoveryConfig(mode="detect"))


# -- masked ECMP --------------------------------------------------------------

def test_masked_ecmp_avoids_dead_edge():
    topo = _clos_topo()
    # leaf0 (0) reaches leaf1 (1) via spine0 (2) or spine1 (3); with
    # the 0->2 edge dead every flow must route through spine1.
    tables = build_ecmp_tables(topo, dead_edges=((0, 2),))
    for vci in range(4096, 4160):
        path = tables.path(0, 1, vci, 1)
        assert (0, 2) not in zip(path, path[1:])
        assert path == (0, 3, 1)


def test_masked_ecmp_raises_when_no_path_survives():
    topo = _clos_topo()
    tables = build_ecmp_tables(topo, dead_edges=((0, 2), (0, 3)))
    with pytest.raises(SimulationError, match="no route"):
        tables.path(0, 1, 4096, 1)


# -- detection ----------------------------------------------------------------

def test_detect_mode_records_failure_without_rerouting():
    fabric = _fabric(recovery=RecoveryConfig(mode="detect"))
    stats = _run(fabric).recovery
    assert stats["mode"] == "detect"
    assert stats["counters"]["elements_failed"] == 1
    assert stats["counters"]["flows_rerouted"] == 0
    (el,) = stats["elements"]
    assert el["name"] == "leaf0.t2.l1"
    assert el["kind"] == "port"
    assert el["failed_at_us"] == 1000.0
    # Declared only after the element stayed down a full timeout, and
    # within one extra heartbeat of the earliest possible instant.
    cfg = RecoveryConfig(mode="detect")
    lo = el["failed_at_us"] + cfg.detect_timeout_us
    hi = lo + 2 * cfg.hb_interval_us
    assert lo <= el["detected_at_us"] <= hi
    assert stats["probes_sent"] > 0
    assert stats["recovery_time_us"] is None


def test_detection_is_seed_deterministic():
    reports = []
    for _ in range(2):
        fabric = _fabric(recovery=RecoveryConfig(mode="detect"))
        reports.append(_run(fabric).recovery)
    assert reports[0] == reports[1]


def test_no_recovery_block_without_recovery():
    fabric = _fabric(recovery=None)
    report = _run(fabric)
    assert report.recovery is None


# -- reroute ------------------------------------------------------------------

def test_reroute_restores_delivery_after_port_kill():
    """The acceptance bar: >= 90% of offered messages delivered with
    reroute on, strictly more than the same run without recovery."""
    ablation = {}
    for label, recovery in (("off", None),
                            ("reroute", RecoveryConfig(mode="reroute"))):
        fabric = _fabric(recovery=recovery)
        report = _run(fabric)
        wl = report.workload
        ablation[label] = (wl["messages_received"], wl["messages_sent"])
        assert report.conservation["holds"]
    got, sent = ablation["reroute"]
    assert sent == 72
    assert got / sent >= 0.9
    assert got > ablation["off"][0]


def test_reroute_reports_convergence_times():
    fabric = _fabric(recovery=RecoveryConfig(mode="reroute"))
    stats = _run(fabric).recovery
    assert stats["counters"]["flows_rerouted"] >= 1
    assert stats["counters"]["flows_unrecovered"] == 0
    times = stats["recovery_time_us"]
    assert times is not None and times["n"] >= 1
    assert 0.0 < times["p50"] <= times["p99"] <= times["max"]
    outage = stats["outage_time_us"]
    assert outage["p50"] > times["p50"]   # includes detection latency
    # Rerouted flows carry fresh wire VCIs and a masked-table path.
    for flow in stats["flows"]:
        if flow["status"] != "rerouted":
            continue
        assert flow["wire_vci"] != flow["vci"]
        assert flow["activated_at_us"] >= flow["detected_at_us"]
    # The sender-side sequence numbering migrated with each retarget.
    migrations = sum(h.txp.seq_migrations
                     for h in fabric.hosts if h is not None)
    assert migrations >= 1


def test_dead_downlink_degrades_gracefully():
    """Killing a host's downlink leaves no alternate path: affected
    flows exhaust their retries, are counted no_path, and the run
    still quiesces."""
    fabric = _fabric(recovery=RecoveryConfig(mode="reroute"),
                     faults="port=leaf1:0:1@1000")   # host 2's downlink
    report = _run(fabric)
    assert report.conservation["holds"]
    stats = report.recovery
    assert stats["counters"]["flows_unrecovered"] >= 1
    for flow in stats["flows"]:
        if flow["status"] == "no_path":
            assert flow["dst"] == 2
            assert flow["attempts"] == stats["max_retries"]


# -- shard determinism --------------------------------------------------------

def test_recovery_report_is_shard_identical():
    from repro.cluster.sharded import run_cluster_sharded
    plan = FaultPlan.parse("port=leaf0:2:1@1000", topology=_clos_topo())
    fabric_kwargs = dict(machines=DS5000_200, n_hosts=4,
                         segment_mode=SegmentMode.SEQUENCE,
                         faults=plan,
                         recovery=RecoveryConfig(mode="reroute"), **CLOS)
    plain = Fabric(**fabric_kwargs)
    result = run_workload(plain, _spec(), max_events=50_000_000)
    base = collect(plain, result).to_json()
    report, _run_info = run_cluster_sharded(
        fabric_kwargs, _spec(), 2, backend="inline")
    assert report.to_json() == base


# -- chaos harness ------------------------------------------------------------

def test_chaos_scenarios_include_recovery_and_site_counters():
    from repro.faults.chaos import build_scenarios
    scenarios = {s["name"]: s for s in build_scenarios(seed=1)}
    scen = scenarios["port-kill-reroute"]
    assert scen["expect_recovery"]
    assert scen["config"].recovery == "reroute"


def test_chaos_main_exits_nonzero_on_failure(monkeypatch, capsys):
    from repro.faults import chaos

    def fake_matrix(**_kw):
        return [{"name": "boom", "ok": False,
                 "failures": ["invariant violated"],
                 "shard_counts": [1],
                 "conservation": {"injected": 1, "delivered": 0,
                                  "corrupted": 0, "dropped": 0,
                                  "lost_to_faults": 0, "holds": False},
                 "faults": None, "fault_sites": {}, "recovery": None}]

    monkeypatch.setattr(chaos, "run_matrix", fake_matrix)
    assert chaos.main([]) == 1
    assert "invariant violated" in capsys.readouterr().out
    monkeypatch.setattr(
        chaos, "run_matrix",
        lambda **_kw: [{"name": "fine", "ok": True, "failures": [],
                        "shard_counts": [1],
                        "conservation": {"injected": 1, "delivered": 1,
                                         "corrupted": 0, "dropped": 0,
                                         "lost_to_faults": 0,
                                         "holds": True},
                        "faults": None, "fault_sites": {},
                        "recovery": None}])
    assert chaos.main([]) == 0
