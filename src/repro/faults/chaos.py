"""Chaos harness: workload x fault-plan matrices with invariants.

Runs each scenario on a plain fabric and on sharded fabrics, then
checks three things no single test pins down together:

1. the **extended conservation law** holds and the fabric quiesces
   (``queued == 0``), so at the end of every run
   ``injected == delivered + corrupted + dropped + lost_to_faults``;
2. every open-loop sender finished (no stalled-forever flows -- with
   credit backpressure this is exactly what credit regeneration has to
   guarantee under loss);
3. the report is **byte-identical across shard counts**, fault
   decisions included.

Usage::

    python -m repro chaos --quick
    python -m repro.faults.chaos --seed 7 --shards 1,2,3
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..hw.specs import DS5000_200
from ..sim.parallel import BACKENDS
from .plan import FaultPlan


def build_scenarios(seed: int = 1, quick: bool = True) -> list[dict]:
    """The seeded fault matrix.  Every scenario is an open-loop
    workload (completion is then a meaningful invariant) over a
    4-host fabric, with ``fabric_kwargs`` picklable for the sharded
    proc backend."""
    from ..atm.aal5 import SegmentMode
    from ..cluster import WorkloadSpec
    from ..recovery import RecoveryConfig
    from ..topology import build_spec

    messages = 3 if quick else 8
    size = 2048 if quick else 8192

    def kwargs(**extra) -> dict:
        base = {"machines": DS5000_200, "n_hosts": 4, "n_switches": 1,
                "segment_mode": SegmentMode.SEQUENCE}
        base.update(extra)
        return base

    def spec(pattern: str) -> "WorkloadSpec":
        return WorkloadSpec(pattern=pattern, kind="open", seed=seed,
                            message_bytes=size,
                            messages_per_client=messages)

    scenarios = [
        {
            "name": "loss-corrupt",
            "fabric_kwargs": kwargs(faults=FaultPlan.parse(
                "loss=0.01,corrupt=0.002", seed=seed)),
            "spec": spec("pairs"),
        },
        {
            "name": "flap-kill-port",
            "fabric_kwargs": kwargs(n_switches=2, faults=FaultPlan.parse(
                "flap=1:2@300+150,kill=0:3@500,port=0:0:1@400",
                seed=seed)),
            "spec": spec("all2all"),
        },
        {
            "name": "credit-regen",
            "fabric_kwargs": kwargs(
                backpressure="credit",
                credit_regen_timeout_us=600.0,
                faults=FaultPlan.parse("loss=0.01,credit-loss=0.05",
                                       seed=seed)),
            "spec": spec("incast"),
            "expect_no_queue_full": True,
        },
    ]
    # Self-healing: kill one lane of leaf0's uplink to spine0 after
    # traffic is flowing; recovery must detect the dead port, reroute
    # the affected flows through spine1, and deliver >= 90% of the
    # offered messages -- without it the striped trunk silently eats a
    # quarter of every affected flow forever.
    clos = build_spec("clos", 4, pods=2, oversubscription=1.0)
    scenarios.append({
        "name": "port-kill-reroute",
        "fabric_kwargs": kwargs(
            topology="clos", pods=2, oversubscription=1.0,
            faults=FaultPlan.parse("port=leaf0:2:1@1000", seed=seed,
                                   topology=clos),
            recovery=RecoveryConfig(mode="reroute")),
        "spec": WorkloadSpec(pattern="all2all", kind="open", seed=seed,
                             message_bytes=2048, rate_mbps=20.0,
                             arrival="poisson",
                             messages_per_client=6 if quick else 10),
        "expect_recovery": True,
    })
    if not quick:
        scenarios.append({
            "name": "efci-loss",
            "fabric_kwargs": kwargs(
                backpressure="efci",
                faults=FaultPlan.parse("loss=0.02", seed=seed)),
            "spec": spec("incast"),
        })
    return scenarios


def run_scenario(scenario: dict, shard_counts: tuple[int, ...] = (1, 2),
                 backend: str = "inline", sanitize: bool = False) -> dict:
    """Run one scenario at every shard count and check the invariants.
    Returns a result dict with ``ok`` and a list of ``failures``."""
    from ..cluster import Fabric, collect, run_workload
    from ..cluster.sharded import run_cluster_sharded

    if sanitize:
        from ..analysis import sanitize as _sanitize
        _sanitize.enable()

    failures: list[str] = []
    reports = {}
    for k in shard_counts:
        if k == 1:
            fabric = Fabric(**scenario["fabric_kwargs"])
            # Invariants 1 and 2 below only mean anything on a run
            # that actually quiesced; the budget turns a stalled
            # fabric into an error instead of a bogus "ok".
            result = run_workload(fabric, scenario["spec"],
                                  max_events=50_000_000)
            reports[k] = collect(fabric, result)
        else:
            reports[k], _run = run_cluster_sharded(
                scenario["fabric_kwargs"], scenario["spec"], k,
                backend=backend, sanitize=sanitize)

    base = shard_counts[0]
    base_json = reports[base].to_json()
    for k in shard_counts[1:]:
        if reports[k].to_json() != base_json:
            failures.append(
                f"--shards {k} report differs from --shards {base}")

    report = reports[base]
    cons = report.conservation
    if not cons["holds"]:
        failures.append(f"conservation violated: {cons}")
    if cons["queued"] != 0:
        failures.append(
            f"{cons['queued']} cells still queued at quiescence")
    workload = report.workload
    expected = (workload["clients"]
                * scenario["spec"].messages_per_client)
    if workload["messages_sent"] != expected:
        failures.append(
            f"only {workload['messages_sent']}/{expected} messages "
            f"sent -- a flow stalled forever")
    if scenario.get("expect_no_queue_full") \
            and report.drops.get("queue_full"):
        failures.append(
            f"{report.drops['queue_full']} queue-full drops under "
            f"credit backpressure")
    if scenario.get("expect_recovery"):
        recovery = report.recovery
        if not recovery:
            failures.append("no recovery block in the report")
        else:
            if recovery["counters"]["flows_rerouted"] < 1:
                failures.append("no flow was rerouted after the kill")
            if recovery["recovery_time_us"] is None:
                failures.append(
                    "no rerouted flow converged (no post-failover "
                    "delivery observed)")
        ratio = (workload["messages_received"]
                 / max(1, workload["messages_sent"]))
        if ratio < 0.9:
            failures.append(
                f"only {workload['messages_received']}/"
                f"{workload['messages_sent']} messages delivered "
                f"post-failover (need >= 90%)")
    # Per-site fault accounting for the JSON report: what each
    # injection point actually did to the traffic that crossed it.
    fault_sites = {
        name: {"injected": site["cells_seen"],
               "lost": site["cells_lost"],
               "corrupted": site["cells_corrupted"]}
        for name, site in sorted(
            (report.faults or {}).get("sites", {}).items())
    }
    return {
        "name": scenario["name"],
        "ok": not failures,
        "failures": failures,
        "shard_counts": list(shard_counts),
        "conservation": cons,
        "faults": report.faults,
        "fault_sites": fault_sites,
        "recovery": report.recovery,
    }


def run_matrix(seed: int = 1, quick: bool = True,
               shard_counts: tuple[int, ...] = (1, 2),
               backend: str = "inline",
               sanitize: bool = False) -> list[dict]:
    return [run_scenario(s, shard_counts=shard_counts, backend=backend,
                         sanitize=sanitize)
            for s in build_scenarios(seed=seed, quick=quick)]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="seeded fault-injection matrix with conservation "
                    "and shard-determinism checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="smaller messages, fewer scenarios")
    parser.add_argument("--shards", default="1,2",
                        help="comma-separated shard counts to compare")
    parser.add_argument("--backend", default="inline", choices=BACKENDS)
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the runtime sanitizers (SRSW, "
                             "monotone time, per-window conservation)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    shard_counts = tuple(int(k) for k in args.shards.split(","))
    results = run_matrix(seed=args.seed, quick=args.quick,
                         shard_counts=shard_counts,
                         backend=args.backend, sanitize=args.sanitize)
    if args.json:
        from ..bench.report import to_json
        print(to_json({"seed": args.seed, "scenarios": results}))
    else:
        for res in results:
            cons = res["conservation"]
            print(f"{res['name']:<16} "
                  f"{'ok' if res['ok'] else 'FAILED':<7} "
                  f"injected {cons['injected']}  delivered "
                  f"{cons['delivered']}  corrupted {cons['corrupted']}  "
                  f"dropped {cons['dropped']}  lost "
                  f"{cons['lost_to_faults']}")
            for failure in res["failures"]:
                print(f"  !! {failure}")
    return 0 if all(res["ok"] for res in results) else 1


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["build_scenarios", "run_scenario", "run_matrix", "main"]
