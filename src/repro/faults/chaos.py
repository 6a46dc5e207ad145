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

Each scenario is a :class:`~repro.cluster.config.ClusterConfig`, run
through the same :meth:`~repro.cluster.config.ClusterConfig.run` as
``repro cluster``, so ``--seed`` seeds the fault plan, the workload
and ECMP routing alike, and a failing scenario prints the ``python -m
repro cluster`` command that reruns it.

Usage::

    python -m repro chaos --quick
    python -m repro.faults.chaos --seed 7 --shards 1,2,3
"""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import replace
from typing import Optional

from ..cluster.config import ClusterConfig


def build_scenarios(seed: int = 1, quick: bool = True) -> list[dict]:
    """The seeded fault matrix.  Every scenario is an open-loop
    workload (completion is then a meaningful invariant) over a
    4-host fabric, stated as the :class:`ClusterConfig` of one
    ``repro cluster`` run."""
    base = ClusterConfig(hosts=4, seed=seed, messages=3 if quick else 8,
                         size=2048 if quick else 8192)
    scenarios = [
        {"name": "loss-corrupt",
         "config": replace(base, pattern="pairs",
                           faults="loss=0.01,corrupt=0.002")},
        {"name": "flap-kill-port",
         "config": replace(base, pattern="all2all", switches=2,
                           faults="flap=1:2@300+150,kill=0:3@500,"
                                  "port=0:0:1@400")},
        {"name": "credit-regen", "expect_no_queue_full": True,
         "config": replace(base, backpressure="credit",
                           regen_timeout=600.0,
                           faults="loss=0.01,credit-loss=0.05")},
        # Self-healing: kill one lane of leaf0's uplink to spine0
        # after traffic is flowing; recovery must detect the dead
        # port, reroute the affected flows through spine1, and deliver
        # >= 90% of the offered messages -- without it the striped
        # trunk silently eats a quarter of every affected flow forever.
        {"name": "port-kill-reroute", "expect_recovery": True,
         "config": replace(base, pattern="all2all", topology="clos",
                           pods=2, oversub=1.0, size=2048, rate=20.0,
                           poisson=True, messages=6 if quick else 10,
                           faults="port=leaf0:2:1@1000",
                           recovery="reroute")},
    ]
    if not quick:
        scenarios.append({"name": "efci-loss", "config": replace(
            base, backpressure="efci", faults="loss=0.02")})
    return scenarios


def run_scenario(scenario: dict, shard_counts: tuple[int, ...] = (1, 2),
                 sanitize: bool = False) -> dict:
    """Run one scenario at every shard count and check the invariants.
    Returns a result dict with ``ok`` and a list of ``failures``; a
    failing scenario's list ends with the command that reproduces its
    first run."""
    configs = [replace(scenario["config"], shards=k, sanitize=sanitize)
               for k in shard_counts]
    # Invariants 1 and 2 below only mean anything on a run that
    # actually quiesced; the budget turns a stalled plain run into an
    # error instead of a bogus "ok".
    reports = [config.run(max_events=50_000_000) for config in configs]
    failures: list[str] = []

    report = reports[0]
    base_json = report.to_json()
    for k, other in zip(shard_counts[1:], reports[1:]):
        if other.to_json() != base_json:
            failures.append(f"--shards {k} report differs from "
                            f"--shards {shard_counts[0]}")

    cons = report.conservation
    if not cons["holds"]:
        failures.append(f"conservation violated: {cons}")
    if cons["queued"] != 0:
        failures.append(
            f"{cons['queued']} cells still queued at quiescence")
    workload = report.workload
    expected = workload["clients"] * scenario["config"].messages
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
    if failures:
        failures.append("reproduce: python -m repro cluster "
                        + shlex.join(configs[0].to_argv()))
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
               sanitize: bool = False) -> list[dict]:
    return [run_scenario(s, shard_counts=shard_counts, sanitize=sanitize)
            for s in build_scenarios(seed=seed, quick=quick)]


def _shard_counts(text: str) -> tuple[int, ...]:
    """``--shards``: comma-separated shard counts, each at least 1."""
    counts = []
    for token in text.split(","):
        try:
            count = int(token)
        except ValueError:
            count = 0
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"shard count {token!r} is not an integer >= 1")
        counts.append(count)
    return tuple(counts)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="seeded fault-injection matrix with conservation "
                    "and shard-determinism checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="smaller messages, fewer scenarios")
    parser.add_argument("--shards", type=_shard_counts, default="1,2",
                        help="comma-separated shard counts to compare")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the runtime sanitizers (SRSW, "
                             "monotone time, per-window conservation)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    results = run_matrix(seed=args.seed, quick=args.quick,
                         shard_counts=args.shards, sanitize=args.sanitize)
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
