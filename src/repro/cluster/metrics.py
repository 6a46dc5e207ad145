"""Cluster-wide metrics: one report for an N-host fabric run.

:func:`merge_partials`, the one function that builds reports, folds
fabric snapshots -- one per shard, or a plain run's one -- into a single
:class:`ClusterReport`: every per-host ``net.stats`` snapshot, every
switch's per-port occupancy counters, and the **cell-conservation
law** (:func:`conservation`, its one statement): every cell handed to
the fabric is, at the instant of the snapshot, exactly one of
delivered to a host board, still queued/in flight inside the fabric,
or dropped.  The terms come from independent counters (links, switch
ports, delivery wrappers), so the identity actually cross-checks the
models rather than restating one number three ways.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from ..recovery import combine_partials, summarize_recovery

if TYPE_CHECKING:
    from .fabric import Fabric
    from .workloads import WorkloadResult


@dataclass
class ClusterReport:
    """Everything a cluster run produced, in one structure."""

    topology: str
    n_hosts: int
    n_switches: int
    sim_time_us: float
    conservation: dict
    drops: dict = field(default_factory=dict)
    hosts: list = field(default_factory=list)
    switches: list = field(default_factory=list)
    workload: Optional[dict] = None
    backpressure: Optional[dict] = None
    faults: Optional[dict] = None
    recovery: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        # Deferred: repro.bench pulls in repro.net, which subclasses
        # our Fabric -- importing it at module scope would be circular.
        from ..bench.report import to_json
        return to_json(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable summary of the run."""
        lines = [
            f"Cluster: {self.n_hosts} hosts, {self.n_switches} "
            f"switch(es), {self.topology}, "
            f"t={self.sim_time_us:.1f} us",
        ]
        conservation = self.conservation
        fault_terms = ""
        if conservation.get("corrupted") or \
                conservation.get("lost_to_faults"):
            fault_terms = (
                f"corrupted {conservation['corrupted']}  "
                f"lost-to-faults {conservation['lost_to_faults']}  ")
        lines.append(
            "  cells: injected {injected}  delivered {delivered}  "
            "queued {queued}  dropped {dropped}  {faults}-> "
            "conservation {verdict}".format(
                verdict="holds" if conservation["holds"] else "VIOLATED",
                faults=fault_terms,
                **{k: conservation[k] for k in
                   ("injected", "delivered", "queued", "dropped")}))
        if self.faults:
            fl = self.faults
            dead = sum(1 for s in fl["sites"].values() if s["dead"])
            lines.append(
                f"  faults: {fl['lost_to_faults']} cells lost, "
                f"{fl['corrupted_delivered']} delivered corrupted, "
                f"{fl['credit_cells_lost']} credit cells lost, "
                f"{dead} dead lane(s)")
        if self.recovery:
            rc = self.recovery
            counters = rc["counters"]
            line = (f"  recovery: mode {rc['mode']}, "
                    f"{counters['elements_failed']} element(s) declared "
                    f"dead, {counters['flows_rerouted']} flow(s) "
                    f"rerouted, {counters['flows_unrecovered']} "
                    f"unrecovered")
            times = rc["recovery_time_us"]
            if times:
                line += (f"; recovery time p50 {times['p50']:.1f} us, "
                         f"p99 {times['p99']:.1f} us")
            lines.append(line)
        if self.drops and (self.drops.get("no_route")
                           or self.drops.get("queue_full")):
            lines.append(
                f"  drops: no-route {self.drops['no_route']}  "
                f"queue-full {self.drops['queue_full']}")
        for sw in self.switches:
            deepest = max((p["max_queue_seen"] for p in sw["ports"]),
                          default=0)
            lines.append(
                f"  {sw['name']}: {sw['cells_switched']} switched, "
                f"{sw['cells_dropped']} dropped, "
                f"max port queue {deepest}")
        if self.backpressure:
            bp = self.backpressure
            stalls = sum(h["stalls"] for h in bp["hosts"])
            stall_us = sum(h["stall_time_us"] for h in bp["hosts"])
            lines.append(
                f"  backpressure: {bp['mode']}, {stalls} stalls, "
                f"{stall_us:.1f} us stalled")
        for host in self.hosts:
            lines.append(
                f"  {host['name']:<4} pdus tx/rx "
                f"{host['pdus_sent']:>5}/{host['pdus_received']:<5} "
                f"cells tx/rx {host['cells_sent']:>6}/"
                f"{host['cells_received']:<6} "
                f"irqs {host['interrupts_serviced']}")
        if self.workload:
            wl = self.workload
            lines.append(
                f"  workload: {wl['kind']}/{wl['pattern']}, "
                f"{wl['clients']} clients, "
                f"{wl['messages_received']}/{wl['messages_sent']} "
                f"messages, {wl['goodput_mbps']:.1f} Mbps goodput")
            if "latency_us" in wl:
                lat = wl["latency_us"]
                lines.append(
                    f"  latency us: min {lat['min']:.1f}  median "
                    f"{lat['median']:.1f}  p99 {lat['p99']:.1f}  "
                    f"max {lat['max']:.1f}")
        return "\n".join(lines)


def conservation(counters: list) -> dict:
    """The cell-conservation law, extended for faults, over the raw
    counters of one fabric or of every shard of one
    (:meth:`~repro.cluster.fabric.Fabric.counters`)::

        injected == delivered + corrupted + queued + dropped
                    + lost_to_faults

    ``queued`` counts cells on a link or an inter-switch hop (or in a
    shard mailbox) and in switch ports, so it is zero at quiescence.
    """
    def total(key: str) -> int:
        return sum(c[key] for c in counters)

    sent, uplink_lost = total("uplink_cells_sent"), total("uplink_fault_lost")
    law = {
        "injected": sent + total("cross_injected"),
        "delivered": total("delivered"),
        "corrupted": total("corrupted"),
        "queued": (sent - total("uplink_arrived") - uplink_lost
                   + total("isw_in_flight") + total("switch_queued")),
        "dropped": total("dropped"),
        "lost_to_faults": uplink_lost + total("switch_fault_lost"),
    }
    law["holds"] = law["injected"] == (
        law["delivered"] + law["corrupted"] + law["queued"]
        + law["dropped"] + law["lost_to_faults"])
    return law


def merge_partials(snapshots: list, t_end: float,
                   workload: Optional[WorkloadResult] = None
                   ) -> ClusterReport:
    """Fold fabric snapshots (:meth:`~repro.cluster.fabric.Fabric.
    snapshot`) -- every shard's in shard order, or a plain fabric's
    one -- into one :class:`ClusterReport`.  All configuration is read
    from the snapshots, so the merge cannot disagree with the fabric
    about a default."""
    first = snapshots[0]
    switches = []
    for replicas in zip(*(snap["switches"] for snap in snapshots),
                        strict=True):
        merged = {"name": replicas[0]["name"]}
        for key in ("cells_switched", "cells_dropped", "dropped_no_route",
                    "dropped_queue_full", "cross_cells_injected",
                    "cells_lost_to_faults", "cells_queued"):
            merged[key] = sum(r[key] for r in replicas)
        merged["ports"] = sorted((p for r in replicas for p in r["ports"]),
                                 key=lambda p: (p["trunk_id"], p["lane"]))
        switches.append(merged)
    law = conservation([snap["counters"] for snap in snapshots])
    hosts, gates, sites = {}, {}, {}
    for snap in snapshots:
        hosts.update(snap["hosts"])
        gates.update(snap["gates"])
        sites.update(snap["fault_sites"])
    n_hosts = len(hosts)

    backpressure = faults = recovery = None
    if first["backpressure"] is not None:
        backpressure = {**first["backpressure"],
                        "hosts": [gates[i] for i in range(n_hosts)]}
    if first["fault_plan"] is not None:
        faults = {
            "plan": first["fault_plan"],
            "lost_to_faults": law["lost_to_faults"],
            "corrupted_delivered": law["corrupted"],
            "credit_cells_lost": sum(snap["credit_cells_lost"]
                                     for snap in snapshots),
            "sites": dict(sorted(sites.items())),
        }
    if first["recovery"] is not None:
        recovery = summarize_recovery(
            first["recovery"][0],
            combine_partials([snap["recovery"][1] for snap in snapshots]))

    return ClusterReport(
        topology=first["topology"],
        n_hosts=n_hosts,
        n_switches=len(switches),
        sim_time_us=t_end,
        conservation=law,
        drops={
            "no_route": sum(sw["dropped_no_route"] for sw in switches),
            "queue_full": sum(sw["dropped_queue_full"]
                              for sw in switches),
        },
        hosts=[hosts[i] for i in range(n_hosts)],
        switches=switches,
        workload=workload.summary() if workload is not None else None,
        backpressure=backpressure,
        faults=faults,
        recovery=recovery,
    )


def collect(fabric: Fabric,
            workload: Optional[WorkloadResult] = None) -> ClusterReport:
    """Snapshot a fabric (and optional workload outcome) into a
    :class:`ClusterReport`: the merge of its one snapshot."""
    return merge_partials([fabric.snapshot()], fabric.sim.now, workload)


__all__ = ["ClusterReport", "collect", "conservation", "merge_partials"]
