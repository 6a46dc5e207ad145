"""Sharded cluster runs: the fabric partitioned across K simulators.

A :class:`ShardFabric` is a :class:`~repro.cluster.fabric.Fabric` that
instantiates only the hosts its shard owns (plus the switch output
trunks that serve them) while walking the *same* construction
sequence as every other shard -- VCI allocation, trunk numbering, and
route tables stay fabric-global, so any shard can look up where a
cell is headed.  Ownership comes from
:func:`repro.topology.partition_hosts`: a greedy min-cut over the
topology spec keeps co-located hosts (same leaf, same torus node) on
one shard, and each switch follows the majority of its hosts --
every shard recomputes the identical assignment from ``(spec, K)``,
no coordination needed.  Every switch has one replica per shard: the
replica owns real ports only for its shard's trunks and knows the
rest as remote trunks.

Cross-shard interactions already travel the base fabric's *boundary
channels* (uplink arrival, inter-switch hop, credit return, EFCI
relay), each with ``prop_delay_us`` of latency and a content-based
ordering key.  Here those emissions are routed into per-shard
mailboxes and exchanged by the conservative window engine of
:mod:`repro.sim.parallel`; the propagation delay is the lookahead.
Because the ordering keys decide every cross-shard event's queue
position identically in both modes, a sharded run is **bit-identical**
to the single-process run -- the determinism tests compare report
JSON byte for byte.

Conservation counters are only globally meaningful at a window
horizon (a barrier): mid-window, a cell can sit in a mailbox, counted
as emitted by one shard but not yet absorbed by another.  Each shard
therefore snapshots its fabric at global quiescence, where every
mailbox has drained -- the "quiescent at horizon" guarantee -- and
:func:`repro.cluster.metrics.merge_partials`, the same merge a plain
run's report comes from, folds the snapshots into one report.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from ..sim import SimulationError
from ..sim.parallel import ParallelRunResult, run_shards
from ..topology import partition_hosts, partition_switches
from .fabric import DEFAULT_PROP_DELAY_US, DEFAULT_TOPOLOGY, Fabric
from .metrics import ClusterReport, merge_partials
from .workloads import (
    ClientResult, WorkloadResult, WorkloadSpec,
    compute_open_loop_latencies, setup_workload,
)


class ShardFabric(Fabric):
    """One shard's slice of a fabric (topology-partitioned hosts)."""

    def __init__(self, shard_index: int, n_shards: int,
                 hb_trace: bool = False, **fabric_kwargs):
        if not (0 <= shard_index < n_shards):
            raise SimulationError(
                f"shard index {shard_index} outside 0..{n_shards - 1}")
        # Validate before Fabric wires anything: the direct topology
        # would trip over the missing hosts mid-construction.
        if fabric_kwargs.get("topology", DEFAULT_TOPOLOGY) == "direct":
            raise SimulationError(
                "sharding needs a switched topology; the direct "
                "two-host wiring has no trunk boundary to cut at")
        if fabric_kwargs.get("prop_delay_us",
                             DEFAULT_PROP_DELAY_US) <= 0.0:
            raise SimulationError(
                "sharding needs prop_delay_us > 0: the propagation "
                "delay is the conservative lookahead")
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._outbox: list = []
        self._may_emit_cache: Optional[bool] = None
        # Happens-before event log (repro check --replay): every
        # cross-shard send and delivery, observation only -- recording
        # never perturbs the simulation.
        self.hb_trace: Optional[list] = [] if hb_trace else None
        super().__init__(**fabric_kwargs)

    # -- ownership ---------------------------------------------------------------

    def _init_ownership(self) -> None:
        # Pure functions of (spec, K): every shard and the merger
        # derive the identical partition without coordination.
        self._host_shard = partition_hosts(self.topo, self.n_shards)
        self._switch_shard = partition_switches(
            self.topo, self._host_shard, self.n_shards)

    def owns_host(self, index: int) -> bool:
        return self._host_shard[index] == self.shard_index

    def _owns_interswitch(self, s: int, t: int) -> bool:
        # The receiving switch's shard owns the trunk's ports, so the
        # drain-side delay and the delivery land in one simulator.
        return self._switch_shard[t] == self.shard_index

    def _make_host(self, index, spec, name, host_kw):
        if not self.owns_host(index):
            return None
        return super()._make_host(index, spec, name, host_kw)

    # -- boundary routing ---------------------------------------------------------

    def _train_local(self, switch_index: int, host_index: int,
                     cell) -> bool:
        # Trains never cross a shard boundary: a mailboxed train could
        # not accept appends (the peer unpickles a snapshot of it).
        # Cells bound for another shard take per-cell boundary
        # messages, exactly as without trains.
        return self._dest_shard(("in", switch_index, host_index,
                                 cell)) == self.shard_index

    def _dest_shard(self, msg: tuple) -> int:
        kind = msg[0]
        if kind == "in":
            _, switch_index, _host_index, cell = msg
            route = self.switches[switch_index].route_for(cell.vci)
            if route is None:
                # Unroutable: count the drop on this shard's replica;
                # the per-switch totals still sum correctly.
                return self.shard_index
            trunk_id, _ = route
            kind, idx = self._trunk_dest[(switch_index, trunk_id)]
            if kind == "host":
                return self._host_shard[idx]
            return self._switch_shard[idx]
        # refill/pause land at the source host's gate.
        return self._host_shard[msg[1]]

    def _emit_boundary(self, when: float, key: tuple,
                       msg: tuple) -> None:
        dest = self._dest_shard(msg)
        if dest == self.shard_index:
            super()._emit_boundary(when, key, msg)
        else:
            if not self.may_emit_boundary():
                # The window engine may already have let a peer run
                # past this message's timestamp on the strength of the
                # capability analysis -- a silent send here would be
                # causality violation, not a recoverable hiccup.
                raise SimulationError(
                    f"shard {self.shard_index} emitted a boundary "
                    f"message {msg[0]!r} for shard {dest} although "
                    "its flow table says it never can; the window "
                    "coalescing analysis missed an emission path")
            self._outbox.append((dest, when, key, msg))
            if self.hb_trace is not None:
                self.hb_trace.append({
                    "type": "send", "shard": self.shard_index,
                    "dest": dest, "emit": self.sim.now, "when": when,
                    "key": list(key), "kind": msg[0]})

    # -- emission capability (window coalescing) ----------------------------------

    def open_flow(self, src: int, dst: int,
                  src_vci: Optional[int] = None,
                  dst_vci: Optional[int] = None):
        self._may_emit_cache = None     # routes changed; re-derive
        return super().open_flow(src, dst, src_vci=src_vci,
                                 dst_vci=dst_vci)

    def may_emit_boundary(self) -> bool:
        """Can any future event on this shard emit a cross-shard
        boundary message?

        A pure function of the flow table: every boundary emission --
        uplink arrival, inter-switch hop, credit return, EFCI relay --
        originates from a cell traveling an installed route or from
        the control plumbing attached to one.  Cross traffic cannot
        cross shards (filler VCIs have no route, so the drop lands on
        the local replica) and cell trains never leave a shard by
        construction.  The window engine trusts this bit to widen its
        horizons, so :meth:`_emit_boundary` re-checks it on every
        actual cross-shard send.
        """
        if self._may_emit_cache is None:
            self._may_emit_cache = self._compute_may_emit()
        return self._may_emit_cache

    def _broadcast_recovery(self, when: float, chan: tuple,
                            msg: tuple) -> None:
        """A declaration fans out to every shard: applied locally and
        mailed to each peer under the same channel key, so all shards
        run the replicated reroute computation at the same simulated
        time and the VCI allocator stays in lock-step."""
        key = self._chan_key(*chan)
        self.sim.call_at(when, self._applier(msg), key=key)
        if self.n_shards > 1:
            if not self.may_emit_boundary():
                raise SimulationError(
                    f"shard {self.shard_index} declared {msg[0]!r} "
                    f"although its emission capability says it never "
                    "can; the coalescing analysis missed the recovery "
                    "control plane")
            for dest in range(self.n_shards):
                if dest != self.shard_index:
                    self._outbox.append((dest, when, key, msg))
                    if self.hb_trace is not None:
                        self.hb_trace.append({
                            "type": "send",
                            "shard": self.shard_index, "dest": dest,
                            "emit": self.sim.now, "when": when,
                            "key": list(key), "kind": msg[0]})

    def _compute_may_emit(self) -> bool:
        me = self.shard_index
        # An armed recovery control plane can emit in ways the flow
        # walk below cannot see: declaration broadcasts go to every
        # peer, and a rerouted flow's cells cross different shard
        # pairs than its original path.  The trigger set (the fault
        # plan's kills) is global, so every shard flips to the
        # conservative answer together.
        if self.recovery is not None and self.faults is not None \
                and (self.faults.port_kills or self.faults.lane_kills):
            return True
        backpressured = self.backpressure != "none"
        for flow in self.flows:
            for src, dst, vci in ((flow.src, flow.dst, flow.src_vci),
                                  (flow.dst, flow.src, flow.dst_vci)):
                if backpressured and self._host_shard[dst] == me \
                        and self._host_shard[src] != me:
                    # Credit returns / EFCI relays fire where the cell
                    # is delivered and land at the source's gate.
                    return True
                # Walk the cell path shard to shard: each hop's switch
                # work runs on the shard owning the *receiving* ports,
                # so an emission happens wherever consecutive owners
                # differ and this shard is the emitter.  Transit hops
                # carry the input VCI unrewritten, so route_for(vci)
                # is valid at every switch on the path.
                owner = self._host_shard[src]
                switch = self._attach[src][0]
                for _hop in range(len(self.switches) + 1):
                    route = self.switches[switch].route_for(vci)
                    if route is None:
                        break           # unroutable: dropped locally
                    trunk_id, _out_vci = route
                    kind, idx = self._trunk_dest[(switch, trunk_id)]
                    nxt = (self._host_shard[idx] if kind == "host"
                           else self._switch_shard[idx])
                    if owner == me and nxt != me:
                        return True
                    if kind == "host":
                        break
                    owner, switch = nxt, idx
        return False

    def drain_outbox(self) -> list:
        out, self._outbox = self._outbox, []
        return out

    def deliver(self, batch: list) -> None:
        for when, key, msg in batch:
            self.sim.call_at(when, self._applier(msg), key=key)
            if self.hb_trace is not None:
                self.hb_trace.append({
                    "type": "recv", "shard": self.shard_index,
                    "at": self.sim.now, "when": when,
                    "key": list(key), "kind": msg[0]})

    def _applier(self, msg: tuple):
        return lambda: self._apply_boundary(msg)


class _ShardProgram:
    """What the window engine drives: one shard's fabric + clients.

    ``may_emit`` feeds the adaptive window coalescing.
    """

    def __init__(self, fabric: ShardFabric, clients: list,
                 finishers: list):
        self.fabric = fabric
        self.sim = fabric.sim
        self.clients = clients
        self.finishers = finishers

    def may_emit(self) -> bool:
        return self.fabric.may_emit_boundary()

    def deliver(self, batch: list) -> None:
        self.fabric.deliver(batch)

    def drain_outbox(self) -> list:
        return self.fabric.drain_outbox()

    def collect(self, t_end: float) -> dict:
        """The shard's contribution to the merged report.
        The engine has already advanced the clock to ``t_end``, so
        host snapshots read the fabric-wide end time."""
        for finish in self.finishers:
            finish()
        return {
            "shard": self.fabric.shard_index,
            "hb_trace": self.fabric.hb_trace,
            "fabric": self.fabric.snapshot(),
            "clients": [asdict(c) for c in self.clients],
        }

    def probe(self) -> dict:
        """Conservation counters for the window-boundary sanitizer.

        Cheap and read-only -- safe to take at any barrier
        (unlike :meth:`collect`, which finalizes clients).
        """
        return self.fabric.counters()


def _build_shard(index: int, n_shards: int, fabric_kwargs: dict,
                 spec: WorkloadSpec, trace: bool = False) -> _ShardProgram:
    fabric = ShardFabric(index, n_shards, hb_trace=trace,
                         **fabric_kwargs)
    clients, finishers = setup_workload(fabric, spec)
    return _ShardProgram(fabric, clients, finishers)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def _merge_clients(spec: WorkloadSpec, partials: list) -> list:
    """Reunite each flow's two halves from their owner shards.

    Ownership is read off each partial's host snapshot (a host appears
    only in its owner shard's partial), so the merger never has to
    recompute the topology partition.
    """
    n_clients = len(partials[0]["clients"])
    merged = []
    for index in range(n_clients):
        src_half = None
        dst_half = None
        for partial in partials:
            fields = partial["clients"][index]
            hosts = partial["fabric"]["hosts"]
            if fields["src"] in hosts:
                src_half = fields
            if fields["dst"] in hosts:
                dst_half = fields
        client = ClientResult(**src_half)
        if spec.kind == "open" and dst_half is not None:
            client.messages_received = dst_half["messages_received"]
            client.bytes_received = dst_half["bytes_received"]
            client.recv_times_us = dst_half["recv_times_us"]
            compute_open_loop_latencies(client)
        merged.append(client)
    return merged


def run_cluster_sharded(
        fabric_kwargs: dict, spec: WorkloadSpec, n_shards: int,
        backend: str = "inline", sanitize: bool = False,
        trace_path=None,
) -> tuple[ClusterReport, ParallelRunResult]:
    """Run one cluster workload split across ``n_shards`` simulators.

    ``fabric_kwargs`` are exactly the keyword arguments a plain
    :class:`Fabric` would take.  Returns the merged report plus the
    engine's run stats (windows, boundary traffic, total events) for
    benchmarking.  ``backend`` accepts only ``"inline"``: every shard
    runs in the calling process.  ``sanitize`` enables the runtime
    sanitizers and re-checks the conservation law at each window
    barrier.
    ``trace_path`` records every cross-shard boundary send and
    delivery into a happens-before trace document at that path, for
    ``repro check --replay`` (observation only; the report stays
    byte-identical).
    """
    if backend != "inline":
        raise SimulationError(
            f"unknown shard backend {backend!r}; shards run in-process "
            "('inline')")
    window_us = fabric_kwargs.get("prop_delay_us", DEFAULT_PROP_DELAY_US)
    factory = functools.partial(_build_shard, n_shards=n_shards,
                                fabric_kwargs=fabric_kwargs, spec=spec,
                                trace=trace_path is not None)
    window_probe = None
    if sanitize:
        from ..analysis import sanitize as _sanitize
        _sanitize.enable()
        window_probe = _sanitize.check_window_conservation
    run = run_shards(factory, n_shards, window_us,
                     window_probe=window_probe)
    partials = sorted(run.partials, key=lambda p: p["shard"])
    workload = WorkloadResult(spec=spec,
                              clients=_merge_clients(spec, partials),
                              elapsed_us=run.t_end)
    report = merge_partials([p["fabric"] for p in partials], run.t_end,
                            workload)
    if trace_path is not None:
        from ..analysis.causality import build_trace_doc
        doc = build_trace_doc(
            [p.get("hb_trace") for p in run.partials],
            n_shards, window_us)
        Path(trace_path).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return report, run


__all__ = ["ShardFabric", "run_cluster_sharded"]
