"""Deterministic failure detection and path failover.

The control plane the data path was missing: ``repro.faults`` can
kill a lane or a switch port, and until now every cell routed across
the corpse was black-holed forever even though the ECMP tables hold
perfectly good alternate paths.  The :class:`RecoveryManager` closes
the loop in three stages, each engineered to be a pure function of
``(fault plan, topology, seed)`` so a sharded run reproduces a plain
run byte for byte:

**Detection.**  Every element the fault plan can kill (switch-port
and uplink-lane kill sites) gets a heartbeat probe chain.  The probe
phase is ``hb_interval_us * fault_hash(seed, "hb", name)`` -- the
same content-addressed splitmix64 discipline ``repro.faults`` uses
for loss decisions -- so detection latency depends only on the
element's identity and the plan seed, never on enumeration order or
shard count.  An element found down on a probe starts a clock; once
it stays down ``detect_timeout_us`` it is *declared* and the chain
stops (probes never outlive a declaration, preserving quiescence).

**Broadcast.**  A declaration is one boundary message ``("dead",
...)`` fanned out to every shard one propagation delay after
``t_detect`` (the fabric's ``prop_delay_us``, the conservative window
lookahead).  Everything downstream -- masking,
re-resolution, retry timers, VC establishment -- is *replicated
deterministic computation*: every shard runs it identically at the
same simulated times, which keeps the global ``VciAllocator`` and
route tables in lock-step without further coordination.

**Reroute.**  Affected flows re-resolve through
``build_ecmp_tables(spec, dead_edges=...)`` with the dead trunk
masked out.  Because :meth:`CellSwitch.add_route` refuses duplicate
VCIs, a reroute never mutates an installed route: it allocates a
fresh wire VCI, installs the new path beside the old one, and
retargets the sender's driver session after a settling time of two
propagation delays (a signalling round trip) per path hop.
The TX sequence numbering migrates with the flow (the receiver's
reassembler keys state by the *delivered* VCI, which never changes),
so the outage looks like ordinary cell loss to the AAL5 layer.
Attempts use bounded deterministic exponential backoff; a flow with
no surviving path is counted ``no_path`` and left to degrade
gracefully -- open-loop senders still complete.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..faults.plan import fault_hash
from ..sim import SimulationError
from .config import RecoveryConfig

if TYPE_CHECKING:
    from ..cluster.fabric import Fabric

# Reroute attempt k retries after BACKOFF_US * 2**k; a flow still
# without a path after MAX_RETRIES attempts is counted no_path and
# left to degrade gracefully (counted, not wedged).
BACKOFF_US = 100.0
MAX_RETRIES = 4

# Element kinds in "dead" broadcast messages.
EKIND_PORT = 0      # (switch, trunk, lane)
EKIND_LANE = 1      # (host, lane, 0)


class _Element:
    """One monitored fabric element (owned by the declaring shard)."""

    __slots__ = ("ekind", "a", "b", "c", "name", "fail_at",
                 "down_since", "declared")

    def __init__(self, ekind: int, a: int, b: int, c: int, name: str,
                 fail_at: float):
        self.ekind = ekind
        self.a = a
        self.b = b
        self.c = c
        self.name = name
        self.fail_at = fail_at          # earliest scheduled kill
        self.down_since: Optional[float] = None
        self.declared = False


class _Direction:
    """One direction of a flow, tracked for failover.  Replicated
    identically on every shard; only TX/gate plumbing is guarded by
    host ownership."""

    __slots__ = ("src", "dst", "orig_vci", "out_vci", "wire_vci",
                 "hops", "status", "element", "attempts", "failed_at",
                 "detected_at", "reroute_at", "activated_at",
                 "first_delivery_us", "pending")

    def __init__(self, src: int, dst: int, orig_vci: int, out_vci: int,
                 hops: tuple):
        self.src = src
        self.dst = dst
        self.orig_vci = orig_vci        # VCI the sender's app knows
        self.out_vci = out_vci          # delivered VCI (never changes)
        self.wire_vci = orig_vci        # current on-the-wire VCI
        self.hops = hops                # ((switch, trunk), ...) in use
        self.status: Optional[str] = None
        self.element: Optional[str] = None
        self.attempts = 0
        self.failed_at: Optional[float] = None
        self.detected_at: Optional[float] = None
        self.reroute_at: Optional[float] = None
        self.activated_at: Optional[float] = None
        self.first_delivery_us: Optional[float] = None
        self.pending: Optional[tuple] = None    # (new_vci, path)


class RecoveryManager:
    """Heartbeat detection + deterministic ECMP failover for one
    fabric instance (plain or one shard of a sharded run).

    Ownership splits along the PR 9 design: the probe chain
    (``arm`` -> ``_schedule_probe`` -> ``_probe`` -> ``_declare``)
    runs only on the element's owning shard (the 'recovery' actor),
    while everything downstream of a dead declaration is replicated
    deterministic computation driven by the broadcast boundary
    message (``apply_dead``, the 'boundary' actor).  RACE204 holds
    each field to its side of that line.

    Root: arm -> recovery
    Boundary: apply_dead
    Owner: _elements -> recovery
    Owner: probes_sent -> recovery
    Owner: _records -> boundary
    Owner: _masked -> boundary
    Owner: _dead_downlinks -> boundary
    Owner: _watches -> boundary
    """

    def __init__(self, fabric: "Fabric", cfg: RecoveryConfig):
        if fabric.topo is None:
            raise SimulationError(
                "recovery needs a switched fabric; the direct "
                "topology has no alternate paths")
        self.fabric = fabric
        self.cfg = cfg
        self.mode = cfg.mode
        plan = fabric.faults
        self.seed = plan.seed if plan is not None else 0
        self.hb = cfg.hb_interval_us
        self.detect_timeout = cfg.detect_timeout_us
        self.probes_sent = 0

        self._elements: list[_Element] = []     # owned by this shard
        self._records: dict[tuple, dict] = {}   # declared, replicated
        self._directions: dict[int, _Direction] = {}    # by orig VCI
        self._masked: set = set()       # dead directed (s, t) edges
        self._dead_downlinks: set = set()       # dead (switch, trunk)
        # (final switch, wire VCI) -> direction awaiting its first
        # post-failover arrival at the destination edge.
        self._watches: dict[tuple, _Direction] = {}

    # -- registration ---------------------------------------------------------------

    def register_direction(self, src: int, dst: int, orig_vci: int,
                           out_vci: int, hops: tuple) -> None:
        """Called by ``Fabric._install_route`` for every direction of
        every flow, in the global construction order."""
        self._directions[orig_vci] = _Direction(src, dst, orig_vci,
                                                out_vci, hops)

    def arm(self) -> None:
        """Register probe chains for every element the plan kills that
        this fabric instance owns.  Flaps are transient by contract
        and are deliberately not monitored -- a flapped link heals on
        its own and declaring it would thrash routes."""
        plan = self.fabric.faults
        if plan is None:
            return
        by_key: dict[tuple, float] = {}
        for pk in plan.port_kills:
            key = (EKIND_PORT, pk.switch, pk.trunk, pk.lane)
            if key not in by_key or pk.at_us < by_key[key]:
                by_key[key] = pk.at_us
        for lk in plan.lane_kills:
            key = (EKIND_LANE, lk.host, lk.lane, 0)
            if key not in by_key or lk.at_us < by_key[key]:
                by_key[key] = lk.at_us
        for key in sorted(by_key):
            ekind, a, b, c = key
            if ekind == EKIND_PORT:
                if not self.fabric.switches[a].has_trunk(b):
                    continue        # another shard owns these ports
            else:
                if not self.fabric.owns_host(a):
                    continue
            el = _Element(ekind, a, b, c,
                          self._element_name(ekind, a, b, c),
                          by_key[key])
            self._elements.append(el)
            phase = self.hb * fault_hash(self.seed, "hb", el.name)
            self._schedule_probe(el, phase)

    def _element_name(self, ekind: int, a: int, b: int, c: int) -> str:
        if ekind == EKIND_PORT:
            return f"{self.fabric.topo.switch_names[a]}.t{b}.l{c}"
        return f"up.h{a}.l{b}"

    # -- detection ------------------------------------------------------------------

    def _schedule_probe(self, el: _Element, when: float) -> None:
        key = self.fabric._chan_key("hbp", el.ekind, el.a, el.b, el.c)
        self.fabric.sim.call_at(when, lambda: self._probe(el), key=key)

    def _probe(self, el: _Element) -> None:
        now = self.fabric.sim.now
        self.probes_sent += 1
        if self._element_down(el):
            if el.down_since is None:
                el.down_since = now
            if now - el.down_since >= self.detect_timeout:
                self._declare(el, now)
                return              # chain ends at declaration
        else:
            el.down_since = None
        self._schedule_probe(el, now + self.hb)

    def _element_down(self, el: _Element) -> bool:
        if el.ekind == EKIND_PORT:
            return self.fabric.switches[el.a].port_dead(el.b, el.c)
        site = self.fabric._fault_sites.get(el.name)
        # Only a kill (permanent) reads as dead; a flap window does
        # not, so flapped links are never declared.
        return site is not None and site.dead

    def _declare(self, el: _Element, now: float) -> None:
        el.declared = True
        chan = (("rcvp", el.a, el.b, el.c) if el.ekind == EKIND_PORT
                else ("rcvl", el.a, el.b))
        msg = ("dead", el.ekind, el.a, el.b, el.c,
               float(el.fail_at), float(now))
        self.fabric._broadcast_recovery(now + self.fabric.prop_delay_us,
                                        chan, msg)

    # -- reroute (replicated on every shard) ----------------------------------------

    def apply_dead(self, ekind: int, a: int, b: int, c: int,
                   t_fail: float, t_detect: float) -> None:
        """Handle one declaration broadcast.  Runs identically on
        every shard at the same simulated time."""
        dkey = (ekind, a, b, c)
        if dkey in self._records:
            return
        rec = {"name": self._element_name(ekind, a, b, c),
               "kind": "port" if ekind == EKIND_PORT else "lane",
               "failed_at_us": t_fail,
               "detected_at_us": t_detect}
        self._records[dkey] = rec
        if self.mode != "reroute" or ekind != EKIND_PORT:
            return
        fabric = self.fabric
        dkind, idx = fabric._trunk_dest[(a, b)]
        if dkind == "switch":
            self._masked.add((a, idx))
        else:
            # A dead downlink: the destination edge itself is gone,
            # no alternate path can reach the host.
            self._dead_downlinks.add((a, b))
        now = fabric.sim.now
        for vci in sorted(self._directions):
            d = self._directions[vci]
            if d.pending is not None or d.status == "no_path":
                continue
            if (a, b) not in d.hops:
                continue
            d.element = rec["name"]
            d.failed_at = t_fail
            d.detected_at = t_detect
            d.reroute_at = now
            self._attempt(d, d.attempts)

    def _attempt(self, d: _Direction, k: int) -> None:
        fabric = self.fabric
        d.attempts = k + 1
        s_sw, _ = fabric._attach[d.src]
        d_sw, d_trunk = fabric._attach[d.dst]
        path = None
        if (d_sw, d_trunk) not in self._dead_downlinks:
            tables = fabric._masked_ecmp(tuple(sorted(self._masked)))
            try:
                path = tables.path(s_sw, d_sw, d.orig_vci,
                                   fabric.routing_seed)
            except SimulationError:
                path = None
        if path is None:
            self._retry(d, k)
            return
        new_vci = fabric.vcis.alloc()
        for a, b in zip(path, path[1:]):
            fabric.switches[a].add_route(
                new_vci, fabric._interswitch[(a, b)], new_vci)
        fabric.switches[d_sw].add_route(new_vci, d_trunk, d.out_vci)
        d.pending = (new_vci, path)
        settle = 2.0 * fabric.prop_delay_us * max(1, len(path))
        fabric.sim.call_at(fabric.sim.now + settle,
                           lambda: self._activate(d, k),
                           key=("rcva", d.orig_vci, k))

    def _retry(self, d: _Direction, k: int) -> None:
        d.pending = None
        if k + 1 >= MAX_RETRIES:
            d.status = "no_path"
            return
        delay = BACKOFF_US * (1 << k)
        self.fabric.sim.call_at(self.fabric.sim.now + delay,
                                lambda: self._attempt(d, k + 1),
                                key=("rcvr", d.orig_vci, k + 1))

    def _activate(self, d: _Direction, k: int) -> None:
        """VC establishment settled: cut the sender over.  If another
        element died while the VC was settling, the chosen path may
        already be stale -- retry rather than activate a dead route
        (the provisionally-installed VCI is simply abandoned; the
        allocator stays in lock-step because every shard abandons the
        same one)."""
        fabric = self.fabric
        new_vci, path = d.pending
        d.pending = None
        d_sw, d_trunk = fabric._attach[d.dst]
        stale = ((d_sw, d_trunk) in self._dead_downlinks
                 or any((a, b) in self._masked
                        for a, b in zip(path, path[1:])))
        if stale:
            self._retry(d, k)
            return
        old_wire = d.wire_vci
        d.wire_vci = new_vci
        d.hops = tuple([(a, fabric._interswitch[(a, b)])
                        for a, b in zip(path, path[1:])]
                       + [(d_sw, d_trunk)])
        d.status = "rerouted"
        d.activated_at = fabric.sim.now
        d.first_delivery_us = None
        self._watches[(d_sw, new_vci)] = d
        fabric._apply_reroute(d.src, d.dst, old_wire, new_vci,
                              d.out_vci)

    # -- measurement ----------------------------------------------------------------

    def note_arrival(self, switch_index: int, vci: int) -> None:
        """First cell carrying a rerouted flow's new wire VCI reached
        the destination edge switch: the flow has converged."""
        if not self._watches:
            return
        d = self._watches.pop((switch_index, vci), None)
        if d is not None and d.first_delivery_us is None:
            d.first_delivery_us = self.fabric.sim.now

    # -- reporting ------------------------------------------------------------------

    def partial(self) -> dict:
        """This instance's contribution to the recovery report.  All
        fields are replicated except ``probes_sent`` (owner-only, so
        partials sum to the plain run's count) and
        ``first_delivery_us`` (observed on the shard that owns the
        destination edge; the merge overlays non-None values)."""
        elements = [dict(self._records[key])
                    for key in sorted(self._records)]
        flows = []
        for vci in sorted(self._directions):
            d = self._directions[vci]
            if d.element is None:
                continue
            flows.append({
                "vci": d.orig_vci,
                "src": d.src,
                "dst": d.dst,
                "element": d.element,
                "status": d.status or "pending",
                "attempts": d.attempts,
                "wire_vci": d.wire_vci,
                "failed_at_us": d.failed_at,
                "detected_at_us": d.detected_at,
                "reroute_at_us": d.reroute_at,
                "activated_at_us": d.activated_at,
                "first_delivery_us": d.first_delivery_us,
            })
        return {"elements": elements, "flows": flows,
                "probes_sent": self.probes_sent}


def combine_partials(parts: list) -> dict:
    """Reunite per-shard recovery partials (a plain run is the
    one-partial special case, so both paths serialize identically)."""
    elements: dict[tuple, dict] = {}
    flows: dict[int, dict] = {}
    probes = 0
    for part in parts:
        probes += part["probes_sent"]
        for el in part["elements"]:
            elements.setdefault(el["name"], el)
        for f in part["flows"]:
            cur = flows.get(f["vci"])
            if cur is None:
                flows[f["vci"]] = dict(f)
            elif (f["first_delivery_us"] is not None
                    and cur["first_delivery_us"] is None):
                cur["first_delivery_us"] = f["first_delivery_us"]
    return {"elements": [elements[k] for k in sorted(elements)],
            "flows": [flows[k] for k in sorted(flows)],
            "probes_sent": probes}


def _percentiles(samples: list) -> Optional[dict]:
    if not samples:
        return None
    xs = sorted(samples)
    n = len(xs)
    return {"n": n,
            "p50": xs[n // 2],
            "p99": xs[min(n - 1, int(n * 0.99))],
            "max": xs[-1]}


def summarize_recovery(cfg: RecoveryConfig, combined: dict) -> dict:
    """The recovery block of the cluster report: configuration,
    per-element and per-flow records, and convergence percentiles.
    ``recovery_time_us`` spans declaration -> first post-failover
    arrival at the destination edge; ``outage_time_us`` spans the
    scheduled failure itself -> that same arrival."""
    flows = combined["flows"]
    rerouted = [f for f in flows if f["status"] == "rerouted"]
    unrecovered = [f for f in flows if f["status"] == "no_path"]
    converged = [f for f in rerouted
                 if f["first_delivery_us"] is not None]
    return {
        "mode": cfg.mode,
        "hb_interval_us": cfg.hb_interval_us,
        "detect_timeout_us": cfg.detect_timeout_us,
        "backoff_us": BACKOFF_US,
        "max_retries": MAX_RETRIES,
        "probes_sent": combined["probes_sent"],
        "counters": {
            "elements_failed": len(combined["elements"]),
            "flows_rerouted": len(rerouted),
            "flows_unrecovered": len(unrecovered),
        },
        "elements": combined["elements"],
        "flows": flows,
        "recovery_time_us": _percentiles(
            [f["first_delivery_us"] - f["detected_at_us"]
             for f in converged]),
        "outage_time_us": _percentiles(
            [f["first_delivery_us"] - f["failed_at_us"]
             for f in converged]),
    }


__all__ = ["RecoveryManager", "combine_partials", "summarize_recovery",
           "EKIND_PORT", "EKIND_LANE", "BACKOFF_US", "MAX_RETRIES"]
