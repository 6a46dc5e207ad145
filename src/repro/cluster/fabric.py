"""A multi-host switched cell fabric.

The paper measures two workstations back-to-back; everything larger
was left to the network.  This module supplies that network: a
:class:`Fabric` instantiates N complete hosts and wires each host's
four-way striped uplink into an output-queued :class:`CellSwitch`
fabric described by a declarative :class:`~repro.topology.
TopologySpec` -- a flat full mesh (``topology="switched"``), a
leaf/spine Clos (``"clos"``), or a 3D torus (``"torus"``) -- with a
fabric-wide VCI allocation and ECMP routing manager on top.  Transit
paths may cross any number of switches; routes are installed hop by
hop along a deterministic content-hashed equal-cost path (see
:mod:`repro.topology.routing`).

Topology per host::

    host.txp -> StripedLink (4 lanes, skew) -> switch input
    switch output trunk (4 ports, one per lane) -> host.board

Each striped lane terminates in its own switch output port, so the
paper's third skew cause -- 'different queuing delays experienced by
cells on different links as they pass through distinct ports on the
switches' -- is emergent: any two flows sharing an output trunk
contend per lane, and the receiving board's reassembly strategies
must ride out whatever ordering that produces.

Flows are duplex and VCI-rewritten: the client sends on its own VCI,
the switch rewrites to the server's VCI, and the reply takes the
mirror route.  The switches route on input VCI alone, so the
:class:`VciAllocator` hands out fabric-unique identifiers.

The two-host, directly-wired topology the paper measured remains
available as ``topology="direct"``; :class:`repro.net.BackToBack` is
that special case.

Congestion control: ``backpressure="credit"`` gives every flow VCI a
receiver-driven credit window -- the final-hop switch port returns a
credit to the source host's :class:`~repro.cluster.backpressure.
CreditGate` per forwarded cell, so a full port pauses the offending
transmit processor instead of dropping.  ``backpressure="efci"`` is
the cheap alternative: congested ports mark cells, the destination
edge relays the mark, and the source pauses for a cooldown.
``drain_policy`` selects per-VCI round-robin ("rr") or the old single
shared FIFO ("fifo") at every switch output port.

Boundary channels
-----------------

In the switched topology, every interaction that crosses between
hosts -- an uplink cell arriving at its switch, a cell hopping an
inter-switch trunk, a credit returning to a source gate, an EFCI mark
relayed back -- travels over a *boundary channel* with an explicit
``prop_delay_us`` of latency and a content-based ordering key
``(tag, ids..., n)`` (``n`` a per-channel monotone counter stamped at
the single emitting site).  Two consequences:

* the control loops (credit return, EFCI relay) are no longer
  instantaneous, which is physically honest -- backpressure signals
  ride wires too;
* every cross-host event's position in the event queue is determined
  by *content*, not by scheduling order, which is what lets
  :mod:`repro.cluster.sharded` partition the hosts across K
  simulators and still produce bit-identical results: the
  propagation delay is the conservative lookahead, and the keys make
  the merge order at each boundary independent of which side
  scheduled the event.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..atm.aal5 import SegmentMode
from ..atm.striping import SkewModel, StripedLink
from ..analysis.sanitize import maybe_actor
from ..atm.switch import BACKPRESSURE_MODES, DRAIN_POLICIES, CellSwitch
from ..faults import FaultPlan, FaultSite
from ..hw.specs import STRIPE_LINKS, MachineSpec
from ..recovery import RecoveryConfig, RecoveryManager
from ..sim import CellTrain, SimulationError, Simulator
from ..topology import TOPOLOGIES, TopologySpec, build_ecmp_tables, build_spec
from .backpressure import CreditGate

if TYPE_CHECKING:
    from ..net.host_node import Host

# Flow VCIs live below the ADC manager's range (0x4000..) and the
# switch cross-traffic fillers (0xFFF0..).
FIRST_FLOW_VCI = 0x1000
LAST_FLOW_VCI = 0x3FFF

# Fabric defaults that sharding reads too: the topology, and the link
# propagation delay that is also the shards' conservative lookahead.
DEFAULT_TOPOLOGY = "switched"
DEFAULT_PROP_DELAY_US = 2.0

# How long an EFCI mark relayed back to a source pauses its flow.
EFCI_PAUSE_US = 60.0


class VciAllocator:
    """Fabric-wide virtual circuit identifiers, one per flow endpoint.

    The switches route on the input VCI alone (an output-queued switch
    has no notion of an input port), so every endpoint VCI must be
    unique across the whole fabric, not just per host.
    """

    def __init__(self, first: int = FIRST_FLOW_VCI,
                 last: int = LAST_FLOW_VCI):
        self._next = first
        self._last = last

    def alloc(self) -> int:
        if self._next > self._last:
            raise SimulationError("fabric VCI space exhausted")
        vci = self._next
        self._next += 1
        return vci


@dataclass(frozen=True)
class Flow:
    """A duplex path between two hosts, one VCI per direction.

    The source sends on ``src_vci`` (rewritten to ``dst_vci`` in the
    fabric); the destination replies on ``dst_vci`` (rewritten back).
    """

    src: int
    dst: int
    src_vci: int
    dst_vci: int


class _UplinkPort:
    """One uplink lane's end of its boundary channel ``("up", host,
    lane)``.

    The lane's :class:`~repro.atm.link.CellPipe` hands every finished
    cell here.  ``emit_single`` (the pipe's ``schedule_delivery``)
    sends the cell alone as a keyed boundary message.  With trains on,
    ``open`` starts a train keyed with the cell's channel position,
    ``append_bump`` burns the position of each cell the open train
    absorbs, and ``allowed`` says whether the cell's switch arrival
    stays on this simulator -- trains never cross shard boundaries.
    """

    __slots__ = ("fabric", "host_index", "switch_index", "chan")

    def __init__(self, fabric: "Fabric", host_index: int,
                 switch_index: int, lane: int):
        self.fabric = fabric
        self.host_index = host_index
        self.switch_index = switch_index
        self.chan = ("up", host_index, lane)

    def allowed(self, cell) -> bool:
        return self.fabric._train_local(self.switch_index,
                                        self.host_index, cell)

    def emit_single(self, arrival: float, cell) -> None:
        fabric = self.fabric
        key = fabric._chan_key(*self.chan)
        fabric._emit_boundary(
            arrival, key,
            ("in", self.switch_index, self.host_index, cell))

    def open(self, arrival: float, cell) -> CellTrain:
        fabric = self.fabric
        key = fabric._chan_key(*self.chan)
        train = CellTrain([cell], [arrival], self.chan, key[-1])
        fabric._emit_train(train, self.switch_index, self.host_index)
        return train

    def append_bump(self) -> None:
        # open() seeded the channel's counter; a bare increment is
        # the per-cell hot path's cheapest possible key burn.
        self.fabric._chan_seq[self.chan] += 1


class Fabric:
    """N hosts wired through one or more output-queued cell switches.

    All cross-shard effects are applied by the boundary dispatcher
    (``_apply_boundary``, and ``_arrive`` for every cell or train
    reaching a switch), the only context allowed to touch
    remote-visible state (RACE202).  ``_depart`` carries a fused
    cell-train commit's departures, where order-sensitive operations
    are banned (RACE203) because one event stands in for many cells.

    Boundary: _apply_boundary, _arrive
    Fold: _depart
    """

    def __init__(self, machines: Union[MachineSpec, Sequence[MachineSpec]],
                 n_hosts: Optional[int] = None, *,
                 n_switches: int = 1,
                 topology: str = DEFAULT_TOPOLOGY,
                 pods: int = 4,
                 torus_dims: Optional[Sequence[int]] = None,
                 oversubscription: float = 2.0,
                 routing_seed: int = 1,
                 skew: Optional[SkewModel] = None,
                 segment_mode: SegmentMode = SegmentMode.IN_ORDER,
                 prop_delay_us: float = DEFAULT_PROP_DELAY_US,
                 switching_delay_us: float = 1.0,
                 backpressure: str = "none",
                 credit_window_cells: int = 64,
                 drain_policy: str = "rr",
                 trains: bool = True,
                 faults: Optional[FaultPlan] = None,
                 recovery: Optional[RecoveryConfig] = None,
                 credit_regen_timeout_us: Optional[float] = None,
                 credit_watchdog_us: Optional[float] = None,
                 names: Optional[Sequence[str]] = None,
                 **host_kw):
        if n_hosts is not None and n_hosts < 2:
            raise SimulationError(
                f"a fabric needs at least two hosts (n_hosts={n_hosts})")
        if isinstance(machines, MachineSpec):
            machines = [machines] * (2 if n_hosts is None else n_hosts)
        machines = list(machines)
        if n_hosts is not None and n_hosts != len(machines):
            raise SimulationError(
                f"n_hosts={n_hosts} disagrees with {len(machines)} machines")
        if len(machines) < 2:
            raise SimulationError("a fabric needs at least two hosts")
        if topology not in TOPOLOGIES:
            raise SimulationError(
                f"unknown topology {topology!r}; choose from "
                f"{TOPOLOGIES}")
        if topology == "direct" and len(machines) != 2:
            raise SimulationError(
                "direct topology is the two-host special case")
        if backpressure not in BACKPRESSURE_MODES:
            raise SimulationError(
                f"unknown backpressure mode {backpressure!r}; "
                f"choose from {BACKPRESSURE_MODES}")
        if drain_policy not in DRAIN_POLICIES:
            raise SimulationError(
                f"unknown drain policy {drain_policy!r}; "
                f"choose from {DRAIN_POLICIES}")
        if topology == "direct" and backpressure != "none":
            raise SimulationError(
                "backpressure needs a switched fabric; the direct "
                "topology has no ports to protect")

        if faults is not None and faults.port_kills \
                and topology == "direct":
            raise SimulationError(
                "port kills need a switched fabric; the direct "
                "topology has no switch ports")
        if recovery is not None and recovery.mode != "off" \
                and topology == "direct":
            raise SimulationError(
                "recovery needs a switched fabric; the direct "
                "topology has no alternate paths")

        self.sim = Simulator()
        self.topology = topology
        # The declarative shape every non-direct fabric is wired from;
        # rebuilt from the same parameters on every shard, so trunk
        # numbering, routes, and partitions agree without coordination.
        self.topo: Optional[TopologySpec] = None
        if topology != "direct":
            self.topo = build_spec(
                topology, len(machines), n_switches=n_switches,
                pods=pods, dims=torus_dims,
                oversubscription=oversubscription)
        self.routing_seed = routing_seed
        self._ecmp = (build_ecmp_tables(self.topo)
                      if self.topo is not None else None)
        self._init_ownership()
        self.backpressure = backpressure
        self.credit_window_cells = credit_window_cells
        self.prop_delay_us = prop_delay_us
        self.drain_policy = drain_policy
        # Cell-train fast path (repro.sim.trains): bursts of
        # contiguous cells ride single events on uncontended segments.
        # The direct topology keeps one event per cell -- it has no
        # boundary channels for trains to ride.
        self.trains = bool(trains) and topology != "direct"
        self.faults = faults
        # Recovery control plane (repro.recovery): constructed last,
        # after wiring and fault scheduling, but the attribute must
        # exist first -- route installation and boundary dispatch
        # consult it.
        self.recovery: Optional[RecoveryManager] = None
        # Driver sessions by current wire VCI, so a reroute can
        # retarget the sender in place.
        self._tx_sessions: dict[int, object] = {}
        # dead-edge tuple -> EcmpTables with those links masked.
        self._masked_ecmp_cache: dict[tuple, object] = {}
        self.credit_regen_timeout_us = credit_regen_timeout_us
        self.credit_watchdog_us = credit_watchdog_us
        # Fault-site registry: site name -> FaultSite on links this
        # fabric instance owns (a shard registers only its slice).
        self._fault_sites: dict[str, FaultSite] = {}
        self._uplink_sites: list[FaultSite] = []
        self.credit_cells_lost = 0
        self.gates: list[Optional[CreditGate]] = []
        # delivered (rewritten) VCI -> (source host, source VCI): the
        # reverse map the EFCI relay uses to find whom to pause.
        self._efci_sources: dict[int, tuple[int, int]] = {}
        self.skew = skew
        self.segment_mode = segment_mode
        if names is None:
            names = [f"h{i}" for i in range(len(machines))]
        self.names = list(names)
        self.hosts: list[Optional[Host]] = [
            self._make_host(i, spec, names[i], host_kw)
            for i, spec in enumerate(machines)
        ]
        self.vcis = VciAllocator()
        self.flows: list[Flow] = []
        self.switches: list[CellSwitch] = []
        self.uplinks: list[StripedLink] = []
        # host index -> (switch index, trunk id of its downlink).
        self._attach: list[tuple[int, int]] = []
        # (from switch, to switch) -> trunk id on the 'from' switch.
        self._interswitch: dict[tuple[int, int], int] = {}
        # (switch, trunk) -> where the trunk leads: ("host", i) for a
        # downlink, ("switch", t) for an inter-switch trunk.  A sharded
        # fabric maps this to the shard that owns the trunk's ports.
        self._trunk_dest: dict[tuple[int, int], tuple[str, int]] = {}
        # Per-boundary-channel emission counters (the `n` in the
        # ordering keys).
        self._chan_seq: dict[tuple, int] = {}
        # Cells emitted onto a delayed inter-switch hop (or sitting in
        # a shard mailbox) and not yet absorbed by the far switch.
        # Without this the conservation identity would double-miss
        # them: the emitting switch already counted them forwarded, the
        # receiving one hasn't seen them yet.
        self._isw_in_flight = 0
        self._delivered = [0] * len(self.hosts)
        # Delivered cells whose payload a fault site mutated; counted
        # separately so the conservation identity can name them.
        self._corrupted = [0] * len(self.hosts)
        self._uplink_arrived = [0] * len(self.hosts)
        # host index -> its striped uplink (owned hosts only).
        self._uplink_by_host: dict[int, StripedLink] = {}

        if topology == "direct":
            self._wire_direct(prop_delay_us)
        else:
            self._wire_from_spec(self.topo, prop_delay_us,
                                 switching_delay_us)
        self._schedule_faults()
        if recovery is not None and recovery.mode != "off":
            self.recovery = RecoveryManager(self, recovery)
            self.recovery.arm()

    # -- sharding hooks -----------------------------------------------------------
    #
    # The base fabric owns everything; repro.cluster.sharded overrides
    # these so each shard instantiates only its slice of the hosts and
    # trunk ports while running the *same* construction sequence (VCI
    # allocation, trunk numbering, route installation stay global).

    def _make_host(self, index: int, spec: MachineSpec, name: str,
                   host_kw: dict):
        # Deferred: repro.net.network subclasses Fabric, so importing
        # repro.net at module scope here would be circular.
        from ..net.host_node import Host
        return Host(self.sim, spec, name=name, **host_kw)

    def _init_ownership(self) -> None:
        """Hook: a shard computes its topology-aware partition here
        (before any host exists); the base fabric owns everything."""

    def owns_host(self, index: int) -> bool:
        """Does this fabric instantiate host ``index``?"""
        return True

    def _owns_interswitch(self, s: int, t: int) -> bool:
        """Does this fabric own the ports of trunk ``s -> t``?"""
        return True

    def _chan_key(self, tag: str, *ids) -> tuple:
        """Next ordering key on boundary channel ``(tag, *ids)``."""
        chan = (tag,) + ids
        n = self._chan_seq.get(chan, 0)
        self._chan_seq[chan] = n + 1
        return chan + (n,)

    def _emit_boundary(self, when: float, key: tuple, msg: tuple) -> None:
        """Deliver boundary message ``msg`` at ``when``.

        The base fabric schedules it on its own simulator; a shard
        routes it to the owning shard's mailbox instead.  ``when`` is
        always >= emission time + ``prop_delay_us`` -- the lookahead
        that makes conservative windowing sound.
        """
        self.sim.call_at(when, lambda: self._apply_boundary(msg), key=key)

    def _apply_boundary(self, msg: tuple) -> None:
        """Execute a boundary message on the receiving side."""
        kind = msg[0]
        if kind == "in":
            _, switch_index, host_index, cell = msg
            self._arrive(switch_index, host_index, cell)
        elif kind == "refill":
            _, src, vci = msg
            self.gates[src].refill(vci)
        elif kind == "pause":
            _, src, vci = msg
            self.gates[src].pause(vci, self.sim.now + EFCI_PAUSE_US)
        elif kind == "dead":
            self.recovery.apply_dead(*msg[1:])
        else:
            raise SimulationError(f"unknown boundary message {msg!r}")

    def _broadcast_recovery(self, when: float, chan: tuple,
                            msg: tuple) -> None:
        """Fan a recovery declaration out to every fabric instance.
        The base fabric is the whole fabric, so the broadcast is one
        local event; a shard also mails it to its peers.  ``when`` is
        detection time + the control delay, which the manager clamps
        to ``prop_delay_us`` -- the window lookahead."""
        key = self._chan_key(*chan)
        self.sim.call_at(when, lambda: self._apply_boundary(msg), key=key)

    # -- the hop pipeline ---------------------------------------------------------
    #
    # A cell crosses the fabric as: uplink lane -> switch arrival
    # (``_arrive``) -> output port -> an inter-switch hop (``_emit_isw``,
    # arriving at the next switch one propagation delay later) or the
    # host edge (``_edge``, then ``_hand_over`` to the board).  A cell
    # train rides the same functions -- a lone cell is a train of
    # length 1 -- with ``_depart`` standing in for the drain loop.

    def _train_local(self, switch_index: int, host_index: int,
                     cell) -> bool:
        """May a train carry this cell to switch ``switch_index``?
        The base fabric owns everything, so always; a shard permits it
        only when the arrival would stay on its own simulator."""
        return True

    def _emit_train(self, train: CellTrain, switch_index: int,
                    host_index: int) -> None:
        """Schedule a train's one arrival event, keyed as its head
        would be alone.  Always local: trains form only where
        ``_train_local`` said the arrival stays on this simulator."""
        self.sim.call_at(
            train.times[0],
            lambda: self._arrive(switch_index, host_index,
                                 train.cells[0], train),
            key=train.key)

    def _arrive(self, switch_index: int, host_index: int, cell,
                train: Optional[CellTrain] = None) -> None:
        """One switch-arrival event: ``cell`` alone, or the head of
        ``train``.  ``host_index`` is the uplink's host, or -1 for an
        inter-switch hop.  A train fuses into the switch in one commit
        when it can, and otherwise expands.
        """
        # This event *is* the head's arrival (same time, same key), so
        # convergence stamps agree whether or not a train fuses.
        if self.recovery is not None:
            self.recovery.note_arrival(switch_index, cell.vci)
        switch = self.switches[switch_index]
        fused = None
        if train is not None:
            train.fired = True
            with maybe_actor("boundary.train-fold"):
                fused = switch.input_train(train)
            if fused is None:
                self._expand(train, switch_index, host_index)
        n = 1 if fused is None else len(train.cells)
        if host_index >= 0:
            self._uplink_arrived[host_index] += n
        else:
            self._isw_in_flight -= n
        if fused is None:
            switch.input_cell(cell)
            return
        trunk_id, _lane, cells, deps = fused
        with maybe_actor("boundary.train-fold"):
            self._depart(switch_index, trunk_id, cells, deps)

    def _expand(self, train: CellTrain, switch_index: int,
                host_index: int) -> None:
        """Give every cell after a train's head the keyed arrival
        event it would have had alone, at its recorded time."""
        for i in range(1, len(train.cells)):
            def arrive(c=train.cells[i]) -> None:
                with maybe_actor("boundary.train-expand"):
                    self._arrive(switch_index, host_index, c)
            self.sim.call_at(train.times[i], arrive,
                             key=train.cell_key(i))

    def _depart(self, switch_index: int, trunk_id: int, cells: list,
                deps: list) -> None:
        """A fused commit's cells leave switch ``switch_index`` at the
        departure times ``deps`` the drain loop would have produced.
        Over an inter-switch trunk they ride on to the next switch.
        Into a host they are counted now, so the conservation identity
        holds at every instant until they depart, and each is handed
        over by its own event at its departure time, followed by the
        port's forward hook (a credit return) as the drain loop would
        call it."""
        kind, dest = self._trunk_dest[(switch_index, trunk_id)]
        if kind == "switch":
            self._emit_isw(switch_index, dest, cells, deps)
            return
        self._edge(dest, cells)
        hook = self.switches[switch_index].forward_hook(trunk_id,
                                                         cells[0].vci)
        for cell, dep in zip(cells, deps):
            def fire(c=cell) -> None:
                with maybe_actor("boundary.train-edge"):
                    self._hand_over(dest, c)
                    if hook is not None:
                        hook()
            self.sim.call_at(dep, fire)

    def _emit_isw(self, s: int, t: int, cells, deps=None) -> None:
        """Cells leaving switch ``s`` for switch ``t``: each reaches
        ``t`` one propagation delay after it departs, keyed on its
        lane's channel.  Until ``t`` absorbs them they count as in
        flight -- without that the conservation identity would
        double-miss them.

        A drained cell (``deps`` None) departs now and rides one
        boundary message.  A fused commit's cells depart at ``deps``:
        their drain events fold into the commit, and when ``t`` is
        local they ride one train instead of one message each.
        """
        n = len(cells)
        self._isw_in_flight += n
        prop = self.prop_delay_us
        chan = ("isw", s, t, cells[0].link_id)
        if deps is None:
            self._emit_boundary(self.sim.now + prop, self._chan_key(*chan),
                                ("in", t, -1, cells[0]))
            return
        self.sim.events_absorbed += n
        if self._train_local(t, -1, cells[0]):
            n0 = self._chan_key(*chan)[-1]
            self._chan_seq[chan] += n - 1       # the train's key block
            # A loop, not a comprehension: on Python < 3.12 that would
            # make ``prop`` a closure cell built on every drained cell.
            train = CellTrain(cells, [], chan, n0)
            for dep in deps:
                train.times.append(dep + prop)
            self._emit_train(train, t, -1)
            return
        for cell, dep in zip(cells, deps):
            self._emit_boundary(dep + prop, self._chan_key(*chan),
                                ("in", t, -1, cell))

    def _edge(self, host_index: int, cells) -> None:
        """Cells crossing the fabric edge into host ``host_index``:
        the one place delivered and corrupted cells are counted."""
        for cell in cells:
            if cell.corrupted:
                self._corrupted[host_index] += 1
            else:
                self._delivered[host_index] += 1

    def _drained(self, host_index: int, cell) -> None:
        """One cell leaving the fabric into host ``host_index`` now --
        drained from its downlink port, or off the direct wiring's
        link: counted, then handed over."""
        self._edge(host_index, (cell,))
        self._hand_over(host_index, cell)

    def _hand_over(self, host_index: int, cell) -> None:
        """A cell's per-cell work at the host edge: the destination's
        half of the EFCI loop, then the board."""
        if cell.efci:
            self._note_efci(cell.vci)
        self.hosts[host_index].board.deliver_cell(cell)

    def _note_efci(self, out_vci: int) -> None:
        """The destination edge's half of the EFCI loop: relay a
        congestion mark back to the flow's source, pausing it.  The
        relay rides a boundary channel, so the pause lands one
        propagation delay after the marked cell arrived."""
        source = self._efci_sources.get(out_vci)
        if source is None:
            return
        host_index, src_vci = source
        key = self._chan_key("efci", out_vci)
        self._emit_boundary(self.sim.now + self.prop_delay_us, key,
                            ("pause", host_index, src_vci))

    # -- wiring ------------------------------------------------------------------

    def _wire_direct(self, prop_delay_us: float) -> None:
        """Two hosts joined by striped links in both directions --
        the paper's measurement topology, no switch in the middle."""
        a, b = self.hosts
        skew_ab = self.skew
        skew_ba = self.skew.clone(1) if self.skew is not None else None
        link_ab = StripedLink(self.sim, partial(self._drained, 1),
                              skew=skew_ab, prop_delay_us=prop_delay_us,
                              name=f"{a.name}{b.name}")
        link_ba = StripedLink(self.sim, partial(self._drained, 0),
                              skew=skew_ba, prop_delay_us=prop_delay_us,
                              name=f"{b.name}{a.name}")
        self.uplinks = [link_ab, link_ba]
        self._uplink_by_host = {0: link_ab, 1: link_ba}
        self._attach_fault_sites(0, link_ab)
        self._attach_fault_sites(1, link_ba)
        a.connect(link_ab, segment_mode=self.segment_mode)
        b.connect(link_ba, segment_mode=self.segment_mode)

    def _wire_from_spec(self, topo: TopologySpec, prop_delay_us: float,
                        switching_delay_us: float) -> None:
        n_switches = topo.n_switches
        self.switches = [
            CellSwitch(self.sim, name=topo.switch_names[k],
                       switching_delay_us=switching_delay_us,
                       backpressure=self.backpressure,
                       drain_policy=self.drain_policy)
            for k in range(n_switches)
        ]
        next_trunk = [0] * n_switches

        # Downlinks: one output trunk per host, lanes matching its
        # striped link so cell i keeps riding lane i mod 4.  Trunk
        # numbering must not depend on ownership -- every shard walks
        # the same sequence.
        for i in range(len(self.hosts)):
            k = topo.host_attach[i]
            trunk = next_trunk[k]
            next_trunk[k] += 1
            if self.owns_host(i):
                self.switches[k].add_trunk(trunk,
                                           partial(self._drained, i))
            else:
                self.switches[k].add_remote_trunk(trunk)
            self._attach.append((k, trunk))
            self._trunk_dest[(k, trunk)] = ("host", i)

        # Inter-switch trunks: one per directed link in the spec
        # (a full mesh for the flat topology, leaf-spine cables for
        # Clos, lattice neighbors for the torus).  The hop has real
        # propagation delay (it is a link like any other), delivered
        # through a keyed boundary channel.
        for s, t in topo.links:
            trunk = next_trunk[s]
            next_trunk[s] += 1
            if self._owns_interswitch(s, t):
                self.switches[s].add_trunk(
                    trunk,
                    lambda cell, s=s, t=t: self._emit_isw(s, t, (cell,)))
            else:
                self.switches[s].add_remote_trunk(trunk)
            self._interswitch[(s, t)] = trunk
            self._trunk_dest[(s, trunk)] = ("switch", t)

        # Uplinks: each host's striped link terminates at its switch.
        # Disjoint seed offsets keep per-lane RNG streams independent
        # across hosts.  Each lane's pipe hands finished arrivals to
        # its boundary channel instead of the raw event queue.
        for i in range(len(self.hosts)):
            if not self.owns_host(i):
                continue
            host = self.hosts[i]
            k = self._attach[i][0]
            skew = (self.skew.clone(i * STRIPE_LINKS)
                    if self.skew is not None else None)
            uplink = StripedLink(self.sim, None, skew=skew,
                                 prop_delay_us=prop_delay_us,
                                 name=f"{host.name}.up")
            for pipe in uplink.pipes:
                port = _UplinkPort(self, i, k, pipe.link_id)
                pipe.schedule_delivery = port.emit_single
                if self.trains:
                    pipe.enable_trains(port)
            self.uplinks.append(uplink)
            self._uplink_by_host[i] = uplink
            self._attach_fault_sites(i, uplink)
            host.connect(uplink, segment_mode=self.segment_mode)

        # Flow-control gates: one per host, consulted by its transmit
        # processor before every cell; per-flow windows are installed
        # as flows open.
        if self.backpressure != "none":
            for host in self.hosts:
                if host is None:
                    self.gates.append(None)
                    continue
                gate = CreditGate(
                    self.sim, name=f"{host.name}.gate",
                    regen_timeout_us=self.credit_regen_timeout_us,
                    watchdog_us=self.credit_watchdog_us)
                self.gates.append(gate)
                host.txp.credit_gate = gate

    # -- fault injection ----------------------------------------------------------

    def _attach_fault_sites(self, host_index: int, uplink) -> None:
        """Instantiate the fault plan on every lane of one uplink."""
        if self.faults is None:
            return
        for pipe in uplink.pipes:
            site = self.faults.site(f"up.h{host_index}.l{pipe.link_id}")
            pipe.fault_site = site
            self._fault_sites[site.name] = site
            self._uplink_sites.append(site)

    def _schedule_faults(self) -> None:
        """Arm the plan's scheduled events on links/ports this fabric
        owns.  Keys are content-based (``("fault", kind, ids...)``) so
        a shard orders them identically to the single-process run."""
        plan = self.faults
        if plan is None:
            return
        for i, flap in enumerate(plan.flaps):
            self._check_lane(flap.host, flap.lane, "flap")
            if not self.owns_host(flap.host):
                continue
            site = self._fault_sites[f"up.h{flap.host}.l{flap.lane}"]
            until = flap.at_us + flap.duration_us
            site.note_scheduled(flap.at_us)
            self.sim.call_at(
                flap.at_us,
                lambda s=site, u=until, a=flap.at_us: s.flap(u, a),
                key=("fault", "flap", flap.host, flap.lane, i))
        for i, kill in enumerate(plan.lane_kills):
            self._check_lane(kill.host, kill.lane, "kill")
            if not self.owns_host(kill.host):
                continue
            site = self._fault_sites[f"up.h{kill.host}.l{kill.lane}"]
            uplink = self._uplink_by_host[kill.host]
            site.note_scheduled(kill.at_us)

            def fire_kill(s=site, up=uplink, lane=kill.lane,
                          a=kill.at_us) -> None:
                s.kill(a)
                up.degrade(lane)

            self.sim.call_at(kill.at_us, fire_kill,
                             key=("fault", "kill", kill.host, kill.lane,
                                  i))
        for i, pk in enumerate(plan.port_kills):
            if not 0 <= pk.switch < len(self.switches):
                raise SimulationError(
                    f"fault plan kills a port on switch {pk.switch}; "
                    f"the fabric has {len(self.switches)}")
            sw = self.switches[pk.switch]
            if not sw.has_trunk(pk.trunk):
                if sw.has_remote_trunk(pk.trunk):
                    continue    # another shard owns these ports
                raise SimulationError(
                    f"fault plan kills unknown trunk {pk.trunk} on "
                    f"switch {pk.switch}")
            sw.arm_port_kill(pk.trunk, pk.lane, pk.at_us)
            self.sim.call_at(
                pk.at_us,
                lambda s=sw, t=pk.trunk, ln=pk.lane: s.kill_port(t, ln),
                key=("fault", "port", pk.switch, pk.trunk, pk.lane, i))

    def _check_lane(self, host: int, lane: int, what: str) -> None:
        if not 0 <= host < len(self.hosts):
            raise SimulationError(
                f"fault plan {what}s host {host}; the fabric has "
                f"{len(self.hosts)} hosts")
        if not 0 <= lane < STRIPE_LINKS:
            raise SimulationError(
                f"fault plan {what}s lane {lane}; uplinks have "
                f"{STRIPE_LINKS} lanes")

    # -- flow management ------------------------------------------------------------

    def open_flow(self, src: int, dst: int,
                  src_vci: Optional[int] = None,
                  dst_vci: Optional[int] = None) -> Flow:
        """Allocate VCIs and install duplex routes for ``src <-> dst``.

        Explicit VCIs let callers bind an endpoint that already owns
        its identifier (an ADC grant, say); by default both come from
        the fabric allocator.
        """
        if src == dst or not (0 <= src < len(self.hosts)) \
                or not (0 <= dst < len(self.hosts)):
            raise SimulationError(f"bad flow endpoints {src}->{dst}")
        if src_vci is None:
            src_vci = self.vcis.alloc()
        if dst_vci is None:
            # No switch means no VCI rewriting: on the direct wiring
            # both ends must speak the same identifier.
            dst_vci = (src_vci if self.topology == "direct"
                       else self.vcis.alloc())
        if self.topology != "direct":
            self._install_route(src, dst, src_vci, dst_vci)
            self._install_route(dst, src, dst_vci, src_vci)
            if self.backpressure != "none":
                self._plumb_backpressure(src, dst, src_vci, dst_vci)
                self._plumb_backpressure(dst, src, dst_vci, src_vci)
        flow = Flow(src=src, dst=dst, src_vci=src_vci, dst_vci=dst_vci)
        self.flows.append(flow)
        return flow

    def _install_route(self, src: int, dst: int, in_vci: int,
                       out_vci: int) -> None:
        """Route ``in_vci`` (sent by ``src``) to ``dst``, rewriting to
        ``out_vci`` on the final hop.

        The path walks the ECMP tables: at every switch on the way the
        next hop among equal-cost candidates is picked by a content
        hash of (flow VCI, routing seed, position), so a multipath
        fabric spreads flows across spines/torus axes while every
        shard -- and every rerun -- derives the identical path.  The
        input VCI is carried unrewritten across transit hops; only the
        final downlink rewrites to ``out_vci``.
        """
        s_sw, _ = self._attach[src]
        d_sw, d_trunk = self._attach[dst]
        path = self._ecmp.path(s_sw, d_sw, in_vci, self.routing_seed)
        for a, b in zip(path, path[1:]):
            trunk = self._interswitch[(a, b)]
            self.switches[a].add_route(in_vci, trunk, in_vci)
        self.switches[d_sw].add_route(in_vci, d_trunk, out_vci)
        if self.recovery is not None:
            hops = tuple([(a, self._interswitch[(a, b)])
                          for a, b in zip(path, path[1:])]
                         + [(d_sw, d_trunk)])
            self.recovery.register_direction(src, dst, in_vci, out_vci,
                                             hops)

    def _masked_ecmp(self, dead_edges: tuple):
        """ECMP tables with the given directed links masked out,
        cached per mask (reroute storms re-resolve many flows against
        the same surviving graph)."""
        tables = self._masked_ecmp_cache.get(dead_edges)
        if tables is None:
            tables = build_ecmp_tables(self.topo, dead_edges)
            self._masked_ecmp_cache[dead_edges] = tables
        return tables

    def register_tx_session(self, vci: int, session) -> None:
        """Remember the driver session sending on ``vci`` so a path
        failover can retarget it to a fresh wire VCI in place."""
        self._tx_sessions[vci] = session

    def _apply_reroute(self, src: int, dst: int, old_vci: int,
                       new_vci: int, out_vci: int) -> None:
        """Cut one direction of a flow over to its re-established VC.
        The route tables were already installed on every instance;
        this is the host-ownership-guarded half: retarget the sender's
        driver session, migrate its cell sequence numbering, and move
        the backpressure plumbing to the new wire VCI."""
        host = self.hosts[src]
        if host is not None:
            host.txp.migrate_seq(old_vci, new_vci)
            session = self._tx_sessions.pop(old_vci, None)
            if session is not None:
                session.vci = new_vci
                self._tx_sessions[new_vci] = session
        if self.backpressure == "none":
            return
        gate = self.gates[src]
        if gate is not None:
            gate.retire_vci(old_vci)
            gate.open_vci(new_vci,
                          window=(self.credit_window_cells
                                  if self.backpressure == "credit"
                                  else None))
        d_sw, d_trunk = self._attach[dst]
        if self.backpressure == "credit":
            if self.owns_host(dst):
                self.switches[d_sw].on_cell_forwarded(
                    d_trunk, out_vci,
                    self._credit_return_fn(src, new_vci))
        else:
            self._efci_sources[out_vci] = (src, new_vci)

    def _plumb_backpressure(self, src: int, dst: int, in_vci: int,
                            out_vci: int) -> None:
        """Wire one direction of a flow into the control plane.

        Credit mode: the source's gate gets a window on ``in_vci`` and
        the final-hop port (the destination's downlink trunk, where the
        cell carries ``out_vci``) returns a credit per forwarded cell;
        the credit rides a boundary channel back, so it lands one
        propagation delay later.  EFCI mode: emission is uncounted, but
        delivered cells carrying a congestion mark pause the source for
        a cooldown.
        """
        gate = self.gates[src]
        d_sw, d_trunk = self._attach[dst]
        if self.backpressure == "credit":
            if gate is not None:
                gate.open_vci(in_vci, window=self.credit_window_cells)
            if self.owns_host(dst):
                self.switches[d_sw].on_cell_forwarded(
                    d_trunk, out_vci, self._credit_return_fn(src, in_vci))
        else:
            if gate is not None:
                gate.open_vci(in_vci, window=None)
            self._efci_sources[out_vci] = (src, in_vci)

    def _credit_return_fn(self, src: int, in_vci: int):
        def credit_return() -> None:
            # The channel counter is consumed even for a credit cell
            # the fault plan eats, so the fate of the nth credit is
            # content-addressed and shard-independent.
            key = self._chan_key("credit", in_vci)
            if (self.faults is not None
                    and self.faults.credit_lost(in_vci, key[-1])):
                self.credit_cells_lost += 1
                return
            self._emit_boundary(self.sim.now + self.prop_delay_us, key,
                                ("refill", src, in_vci))

        return credit_return

    def open_raw_flow(self, src: int, dst: int, echo_dst: bool = False,
                      **kw):
        """Raw-ATM test programs on both ends of a new flow.

        On a shard, the endpoint apps come back as None for hosts the
        shard does not own (the flow's routes are still installed).
        """
        flow = self.open_flow(src, dst)
        app_s = app_d = None
        if self.hosts[src] is not None:
            app_s, path_s = self.hosts[src].open_raw_path(
                vci=flow.src_vci, **kw)
            self.register_tx_session(flow.src_vci, path_s.sessions[0])
        if self.hosts[dst] is not None:
            app_d, path_d = self.hosts[dst].open_raw_path(
                vci=flow.dst_vci, echo=echo_dst, **kw)
            self.register_tx_session(flow.dst_vci, path_d.sessions[0])
        return app_s, app_d, flow

    def open_udp_flow(self, src: int, dst: int,
                      src_port: Optional[int] = None,
                      dst_port: Optional[int] = None,
                      echo_dst: bool = False, **kw):
        """UDP/IP test programs on both ends of a new flow."""
        flow = self.open_flow(src, dst)
        if src_port is None:
            src_port = 5000 + 2 * (len(self.flows) - 1)
        if dst_port is None:
            dst_port = src_port + 1
        app_s = app_d = None
        if self.hosts[src] is not None:
            app_s, path_s = self.hosts[src].open_udp_path(
                src_port, dst_port, vci=flow.src_vci, **kw)
            self.register_tx_session(flow.src_vci, path_s.sessions[0])
        if self.hosts[dst] is not None:
            app_d, path_d = self.hosts[dst].open_udp_path(
                dst_port, src_port, vci=flow.dst_vci, echo=echo_dst, **kw)
            self.register_tx_session(flow.dst_vci, path_d.sessions[0])
        return app_s, app_d, flow

    # -- accounting -----------------------------------------------------------------

    def counters(self) -> dict:
        """The raw cell counters :func:`repro.cluster.metrics.
        conservation` sums: read-only and picklable, so a window
        barrier can take them at any time."""
        switches = self.switches
        delivered, corrupted = sum(self._delivered), sum(self._corrupted)
        return {
            "uplink_cells_sent": sum(up.cells_sent for up in self.uplinks),
            # No switch on the direct wiring: leaving the link is arriving.
            "uplink_arrived": (delivered + corrupted
                               if self.topology == "direct"
                               else sum(self._uplink_arrived)),
            "delivered": delivered,
            "corrupted": corrupted,
            "uplink_fault_lost": sum(s.cells_lost for s in self._uplink_sites),
            "isw_in_flight": self._isw_in_flight,
            "cross_injected": sum(sw.cross_cells_injected for sw in switches),
            "switch_queued": sum(sw.queued_cells() for sw in switches),
            "dropped": sum(sw.cells_dropped for sw in switches),
            "switch_fault_lost": sum(sw.cells_lost_to_faults
                                     for sw in switches),
        }

    def snapshot(self) -> dict:
        """Everything the cluster report reads off this fabric, as
        plain picklable data: a shard ships it to
        :func:`repro.cluster.metrics.merge_partials`, and a plain run's
        report is the merge of its one snapshot."""
        backpressure = None
        if self.backpressure == "credit":
            backpressure = {"mode": "credit",
                            "credit_window_cells": self.credit_window_cells,
                            "regen_timeout_us": self.credit_regen_timeout_us,
                            "watchdog_us": self.credit_watchdog_us}
        elif self.backpressure == "efci":
            backpressure = {"mode": "efci",
                            "efci_pause_us": EFCI_PAUSE_US}
        return {
            "topology": self.topology,
            "counters": self.counters(),
            "hosts": {i: asdict(host.stats())
                      for i, host in enumerate(self.hosts)
                      if host is not None},
            "switches": [{
                "name": sw.name,
                "cells_switched": sw.cells_switched,
                "cells_dropped": sw.cells_dropped,
                "dropped_no_route": sw.dropped_no_route,
                "dropped_queue_full": sw.dropped_queue_full,
                "cross_cells_injected": sw.cross_cells_injected,
                "cells_lost_to_faults": sw.cells_lost_to_faults,
                "cells_queued": sw.queued_cells(),
                "ports": [asdict(p) for p in sw.port_stats()],
            } for sw in self.switches],
            "gates": {i: {"name": host.name, **gate.stats()}
                      for i, (host, gate) in enumerate(
                          zip(self.hosts, self.gates, strict=False))
                      if host is not None and gate is not None},
            "backpressure": backpressure,
            "fault_plan": (self.faults.to_dict()
                           if self.faults is not None else None),
            "fault_sites": {name: site.stats() for name, site
                            in sorted(self._fault_sites.items())},
            "credit_cells_lost": self.credit_cells_lost,
            "recovery": (None if self.recovery is None else
                         (self.recovery.cfg, self.recovery.partial())),
        }


__all__ = ["Fabric", "Flow", "VciAllocator", "FIRST_FLOW_VCI",
           "DEFAULT_TOPOLOGY", "DEFAULT_PROP_DELAY_US", "EFCI_PAUSE_US"]
