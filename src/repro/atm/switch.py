"""An output-queued ATM cell switch with per-VCI fair queueing.

Section 2.6 names three causes of striping skew; the third is
'different queuing delays experienced by cells on different links as
they pass through distinct ports on the switches in the network' --
and the paper notes it could only be eliminated by coordinating the
ports, 'negating the advantage of striping'.  This switch model makes
that cause real: each striped link's lane terminates in its own output
port with its own queues, so cross traffic on one port delays exactly
one lane.

The switch routes by VCI: the routing table maps an input VCI to
(output trunk, output VCI).  A *trunk* is a group of ``n_lanes``
output ports feeding one striped link, so striped traffic keeps its
lane (cell ``tx_index mod n`` stays on lane ``n``) while competing
with whatever else shares that port.

Each output port keeps one queue **per VCI** and drains them
round-robin (``drain_policy="rr"``, the network-processor discipline
of Papaefstathiou et al.), so a single open-loop hog can no longer
starve a well-behaved flow sharing its port; ``drain_policy="fifo"``
restores the single shared FIFO for comparison.  When a port is full,
the round-robin policy makes room by pushing out the tail of the
*longest* per-VCI backlog (fair buffer sharing) instead of
tail-dropping the arrival.

Congestion control (``backpressure``):

* ``"none"`` -- drop at the ``port_queue_cells`` cap (the seed
  behaviour; incast collapse is emergent).
* ``"credit"`` -- ports never drop for occupancy; admission is bounded
  upstream by receiver-driven per-VCI credit windows (see
  :mod:`repro.cluster.backpressure`), and the drain loop returns a
  credit to the registered hook every time it forwards a cell.
* ``"efci"`` -- the cheap alternative: cells enqueued on a port whose
  occupancy is at or above ``efci_threshold_cells`` get the explicit
  forward congestion indication bit set; the receiver's fabric edge
  relays the mark back to the source, which pauses briefly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..hw.specs import ATM_CELL_BYTES, STRIPE_LINKS
from ..sim import Delay, Signal, SimulationError, Simulator, spawn
from ..sim.trains import CellTrain
from ..topology.queues import ActiveQueueIndex, VirtualOccupancy
from .cell import Cell
from .link import OC3_MBPS

DeliverFn = Callable[[Cell], None]

BACKPRESSURE_MODES = ("none", "credit", "efci")
DRAIN_POLICIES = ("rr", "fifo")


def _lane(cell: Cell, n_lanes: int) -> int:
    """The output lane ``cell`` takes on an ``n_lanes``-wide trunk, or
    -1 on a striping width mismatch.

    A striped cell keeps its PDU lane (``tx_index mod n``); arriving
    stamped with the upstream lane it rode, the two must agree, or the
    modulo would silently put the cell on the wrong lane and break the
    reassembly invariant.  An unstamped cell (re-spread over a degraded
    group) keeps its upstream lane, which must exist downstream."""
    if cell.tx_index >= 0:
        lane = cell.tx_index % n_lanes
        if cell.link_id >= 0 and cell.link_id != lane:
            return -1
        return lane
    if cell.link_id >= n_lanes:
        return -1
    return cell.link_id % n_lanes


@dataclass
class _VciCounters:
    """Per-VCI occupancy counters inside one output port."""

    enqueued: int = 0
    forwarded: int = 0
    dropped: int = 0
    max_depth: int = 0


class _OutputPort:
    """One output port: per-VCI queues drained at line rate.

    All queue state lives in an :class:`ActiveQueueIndex`, so drain,
    FIFO service, and push-out-longest stay O(1) amortized however
    many VCIs are live on the port -- the million-circuit requirement
    the flat dict-scan design could not meet.  The incremental
    longest-queue tracking applies under *both* drain policies, so a
    full port never pays a per-VCI scan whichever scheduler runs.
    """

    def __init__(self, sim: Simulator, name: str, drain_policy: str):
        self.name = name
        self.drain_policy = drain_policy
        self.work = Signal(f"{name}.work")
        self.index = ActiveQueueIndex()
        self.cells_enqueued = 0
        self.cells_forwarded = 0
        self.cells_pushed_out = 0
        self.dropped_queue_full = 0
        self.max_queue_seen = 0
        self.vci_counters: dict[int, _VciCounters] = {}
        # Fault state: a killed port loses arrivals (lost_to_faults);
        # its backlog is allowed to drain.
        self.fault_dead = False
        self.lost_to_faults = 0
        # Cell-train state.  ``virtual`` tracks cells a fused commit
        # carried past this port: they occupy it for real simulated
        # time without ever entering ``index``, so admission and depth
        # statistics for later per-cell arrivals must add the residual.
        # ``busy_until`` is when the port's (real or virtual) service
        # chain ends; ``kill_at`` < inf means a port kill is armed and
        # the port's future is not predictable at commit time;
        # ``no_fuse`` is set once cross traffic shares the port.
        self.virtual = VirtualOccupancy()
        self.virtual_vci = -1
        self.busy_until = 0.0
        self.kill_at = float("inf")
        self.no_fuse = False

    @property
    def depth(self) -> int:
        """Total cells queued on this port."""
        return self.index.depth

    @property
    def cells_held(self) -> int:
        """Cells accepted but not yet handed to the trunk: the queues
        plus at most one cell inside the drain loop's delay."""
        return (self.cells_enqueued - self.cells_forwarded
                - self.cells_pushed_out)

    def _counters(self, vci: int) -> _VciCounters:
        counters = self.vci_counters.get(vci)
        if counters is None:
            counters = self.vci_counters[vci] = _VciCounters()
        return counters

    def enqueue(self, cell: Cell, virtual_same_vci: int = 0,
                virtual_total: int = 0) -> None:
        backlog = self.index.enqueue(cell.vci, cell,
                                     fifo=self.drain_policy != "rr")
        self.cells_enqueued += 1
        depth = self.index.depth + virtual_total
        if depth > self.max_queue_seen:
            self.max_queue_seen = depth
        counters = self._counters(cell.vci)
        counters.enqueued += 1
        if backlog + virtual_same_vci > counters.max_depth:
            counters.max_depth = backlog + virtual_same_vci
        self.work.fire()

    def pop_next(self) -> Optional[Cell]:
        """Next cell under the drain policy, or None when idle."""
        popped = (self.index.pop_rr() if self.drain_policy == "rr"
                  else self.index.pop_fifo())
        if popped is None:
            return None
        return popped[1]

    def push_out_longest(self, arriving_vci: int) -> Optional[int]:
        """Make room for ``arriving_vci`` by dropping the tail of the
        longest per-VCI backlog (fair buffer sharing).  Returns the
        victim VCI, or None when the arrival itself has the longest
        backlog and should be dropped instead.  O(1): the occupancy
        index tracks the longest queue incrementally."""
        longest = self.index.longest()
        if longest is None:
            return None
        victim, backlog = longest
        if backlog <= self.index.queue_len(arriving_vci):
            return None
        self.index.drop_tail(victim)
        self.cells_pushed_out += 1
        self.dropped_queue_full += 1
        self._counters(victim).dropped += 1
        return victim

    def note_arrival_drop(self, vci: int) -> None:
        self.dropped_queue_full += 1
        self._counters(vci).dropped += 1

    def record_forwarded(self, vci: int) -> None:
        self.cells_forwarded += 1
        self._counters(vci).forwarded += 1


@dataclass(frozen=True)
class PortStats:
    """Snapshot of one output port's counters."""

    trunk_id: int
    lane: int
    cells_enqueued: int
    cells_forwarded: int
    max_queue_seen: int
    depth: int
    dropped_queue_full: int
    lost_to_faults: int = 0
    dead: bool = False
    vcis: dict = field(default_factory=dict)


class CellSwitch:
    """VCI-routed, output-queued cell switch with per-lane ports.

    ``input_train`` is the fused cell-train commit: it may only do
    arithmetic on counters and virtual queue state (RACE203), since
    per-cell expansion replays the same cells as individual
    ``input_cell`` events.

    Fold: input_train
    """

    def __init__(self, sim: Simulator, name: str = "switch",
                 port_rate_mbps: float = OC3_MBPS,
                 switching_delay_us: float = 1.0,
                 port_queue_cells: int = 256,
                 backpressure: str = "none",
                 drain_policy: str = "rr",
                 efci_threshold_cells: Optional[int] = None):
        if backpressure not in BACKPRESSURE_MODES:
            raise SimulationError(
                f"unknown backpressure mode {backpressure!r}; "
                f"choose from {BACKPRESSURE_MODES}")
        if drain_policy not in DRAIN_POLICIES:
            raise SimulationError(
                f"unknown drain policy {drain_policy!r}; "
                f"choose from {DRAIN_POLICIES}")
        self.sim = sim
        self.name = name
        self.port_rate_mbps = port_rate_mbps
        self.switching_delay_us = switching_delay_us
        self.port_queue_cells = port_queue_cells
        self.backpressure = backpressure
        self.drain_policy = drain_policy
        self.efci_threshold_cells = (
            efci_threshold_cells if efci_threshold_cells is not None
            else port_queue_cells // 2)
        self.cell_time_us = ATM_CELL_BYTES * 8.0 / port_rate_mbps
        # trunk id -> list of output ports (one per lane).
        self._trunks: dict[int, list[_OutputPort]] = {}
        self._trunk_deliver: dict[int, DeliverFn] = {}
        # trunk id -> lane count for trunks owned by another shard's
        # replica of this switch; routes may reference them but cells
        # must never be queued here.
        self._remote_trunks: dict[int, int] = {}
        # input VCI -> (trunk id, output VCI).
        self._routes: dict[int, tuple[int, int]] = {}
        # trunk id -> number of routes targeting it.  A fused train
        # commit requires exactly one (only then can no other routed
        # flow interleave with the train's cells on its port).
        self._trunk_route_count: dict[int, int] = {}
        # (trunk id, cell VCI at the port) -> credit-return callback.
        self._forward_hooks: dict[tuple[int, int], Callable[[], None]] = {}
        self.cells_switched = 0
        self.dropped_no_route = 0
        self.dropped_queue_full = 0
        self.cells_lost_to_faults = 0
        self.cross_cells_injected = 0

    @property
    def cells_dropped(self) -> int:
        """All cells the switch lost, whatever the cause."""
        return self.dropped_no_route + self.dropped_queue_full

    # -- fabric configuration --------------------------------------------------

    def add_trunk(self, trunk_id: int, deliver: DeliverFn,
                  n_lanes: int = STRIPE_LINKS) -> None:
        """Attach an output trunk whose lanes feed ``deliver``.

        ``deliver`` receives cells in per-lane order (each lane is its
        own FIFO per VCI); cross-lane order is whatever port queueing
        produces -- the skew the receiving board must tolerate.
        """
        if trunk_id in self._trunks:
            raise SimulationError(f"trunk {trunk_id} exists")
        ports = []
        for lane in range(n_lanes):
            port = _OutputPort(self.sim,
                               f"{self.name}.t{trunk_id}.l{lane}",
                               self.drain_policy)
            ports.append(port)
            spawn(self.sim, self._drain(port, trunk_id),
                  f"{self.name}-t{trunk_id}-l{lane}")
        self._trunks[trunk_id] = ports
        self._trunk_deliver[trunk_id] = deliver

    def add_remote_trunk(self, trunk_id: int,
                         n_lanes: int = STRIPE_LINKS) -> None:
        """Register a trunk whose ports live on another shard.

        A sharded fabric keeps one replica of each switch per shard;
        every replica knows the full routing table (so any shard can
        look up where a cell is headed) but only the owning shard's
        replica has real ports.  Remote trunks carry just their lane
        count, for route validation.
        """
        if trunk_id in self._trunks or trunk_id in self._remote_trunks:
            raise SimulationError(f"trunk {trunk_id} exists")
        self._remote_trunks[trunk_id] = n_lanes

    def add_route(self, in_vci: int, trunk_id: int,
                  out_vci: Optional[int] = None) -> None:
        """Route ``in_vci`` to ``trunk_id``, rewriting to ``out_vci``."""
        if in_vci in self._routes:
            raise SimulationError(f"VCI {in_vci} already routed")
        if (trunk_id not in self._trunks
                and trunk_id not in self._remote_trunks):
            raise SimulationError(f"unknown trunk {trunk_id}")
        self._routes[in_vci] = (trunk_id, out_vci if out_vci is not None
                                else in_vci)
        self._trunk_route_count[trunk_id] = \
            self._trunk_route_count.get(trunk_id, 0) + 1

    def route_for(self, vci: int) -> Optional[tuple[int, int]]:
        """(trunk id, output VCI) for an input VCI, or None."""
        return self._routes.get(vci)

    def has_trunk(self, trunk_id: int) -> bool:
        """Does this switch own real ports for ``trunk_id``?"""
        return trunk_id in self._trunks

    def has_remote_trunk(self, trunk_id: int) -> bool:
        """Is ``trunk_id`` registered as another shard's?"""
        return trunk_id in self._remote_trunks

    def on_cell_forwarded(self, trunk_id: int, vci: int,
                          callback: Callable[[], None]) -> None:
        """Invoke ``callback`` each time this trunk forwards a cell
        carrying ``vci`` -- the switch end of a credit-return channel
        back to the flow's source."""
        if trunk_id not in self._trunks:
            raise SimulationError(f"unknown trunk {trunk_id}")
        self._forward_hooks[(trunk_id, vci)] = callback

    def forward_hook(self, trunk_id: int,
                     vci: int) -> Optional[Callable[[], None]]:
        """The registered forward callback for ``(trunk, vci)``, if
        any -- the fused train path invokes it per cell at the exact
        departure times the drain loop would have."""
        return self._forward_hooks.get((trunk_id, vci))

    def port_dead(self, trunk_id: int, lane: int) -> bool:
        """Liveness probe for one output port -- the recovery control
        plane's heartbeat target.  False for unknown ports (a shard
        probes only trunks it owns)."""
        ports = self._trunks.get(trunk_id)
        if ports is None or not 0 <= lane < len(ports):
            return False
        return ports[lane].fault_dead

    def kill_port(self, trunk_id: int, lane: int) -> None:
        """Fail one output port: subsequent arrivals are lost to the
        fault; cells already queued drain normally."""
        ports = self._trunks.get(trunk_id)
        if ports is None or not 0 <= lane < len(ports):
            raise SimulationError(
                f"{self.name}: no port (trunk {trunk_id}, lane {lane})")
        ports[lane].fault_dead = True

    def arm_port_kill(self, trunk_id: int, lane: int,
                      at_us: float) -> None:
        """Record that :meth:`kill_port` is scheduled for ``at_us``.

        An armed port never accepts fused train commits: a commit
        decides departures beyond the kill time, which the kill would
        have prevented.  Per-cell events stay exact."""
        ports = self._trunks.get(trunk_id)
        if ports is None or not 0 <= lane < len(ports):
            raise SimulationError(
                f"{self.name}: no port (trunk {trunk_id}, lane {lane})")
        port = ports[lane]
        port.kill_at = min(port.kill_at, at_us)

    # -- data path -----------------------------------------------------------------

    def input_cell(self, cell: Cell) -> None:
        """An arriving cell: route, rewrite, queue on its lane's port."""
        route = self._routes.get(cell.vci)
        if route is None:
            self.dropped_no_route += 1
            return
        trunk_id, out_vci = route
        if trunk_id in self._remote_trunks:
            raise SimulationError(
                f"{self.name}: cell for VCI {cell.vci} routed to remote "
                f"trunk {trunk_id}; the owning shard must queue it")
        ports = self._trunks[trunk_id]
        lane = _lane(cell, len(ports))
        if lane < 0:
            raise SimulationError(
                f"{self.name}: striping width mismatch on trunk "
                f"{trunk_id}: cell (tx_index {cell.tx_index}) rode "
                f"upstream lane {cell.link_id} but the trunk has "
                f"{len(ports)} lanes")
        rewritten = cell.rewrite(out_vci, lane, cell.efci)
        if self._admit(ports[lane], rewritten):
            self.cells_switched += 1

    def input_train(self, train: CellTrain) -> Optional[tuple]:
        """Absorb a whole cell train in one fused commit, if safe.

        Safe means no per-cell effect can depend on event
        interleaving: the cells' port is idle (no real backlog, no
        cross traffic, not dead, no kill armed), carries no other
        routed flow that could interleave, and cannot drop under the
        occupancy cap during the span.  The commit then computes each
        cell's full trajectory arithmetically -- service start chained
        through the port's busy time, departure one service later --
        and applies every counter, depth statistic, and EFCI mark the
        per-cell path would have produced, in one event.

        Returns ``(trunk_id, lane, cells_out, deps)`` where
        ``cells_out`` are the rewritten cells and ``deps`` their
        departure times, or None when the caller must expand the train
        into the per-cell events the plain path would have run.
        """
        cells = train.cells
        route = self._routes.get(cells[0].vci)
        if route is None:
            return None
        trunk_id, out_vci = route
        ports = self._trunks.get(trunk_id)
        if ports is None:               # remote trunk: owning shard's
            return None
        if self._trunk_route_count.get(trunk_id, 0) != 1:
            return None
        # Every cell must map to one lane; on any disagreement the
        # per-cell path runs, so its width-mismatch diagnostic fires.
        lane = _lane(cells[0], len(ports))
        if lane < 0 or any(_lane(cell, len(ports)) != lane
                           for cell in cells):
            return None
        port = ports[lane]
        if (port.fault_dead or port.no_fuse
                or port.kill_at != float("inf")
                or port.index.depth > 0):
            return None
        now = self.sim.now
        n = len(cells)
        pending = port.virtual.pending(now)
        if (self.backpressure != "credit"
                and len(pending) + n > self.port_queue_cells):
            return None                 # the span could hit the cap
        service = self.switching_delay_us + self.cell_time_us
        times = train.times
        busy = port.busy_until
        efci_mode = self.backpressure == "efci"
        threshold = self.efci_threshold_cells
        n_pending = len(pending)
        starts: list = []
        deps: list = []
        cells_out: list = []
        push_start = starts.append
        push_dep = deps.append
        push_cell = cells_out.append
        maxd = port.max_queue_seen
        vp = 0      # virtual cells whose service started by arrival i
        sp = 0      # train cells j < i whose service started by then
        for i, arrival in enumerate(times):
            cell = cells[i]
            start = arrival if arrival > busy else busy
            dep = start + service
            busy = dep
            while vp < n_pending and pending[vp] <= arrival:
                vp += 1
            while sp < i and starts[sp] <= arrival:
                sp += 1
            depth_before = (n_pending - vp) + (i - sp)
            if depth_before + 1 > maxd:
                maxd = depth_before + 1
            push_start(start)
            push_dep(dep)
            push_cell(cell.rewrite(
                out_vci, lane,
                cell.efci or (efci_mode
                              and depth_before >= threshold)))
        port.virtual.commit(starts)
        port.virtual_vci = out_vci
        port.busy_until = busy
        port.cells_enqueued += n
        port.cells_forwarded += n
        port.max_queue_seen = maxd
        counters = port._counters(out_vci)
        counters.enqueued += n
        counters.forwarded += n
        if maxd > counters.max_depth:
            counters.max_depth = maxd
        self.cells_switched += n
        # This one event replaced n - 1 per-cell arrival events; the
        # caller accounts for the drain events, which fold only where
        # it does not re-materialize per-cell downstream events.
        self.sim.events_absorbed += n - 1
        self.sim.note_model_time(deps[-1])
        return trunk_id, lane, cells_out, deps

    def _admit(self, port: _OutputPort, cell: Cell) -> bool:
        """Admission control for one port; returns False on a
        queue-full drop.  Credit mode never drops for occupancy: the
        per-VCI windows upstream bound what can arrive."""
        if port.fault_dead:
            port.lost_to_faults += 1
            self.cells_lost_to_faults += 1
            return False
        virtual = (port.virtual.residual(self.sim.now)
                   if port.virtual else 0)
        if (self.backpressure != "credit"
                and port.depth + virtual >= self.port_queue_cells):
            victim = (port.push_out_longest(cell.vci)
                      if self.drain_policy == "rr" else None)
            if victim is None:
                port.note_arrival_drop(cell.vci)
                self.dropped_queue_full += 1
                return False
            self.dropped_queue_full += 1  # the pushed-out victim
        if (self.backpressure == "efci"
                and port.depth + virtual >= self.efci_threshold_cells):
            cell.efci = True
        port.enqueue(cell,
                     virtual if cell.vci == port.virtual_vci else 0,
                     virtual)
        return True

    def _drain(self, port: _OutputPort,
               trunk_id: int) -> Generator[Any, Any, None]:
        service = self.switching_delay_us + self.cell_time_us
        while True:
            # A fused train commit may have claimed the port's service
            # chain into the future: real cells wait their turn behind
            # the virtually-occupying cells, exactly as they would have
            # waited behind the same cells queued for real.
            wait = port.busy_until - self.sim.now
            if wait > 0.0:
                yield Delay(wait)
                continue
            cell = port.pop_next()
            if cell is None:
                yield port.work
                continue
            port.busy_until = self.sim.now + service
            yield Delay(service)
            port.record_forwarded(cell.vci)
            self._trunk_deliver[trunk_id](cell)
            hook = self._forward_hooks.get((trunk_id, cell.vci))
            if hook is not None:
                hook()

    # -- background load (the cross traffic that causes cause-3 skew) --------------

    def inject_cross_traffic(self, trunk_id: int, lane: int,
                             rate_mbps: float, vci: int = 0xFFF0,
                             duration_us: float = float("inf")) -> None:
        """A competing flow occupying one lane's output port."""
        if rate_mbps <= 0.0:
            raise SimulationError(
                f"cross-traffic rate must be positive, got {rate_mbps}")
        ports = self._trunks[trunk_id]
        port = ports[lane]
        port.no_fuse = True     # trains can no longer assume the
        #                         port carries a single routed flow
        interval = ATM_CELL_BYTES * 8.0 / rate_mbps
        stop_at = self.sim.now + duration_us

        def pump() -> Generator[Any, Any, None]:
            while True:
                # Stop check BEFORE injecting: a zero-length window
                # must inject nothing at all.
                if self.sim.now >= stop_at:
                    return
                filler = Cell(vci=vci, payload=b"")
                filler.link_id = lane
                self.cross_cells_injected += 1
                self._admit(port, filler)
                yield Delay(interval)

        spawn(self.sim, pump(), f"cross-t{trunk_id}-l{lane}")

    # -- observability --------------------------------------------------------------

    def queued_cells(self) -> int:
        """Cells currently inside the switch (queued or draining)."""
        return sum(p.cells_held
                   for ports in self._trunks.values() for p in ports)

    def port_stats(self) -> list[PortStats]:
        """Per-port counter snapshots, ordered (trunk, lane)."""
        return [
            PortStats(trunk_id=trunk_id, lane=lane,
                      cells_enqueued=port.cells_enqueued,
                      cells_forwarded=port.cells_forwarded,
                      max_queue_seen=port.max_queue_seen,
                      depth=port.depth,
                      dropped_queue_full=port.dropped_queue_full,
                      lost_to_faults=port.lost_to_faults,
                      dead=port.fault_dead,
                      vcis={vci: {"enqueued": c.enqueued,
                                  "forwarded": c.forwarded,
                                  "dropped": c.dropped,
                                  "max_depth": c.max_depth}
                            for vci, c in sorted(port.vci_counters.items())})
            for trunk_id, ports in sorted(self._trunks.items())
            for lane, port in enumerate(ports)
        ]


__all__ = ["CellSwitch", "PortStats", "BACKPRESSURE_MODES",
           "DRAIN_POLICIES"]
