"""Host-side flow-control gates for the cluster fabric.

The seed fabric's only congestion response was the 256-cell port cap:
incast collapse was emergent but unrecoverable, because the switch
simply truncated.  This module supplies the missing control plane --
the channel from a switch output port back to the *originating* host's
transmit processor:

* **Credit mode** (receiver-driven, the RDCA-style answer): every flow
  VCI gets a window of cells it may have outstanding inside the
  fabric.  The transmit processor acquires one credit per cell before
  emission; the final-hop switch port returns the credit when it
  forwards the cell to the destination host.  Port occupancy is
  therefore bounded by ``window`` per VCI and a full port pauses the
  offending flow at its source instead of dropping.

* **EFCI mode** (the cheap alternative): emission is not counted, but
  a congested port sets the explicit forward congestion indication bit
  on cells it queues; the destination's fabric edge relays the mark
  back, and the gate pauses the flow for a fixed cooldown.

A :class:`CreditGate` is per host; :class:`repro.osiris.tx_processor.
TxProcessor` calls :meth:`acquire` before every cell, and
:class:`repro.cluster.fabric.Fabric` installs the refill/pause ends
when it opens a flow.  VCIs the gate has never heard of (ADC grants,
cross traffic) pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..sim import Delay, Signal, SimulationError, Simulator


@dataclass
class _FlowGate:
    """Flow-control state for one source VCI."""

    vci: int
    window: Optional[int]       # None: uncounted (EFCI pausing only)
    credits: Optional[int]
    signal: Signal
    resume_at: float = 0.0
    stalls: int = 0
    stall_time_us: float = 0.0
    refills: int = 0
    pauses: int = 0
    regenerations: int = 0
    # Incremented every time credits arrive (refill or regeneration).
    # Recovery timers capture the epoch when armed and no-op if it has
    # moved on -- the cheap way to cancel a stale timer.
    epoch: int = 0
    waiting: bool = False
    # Live recovery Timer handles; cancelled the moment a genuine
    # refill arrives so an armed-but-moot timer cannot extend the
    # simulation past its natural quiescence.
    timers: list = field(default_factory=list)


class CreditGate:
    """Per-VCI emission gate at one host's fabric ingress.

    The flow table is setup-written and boundary-retired; credit
    windows move only through ``refill``/``pause``, which arrive as
    boundary messages (cross-shard effectors, RACE202).

    SRSW: _flows via open_vci, retire_vci

    Two optional recovery mechanisms guard the credit loop against an
    unreliable fabric (both default off, so a loss-free run is
    bit-for-bit unchanged):

    * ``regen_timeout_us`` -- if a flow has been stalled at zero
      credits for this long without a single refill, the gate assumes
      the outstanding cells (or their returning credits) died in the
      fabric and regenerates the full window.  At fault rate 0 a stall
      always ends with a genuine refill first, so regeneration never
      fires and the loss-free result is preserved.
    * ``watchdog_us`` -- same trigger, but instead of recovering the
      gate raises a diagnosable :class:`SimulationError` naming the
      VCI and its outstanding count.  This turns the silent
      credit-deadlock hang into a crash with a cause attached.
    """

    def __init__(self, sim: Simulator, name: str = "gate",
                 regen_timeout_us: Optional[float] = None,
                 watchdog_us: Optional[float] = None):
        if regen_timeout_us is not None and regen_timeout_us <= 0:
            raise SimulationError(
                f"{name}: regen_timeout_us must be positive")
        if watchdog_us is not None and watchdog_us <= 0:
            raise SimulationError(
                f"{name}: watchdog_us must be positive")
        self.sim = sim
        self.name = name
        self.regen_timeout_us = regen_timeout_us
        self.watchdog_us = watchdog_us
        self._flows: dict[int, _FlowGate] = {}
        self.stalls = 0
        self.stall_time_us = 0.0
        self.regenerations = 0
        self.credits_regenerated = 0

    def open_vci(self, vci: int, window: Optional[int] = None) -> None:
        """Gate emissions on ``vci``.  ``window`` is the credit budget
        (cells outstanding inside the fabric); None means uncounted --
        the flow only stalls when :meth:`pause` is called."""
        if vci in self._flows:
            raise SimulationError(
                f"{self.name}: VCI {vci:#x} already gated")
        if window is not None and window < 1:
            raise SimulationError(
                f"{self.name}: credit window must be >= 1, got {window}")
        self._flows[vci] = _FlowGate(
            vci=vci, window=window, credits=window,
            signal=Signal(f"{self.name}.{vci:#x}"))

    def acquire(self, vci: int) -> Generator[Any, Any, None]:
        """Block until ``vci`` may emit one cell (subroutine: use as
        ``yield from gate.acquire(vci)``).  Ungated VCIs never block."""
        flow = self._flows.get(vci)
        if flow is None:
            return
        while True:
            start = self.sim.now
            if start < flow.resume_at:
                flow.stalls += 1
                self.stalls += 1
                yield Delay(flow.resume_at - start)
                elapsed = self.sim.now - start
                flow.stall_time_us += elapsed
                self.stall_time_us += elapsed
                continue
            if flow.credits is None:
                return
            if flow.credits > 0:
                flow.credits -= 1
                return
            flow.stalls += 1
            self.stalls += 1
            flow.waiting = True
            self._arm_recovery(flow)
            yield flow.signal
            flow.waiting = False
            self._cancel_recovery(flow)
            elapsed = self.sim.now - start
            flow.stall_time_us += elapsed
            self.stall_time_us += elapsed

    def retire_vci(self, vci: int) -> None:
        """Forget a gated VCI -- path failover retired its wire
        identifier.  Any emitter blocked on the old credits is
        released (it re-checks and finds the flow uncounted), its
        recovery timers die, and credits still riding the fabric
        against the old window refill into nothing."""
        flow = self._flows.pop(vci, None)
        if flow is None:
            return
        self._cancel_recovery(flow)
        flow.credits = None
        flow.window = None
        flow.signal.fire()

    def refill(self, vci: int) -> None:
        """Return one credit to ``vci`` -- the switch end of the
        credit channel, called when the final-hop port forwards a
        cell of this flow.  Credits addressed to a retired VCI (cells
        that were in flight when a failover cut the flow over) fall
        on the floor."""
        flow = self._flows.get(vci)
        if flow is None or flow.credits is None:
            return
        if flow.window is None or flow.credits < flow.window:
            flow.credits += 1
            flow.refills += 1
            flow.epoch += 1
            self._cancel_recovery(flow)
            flow.signal.fire()

    def _arm_recovery(self, flow: _FlowGate) -> None:
        """Arm the regeneration and watchdog timers for one stall."""
        epoch = flow.epoch
        now = self.sim.now
        if self.regen_timeout_us is not None:
            flow.timers.append(self.sim.call_at(
                now + self.regen_timeout_us,
                lambda: self._regen_fire(flow, epoch)))
        if self.watchdog_us is not None:
            flow.timers.append(self.sim.call_at(
                now + self.watchdog_us,
                lambda: self._watchdog_fire(flow, epoch)))

    def _cancel_recovery(self, flow: _FlowGate) -> None:
        for timer in flow.timers:
            timer.cancel()
        flow.timers.clear()

    def _regen_fire(self, flow: _FlowGate, epoch: int) -> None:
        if (not flow.waiting or flow.epoch != epoch
                or flow.credits is None or flow.window is None):
            return  # stale: a real refill arrived, or the stall ended
        regenerated = flow.window - flow.credits
        flow.credits = flow.window
        flow.regenerations += 1
        flow.epoch += 1
        self.regenerations += 1
        self.credits_regenerated += regenerated
        self._cancel_recovery(flow)
        flow.signal.fire()

    def _watchdog_fire(self, flow: _FlowGate, epoch: int) -> None:
        if (not flow.waiting or flow.epoch != epoch
                or flow.credits is None or flow.window is None):
            return
        outstanding = flow.window - flow.credits
        raise SimulationError(
            f"{self.name}: credit deadlock on VCI {flow.vci:#x}: "
            f"stalled since t={self.sim.now - self.watchdog_us:.1f}us "
            f"with zero refills for {self.watchdog_us:.1f}us; "
            f"{outstanding} of {flow.window} credits outstanding "
            f"(lost data or credit cells?). Enable credit "
            f"regeneration (regen_timeout_us / --regen-timeout) to "
            f"recover instead of raising.")

    def pause(self, vci: int, until_us: float) -> None:
        """Hold ``vci``'s emissions until the given simulation time --
        the EFCI cooldown.  Overlapping pauses extend, never shorten."""
        flow = self._flows.get(vci)
        if flow is None:
            return
        if until_us > flow.resume_at:
            flow.resume_at = until_us
            flow.pauses += 1

    def credits_outstanding(self) -> int:
        """Cells currently inside the fabric against this gate's
        credit windows (zero once every flow has drained)."""
        return sum(flow.window - flow.credits
                   for flow in self._flows.values()
                   if flow.credits is not None and flow.window is not None)

    def stats(self) -> dict:
        """Counters for the cluster report."""
        return {
            "stalls": self.stalls,
            "stall_time_us": self.stall_time_us,
            "credits_outstanding": self.credits_outstanding(),
            "regenerations": self.regenerations,
            "credits_regenerated": self.credits_regenerated,
            "flows": {
                flow.vci: {
                    "window": flow.window,
                    "credits": flow.credits,
                    "stalls": flow.stalls,
                    "stall_time_us": flow.stall_time_us,
                    "refills": flow.refills,
                    "pauses": flow.pauses,
                    "regenerations": flow.regenerations,
                }
                for flow in sorted(self._flows.values(),
                                   key=lambda f: f.vci)
            },
        }


__all__ = ["CreditGate"]
