"""Configuration for the recovery control plane.

A frozen value object so it hashes into cache keys, the same
discipline as :class:`repro.topology.spec.TopologySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import SimulationError

RECOVERY_MODES = ("off", "detect", "reroute")


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for failure detection and path failover.

    ``mode``
        ``"off"`` disables the subsystem, ``"detect"`` runs heartbeat
        probes and records declarations without touching routes,
        ``"reroute"`` additionally re-resolves affected flows over
        the surviving fabric.
    ``hb_interval_us``
        Heartbeat probe period per monitored element.  Each element's
        probe phase is a ``fault_hash`` of its name, so probes are
        content-addressed, not enumeration-ordered.
    ``detect_timeout_us``
        How long an element must stay unresponsive before it is
        declared dead (measured from the first probe that found it
        down).

    The declaration broadcast takes the fabric's propagation delay,
    VC re-establishment settles for two of them per path hop, and
    reroute attempts back off as
    :data:`~repro.recovery.manager.BACKOFF_US` and
    :data:`~repro.recovery.manager.MAX_RETRIES` say.
    """

    mode: str = "detect"
    hb_interval_us: float = 50.0
    detect_timeout_us: float = 100.0

    def __post_init__(self) -> None:
        if self.mode not in RECOVERY_MODES:
            raise SimulationError(
                f"unknown recovery mode {self.mode!r}; choose from "
                f"{RECOVERY_MODES}")
        if self.hb_interval_us <= 0:
            raise SimulationError("hb_interval_us must be positive")
        if self.detect_timeout_us < 0:
            raise SimulationError("detect_timeout_us must be >= 0")


__all__ = ["RecoveryConfig", "RECOVERY_MODES"]
