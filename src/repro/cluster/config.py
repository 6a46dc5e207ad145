"""One cluster run, stated once.

A :class:`ClusterConfig` has one field per ``repro cluster`` flag,
named after its argparse destination (``shard_backend`` is
``--shard-backend``), with the only copy of the flag's default,
choices and help text.  It validates once, on construction: every
error is a :class:`ConfigError` that starts with its flag.  It builds
the :class:`~repro.cluster.fabric.Fabric` keywords and the
:class:`~repro.cluster.workloads.WorkloadSpec`, runs the workload
plain, sharded or as a sweep, and :meth:`ClusterConfig.to_argv` gives
back the ``repro cluster`` arguments that rebuild it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from ..atm.aal5 import SegmentMode
from ..atm.switch import BACKPRESSURE_MODES, DRAIN_POLICIES
from ..faults import FaultPlan
from ..hw.specs import DEC3000_600, DS5000_200
from ..recovery import RECOVERY_MODES, RecoveryConfig
from ..sim.parallel import BACKENDS
from ..topology import TOPOLOGIES, build_spec
from .fabric import DEFAULT_TOPOLOGY, Fabric
from .metrics import ClusterReport, collect
from .sharded import run_cluster_sharded
from .workloads import (
    KINDS, PATTERNS, WorkloadSpec, run_workload, sweep_offered_load,
)

# The names ``--machine`` accepts.
MACHINE_NAMES = {
    "ds": DS5000_200, "ds5000": DS5000_200, "5000/200": DS5000_200,
    "alpha": DEC3000_600, "3000": DEC3000_600, "3000/600": DEC3000_600,
}

# The reassembly strategies ``--segment`` offers.
SEGMENTS = {"sequence": SegmentMode.SEQUENCE,
            "in-order": SegmentMode.IN_ORDER}


class ConfigError(ValueError):
    """A cluster option the model would misread; the message starts
    with the option's flag."""


def flag(name: str) -> str:
    """The CLI flag of field ``name``."""
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class ClusterConfig:
    """Every option of one cluster run.  Each field's metadata holds
    its CLI ``help`` and any argparse ``choices`` or ``metavar``."""

    hosts: int = field(default=8, metadata={
        "help": "number of hosts on the fabric"})
    pattern: str = field(default="incast", metadata={"choices": PATTERNS})
    workload: str = field(default="open", metadata={
        "help": "open-loop senders or closed-loop RPC mix",
        "choices": KINDS})
    machine: str = field(default="ds", metadata={"help": "ds | alpha"})
    topology: str = field(default=DEFAULT_TOPOLOGY, metadata={
        "help": "fabric shape: two hosts back-to-back, a flat full mesh "
                "of --switches, a leaf/spine Clos, or a 3D torus",
        "choices": TOPOLOGIES})
    switches: int = field(default=1, metadata={
        "help": "cell switches for --topology switched"})
    pods: int = field(default=4, metadata={
        "help": "leaf switches for --topology clos, at most --hosts (so "
                "a Clos of fewer than 4 hosts needs a smaller --pods)"})
    oversub: float = field(default=2.0, metadata={
        "help": "Clos oversubscription ratio (leaves : spines)"})
    dims: Optional[str] = field(default=None, metadata={
        "help": "torus dimensions (default 2,2,2)", "metavar": "X,Y,Z"})
    size: int = field(default=4096, metadata={
        "help": "message size in bytes (open-loop)"})
    messages: int = field(default=8, metadata={
        "help": "messages (or RPC calls) per client"})
    rate: float = field(default=0.0, metadata={
        "help": "per-client offered rate in Mbps (0 = unpaced)"})
    poisson: bool = field(default=False, metadata={
        "help": "Poisson instead of constant spacing"})
    backpressure: str = field(default="none", metadata={
        "help": "fabric flow control: per-VCI credits, EFCI marking, or "
                "nothing", "choices": BACKPRESSURE_MODES})
    window: int = field(default=64, metadata={
        "help": "credit window in cells per flow VCI"})
    drain: str = field(default="rr", metadata={
        "help": "output-port scheduler: per-VCI round-robin or one FIFO",
        "choices": DRAIN_POLICIES})
    sweep: Optional[str] = field(default=None, metadata={
        "help": "run a goodput-vs-offered-load sweep over these "
                "per-client rates instead", "metavar": "MBPS,..."})
    segment: str = field(default="sequence", metadata={
        "help": "reassembly strategy at the receivers",
        "choices": tuple(SEGMENTS)})
    shards: int = field(default=1, metadata={
        "help": "partition hosts across N simulators (the report is "
                "byte-identical to --shards 1)"})
    shard_backend: str = field(default="proc", metadata={
        "help": "worker processes, or an in-process loop for debugging",
        "choices": BACKENDS})
    trace_out: Optional[str] = field(default=None, metadata={
        "help": "record every cross-shard boundary message into a "
                "happens-before trace for 'repro check --replay FILE' "
                "(runs sharded even for --shards 1)", "metavar": "FILE"})
    faults: Optional[str] = field(default=None, metadata={
        "help": "fault plan, e.g. 'loss=0.01,corrupt=0.001,"
                "flap=2:1@500+200,kill=0:3@1000,port=0:0:1@800,"
                "credit-loss=0.05' (seeded by --seed)", "metavar": "SPEC"})
    recovery: str = field(default="off", metadata={
        "help": "heartbeat failure detection, or detection plus ECMP "
                "failover for flows crossing a killed switch port",
        "choices": RECOVERY_MODES})
    hb_interval: float = field(
        default=RecoveryConfig.hb_interval_us, metadata={
            "help": "recovery heartbeat probe period", "metavar": "US"})
    detect_timeout: float = field(
        default=RecoveryConfig.detect_timeout_us, metadata={
            "help": "how long an element stays down before it is "
                    "declared dead", "metavar": "US"})
    regen_timeout: Optional[float] = field(default=None, metadata={
        "help": "refill a flow's credit window after this long stalled "
                "with zero refills (recovers lost credits)",
        "metavar": "US"})
    watchdog: Optional[float] = field(default=None, metadata={
        "help": "fail with a diagnosis instead of hanging when a flow is "
                "stalled this long with zero refills", "metavar": "US"})
    train: bool = field(default=True, metadata={
        "help": "carry uncontended cell bursts as single events; "
                "--no-train forces one event per cell (the report is "
                "the same)"})
    seed: int = 1
    sanitize: bool = field(default=False, metadata={
        "help": "enable the runtime sanitizers (SRSW ownership, "
                "monotone time, per-window conservation)"})

    def __post_init__(self) -> None:
        # Reject values the model would silently misread (a shard
        # count below one runs unsharded, a NaN rate runs unpaced, no
        # messages run an empty workload) or only trip over mid-run.
        for f in fields(self):
            choices = f.metadata.get("choices")
            value = getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ConfigError(f"{flag(f.name)} must be one of "
                                  f"{choices}, got {value!r}")
        if self.machine.lower() not in MACHINE_NAMES:
            raise ConfigError(f"--machine must be one of "
                              f"{sorted(MACHINE_NAMES)}, got "
                              f"{self.machine!r}")
        for name, least in (("hosts", 2), ("switches", 1), ("pods", 1),
                            ("size", 1), ("messages", 1), ("window", 1),
                            ("shards", 1)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(
                    f"{flag(name)} must be >= {least}, got {value}")
        # The generators reject these too, but without naming a flag.
        for name, topology in (("switches", "switched"), ("pods", "clos")):
            value = getattr(self, name)
            if self.topology == topology and value > self.hosts:
                raise ConfigError(
                    f"{flag(name)} must be <= --hosts ({self.hosts}) for "
                    f"--topology {topology}, got {value}")
        if self.topology == "direct":
            if self.hosts != 2:
                raise ConfigError(
                    f"--hosts must be 2 for --topology direct (two hosts "
                    f"back-to-back), got {self.hosts}")
            for name, given in (("shards", self.shards > 1),
                                ("trace_out", self.trace_out)):
                if given:
                    raise ConfigError(
                        f"{flag(name)} cannot be combined with --topology "
                        "direct (a sharded run cuts the fabric at switch "
                        "trunks, and direct has none)")
        for name, zero_ok in (("oversub", False),
                              ("rate", True),           # 0 = unpaced
                              ("hb_interval", False),
                              ("detect_timeout", True),
                              ("regen_timeout", False),
                              ("watchdog", False)):
            value = getattr(self, name)
            if value is None:                           # not given
                continue
            if not (0.0 < value < math.inf or (zero_ok and value == 0.0)):
                raise ConfigError(
                    f"{flag(name)} must be a finite number "
                    f"{'>= 0' if zero_ok else '> 0'}, got {value}")
        rates = None
        if self.sweep is not None:
            for name, given in (("shards", self.shards > 1),
                                ("trace_out", self.trace_out)):
                if given:
                    raise ConfigError(
                        f"{flag(name)} cannot be combined with --sweep "
                        "(each sweep point is an independent plain run)")
            rates = []
            for token in self.sweep.split(","):
                try:
                    rate = float(token)
                except ValueError:
                    rate = math.nan
                if not 0.0 <= rate < math.inf:      # nan fails too
                    raise ConfigError(
                        f"--sweep rate {token!r} is not a number >= 0 "
                        "(0 = unpaced)")
                rates.append(rate)
        dims = None
        if self.dims:
            try:
                dims = tuple(int(d) for d in self.dims.split(","))
            except ValueError:
                raise ConfigError(f"--dims must be X,Y,Z, got "
                                  f"{self.dims!r}") from None
        plan = None
        if self.faults:
            # Resolve switch names (port=leaf0:...) and check every
            # switch/host/lane token against the spec the fabric builds.
            topo = None
            if self.topology != "direct":
                topo = build_spec(self.topology, self.hosts,
                                  n_switches=self.switches,
                                  pods=self.pods, dims=dims,
                                  oversubscription=self.oversub)
            try:
                plan = FaultPlan.parse(self.faults, seed=self.seed,
                                       topology=topo,
                                       n_hosts=self.hosts)
            except ValueError as exc:
                raise ConfigError(f"--faults {exc}") from None
        # The string options, parsed (derived, so not fields).
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_plan", plan)

    def fabric_kwargs(self) -> dict:
        """The :class:`Fabric` keywords of this run (picklable, so a
        proc-backend shard can rebuild its slice from them)."""
        return {
            "machines": MACHINE_NAMES[self.machine.lower()],
            "n_hosts": self.hosts, "n_switches": self.switches,
            "segment_mode": SEGMENTS[self.segment],
            "topology": self.topology, "pods": self.pods,
            "torus_dims": self._dims, "oversubscription": self.oversub,
            "routing_seed": self.seed, "backpressure": self.backpressure,
            "credit_window_cells": self.window,
            "drain_policy": self.drain, "trains": self.train,
            "faults": self._plan,
            "recovery": None if self.recovery == "off" else RecoveryConfig(
                mode=self.recovery, hb_interval_us=self.hb_interval,
                detect_timeout_us=self.detect_timeout),
            "credit_regen_timeout_us": self.regen_timeout,
            "credit_watchdog_us": self.watchdog}

    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            pattern=self.pattern, kind=self.workload, seed=self.seed,
            message_bytes=self.size, messages_per_client=self.messages,
            rate_mbps=self.rate,
            arrival="poisson" if self.poisson else "constant",
            requests_per_client=self.messages)

    def run(self, max_events: Optional[int] = None
            ) -> ClusterReport | list[dict]:
        """Run the workload: the report of a plain or sharded run, or
        with ``sweep`` the list of sweep points.  ``max_events`` bounds
        a plain run, so a stalled fabric raises instead of reporting a
        truncated run."""
        if self.sanitize:
            from ..analysis import sanitize
            sanitize.enable()
        kwargs = self.fabric_kwargs()
        spec = self.workload_spec()
        if self._rates is not None:
            return sweep_offered_load(lambda: Fabric(**kwargs), spec,
                                      self._rates)
        if self.shards > 1 or self.trace_out:
            report, _run = run_cluster_sharded(
                kwargs, spec, self.shards, backend=self.shard_backend,
                sanitize=self.sanitize, trace_path=self.trace_out)
            return report
        fabric = Fabric(**kwargs)
        return collect(fabric, run_workload(fabric, spec,
                                            max_events=max_events))

    @classmethod
    def from_args(cls, args) -> ClusterConfig:
        """The config a ``repro cluster`` argparse namespace states."""
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})

    def to_argv(self) -> list[str]:
        """The ``repro cluster`` arguments that rebuild this config;
        options at their defaults are left out."""
        argv: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if isinstance(value, bool):     # --poisson, --no-train
                argv.append(flag(f.name) if value
                            else "--no-" + f.name.replace("_", "-"))
            else:
                argv += [flag(f.name), str(value)]
        return argv


__all__ = ["ClusterConfig", "ConfigError", "MACHINE_NAMES", "SEGMENTS",
           "flag"]
