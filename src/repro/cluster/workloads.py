"""Scalable workload engine for the cluster fabric.

Two client families drive a :class:`repro.cluster.Fabric`:

* **Open-loop** generators pace messages onto the fabric at an offered
  rate (constant spacing or a Poisson process), regardless of what the
  receivers do with them -- the load model of *Queue Management in
  Network Processors*-style studies, where per-port queue occupancy is
  the object of interest.
* **Closed-loop** generators run a request-response loop: each client
  issues an NFS-style RPC mix (page-multiple READ replies, WRITE
  requests, as in section 2.5.2 of the paper) and waits for the reply
  before the next call, so load self-limits to the service rate.

Traffic patterns map clients onto hosts: ``incast`` (everyone sends to
one server -- the fan-in that fills a single output trunk), ``pairs``
(disjoint one-to-one flows), and ``all2all`` (every ordered pair).

Every client owns a :class:`random.Random` seeded from the workload
seed and its client index, so runs are deterministic and individual
clients' streams are independent of fleet size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Optional

from ..sim import Delay, SimulationError, spawn
from ..xkernel.protocols.rpc import RpcClient, RpcProtocol, RpcServer
from .fabric import Fabric
from .metrics import collect

PATTERNS = ("incast", "all2all", "pairs")
KINDS = ("open", "rpc")

PROC_READ = 1
PROC_WRITE = 2
RPC_SERVICE_US = 120.0          # server time per RPC, READ or WRITE
_WRITE_STATUS = b"OK\x00\x00"


def pattern_flows(pattern: str, n_hosts: int,
                  server: int = 0) -> list[tuple[int, int]]:
    """(src, dst) host pairs for a named traffic pattern."""
    if n_hosts < 2:
        raise SimulationError("patterns need at least two hosts")
    if pattern == "incast":
        return [(i, server) for i in range(n_hosts) if i != server]
    if pattern == "pairs":
        return [(i, i + 1) for i in range(0, n_hosts - 1, 2)]
    if pattern == "all2all":
        return [(i, j) for i in range(n_hosts)
                for j in range(n_hosts) if i != j]
    raise SimulationError(
        f"unknown pattern {pattern!r}; choose from {PATTERNS}")


def client_rng(seed: int, index: int) -> random.Random:
    """A per-client RNG stream: deterministic, independent of fleet
    size, uncorrelated across clients (splitmix-style spread)."""
    mixed = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9)
    return random.Random(mixed & 0xFFFFFFFFFFFFFFFF)


@dataclass
class WorkloadSpec:
    """Parameters of one cluster run."""

    pattern: str = "incast"
    kind: str = "open"              # "open" | "rpc"
    seed: int = 1
    # Open-loop knobs.
    message_bytes: int = 4096
    messages_per_client: int = 8
    rate_mbps: float = 0.0          # per-client offered rate; 0 = unpaced
    arrival: str = "constant"       # "constant" | "poisson"
    transport: str = "raw"          # "raw" | "udp"
    # Closed-loop (RPC) knobs.
    requests_per_client: int = 8
    rpc_block_bytes: int = 8192     # page-multiple NFS blocks
    rpc_read_fraction: float = 0.75


@dataclass
class ClientResult:
    """What one client saw.

    ``send_times_us`` / ``recv_times_us`` are the raw per-message
    timestamps (send at the source, reception at the destination).
    They exist so a sharded run -- where the two ends of an open-loop
    flow live in different processes -- can merge the halves and
    recompute ``latencies_us`` with bit-identical arithmetic.
    """

    name: str
    src: int
    dst: int
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    latencies_us: list = field(default_factory=list, repr=False)
    send_times_us: list = field(default_factory=list, repr=False)
    recv_times_us: list = field(default_factory=list, repr=False)


@dataclass
class WorkloadResult:
    """Aggregated outcome of a workload over a fabric."""

    spec: WorkloadSpec
    clients: list
    elapsed_us: float

    def latencies(self) -> list:
        out: list = []
        for client in self.clients:
            out.extend(client.latencies_us)
        return out

    def summary(self) -> dict:
        lat = sorted(self.latencies())
        bytes_moved = sum(c.bytes_received for c in self.clients)
        goodput = (bytes_moved * 8.0 / self.elapsed_us
                   if self.elapsed_us > 0 else 0.0)
        summary = {
            "pattern": self.spec.pattern,
            "kind": self.spec.kind,
            "clients": len(self.clients),
            "messages_sent": sum(c.messages_sent for c in self.clients),
            "messages_received": sum(c.messages_received
                                     for c in self.clients),
            "bytes_received": bytes_moved,
            "elapsed_us": self.elapsed_us,
            "goodput_mbps": goodput,
        }
        if lat:
            summary["latency_us"] = {
                "min": lat[0],
                "median": lat[len(lat) // 2],
                "p99": lat[min(len(lat) - 1, int(len(lat) * 0.99))],
                "max": lat[-1],
            }
        return summary


# ---------------------------------------------------------------------------
# Client processes
# ---------------------------------------------------------------------------

def _open_loop_client(sim, app, spec: WorkloadSpec, rng: random.Random,
                      result: ClientResult,
                      send_times: list) -> Generator[Any, Any, None]:
    interval = (spec.message_bytes * 8.0 / spec.rate_mbps
                if spec.rate_mbps > 0 else 0.0)
    for _ in range(spec.messages_per_client):
        if interval > 0.0:
            gap = (rng.expovariate(1.0 / interval)
                   if spec.arrival == "poisson" else interval)
            yield Delay(gap)
        send_times.append(sim.now)
        yield from app.send_length(spec.message_bytes)
        result.messages_sent += 1
        result.bytes_sent += spec.message_bytes


def _rpc_client(sim, client: RpcClient, spec: WorkloadSpec,
                rng: random.Random, result: ClientResult,
                block: bytes) -> Generator[Any, Any, None]:
    for k in range(spec.requests_per_client):
        is_read = rng.random() < spec.rpc_read_fraction
        start = sim.now
        if is_read:
            request = bytes([k & 0xFF])
            reply = yield from client.call(PROC_READ, request)
        else:
            request = block
            reply = yield from client.call(PROC_WRITE, request,
                                           page_align=True)
        result.latencies_us.append(sim.now - start)
        result.messages_sent += 1
        result.messages_received += 1
        result.bytes_sent += len(request)
        result.bytes_received += len(reply)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def setup_workload(fabric: Fabric,
                   spec: WorkloadSpec) -> tuple[list, list]:
    """Install every client of ``spec`` on ``fabric``.

    Returns ``(clients, finishers)``.  The flow-open loop runs in full
    global order on every caller -- a shard instantiates apps and
    client processes only for the hosts it owns, but still walks every
    flow so VCI allocation and route tables agree fabric-wide.
    """
    if spec.kind not in KINDS:
        raise SimulationError(f"unknown workload kind {spec.kind!r}")
    flows = pattern_flows(spec.pattern, len(fabric.hosts))
    clients: list[ClientResult] = []
    finishers = []

    for index, (src, dst) in enumerate(flows):
        rng = client_rng(spec.seed, index)
        result = ClientResult(name=f"c{index}", src=src, dst=dst)
        clients.append(result)
        if spec.kind == "open":
            finishers.append(_setup_open_loop(fabric, spec, rng, result,
                                              src, dst))
        else:
            finishers.append(_setup_rpc(fabric, spec, rng, result,
                                        src, dst))
    return clients, finishers


def run_workload(fabric: Fabric, spec: WorkloadSpec,
                 max_events: Optional[int] = None) -> WorkloadResult:
    """Set up every client of ``spec`` on ``fabric``, run the
    simulation to quiescence, and aggregate the results.

    ``max_events`` turns a hang into a diagnosable failure: every
    result this function returns is from a *drained* fabric, so
    callers that assume completion (the chaos harness, the benches)
    pass a budget and get an exception instead of truncated numbers.
    """
    clients, finishers = setup_workload(fabric, spec)
    start = fabric.sim.now
    executed = fabric.sim.run(max_events)
    if max_events is not None and executed >= max_events:
        raise SimulationError(
            f"workload did not quiesce within {max_events} events -- "
            f"refusing to report a truncated run as complete")
    for finish in finishers:
        finish()
    return WorkloadResult(spec=spec, clients=clients,
                          elapsed_us=fabric.sim.now - start)


def _setup_open_loop(fabric: Fabric, spec: WorkloadSpec,
                     rng: random.Random, result: ClientResult,
                     src: int, dst: int):
    if spec.transport == "udp":
        app_s, app_d, _ = fabric.open_udp_flow(src, dst)
    elif spec.transport == "raw":
        app_s, app_d, _ = fabric.open_raw_flow(src, dst)
    else:
        raise SimulationError(f"unknown transport {spec.transport!r}")
    if app_s is not None:
        spawn(fabric.sim,
              _open_loop_client(fabric.sim, app_s, spec, rng, result,
                                result.send_times_us),
              f"{result.name}-{fabric.hosts[src].name}")

    def finish() -> None:
        if app_d is not None:
            result.messages_received = len(app_d.receptions)
            result.bytes_received = app_d.bytes_received
            result.recv_times_us = [reception.time
                                    for reception in app_d.receptions]
        compute_open_loop_latencies(result)

    return finish


def compute_open_loop_latencies(result: ClientResult) -> None:
    """Rebuild ``latencies_us`` from the raw timestamp halves.

    kth send matches kth reception: one VCI, FIFO end to end.  Both
    the single-process path and the sharded merge call this, so the
    float arithmetic is identical wherever the halves were recorded.
    """
    del result.latencies_us[:]
    for k, recv_time in enumerate(result.recv_times_us):
        if k < len(result.send_times_us):
            result.latencies_us.append(recv_time
                                       - result.send_times_us[k])


def _setup_rpc(fabric: Fabric, spec: WorkloadSpec, rng: random.Random,
               result: ClientResult, src: int, dst: int):
    flow = fabric.open_flow(src, dst)
    host_s, host_d = fabric.hosts[src], fabric.hosts[dst]
    block = bytes([0x40 + (flow.dst_vci & 0x3F)]) * spec.rpc_block_bytes

    if host_s is not None:
        drv_s = host_s.driver.open_path(flow.src_vci)
        fabric.register_tx_session(flow.src_vci, drv_s)
    if host_d is not None:
        drv_d = host_d.driver.open_path(flow.dst_vci)
        fabric.register_tx_session(flow.dst_vci, drv_d)
        server = RpcServer(RpcProtocol(host_d.cpu, fabric.sim), drv_d)
        server.register(PROC_READ, lambda request: block,
                        service_us=RPC_SERVICE_US)
        server.register(PROC_WRITE, lambda request: _WRITE_STATUS,
                        service_us=RPC_SERVICE_US)

    if host_s is not None:
        client = RpcClient(RpcProtocol(host_s.cpu, fabric.sim), drv_s)
        spawn(fabric.sim,
              _rpc_client(fabric.sim, client, spec, rng, result, block),
              f"{result.name}-{host_s.name}")

    def finish() -> None:
        pass

    return finish


def sweep_offered_load(fabric_factory: Callable[[], Fabric],
                       spec: WorkloadSpec,
                       rates_mbps: list) -> list:
    """Goodput-versus-offered-load curve: run ``spec`` once per
    per-client rate on a fresh fabric and record what came out.

    This is the congestion-collapse plot: without backpressure,
    goodput rises with offered load until the incast port saturates
    and then *falls* as drops corrupt ever more PDUs; with credit flow
    control it must be monotone non-decreasing (saturating, never
    collapsing).  Each point is an independent simulation, so points
    share nothing but the spec's seed.
    """
    points = []
    for rate in rates_mbps:
        fabric = fabric_factory()
        result = run_workload(fabric, replace(spec, rate_mbps=rate))
        summary = result.summary()
        points.append({
            "offered_mbps_per_client": rate,
            "goodput_mbps": summary["goodput_mbps"],
            "messages_sent": summary["messages_sent"],
            "messages_received": summary["messages_received"],
            "drops": collect(fabric).drops,
        })
    return points


__all__ = [
    "PATTERNS", "KINDS", "PROC_READ", "PROC_WRITE", "RPC_SERVICE_US",
    "pattern_flows", "client_rng",
    "WorkloadSpec", "ClientResult", "WorkloadResult",
    "setup_workload", "run_workload", "compute_open_loop_latencies",
    "sweep_offered_load",
]
