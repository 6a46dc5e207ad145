"""Command-line interface: regenerate the paper's results by name.

Usage::

    python -m repro table1
    python -m repro figure2 --quick
    python -m repro figure3 --sizes 4,16,64
    python -m repro figure4
    python -m repro all --quick
    python -m repro latency --machine alpha --size 4096 --protocol udp
    python -m repro receive --machine ds --size 16384 --dma double
    python -m repro cluster --hosts 8 --pattern incast --seed 1 --json
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .bench import (
    PAPER_FIGURE_2, PAPER_FIGURE_3, PAPER_FIGURE_4, measure_receive_throughput,
    measure_round_trip, measure_transmit_throughput, run_figure2,
    run_figure3, run_figure4, run_table1, to_json,
)
from .hw.dma import DmaMode
from .hw.specs import DEC3000_600, DS5000_200, MachineSpec
from .sim.parallel import BACKENDS

QUICK_SIZES = (1, 4, 16, 64, 256)
FULL_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_MACHINES = {
    "ds": DS5000_200, "ds5000": DS5000_200, "5000/200": DS5000_200,
    "alpha": DEC3000_600, "3000": DEC3000_600, "3000/600": DEC3000_600,
}

_DMA = {"single": DmaMode.SINGLE_CELL, "double": DmaMode.DOUBLE_CELL,
        "arbitrary": DmaMode.ARBITRARY}


def _machine(name: str) -> MachineSpec:
    try:
        return _MACHINES[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from "
            f"{sorted(_MACHINES)}") from None


def _sizes(args) -> tuple:
    if args.sizes:
        return tuple(int(s) for s in args.sizes.split(","))
    return QUICK_SIZES if args.quick else FULL_SIZES


def _cmd_table1(args) -> None:
    result = run_table1(rounds=3 if args.quick else 5)
    print(result.to_json() if args.json else result.render())


def _cmd_figure(args, runner, paper) -> None:
    result = runner(_sizes(args))
    print(result.to_json(paper) if args.json else result.render(paper))


def _cmd_all(args) -> None:
    if args.json:
        # One combined document, canonically serialized, so bench
        # trajectories can be diffed across PRs.
        payload = {
            "table1": run_table1(rounds=3 if args.quick else 5).to_dict(),
        }
        for name, runner, paper in (
                ("figure2", run_figure2, PAPER_FIGURE_2),
                ("figure3", run_figure3, PAPER_FIGURE_3),
                ("figure4", run_figure4, PAPER_FIGURE_4)):
            payload[name] = runner(_sizes(args)).to_dict(paper)
        print(to_json(payload))
        return
    start = time.time()
    _cmd_table1(args)
    for runner, paper in ((run_figure2, PAPER_FIGURE_2),
                          (run_figure3, PAPER_FIGURE_3),
                          (run_figure4, PAPER_FIGURE_4)):
        print()
        _cmd_figure(args, runner, paper)
    print(f"\ntotal wall time: {time.time() - start:.0f} s")


def _cmd_cluster(args) -> None:
    from .atm.aal5 import SegmentMode
    from .cluster import (
        Fabric, WorkloadSpec, collect, run_workload, sweep_offered_load,
    )
    from .sim import SimulationError

    # Reject values the model would silently misread (a shard count
    # below one runs unsharded, a NaN rate runs unpaced, no messages
    # run an empty workload) or only trip over mid-run, before
    # anything is built.
    for flag, value, least in (("--hosts", args.hosts, 2),
                               ("--switches", args.switches, 1),
                               ("--pods", args.pods, 1),
                               ("--size", args.size, 1),
                               ("--messages", args.messages, 1),
                               ("--window", args.window, 1),
                               ("--shards", args.shards, 1)):
        if value < least:
            raise SystemExit(
                f"cluster: {flag} must be >= {least}, got {value}")
    for flag, value, zero_ok in (
            ("--oversub", args.oversub, False),
            ("--rate", args.rate, True),                # 0 = unpaced
            ("--hb-interval", args.hb_interval, False),
            ("--detect-timeout", args.detect_timeout, True),
            ("--regen-timeout", args.regen_timeout, False),
            ("--watchdog", args.watchdog, False)):
        if value is None:                               # not given
            continue
        if not (0.0 < value < math.inf or (zero_ok and value == 0.0)):
            raise SystemExit(
                f"cluster: {flag} must be a finite number "
                f"{'>= 0' if zero_ok else '> 0'}, got {value}")
    rates = None
    if args.sweep is not None:
        for flag, given in (("--shards", args.shards > 1),
                            ("--trace-out", args.trace_out)):
            if given:
                raise SystemExit(
                    f"cluster: {flag} cannot be combined with --sweep "
                    "(each sweep point is an independent plain run)")
        rates = []
        for token in args.sweep.split(","):
            try:
                rate = float(token)
            except ValueError:
                rate = math.nan
            if not 0.0 <= rate < math.inf:      # nan fails too
                raise SystemExit(
                    f"cluster: --sweep rate {token!r} is not a number "
                    ">= 0 (0 = unpaced)")
            rates.append(rate)

    segment = (SegmentMode.SEQUENCE if args.segment == "sequence"
               else SegmentMode.IN_ORDER)

    torus_dims = None
    if args.dims:
        try:
            torus_dims = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise SystemExit(
                f"cluster: bad --dims {args.dims!r} "
                "(want X,Y,Z)") from None

    fabric_kwargs = {
        "machines": _machine(args.machine), "n_hosts": args.hosts,
        "n_switches": args.switches, "segment_mode": segment,
        "topology": args.topology, "pods": args.pods,
        "torus_dims": torus_dims, "oversubscription": args.oversub,
        "routing_seed": args.seed,
        "backpressure": args.backpressure,
        "credit_window_cells": args.window,
        "drain_policy": args.drain,
        "trains": args.train}
    if args.faults:
        from .faults import FaultPlan
        # Port kills may name switches by topology coordinate
        # (port=leaf0:... / port=t0.1.1:...); resolve against the same
        # spec the fabric will build, which also validates every
        # switch/host/lane token at parse time.
        topo = None
        if args.topology != "direct":
            from .topology import build_spec
            try:
                topo = build_spec(
                    args.topology, args.hosts,
                    n_switches=args.switches, pods=args.pods,
                    dims=torus_dims,
                    oversubscription=args.oversub)
            except SimulationError as exc:
                raise SystemExit(f"cluster: {exc}") from None
        try:
            fabric_kwargs["faults"] = FaultPlan.parse(
                args.faults, seed=args.seed, topology=topo,
                n_hosts=args.hosts)
        except ValueError as exc:
            raise SystemExit(f"cluster: {exc}") from None
    if args.recovery != "off":
        from .recovery import RecoveryConfig
        fabric_kwargs["recovery"] = RecoveryConfig(
            mode=args.recovery,
            hb_interval_us=args.hb_interval,
            detect_timeout_us=args.detect_timeout)
    if args.regen_timeout is not None:
        fabric_kwargs["credit_regen_timeout_us"] = args.regen_timeout
    if args.watchdog is not None:
        fabric_kwargs["credit_watchdog_us"] = args.watchdog

    if args.sanitize:
        from .analysis import sanitize as sanitize_mod
        sanitize_mod.enable()

    def make_fabric() -> Fabric:
        return Fabric(**fabric_kwargs)

    spec = WorkloadSpec(
        pattern=args.pattern, kind=args.workload, seed=args.seed,
        message_bytes=args.size, messages_per_client=args.messages,
        rate_mbps=args.rate,
        arrival="poisson" if args.poisson else "constant",
        requests_per_client=args.messages)
    try:
        if args.shards > 1 or args.trace_out:
            from .cluster.sharded import run_cluster_sharded
            report, _run = run_cluster_sharded(
                fabric_kwargs, spec, args.shards,
                backend=args.shard_backend, sanitize=args.sanitize,
                trace_path=args.trace_out)
            print(report.to_json() if args.json else report.render())
            return
        if rates is not None:
            points = sweep_offered_load(make_fabric, spec, rates)
            if args.json:
                from .bench.report import to_json
                print(to_json({"backpressure": args.backpressure,
                               "drain_policy": args.drain,
                               "points": points}))
            else:
                print("offered Mbps/client -> goodput Mbps "
                      f"({args.backpressure} backpressure, "
                      f"{args.drain} drain)")
                for pt in points:
                    drops = pt["drops"]
                    print(f"  {pt['offered_mbps_per_client']:>8.1f} -> "
                          f"{pt['goodput_mbps']:>7.1f}  "
                          f"({pt['messages_received']}/"
                          f"{pt['messages_sent']} messages, "
                          f"{drops['queue_full']} queue-full drops)")
            return
        fabric = make_fabric()
    except SimulationError as exc:
        raise SystemExit(f"cluster: {exc}") from None
    result = run_workload(fabric, spec)
    report = collect(fabric, result)
    print(report.to_json() if args.json else report.render())


def _cmd_chaos(args) -> None:
    from .faults.chaos import main as chaos_main

    argv = ["--seed", str(args.seed), "--shards", args.shards,
            "--backend", args.backend]
    if args.quick:
        argv.append("--quick")
    if args.json:
        argv.append("--json")
    if args.sanitize:
        argv.append("--sanitize")
    raise SystemExit(chaos_main(argv))


def _cmd_lint(args) -> None:
    from .analysis.lint import main as lint_main

    argv = []
    if args.root:
        argv += ["--root", args.root]
    if args.allowlist:
        argv += ["--allowlist", args.allowlist]
    if args.json:
        argv.append("--json")
    raise SystemExit(lint_main(argv))


def _cmd_check(args) -> None:
    from .analysis.ownership import main as check_main

    argv = []
    if args.root:
        argv += ["--root", args.root]
    if args.suppressions:
        argv += ["--suppressions", args.suppressions]
    if args.json:
        argv.append("--json")
    for trace in args.replay or ():
        argv += ["--replay", trace]
    raise SystemExit(check_main(argv))


def _cmd_latency(args) -> None:
    machine = _machine(args.machine)
    rtt = measure_round_trip(machine, args.size, protocol=args.protocol,
                             rounds=5)
    print(f"{machine.name}, {args.protocol.upper()}, {args.size} B: "
          f"{rtt:.1f} us round trip")


def _cmd_receive(args) -> None:
    machine = _machine(args.machine)
    result = measure_receive_throughput(
        machine, args.size, dma_mode=_DMA[args.dma],
        udp_checksum=args.checksum)
    print(f"{machine.name}, receive, {args.size} B messages, "
          f"{args.dma}-cell DMA"
          f"{', UDP-CS' if args.checksum else ''}: "
          f"{result.mbps:.1f} Mbps "
          f"(bus {result.bus_utilization:.0%} busy, "
          f"{result.interrupts} interrupts)")


def _cmd_transmit(args) -> None:
    machine = _machine(args.machine)
    result = measure_transmit_throughput(
        machine, args.size, dma_mode=_DMA[args.dma],
        udp_checksum=args.checksum)
    print(f"{machine.name}, transmit, {args.size} B messages, "
          f"{args.dma}-cell DMA: {result.mbps:.1f} Mbps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'Experiences with a "
                    "High-Speed Network Adaptor' (SIGCOMM 1994).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quick", action="store_true",
                       help="coarser, faster sweep")
        p.add_argument("--sizes", default=None,
                       help="comma-separated message sizes in KB")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")

    for name in ("table1", "figure2", "figure3", "figure4", "all"):
        p = sub.add_parser(name)
        common(p)

    cluster = sub.add_parser(
        "cluster", help="run a workload over an N-host switched fabric")
    cluster.add_argument("--hosts", type=int, default=8,
                         help="number of hosts on the fabric")
    cluster.add_argument("--pattern", default="incast",
                         choices=("incast", "all2all", "pairs"))
    cluster.add_argument("--workload", default="open",
                         choices=("open", "rpc"),
                         help="open-loop senders or closed-loop RPC mix")
    cluster.add_argument("--machine", default="ds", help="ds | alpha")
    cluster.add_argument("--topology", default="switched",
                         choices=("direct", "switched", "clos", "torus"),
                         help="fabric shape: two hosts back-to-back, a "
                              "flat full mesh of --switches, a "
                              "leaf/spine Clos, or a 3D torus")
    cluster.add_argument("--switches", type=int, default=1,
                         help="cell switches for --topology switched "
                              "(hosts spread round-robin)")
    cluster.add_argument("--pods", type=int, default=4,
                         help="leaf switches for --topology clos")
    cluster.add_argument("--oversub", type=float, default=2.0,
                         help="Clos oversubscription ratio "
                              "(leaves : spines)")
    cluster.add_argument("--dims", default=None, metavar="X,Y,Z",
                         help="torus dimensions for --topology torus "
                              "(default 2,2,2)")
    cluster.add_argument("--size", type=int, default=4096,
                         help="message size in bytes (open-loop)")
    cluster.add_argument("--messages", type=int, default=8,
                         help="messages (or RPC calls) per client")
    cluster.add_argument("--rate", type=float, default=0.0,
                         help="per-client offered rate in Mbps "
                              "(0 = unpaced)")
    cluster.add_argument("--poisson", action="store_true",
                         help="Poisson instead of constant spacing")
    cluster.add_argument("--backpressure", default="none",
                         choices=("none", "credit", "efci"),
                         help="fabric flow control: per-VCI credits, "
                              "EFCI marking, or nothing")
    cluster.add_argument("--window", type=int, default=64,
                         help="credit window in cells per flow VCI")
    cluster.add_argument("--drain", default="rr",
                         choices=("rr", "fifo"),
                         help="output-port scheduler: per-VCI "
                              "round-robin or a single shared FIFO")
    cluster.add_argument("--sweep", default=None, metavar="MBPS,...",
                         help="run a goodput-vs-offered-load sweep over "
                              "these per-client rates instead of a "
                              "single run")
    cluster.add_argument("--segment", default="sequence",
                         choices=("sequence", "in-order"),
                         help="reassembly strategy at the receivers")
    cluster.add_argument("--shards", type=int, default=1,
                         help="partition hosts across N simulators "
                              "(conservative window sync; results are "
                              "bit-identical to --shards 1)")
    cluster.add_argument("--shard-backend", default="proc",
                         choices=BACKENDS,
                         help="execution backend for --shards > 1: "
                              "processes (parallel) or an in-process "
                              "loop (debugging)")
    cluster.add_argument("--trace-out", metavar="FILE", default=None,
                         help="record every cross-shard boundary "
                              "send/delivery into a happens-before "
                              "trace document, verifiable with "
                              "'repro check --replay FILE' (routes "
                              "through the sharded engine even for "
                              "--shards 1)")
    cluster.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault plan, e.g. 'loss=0.01,corrupt="
                              "0.001,flap=2:1@500+200,kill=0:3@1000,"
                              "port=0:0:1@800,credit-loss=0.05' "
                              "(seeded by --seed)")
    cluster.add_argument("--recovery", default="off",
                         choices=("off", "detect", "reroute"),
                         help="self-healing control plane: heartbeat "
                              "failure detection only, or detection "
                              "plus deterministic ECMP path failover "
                              "for flows crossing a killed switch "
                              "port")
    cluster.add_argument("--hb-interval", type=float, default=50.0,
                         metavar="US",
                         help="recovery heartbeat probe period")
    cluster.add_argument("--detect-timeout", type=float, default=100.0,
                         metavar="US",
                         help="how long an element must stay down "
                              "before it is declared dead")
    cluster.add_argument("--regen-timeout", type=float, default=None,
                         metavar="US",
                         help="credit regeneration: refill a flow's "
                              "full window after this many us stalled "
                              "with zero refills (recovers lost "
                              "credits)")
    cluster.add_argument("--watchdog", type=float, default=None,
                         metavar="US",
                         help="credit deadlock watchdog: raise a "
                              "diagnosable error instead of hanging "
                              "when a flow is stalled this long with "
                              "zero refills")
    cluster.add_argument("--train", action="store_true", default=True,
                         help="cell-train fast path: carry uncontended "
                              "cell bursts as single events (default; "
                              "reports stay byte-identical)")
    cluster.add_argument("--no-train", dest="train",
                         action="store_false",
                         help="force one event per cell everywhere")
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--sanitize", action="store_true",
                         help="enable the runtime sanitizers (SRSW "
                              "queue ownership, monotone time, "
                              "per-window conservation); the report "
                              "stays byte-identical")
    cluster.add_argument("--json", action="store_true",
                         help="machine-readable JSON report")
    cluster.set_defaults(func=_cmd_cluster)

    chaos = sub.add_parser(
        "chaos", help="seeded fault matrix: conservation + "
                      "shard-determinism checks")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--quick", action="store_true")
    chaos.add_argument("--shards", default="1,2",
                       help="comma-separated shard counts to compare")
    chaos.add_argument("--backend", default="inline", choices=BACKENDS)
    chaos.add_argument("--sanitize", action="store_true",
                       help="run the matrix with the runtime "
                            "sanitizers enabled")
    chaos.add_argument("--json", action="store_true")
    chaos.set_defaults(func=_cmd_chaos)

    lint = sub.add_parser(
        "lint", help="determinism linter: flag nondeterminism hazards "
                     "in the simulation tree")
    lint.add_argument("--root", default=None,
                      help="directory to lint (default: the installed "
                           "repro package)")
    lint.add_argument("--allowlist", default=None,
                      help="audited-exception file (default: "
                           "repro/analysis/allowlist.txt)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings")
    lint.set_defaults(func=_cmd_lint)

    check = sub.add_parser(
        "check", help="ownership/race checker: static SRSW and actor "
                      "analysis (RACE201-RACE204) plus happens-before "
                      "trace replay")
    check.add_argument("--root", default=None,
                       help="directory to check (default: the "
                            "installed repro package)")
    check.add_argument("--suppressions", default=None,
                       help="audited-exception file (default: "
                            "repro/analysis/ownership_baseline.txt)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable findings")
    check.add_argument("--replay", metavar="TRACE", action="append",
                       default=None,
                       help="verify a happens-before trace recorded "
                            "with 'repro cluster --trace-out'; "
                            "repeatable")
    check.set_defaults(func=_cmd_check)

    for name, fn in (("latency", _cmd_latency),
                     ("receive", _cmd_receive),
                     ("transmit", _cmd_transmit)):
        p = sub.add_parser(name, help=f"one {name} measurement")
        p.add_argument("--machine", default="ds",
                       help="ds | alpha")
        p.add_argument("--size", type=int, default=16 * 1024,
                       help="message size in bytes")
        if name == "latency":
            p.add_argument("--protocol", default="udp",
                           choices=("udp", "atm"))
        else:
            p.add_argument("--dma", default="single",
                           choices=sorted(_DMA))
            p.add_argument("--checksum", action="store_true")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        _cmd_table1(args)
    elif args.command == "figure2":
        _cmd_figure(args, run_figure2, PAPER_FIGURE_2)
    elif args.command == "figure3":
        _cmd_figure(args, run_figure3, PAPER_FIGURE_3)
    elif args.command == "figure4":
        _cmd_figure(args, run_figure4, PAPER_FIGURE_4)
    elif args.command == "all":
        _cmd_all(args)
    else:
        args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["main", "build_parser"]
