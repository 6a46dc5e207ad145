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
    python -m repro chaos --quick    # chaos, lint, check: own parsers
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from dataclasses import fields
from typing import Optional, get_args, get_type_hints

from .bench import (
    PAPER_FIGURE_2, PAPER_FIGURE_3, PAPER_FIGURE_4, measure_receive_throughput,
    measure_round_trip, measure_transmit_throughput, run_figure2,
    run_figure3, run_figure4, run_table1, to_json,
)
from .cluster.config import MACHINE_NAMES, ClusterConfig, ConfigError, flag
from .hw.dma import DmaMode
from .hw.specs import MachineSpec
from .sim import SimulationError

QUICK_SIZES = (1, 4, 16, 64, 256)
FULL_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_DMA = {"single": DmaMode.SINGLE_CELL, "double": DmaMode.DOUBLE_CELL,
        "arbitrary": DmaMode.ARBITRARY}

# Commands whose module owns their parser: name -> (module, help).
_DELEGATED = {
    "chaos": ("repro.faults.chaos", "seeded fault matrix: conservation "
              "and shard-identity checks"),
    "lint": ("repro.analysis.lint", "determinism linter (DET101-DET106)"),
    "check": ("repro.analysis.ownership", "ownership/race checker "
              "(RACE201-RACE204) and happens-before trace replay"),
}


def _machine(name: str) -> MachineSpec:
    try:
        return MACHINE_NAMES[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from "
            f"{sorted(MACHINE_NAMES)}") from None


def _sizes(args) -> tuple:
    if args.sizes:
        return tuple(int(s) for s in args.sizes.split(","))
    return QUICK_SIZES if args.quick else FULL_SIZES


_FIGURES = {"figure2": (run_figure2, PAPER_FIGURE_2),
            "figure3": (run_figure3, PAPER_FIGURE_3),
            "figure4": (run_figure4, PAPER_FIGURE_4)}


def _cmd_table1(args) -> None:
    result = run_table1(rounds=3 if args.quick else 5)
    print(result.to_json() if args.json else result.render())


def _cmd_figure(args, name: Optional[str] = None) -> None:
    runner, paper = _FIGURES[name or args.command]
    result = runner(_sizes(args))
    print(result.to_json(paper) if args.json else result.render(paper))


def _cmd_all(args) -> None:
    if args.json:
        # One combined document, canonically serialized, so bench
        # trajectories can be diffed across PRs.
        payload = {
            "table1": run_table1(rounds=3 if args.quick else 5).to_dict(),
        }
        for name, (runner, paper) in sorted(_FIGURES.items()):
            payload[name] = runner(_sizes(args)).to_dict(paper)
        print(to_json(payload))
        return
    start = time.time()
    _cmd_table1(args)
    for name in sorted(_FIGURES):
        print()
        _cmd_figure(args, name)
    print(f"\ntotal wall time: {time.time() - start:.0f} s")


def _cmd_cluster(args) -> None:
    try:
        config = ClusterConfig.from_args(args)
        result = config.run()
    except (ConfigError, SimulationError) as exc:
        raise SystemExit(f"cluster: {exc}") from None
    if config.sweep is None:
        print(result.to_json() if args.json else result.render())
    elif args.json:
        print(to_json({"backpressure": config.backpressure,
                       "drain_policy": config.drain, "points": result}))
    else:
        print("offered Mbps/client -> goodput Mbps "
              f"({config.backpressure} backpressure, "
              f"{config.drain} drain)")
        for pt in result:
            print(f"  {pt['offered_mbps_per_client']:>8.1f} -> "
                  f"{pt['goodput_mbps']:>7.1f}  "
                  f"({pt['messages_received']}/"
                  f"{pt['messages_sent']} messages, "
                  f"{pt['drops']['queue_full']} queue-full drops)")


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

    for name, fn in (("table1", _cmd_table1), ("figure2", _cmd_figure),
                     ("figure3", _cmd_figure), ("figure4", _cmd_figure),
                     ("all", _cmd_all)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    cluster = sub.add_parser(
        "cluster", help="run a workload over an N-host switched fabric")
    hints = get_type_hints(ClusterConfig)
    for f in fields(ClusterConfig):
        hint, kw = hints[f.name], dict(f.metadata)
        if hint is bool:
            kw["action"] = (argparse.BooleanOptionalAction if f.default
                            else "store_true")
        else:       # int, float or str, or Optional[one of them]
            kw["type"] = get_args(hint)[0] if get_args(hint) else hint
        cluster.add_argument(flag(f.name), default=f.default, **kw)
    cluster.add_argument("--json", action="store_true",
                         help="machine-readable JSON report")
    cluster.set_defaults(func=_cmd_cluster)

    for name, (_module, text) in sorted(_DELEGATED.items()):
        sub.add_parser(name, help=text, add_help=False)

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
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _DELEGATED:
        module = importlib.import_module(_DELEGATED[argv[0]][0])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["main", "build_parser"]
