"""Benchmark of the simulator's own host time, run from the repo root.

    python3 perfbench/run.py --workload clos-all2all --seed 1 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``run_s``,
``setup_s``, ``cells_per_s``, ``peak_rss_mb``); with ``--trace 1`` they
are the per-layer ones.  The line before it is an audit record: the
raw timings behind every normalized figure, the machine, and, for
``paper``, the model's error against the paper.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refkernel  # noqa: E402
from layers import LayerProfile  # noqa: E402
from timing import DENSITY_FLOOR_S, Clock  # noqa: E402
from workloads import WORKLOADS, Paper  # noqa: E402

# Setup-only builds per run for single-rig workloads; setup_s is the
# median over these and the timed passes' own builds.
SETUP_BUILDS = 8
# The seed later performance claims must also be checked on; never
# used while tuning the benchmark.
HELD_OUT_SEED = 9176


class Ledger:
    """Counts operations and checks each against the first run of the
    same operation in this process."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._digests: dict = {}
        self._counters: dict = {}

    def run(self, op, profile=None):
        """Time ``op`` (under ``profile`` when given); return its
        outcome and timing, or ``(None, timing)`` when it failed."""
        fn = op.run if profile is None else (lambda: profile.run(op.run))
        try:
            result, timing = self.clock.time_op(fn)
            outcome = op.outcome(result)
        except Exception as exc:  # one failed operation, not the run
            self.attempted += 1
            self._fail(op.name, f"raised {type(exc).__name__}: {exc}", 1)
            return None, None
        sims = max(1, len(timing.rigs))
        self.attempted += sims
        counters = {"rigs": timing.rigs, **outcome.counters}
        problem = None
        if not outcome.conserved:
            problem = "cell conservation broken"
        elif self._digests.setdefault(op.key, outcome.digest) \
                != outcome.digest:
            problem = f"report digest differs from the first {op.key} run"
        elif self._counters.setdefault(op.name, counters) != counters:
            problem = "modelled counters differ from the first run"
        if problem:
            self._fail(op.name, problem, sims)
            return None, timing
        return outcome, timing

    def setup(self, op):
        """Setup-only build of ``op``: its host time, or ``None`` (and
        one failed operation) when it raised or never ran the
        simulator."""
        try:
            setup = self.clock.time_setup(op.run)
        except Exception as exc:  # one failed operation, not the run
            setup, why = None, f"raised {type(exc).__name__}: {exc}"
        else:
            why = "never reached Simulator.run or run_window"
        if setup is None:
            self.attempted += 1
            self._fail(f"{op.name} (setup only)", why, 1)
        return setup

    def _fail(self, name: str, why: str, sims: int) -> None:
        self.failed += sims
        self.errors.append(f"{name}: {why}")


def run_pass(ledger: Ledger, ops, profile=None) -> dict:
    """One pass over every operation of the workload."""
    setup = work = slice_s = 0.0
    slices = 0
    outcomes = {}
    for op in ops:
        outcome, timing = ledger.run(op, profile)
        if timing is not None:
            setup += timing.setup_s
            work += timing.work_s
            slices += timing.slices
            slice_s += timing.slice_s
        if outcome is not None:
            outcomes[op.name] = (outcome, timing)
    return {"setup_s": setup, "work_s": work, "slices": slices,
            "slice_s": slice_s, "outcomes": outcomes}


def cells_moved(outcomes: dict) -> int:
    """ATM cells the pass put on a wire: cells the hosts injected into
    the fabric, or, where no fabric runs, cells the boards sent or (on
    receive-only rigs) received."""
    cells = 0
    for outcome, timing in outcomes.values():
        if outcome.report is not None:
            cells += outcome.report["conservation"]["injected"]
            continue
        for rig in timing.rigs:
            for host in rig["hosts"]:
                cells += host["cells_sent"] or host["cells_received"]
    return cells


def host_stats(outcomes: dict) -> list:
    hosts = []
    for outcome, timing in outcomes.values():
        if outcome.report is not None:
            hosts.extend(outcome.report["hosts"])
        else:
            hosts.extend(h for rig in timing.rigs for h in rig["hosts"])
    return hosts


def model_counters(outcomes: dict, run_s: float) -> dict:
    """Per-layer modelled counters, from the public reports."""
    rigs = [rig for _o, timing in outcomes.values() for rig in timing.rigs]
    events = sum(rig["model_events"] for rig in rigs)
    absorbed = sum(rig["absorbed"] for rig in rigs)
    hosts = host_stats(outcomes)
    combined = sum(h["combined_dmas"] for h in hosts)
    dmas = combined + sum(h["single_dmas"] for h in hosts)
    pdus = sum(h["pdus_received"] for h in hosts)
    out = {
        "sim.model_events": events,
        "sim.model_events_per_s": events / run_s if run_s else 0.0,
        "sim.absorbed_pct": 100.0 * absorbed / events if events else 0.0,
        "hw.bus_util_pct": 100.0 * statistics.fmean(
            h["bus_utilization"] for h in hosts) if hosts else 0.0,
        "hw.dma_combined_pct": 100.0 * combined / dmas if dmas else 0.0,
        "osiris.irq_per_pdu": (sum(h["interrupts_serviced"] for h in hosts)
                               / pdus if pdus else 0.0),
        "osiris.rx_fifo_drops": sum(h["rx_fifo_drops"] for h in hosts),
        "atm.cells_switched": 0, "atm.max_port_queue": 0,
        "atm.queue_full_drops": 0, "cluster.credit_stalls": 0,
        "cluster.delivered_pct": 0.0, "cluster.goodput_mbps": 0.0,
        "cluster.latency_p50_us": 0.0, "cluster.latency_p99_us": 0.0,
        "cluster.sharded.windows": 0, "cluster.boundary.msgs": 0,
        "cluster.boundary.bytes_per_event": 0.0,
    }
    for outcome, _timing in outcomes.values():
        report = outcome.report
        if report is None:
            continue
        switches = report["switches"]
        load = report["workload"]
        latency = load.get("latency_us", {})
        out.update({
            "atm.cells_switched": sum(s["cells_switched"]
                                      for s in switches),
            "atm.max_port_queue": max(p["max_queue_seen"]
                                      for s in switches
                                      for p in s["ports"]),
            "atm.queue_full_drops": report["drops"]["queue_full"],
            "cluster.credit_stalls": sum(
                h["stalls"] for h in (report["backpressure"] or {})
                .get("hosts", [])),
            "cluster.delivered_pct": 100.0 * load["messages_received"]
            / load["messages_sent"],
            "cluster.goodput_mbps": load["goodput_mbps"],
            "cluster.latency_p50_us": latency.get("median", 0.0),
            "cluster.latency_p99_us": latency.get("p99", 0.0),
        })
        if "windows" in outcome.counters:
            out.update({
                "cluster.sharded.windows": outcome.counters["windows"],
                "cluster.boundary.msgs": outcome.counters["boundary_msgs"],
                "cluster.boundary.bytes_per_event":
                    outcome.counters["boundary_bytes"] / events,
            })
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


COUNTER_UNITS = {
    "sim.model_events_per_s": "events/s",
    "osiris.irq_per_pdu": "irq/pdu",
    "cluster.goodput_mbps": "Mbps",
    "cluster.latency_p50_us": "us",
    "cluster.latency_p99_us": "us",
    "cluster.boundary.bytes_per_event": "B/event",
}


def measure(workload, clock: Clock, ledger: Ledger, seconds: float,
            trace: bool) -> dict:
    """Reference runs, setup-only builds, timed passes and, when
    tracing, one profiled pass."""
    # Plain (unchunked) runs first: they warm the interpreter and are
    # the reference every chunked run must reproduce.
    clock.interleave = False
    for op in workload.reference_ops():
        ledger.run(op)

    setups = []
    setup_op = workload.setup_op()
    for _ in range(SETUP_BUILDS if setup_op is not None and not trace
                   else 0):
        setup = ledger.setup(setup_op)
        if setup is None:
            break
        setups.append(setup)

    clock.interleave = True
    ops = workload.ops()
    start = time.perf_counter()
    passes = [run_pass(ledger, ops)]
    # Later passes can raise the high-water mark by reusing a fragmented
    # heap, and their number depends on the machine's speed; the peak
    # of one pass is what a fresh process running the workload sees.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not trace and time.perf_counter() - start < seconds:
        passes.append(run_pass(ledger, ops))

    result = {"ops": ops, "passes": passes, "setups": setups,
              "peak_rss_mb": peak_rss_mb}
    if trace:
        clock.interleave = False
        profile = LayerProfile()
        result["traced"] = run_pass(ledger, ops, profile)
        result["shares"] = profile.shares()
    return result


def normalized_work(one_pass: dict) -> float:
    """A pass's work time in nominal-slice seconds, scaled by the mean
    of the slices run during that pass."""
    if not one_pass["slices"]:
        return one_pass["work_s"]       # check_density fails the run
    return (one_pass["work_s"] * refkernel.NOMINAL_SLICE_S
            * one_pass["slices"] / one_pass["slice_s"])


def check_density(ledger: Ledger, passes: list) -> None:
    """Fail every timed operation when too few slices normalized them."""
    work = sum(p["work_s"] for p in passes)
    slices = sum(p["slices"] for p in passes)
    if slices and work / slices <= DENSITY_FLOOR_S:
        return
    ledger.errors.append(
        f"reference slices too sparse: {slices} over {work:.3f} s of "
        f"work (floor: one per {DENSITY_FLOOR_S} s)")
    ledger.failed += sum(max(1, len(timing.rigs)) for p in passes
                         for _outcome, timing in p["outcomes"].values())


def per_layer_metrics(run: dict, run_s: float, audit: dict) -> dict:
    untraced = run["passes"][-1]
    metrics = {name: metric(value, "%" if name.endswith("_pct")
                            else "count")
               for name, value in run["shares"].items()}
    for name, value in model_counters(untraced["outcomes"],
                                      run_s).items():
        metrics[name] = metric(value, COUNTER_UNITS.get(
            name, "%" if name.endswith("_pct") else "count"))
    metrics.update({
        "trace.overhead_pct": metric(
            100.0 * (run["traced"]["work_s"] / untraced["work_s"] - 1.0),
            "%"),
        "raw.run_s": metric(untraced["work_s"], "s"),
        "raw.setup_s": metric(untraced["setup_s"], "s"),
        "ref.slice_ms": metric(audit["ref.slice_ms"], "ms"),
        "ref.slices": metric(audit["ref.slices"], "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    clock = Clock()
    ledger = Ledger(clock)
    clock.install()
    try:
        run = measure(workload, clock, ledger, args.seconds,
                      bool(args.trace))
    finally:
        clock.uninstall()

    passes = run["passes"]
    check_density(ledger, passes)
    run_s = statistics.median(normalized_work(p) for p in passes)
    setups = run["setups"] + [p["setup_s"] for p in passes]
    setup_s = statistics.median(setups) * clock.setup_scale()
    last = passes[-1]["outcomes"]

    audit = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "passes": len(passes),
        "raw.run_s": [p["work_s"] for p in passes],
        "raw.setup_s": setups,
        "ref.slices": len(clock.slice_times),
        "ref.slice_ms": 1000.0 * statistics.fmean(clock.slice_times)
        if clock.slice_times else 0.0,
        "ref.pass_slice_ms": [1000.0 * p["slice_s"] / p["slices"]
                              if p["slices"] else 0.0 for p in passes],
        "ref.nominal_slice_ms": 1000.0 * refkernel.NOMINAL_SLICE_S,
        "ref.fault_ms": 1000.0 * statistics.median(clock.fault_times),
        "ref.nominal_fault_ms": 1000.0 * refkernel.NOMINAL_FAULT_S,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "errors": ledger.errors,
    }
    if isinstance(workload, Paper) and len(last) == len(run["ops"]):
        audit.update(Paper.accuracy(
            {name: outcome for name, (outcome, _t) in last.items()}))

    if args.trace:
        metrics = per_layer_metrics(run, run_s, audit)
    else:
        metrics = {
            "run_s": metric(run_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "cells_per_s": metric(cells_moved(last) / run_s, "cells/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
    print(json.dumps(audit, sort_keys=True))
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
