"""Sharded-cluster scaling sweep: hosts x shards, events/sec.

Runs the same pairs workload through the single-process fabric (cell
trains on and off) and through ``run_cluster_sharded`` at each shard
count, checks the reports stay byte-identical, and writes a canonical
JSON document::

    python benchmarks/bench_cluster_scale.py --out BENCH_cluster_scale.json

Speedup is wall time of the plain run over wall time of the sharded
run at the same host count.  Every shard runs in the calling process,
so the column reads the engine's overhead: the sync cost scales with
the number of windows, and shards that provably cannot emit boundary
messages stop bounding their peers' horizons, so the pairs sweep --
whose min-cut sharding colocates every flow -- collapses to a single
window.

Each timed point runs ``--repeats`` times (default 3) with the GC
collected and frozen around the timed region; the row reports the
minimum wall and asserts the report bytes are identical across
repeats.  Sharded rows carry the barrier accounting counters --
``windows``, ``boundary_msgs``, ``boundary_bytes``.

Event accounting
----------------
``events_per_s`` on every row is **model events** per wall second,
where model events = ``events_processed + events_absorbed``: the
per-cell events the run executed plus the ones the cell-train fast
path folded into train events.  That makes the column comparable
across all four row kinds (plain/sharded x train/no-train) -- a train
run does the same model work in fewer heap operations, and the sweep
asserts the model-event totals agree exactly.  Window probes never
inflate the sharded rows: ``events_processed`` sums only the
per-shard ``Simulator`` counters.

The ``clos-all2all`` rows measure sharding where shards exchange
cells: 16 hosts on a 4-leaf Clos with credit backpressure, every
ordered pair sending 2 messages of 4 KB Poisson at 10 Mbps.  The run
goes plain and over 2 shards, timed in the same interleaved rounds,
and the sharded row must reproduce the plain report.  All2all crosses
every min-cut, so the sharded row pays thousands of windows and tens
of thousands of boundary messages.

The ``burst-pairs`` rows measure the fast path itself: each PDU's
cells submitted to its uplink in one event, and the destination edge
stubbed at ``Fabric._hand_over`` -- the one function every cell
passes through into a host board, drained or fused -- so no host
protocol stack runs in the loop.  That is the uncontended-segment
regime the trains were built for.  The fused commit still pays one
hand-over event per cell at the edge, exactly as in a full run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.atm.cell import Cell                            # noqa: E402
from repro.bench.report import to_json                     # noqa: E402
from repro.cluster import (                                # noqa: E402
    Fabric, WorkloadSpec, collect, run_workload,
)
from repro.cluster.sharded import run_cluster_sharded      # noqa: E402
from repro.hw.specs import (                               # noqa: E402
    AAL_PAYLOAD_BYTES, DS5000_200, STRIPE_LINKS,
)

EVENT_BUDGET = 200_000_000

# The crossing-traffic point: a Clos all2all split over 2 shards.
CROSSING = {"hosts": 16, "shards": 2, "topology": "clos", "pods": 4,
            "pattern": "all2all", "backpressure": "credit",
            "message_bytes": 4096, "messages": 2, "rate_mbps": 10.0,
            "arrival": "poisson"}


def _spec(args) -> WorkloadSpec:
    return WorkloadSpec(
        pattern="pairs", kind="open", seed=args.seed,
        message_bytes=args.size, messages_per_client=args.messages,
        requests_per_client=args.messages)


def _fabric_kwargs(args, n_hosts: int, trains: bool) -> dict:
    return {
        "machines": DS5000_200, "n_hosts": n_hosts, "n_switches": 1,
        "backpressure": "credit", "credit_window_cells": 64,
        "drain_policy": "rr", "prop_delay_us": args.prop_delay,
        "trains": trains}


def _crossing_kwargs(args) -> dict:
    return {"machines": DS5000_200, "n_hosts": CROSSING["hosts"],
            "topology": CROSSING["topology"], "pods": CROSSING["pods"],
            "backpressure": CROSSING["backpressure"],
            "prop_delay_us": args.prop_delay, "routing_seed": args.seed}


def _crossing_spec(args) -> WorkloadSpec:
    return WorkloadSpec(
        pattern=CROSSING["pattern"], kind="open", seed=args.seed,
        message_bytes=CROSSING["message_bytes"],
        messages_per_client=CROSSING["messages"],
        rate_mbps=CROSSING["rate_mbps"], arrival=CROSSING["arrival"])


def _model_events(sim) -> int:
    return sim.events_processed + sim.events_absorbed


def run_burst_point(args, n_hosts: int, trains: bool) -> dict:
    """Uncontended pairs at the fabric level: one event submits a whole
    PDU per sender, cell by cell, and the host protocol stacks stay out
    of the loop.  Both train settings do identical model work (the
    sweep asserts it), so the events/s ratio is exactly the
    heap-operation saving."""
    fabric = Fabric(machines=DS5000_200, n_hosts=n_hosts, n_switches=1,
                    backpressure="none", switching_delay_us=0.0,
                    prop_delay_us=args.prop_delay, trains=trains)
    sim = fabric.sim
    n_cells = max(1, -(-args.size // AAL_PAYLOAD_BYTES))
    payload = b"\x00" * AAL_PAYLOAD_BYTES
    # Lanes and the output port run at the same cell rate, so the
    # port keeps up and back-to-back PDUs stay uncontended.
    lane_time = fabric._uplink_by_host[0].pipes[0].cell_time_us
    pdu_span = (-(-n_cells // STRIPE_LINKS) + 1) * lane_time
    # Neutralize the destination edge identically in both modes: cells
    # are still counted delivered, but none reaches a host board, so
    # neither mode pays rx-path events.
    fabric._hand_over = lambda host_index, cell: None

    def submit(uplink, cells) -> None:
        uplink.start_pdu()
        for cell in cells:
            uplink.submit(cell)

    for src in range(0, n_hosts - 1, 2):
        flow = fabric.open_flow(src, src + 1)
        uplink = fabric._uplink_by_host[src]
        for m in range(args.burst_pdus):
            cells = [Cell(vci=flow.src_vci, payload=payload,
                          eom=(i == n_cells - 1), tx_index=i)
                     for i in range(n_cells)]
            sim.call_at(m * pdu_span,
                        lambda u=uplink, cs=cells: submit(u, cs))

    # The burst rows are a microbenchmark of the event core itself;
    # collector pauses (driven by the millions of cells built above)
    # would otherwise dominate the short train-mode wall and understate
    # the ratio.  Both modes get the identical treatment.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        executed = sim.run(EVENT_BUDGET)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    if executed >= EVENT_BUDGET:
        raise SystemExit("burst workload did not quiesce -- "
                         "the numbers would be meaningless")
    model = _model_events(sim)
    return {
        "workload": "burst-pairs", "hosts": n_hosts, "shards": 1,
        "train": trains,
        "wall_s": round(wall, 4),
        "events_processed": sim.events_processed,
        "events_absorbed": sim.events_absorbed,
        "model_events": model,
        "events_per_s": round(model / wall),
        "cells_delivered": fabric.counters()["delivered"],
        "sim_time_us": round(sim.now, 4),
    }


def _one_plain(fabric_kwargs: dict, spec: WorkloadSpec) -> tuple:
    """One timed plain run under a frozen GC."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fabric = Fabric(**fabric_kwargs)
        workload = run_workload(fabric, spec, max_events=EVENT_BUDGET)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return wall, {"json": collect(fabric, workload).to_json(),
                  "model": _model_events(fabric.sim),
                  "processed": fabric.sim.events_processed,
                  "absorbed": fabric.sim.events_absorbed}


def _one_sharded(fabric_kwargs: dict, spec: WorkloadSpec,
                 n_shards: int) -> tuple:
    """One timed sharded run under a frozen GC."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        report, run = run_cluster_sharded(fabric_kwargs, spec, n_shards)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return wall, {"json": report.to_json(), "run": run}


def _timed(jobs: dict, repeats: int) -> dict:
    """Run every job ``repeats`` times in **interleaved rounds** --
    machine noise on a shared box arrives in bursts, so running each
    round back-to-back and taking per-job minima exposes every job to
    the same environment instead of penalizing whichever runs last.
    Reports must be identical across repeats (determinism check rides
    along for free)."""
    results: dict = {}
    for _ in range(repeats):
        for job, run_once in jobs.items():
            wall, info = run_once()
            held = results.get(job)
            if held is None:
                info["wall"] = wall
                results[job] = info
            else:
                if info["json"] != held["json"]:
                    raise SystemExit(
                        f"{job}: report changed between repeats -- "
                        f"the run is not deterministic")
                held["wall"] = min(held["wall"], wall)
    return results


def _timed_points(args, n_hosts: int) -> dict:
    """Every timed point of the pairs sweep for one host count."""
    spec = _spec(args)
    jobs = {("plain", trains): functools.partial(
                _one_plain, _fabric_kwargs(args, n_hosts, trains), spec)
            for trains in (True, False)}
    for n_shards in args.shards:
        if n_shards <= n_hosts:
            jobs[("shard", n_shards)] = functools.partial(
                _one_sharded, _fabric_kwargs(args, n_hosts, True), spec,
                n_shards)
    return _timed(jobs, args.repeats)


def _sharded_row(workload: str, n_hosts: int, n_shards: int,
                 repeats: int, point: dict, plain: dict) -> dict:
    """One sharded row; exits if the run broke identity with the plain
    run or its model-event total disagrees."""
    wall, run = point["wall"], point["run"]
    model = run.events_processed + run.events_absorbed
    identical = point["json"] == plain["json"]
    speedup = plain["wall"] / wall
    print(f"{workload} hosts={n_hosts:<3d} K={n_shards}  "
          f"{wall:6.2f}s  {model:>8d} model events  "
          f"{run.windows:>6d} windows  speedup {speedup:4.2f}x"
          + ("" if identical else "  REPORT MISMATCH"))
    if not identical:
        raise SystemExit(
            "sharded report diverged from the plain run -- determinism "
            "is broken, numbers are meaningless")
    if model != plain["model"]:
        raise SystemExit(
            f"sharded model-event total {model} != plain "
            f"{plain['model']} -- the accounting is broken, events/s is "
            f"not comparable")
    return {
        "workload": workload, "hosts": n_hosts, "shards": n_shards,
        "train": True,
        "repeats": repeats,
        "wall_s": round(wall, 4),
        "events_processed": run.events_processed,
        "events_absorbed": run.events_absorbed,
        "model_events": model,
        "events_per_s": round(model / wall),
        "windows": run.windows,
        "boundary_msgs": run.boundary_msgs,
        "boundary_bytes": run.boundary_bytes,
        "speedup_vs_plain": round(speedup, 3),
        "identical_to_plain": identical,
    }


def _plain_row(workload: str, n_hosts: int, trains: bool,
               repeats: int, plain: dict) -> dict:
    wall = plain["wall"]
    print(f"{workload} hosts={n_hosts:<3d} plain "
          f"{'train   ' if trains else 'no-train'} {wall:6.2f}s  "
          f"{plain['model']:>8d} model events")
    return {
        "workload": workload, "hosts": n_hosts, "shards": 1,
        "train": trains,
        "repeats": repeats,
        "wall_s": round(wall, 4),
        "events_processed": plain["processed"],
        "events_absorbed": plain["absorbed"],
        "model_events": plain["model"],
        "events_per_s": round(plain["model"] / wall),
        "windows": 0, "speedup_vs_plain": 1.0,
        "identical_to_plain": True,
    }


def run_crossing(args) -> list:
    """The Clos all2all point, plain and over 2 shards, timed in
    interleaved rounds."""
    kwargs, spec = _crossing_kwargs(args), _crossing_spec(args)
    n_hosts, n_shards = CROSSING["hosts"], CROSSING["shards"]
    timed = _timed({
        "plain": functools.partial(_one_plain, kwargs, spec),
        "sharded": functools.partial(_one_sharded, kwargs, spec,
                                     n_shards)}, args.repeats)
    plain = timed["plain"]
    return [_plain_row("clos-all2all", n_hosts, True, args.repeats, plain),
            _sharded_row("clos-all2all", n_hosts, n_shards, args.repeats,
                         timed["sharded"], plain)]


def run_sweep(args) -> dict:
    points = []
    for n_hosts in args.hosts:
        timed = _timed_points(args, n_hosts)
        plain = {trains: timed[("plain", trains)]
                 for trains in (True, False)}
        for trains in (True, False):
            points.append(_plain_row("pairs", n_hosts, trains,
                                     args.repeats, plain[trains]))
        if plain[True]["json"] != plain[False]["json"]:
            raise SystemExit(
                "--train report diverged from --no-train -- the fast "
                "path changed the model, numbers are meaningless")
        if plain[True]["model"] != plain[False]["model"]:
            raise SystemExit(
                f"model-event totals diverged: train "
                f"{plain[True]['model']} != no-train "
                f"{plain[False]['model']}")
        for n_shards in args.shards:
            if n_shards <= n_hosts:
                points.append(_sharded_row(
                    "pairs", n_hosts, n_shards, args.repeats,
                    timed[("shard", n_shards)], plain[True]))

    points.extend(run_crossing(args))

    train_ratios = []
    for n_hosts in args.hosts:
        burst = {trains: run_burst_point(args, n_hosts, trains)
                 for trains in (True, False)}
        for trains in (True, False):
            points.append(burst[trains])
            print(f"hosts={n_hosts:<3d} burst "
                  f"{'train   ' if trains else 'no-train'} "
                  f"{burst[trains]['wall_s']:6.2f}s  "
                  f"{burst[trains]['model_events']:>8d} model events  "
                  f"{burst[trains]['events_per_s']:>9d} ev/s")
        for field in ("model_events", "cells_delivered", "sim_time_us"):
            if burst[True][field] != burst[False][field]:
                raise SystemExit(
                    f"burst {field} diverged: train "
                    f"{burst[True][field]} != no-train "
                    f"{burst[False][field]}")
        ratio = round(burst[True]["events_per_s"]
                      / burst[False]["events_per_s"], 2)
        train_ratios.append({"hosts": n_hosts,
                             "events_per_s_ratio": ratio})
        print(f"hosts={n_hosts:<3d} burst train speedup {ratio:.1f}x")

    return {
        "benchmark": "cluster_scale",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "params": {
            "pattern": "pairs", "backpressure": "credit",
            "message_bytes": args.size, "messages": args.messages,
            "burst_pdus": args.burst_pdus,
            "prop_delay_us": args.prop_delay, "seed": args.seed,
            "repeats": args.repeats,
            "crossing": CROSSING,
        },
        "points": points,
        "train_speedup": train_ratios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="hosts x shards scaling sweep for the cluster")
    parser.add_argument("--hosts", type=lambda s: [int(x) for x in
                        s.split(",")], default=[8, 16])
    parser.add_argument("--shards", type=lambda s: [int(x) for x in
                        s.split(",")], default=[2, 4])
    parser.add_argument("--messages", type=int, default=8)
    parser.add_argument("--size", type=int, default=8192)
    parser.add_argument("--burst-pdus", type=int, default=64,
                        help="PDUs per sender in the burst-pairs rows")
    parser.add_argument("--prop-delay", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per point; the row reports "
                             "the minimum wall")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write canonical JSON here")
    args = parser.parse_args(argv)

    document = run_sweep(args)
    payload = to_json(document)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
