"""The benchmark's workloads, as lists of operations.

An operation is one call into a public entry point of the simulator
that builds its rigs, runs them to completion and returns a report.
Outside the timed region, the report is reduced to an :class:`Outcome`:
a digest of its canonical JSON plus what the runner checks and
reports.  A speed-only change to the simulator must leave the digest
and the modelled counters identical, so the runner compares them
across every run of the same operation.

* ``paper`` -- what users run to reproduce the paper: Table 1's 16
  round trips (5 rounds each) and every Figure 2-4 series at 16 KB with
  the repo's default message counts, 26 single-host or back-to-back
  rigs.  It drives the OSIRIS host path (sim, osiris, hw, driver,
  xkernel) and no switch, topology, credit, train or shard code.  The
  paper fixes every parameter, so the seed changes nothing here.
* ``rpc-pairs`` -- closed loop: 8 hosts on one switch as 4 disjoint
  pairs, each client making 48 NFS-style RPCs (75% 8 KB reads) and
  waiting for every reply.  Ports never queue, so this is the
  uncontended per-cell path.
* ``clos-all2all`` -- open loop: 16 hosts on a 4-leaf Clos with credit
  backpressure; every ordered pair sends one 4 KB message, Poisson at
  10 Mbps per client.  240 flows contend for ECMP-spread ports and
  credit windows.
* ``clos-all2all-2shard`` -- the same run split over 2 shards on the
  in-process ``inline`` backend: the only workload that runs the window
  barrier, the boundary codec and the shard merge.  Its report must
  equal ``clos-all2all``'s byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bench.latency import MESSAGE_SIZES, PAPER_TABLE_1, run_table1
from repro.bench.throughput import (
    PAPER_FIGURE_2, PAPER_FIGURE_3, PAPER_FIGURE_4, run_figure2,
    run_figure3, run_figure4,
)
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.cluster.sharded import run_cluster_sharded
from repro.hw.specs import DS5000_200
from timing import EVENT_BUDGET

# The figure point every Figure 2-4 series is measured at.
FIGURE_KB = 16
PAPER_FIGURES = {
    "figure2": (run_figure2, PAPER_FIGURE_2),
    "figure3": (run_figure3, PAPER_FIGURE_3),
    "figure4": (run_figure4, PAPER_FIGURE_4),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one operation produced, reduced to what the runner checks
    and reports."""

    digest: str
    # Modelled counters that must repeat exactly (beyond the digest).
    counters: dict
    # Cell conservation held (always true where no fabric runs).
    conserved: bool = True
    # Cluster report as a dict (None for paper operations).
    report: Optional[dict] = None
    # Paper result object (None for cluster operations).
    result: object = None


@dataclass
class Op:
    name: str
    # Builds and runs the rigs; returns the report (timed).
    run: Callable[[], object]
    # Reduces that report to an Outcome (not timed).
    outcome: Callable[[object], Outcome]
    # Operations sharing a key must produce the same report digest.
    key: str = ""

    def __post_init__(self) -> None:
        self.key = self.key or self.name


class Paper:
    def ops(self) -> list[Op]:
        ops = [self._table1()]
        for name, (run, paper) in PAPER_FIGURES.items():
            ops.append(Op(
                f"{name}@{FIGURE_KB}KB",
                lambda run=run: run(sizes_kb=(FIGURE_KB,)),
                lambda result, paper=paper: Outcome(
                    digest(result.to_json(paper)), {}, result=result)))
        return ops

    def reference_ops(self) -> list[Op]:
        return [self._table1()]

    def setup_op(self) -> Optional[Op]:
        return None

    @staticmethod
    def _table1() -> Op:
        return Op("table1", lambda: run_table1(rounds=5),
                  lambda result: Outcome(digest(result.to_json()), {},
                                         result=result))

    @staticmethod
    def accuracy(outcomes: dict) -> dict:
        """Mean |measured - paper| / paper, in percent, over Table 1's
        cells and over the figure series at ``FIGURE_KB``."""
        table = outcomes["table1"].result
        cells = [abs(measured - paper) / paper
                 for key, row in PAPER_TABLE_1.items()
                 for measured, paper in zip(table.rows[key], row,
                                            strict=True)]
        if len(cells) != 4 * len(MESSAGE_SIZES):
            raise AssertionError("Table 1 is missing cells")
        series = []
        for name, (_run, paper) in PAPER_FIGURES.items():
            figure = outcomes[f"{name}@{FIGURE_KB}KB"].result
            for label, peak in paper.items():
                series.append(abs(figure.at(label, FIGURE_KB) - peak)
                              / peak)
        return {"table1_err_pct": 100.0 * sum(cells) / len(cells),
                "figure_err_pct": 100.0 * sum(series) / len(series)}


def _fabric_kwargs(hosts: int, seed: int, **kw) -> dict:
    return {"machines": DS5000_200, "n_hosts": hosts,
            "routing_seed": seed, **kw}


def _cluster_outcome(result) -> Outcome:
    report, extra = result
    data = report.to_dict()
    return Outcome(digest(report.to_json()), extra,
                   conserved=bool(data["conservation"]["holds"]),
                   report=data)


class Cluster:
    """A single-process cluster run (optionally also split in shards)."""

    def __init__(self, name: str, fabric_kwargs: dict, spec: WorkloadSpec,
                 shards: int = 1, plain_name: str = ""):
        self.name = name
        self.plain_name = plain_name or name
        self.fabric_kwargs = fabric_kwargs
        self.spec = spec
        self.shards = shards

    def _plain(self):
        fabric = Fabric(**self.fabric_kwargs)
        result = run_workload(fabric, self.spec,
                              max_events=EVENT_BUDGET)
        return collect(fabric, result), {}

    def _sharded(self):
        report, run = run_cluster_sharded(
            self.fabric_kwargs, self.spec, self.shards, backend="inline")
        return report, {"windows": run.windows,
                        "boundary_msgs": run.boundary_msgs,
                        "boundary_bytes": run.boundary_bytes}

    def ops(self) -> list[Op]:
        if self.shards > 1:
            # A sharded run must reproduce the single-process report.
            return [Op(self.name, self._sharded, _cluster_outcome,
                       key=self.plain_name)]
        return [Op(self.name, self._plain, _cluster_outcome)]

    def reference_ops(self) -> list[Op]:
        return [Op(self.plain_name, self._plain, _cluster_outcome)]

    def setup_op(self) -> Optional[Op]:
        return self.ops()[0]


def rpc_pairs(seed: int) -> Cluster:
    return Cluster(
        "rpc-pairs",
        _fabric_kwargs(8, seed, topology="switched"),
        WorkloadSpec(pattern="pairs", kind="rpc", seed=seed,
                     requests_per_client=48))


def clos_all2all(seed: int, shards: int = 1) -> Cluster:
    name = "clos-all2all" if shards == 1 else f"clos-all2all-{shards}shard"
    return Cluster(
        name,
        _fabric_kwargs(16, seed, topology="clos", pods=4,
                       backpressure="credit"),
        WorkloadSpec(pattern="all2all", kind="open", seed=seed,
                     message_bytes=4096, messages_per_client=1,
                     rate_mbps=10.0, arrival="poisson"),
        shards=shards, plain_name="clos-all2all")


WORKLOADS = {
    "paper": lambda seed: Paper(),      # the paper fixes every parameter
    "rpc-pairs": rpc_pairs,
    "clos-all2all": clos_all2all,
    "clos-all2all-2shard": lambda seed: clos_all2all(seed, shards=2),
}
