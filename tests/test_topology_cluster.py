"""Clos and torus fabrics end-to-end: conservation, sharding, CLI.

The acceptance contract for the multi-topology fabric: a workload
over any generated shape conserves cells, the sharded run is
byte-identical to the single-process run at every shard count, the
CLI surface drives both shapes, and fault sites are addressable by
topology coordinate names.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.cluster.sharded import ShardFabric, run_cluster_sharded
from repro.faults import FaultPlan
from repro.hw.specs import DS5000_200
from repro.sim import SimulationError

CLOS_KW = dict(machines=DS5000_200, n_hosts=8, topology="clos", pods=4)
TORUS_KW = dict(machines=DS5000_200, n_hosts=8, topology="torus",
                torus_dims=(2, 2, 2))


def _spec(pattern="pairs"):
    return WorkloadSpec(pattern=pattern, kind="open", seed=1,
                        message_bytes=2048, messages_per_client=2,
                        requests_per_client=2)


_BASELINES: dict = {}


def _baseline(kw, pattern) -> str:
    key = (kw["topology"], pattern)
    if key not in _BASELINES:
        fabric = Fabric(**kw)
        workload = run_workload(fabric, _spec(pattern))
        report = collect(fabric, workload)
        assert report.conservation["holds"]
        _BASELINES[key] = report.to_json()
    return _BASELINES[key]


@pytest.mark.parametrize("kw", (CLOS_KW, TORUS_KW),
                         ids=("clos", "torus"))
@pytest.mark.parametrize("pattern", ("incast", "pairs"))
def test_conservation_holds(kw, pattern):
    report = json.loads(_baseline(kw, pattern))
    cons = report["conservation"]
    assert cons["holds"]
    assert cons["delivered"] > 0
    assert report["topology"] == kw["topology"]


@pytest.mark.parametrize("kw", (CLOS_KW, TORUS_KW),
                         ids=("clos", "torus"))
@pytest.mark.parametrize("n_shards", (1, 2, 4))
def test_sharded_byte_identical(kw, n_shards):
    report, _run = run_cluster_sharded(kw, _spec("pairs"), n_shards,
                                       backend="inline")
    assert report.to_json() == _baseline(kw, "pairs")


def test_sharded_byte_identical_under_faults():
    kw = dict(CLOS_KW,
              faults=FaultPlan.parse("loss=0.01,port=1:0:1@500",
                                     seed=3))
    fabric = Fabric(**kw)
    workload = run_workload(fabric, _spec("incast"))
    plain = collect(fabric, workload).to_json()
    for n_shards in (2, 4):
        report, _run = run_cluster_sharded(kw, _spec("incast"),
                                           n_shards, backend="inline")
        assert report.to_json() == plain


def test_multihop_paths_cross_spines():
    """A Clos incast (every leaf talking to leaf 0) must actually
    transit the spine stage -- otherwise the topology is decorative.
    (Pairs adjacency stays intra-leaf by construction.)"""
    fabric = Fabric(**CLOS_KW)
    run_workload(fabric, _spec("incast"))
    spine_cells = sum(
        sw.cells_switched for sw in fabric.switches
        if sw.name.startswith("spine"))
    assert spine_cells > 0


def test_sharding_rejects_only_direct():
    with pytest.raises(SimulationError):
        ShardFabric(0, 2, machines=DS5000_200, n_hosts=2,
                    topology="direct")
    # Clos and torus shard fine (construction only).
    ShardFabric(0, 2, **CLOS_KW)
    ShardFabric(1, 2, **TORUS_KW)


def test_symbolic_fault_addressing():
    from repro.topology import build_spec
    names = build_spec("clos", 8, pods=4).name_table()
    plan = FaultPlan.parse("port=spine0:0:1@500", switch_names=names)
    assert plan.port_kills[0].switch == names["spine0"]
    # Numeric addressing still parses without a name table.
    plan = FaultPlan.parse("port=0:0:1@500")
    assert plan.port_kills[0].switch == 0
    with pytest.raises(ValueError):
        FaultPlan.parse("port=nosuch:0:1@500", switch_names=names)


@pytest.mark.parametrize("argv", (
    ["cluster", "--topology", "clos", "--pods", "4", "--hosts", "8",
     "--messages", "2", "--json"],
    ["cluster", "--topology", "torus", "--dims", "2,2,2", "--hosts", "8",
     "--messages", "2", "--json"],
), ids=("clos", "torus"))
def test_cli_topologies(argv, capsys):
    assert cli_main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["topology"] == argv[2]
    assert report["conservation"]["holds"]


def test_cli_symbolic_fault(capsys):
    argv = ["cluster", "--topology", "torus", "--dims", "2,2,2",
            "--hosts", "8", "--messages", "2", "--json",
            "--faults", "port=t0.0.1:0:1@400"]
    assert cli_main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conservation"]["holds"]
    assert report["faults"]["plan"]["port_kills"][0]["switch"] == 1
