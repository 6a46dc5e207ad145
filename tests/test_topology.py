"""Topology generators, ECMP routing, and shard partitioning.

The properties under test are the ones the fabric leans on: every
generated spec is valid and fully connected (all-pairs reachability),
route construction is complete (every flow's path reaches its
destination switch with a route installed at every hop, no VCI
collisions anywhere), ECMP path choice is a pure function of content
(same seed -> same path, across processes and shard counts) yet
actually spreads flows across equal-cost candidates, and the greedy
partition is balanced and deterministic.
"""

import pytest

from repro.sim import SimulationError
from repro.topology import (
    bfs_distances, build_ecmp_tables, build_spec, clos_spec, cut_edges,
    partition_hosts, partition_switches, switched_spec, torus_spec,
)

ALL_SPECS = [
    ("switched-1", switched_spec(8, 1)),
    ("switched-3", switched_spec(9, 3)),
    ("clos-1pod", clos_spec(4, pods=1)),
    ("clos-4pod", clos_spec(16, pods=4)),
    ("clos-oversub", clos_spec(12, pods=6, oversubscription=3.0)),
    ("torus-2x2x2", torus_spec(8, (2, 2, 2))),
    ("torus-3x2x2", torus_spec(24, (3, 2, 2))),
    ("torus-1d", torus_spec(4, (4,))),
]


# -- generators ------------------------------------------------------------


@pytest.mark.parametrize("name,spec", ALL_SPECS,
                         ids=[n for n, _ in ALL_SPECS])
def test_specs_validate_and_fully_reachable(name, spec):
    spec.validate()
    assert spec.unreachable_pairs() == []
    dists = bfs_distances(spec)
    for row in dists:
        assert all(d >= 0 for d in row)


def test_switched_spec_reproduces_seed_wiring():
    """The flat topology must wire exactly as the seed fabric did:
    names sw{k}, hosts dealt round-robin, full-mesh links s-major --
    the byte-identity of old reports depends on it."""
    spec = switched_spec(5, 2)
    assert spec.switch_names == ("sw0", "sw1")
    assert spec.host_attach == (0, 1, 0, 1, 0)
    assert spec.links == ((0, 1), (1, 0))
    with pytest.raises(SimulationError, match="n_switches"):
        switched_spec(4, 9)                     # never clamped to hosts


def test_clos_shape():
    spec = clos_spec(16, pods=4, oversubscription=2.0)
    leaves = [n for n in spec.switch_names if n.startswith("leaf")]
    spines = [n for n in spec.switch_names if n.startswith("spine")]
    assert len(leaves) == 4 and len(spines) == 2
    # Hosts in contiguous blocks; every leaf cabled to every spine.
    assert spec.host_attach == (0,) * 4 + (1,) * 4 + (2,) * 4 + (3,) * 4
    spine_ids = {spec.switch_index(s) for s in spines}
    for leaf in leaves:
        li = spec.switch_index(leaf)
        assert {t for s, t in spec.links if s == li} == spine_ids
    # Leaves never cable to each other: all traffic transits a spine.
    dists = bfs_distances(spec)
    for a in leaves:
        for b in leaves:
            if a != b:
                assert dists[spec.switch_index(a)][
                    spec.switch_index(b)] == 2


def test_torus_shape():
    spec = torus_spec(8, (2, 2, 2))
    assert spec.n_switches == 8
    assert spec.switch_names[0] == "t0.0.0"
    assert spec.switch_coords[5] == (1, 0, 1)
    # Every node has one neighbor per axis (wraparound at size 2
    # dedupes +1/-1 into a single cable).
    for row in spec.neighbors():
        assert len(row) == 3
    # Degree doubles once an axis exceeds 2.
    spec4 = torus_spec(4, (4,))
    for row in spec4.neighbors():
        assert len(row) == 2


def test_build_spec_rejects_unknown():
    with pytest.raises(SimulationError):
        build_spec("hypercube", 8)


# -- ECMP routing ----------------------------------------------------------


def test_ecmp_paths_are_minimal_and_deterministic():
    spec = clos_spec(16, pods=4, oversubscription=1.0)
    tables = build_ecmp_tables(spec)
    dists = bfs_distances(spec)
    for src in range(spec.n_switches):
        for dst in range(spec.n_switches):
            path = tables.path(src, dst, flow_key=0x1234, seed=1)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == dists[src][dst]
            # Rebuilt tables, same content -> same path.
            again = build_ecmp_tables(spec).path(src, dst,
                                                 flow_key=0x1234, seed=1)
            assert again == path


def test_ecmp_spreads_flows_across_spines():
    """Distinct flow keys must not all pick one spine -- that would be
    a routing table, not multipath."""
    spec = clos_spec(16, pods=4, oversubscription=1.0)
    tables = build_ecmp_tables(spec)
    spines = set()
    for vci in range(0x1000, 0x1040):
        path = tables.path(0, 3, flow_key=vci, seed=1)
        spines.add(path[1])
    assert len(spines) > 1


def test_ecmp_seed_changes_selection():
    spec = clos_spec(16, pods=4, oversubscription=1.0)
    tables = build_ecmp_tables(spec)
    picks = {seed: tuple(tables.path(0, 3, flow_key=v, seed=seed)
                         for v in range(0x1000, 0x1020))
             for seed in (1, 2)}
    assert picks[1] != picks[2]


# -- route-table completeness on a live fabric -----------------------------


@pytest.mark.parametrize("kw", [
    dict(topology="clos", pods=4),
    dict(topology="torus", torus_dims=(2, 2, 2)),
    dict(topology="switched", n_switches=3),
], ids=["clos", "torus", "switched"])
def test_route_tables_complete_all_pairs(kw):
    from repro.cluster import Fabric
    from repro.hw.specs import DS5000_200

    fabric = Fabric(machines=DS5000_200, n_hosts=8, **kw)
    flows = [fabric.open_flow(a, b)
             for a in range(8) for b in range(8) if a != b]
    for flow in flows:
        for vci, src, dst in ((flow.src_vci, flow.src, flow.dst),
                              (flow.dst_vci, flow.dst, flow.src)):
            here, _ = fabric._attach[src]
            d_sw, d_trunk = fabric._attach[dst]
            hops = 0
            while True:
                route = fabric.switches[here].route_for(vci)
                assert route is not None, \
                    f"VCI {vci:#x} unrouted at switch {here}"
                trunk, out_vci = route
                kind, idx = fabric._trunk_dest[(here, trunk)]
                if kind == "host":
                    assert here == d_sw and trunk == d_trunk
                    assert idx == dst
                    break
                assert out_vci == vci, "rewrite before the final hop"
                here = idx
                hops += 1
                assert hops <= fabric.topo.n_switches, "routing loop"


@pytest.mark.parametrize("kw,name,asked", [
    (dict(n_hosts=4, n_switches=100), "n_switches", 100),
    (dict(n_hosts=4, n_switches=5), "n_switches", 5),
    (dict(n_hosts=8, topology="clos", pods=100), "pods", 100),
    (dict(n_hosts=3, topology="clos"), "pods", 4),     # the default pods
], ids=["switches-100", "switches-5", "pods-100", "default-pods"])
def test_fabric_rejects_more_switches_than_hosts(kw, name, asked):
    """Built through the API, a fabric is the one its arguments state
    or an error that names the argument; the generators never shrink
    a switch or pod count to the host count."""
    from repro.cluster import Fabric
    from repro.hw.specs import DS5000_200

    message = rf"{name} .*\({kw['n_hosts']}\), got {asked}$"
    with pytest.raises(SimulationError, match=message):
        Fabric(DS5000_200, **kw)


def test_fabric_keeps_switch_and_pod_counts_up_to_hosts():
    from repro.cluster import Fabric
    from repro.hw.specs import DS5000_200

    assert Fabric(DS5000_200, n_hosts=4, n_switches=4).topo.n_switches == 4
    leaves = [name for name in Fabric(DS5000_200, n_hosts=4, topology="clos",
                                      pods=4).topo.switch_names
              if name.startswith("leaf")]
    assert len(leaves) == 4


# -- partitioning ----------------------------------------------------------


@pytest.mark.parametrize("name,spec", ALL_SPECS,
                         ids=[n for n, _ in ALL_SPECS])
@pytest.mark.parametrize("n_shards", (1, 2, 4))
def test_partition_balanced_total_deterministic(name, spec, n_shards):
    assign = partition_hosts(spec, n_shards)
    assert len(assign) == spec.n_hosts
    assert assign == partition_hosts(spec, n_shards)
    cap = -(-spec.n_hosts // n_shards)
    for s in range(n_shards):
        assert assign.count(s) <= cap
    assert all(0 <= a < n_shards for a in assign)
    switches = partition_switches(spec, assign, n_shards)
    assert len(switches) == spec.n_switches
    assert all(0 <= s < n_shards for s in switches)


def test_partition_keeps_racks_together():
    """A Clos leaf's hosts must land on one shard when capacity
    allows -- the whole point of replacing ``i % K``."""
    spec = clos_spec(16, pods=4)
    assign = partition_hosts(spec, 2)
    naive = [i % 2 for i in range(16)]
    assert cut_edges(spec, assign) == 0
    assert cut_edges(spec, assign) < cut_edges(spec, naive)
    for leaf in range(4):
        shards = {assign[i] for i in spec.hosts_on(leaf)}
        assert len(shards) == 1
