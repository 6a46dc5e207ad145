"""Topology generators: flat switched, leaf/spine Clos, 3D torus.

Each generator is a pure function from shape parameters to a
:class:`~repro.topology.spec.TopologySpec`; two calls with equal
arguments return equal specs, on any process -- the property the
sharded runs' byte-identity contract rests on.

* ``switched_spec`` reproduces the seed fabric exactly: ``K`` switches
  full-meshed by inter-switch trunks, hosts spread round-robin.  Any
  flow crosses at most two switches.
* ``clos_spec`` is the datacenter staple: ``pods`` leaf switches, each
  serving a contiguous block of hosts, every leaf cabled to every
  spine.  ``oversubscription`` sets the leaf:spine ratio (2.0 means
  half as many spines as leaves), and every leaf pair has one
  equal-cost path per spine -- the ECMP fan the router hashes over.
* ``torus_spec`` is the APEnet+ shape: one switch per lattice node,
  wraparound links along every axis, hosts spread round-robin over
  nodes (one host per node reproduces the 3D-torus cluster directly).
  Minimal paths multiply along every axis with distance, so ECMP
  spreads load without a centralized stage.
"""

from __future__ import annotations

from ..sim import SimulationError
from .spec import TopologySpec


def switched_spec(n_hosts: int, n_switches: int = 1) -> TopologySpec:
    """The seed shape: full-meshed flat switches, round-robin hosts."""
    if n_switches < 1:
        raise SimulationError("need at least one switch")
    if n_switches > n_hosts:
        raise SimulationError(
            f"n_switches must be <= n_hosts ({n_hosts}), got {n_switches}")
    links = [(s, t)
             for s in range(n_switches)
             for t in range(n_switches) if s != t]
    return TopologySpec(
        kind="switched", n_hosts=n_hosts,
        switch_names=tuple(f"sw{k}" for k in range(n_switches)),
        switch_coords=tuple((k,) for k in range(n_switches)),
        host_attach=tuple(i % n_switches for i in range(n_hosts)),
        links=tuple(links))


def clos_spec(n_hosts: int, pods: int = 4,
              oversubscription: float = 2.0) -> TopologySpec:
    """Leaf/spine Clos: ``pods`` leaves, every leaf on every spine.

    Hosts attach to leaves in contiguous, balanced blocks -- the rack
    locality that makes topology-aware shard partitioning (and real
    datacenter placement) pay off.  A single pod degenerates to one
    switch with no spine stage.
    """
    if pods < 1:
        raise SimulationError(f"clos needs pods >= 1, got {pods}")
    if oversubscription <= 0.0:
        raise SimulationError(
            f"oversubscription must be positive, got {oversubscription}")
    if pods > n_hosts:
        raise SimulationError(
            f"clos needs pods <= n_hosts ({n_hosts}), got {pods}")
    attach = tuple(i * pods // n_hosts for i in range(n_hosts))
    if pods == 1:
        return TopologySpec(
            kind="clos", n_hosts=n_hosts, switch_names=("leaf0",),
            switch_coords=((0, 0),), host_attach=attach, links=())
    n_spines = max(1, round(pods / oversubscription))
    names = [f"leaf{p}" for p in range(pods)]
    coords = [(0, p) for p in range(pods)]
    names += [f"spine{s}" for s in range(n_spines)]
    coords += [(1, s) for s in range(n_spines)]
    links = []
    for p in range(pods):
        for s in range(n_spines):
            spine = pods + s
            links.append((p, spine))
            links.append((spine, p))
    return TopologySpec(
        kind="clos", n_hosts=n_hosts, switch_names=tuple(names),
        switch_coords=tuple(coords), host_attach=attach,
        links=tuple(links))


def torus_spec(n_hosts: int, dims) -> TopologySpec:
    """3D (or any-D) torus: a switch per node, wraparound each axis."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise SimulationError(
            f"torus dims must be positive integers, got {dims}")
    n_nodes = 1
    for d in dims:
        n_nodes *= d
    coords = []
    cursor = [0] * len(dims)
    for _ in range(n_nodes):
        coords.append(tuple(cursor))
        for axis in range(len(dims) - 1, -1, -1):
            cursor[axis] += 1
            if cursor[axis] < dims[axis]:
                break
            cursor[axis] = 0
    index = {coord: k for k, coord in enumerate(coords)}
    linkset = {}
    for k, coord in enumerate(coords):
        for axis, size in enumerate(dims):
            if size < 2:
                continue
            step = list(coord)
            step[axis] = (coord[axis] + 1) % size
            other = index[tuple(step)]
            if other == k:
                continue
            linkset[(k, other)] = None
            linkset[(other, k)] = None
    return TopologySpec(
        kind="torus", n_hosts=n_hosts,
        switch_names=tuple("t" + ".".join(str(c) for c in coord)
                           for coord in coords),
        switch_coords=tuple(coords),
        host_attach=tuple(i % n_nodes for i in range(n_hosts)),
        links=tuple(sorted(linkset)))


def build_spec(topology: str, n_hosts: int, *, n_switches: int = 1,
               pods: int = 4, dims=None,
               oversubscription: float = 2.0) -> TopologySpec:
    """Dispatch one of the named generators and validate the result."""
    if topology == "switched":
        spec = switched_spec(n_hosts, n_switches)
    elif topology == "clos":
        spec = clos_spec(n_hosts, pods=pods,
                         oversubscription=oversubscription)
    elif topology == "torus":
        spec = torus_spec(n_hosts, dims if dims is not None
                          else (2, 2, 2))
    else:
        raise SimulationError(
            f"no generator for topology {topology!r}; choose from "
            f"('switched', 'clos', 'torus')")
    spec.validate()
    return spec


__all__ = ["switched_spec", "clos_spec", "torus_spec", "build_spec"]
