"""Declarative fabric topologies.

A :class:`TopologySpec` is everything the cluster fabric needs to wire
itself: how many switches exist, which switch each host's striped
uplink terminates at, and which directed inter-switch links carry
trunk traffic.  The spec is a frozen value object -- pure tuples, no
behavior-bearing references -- so it hashes into cache keys, and
every consumer (wiring, routing,
partitioning, fault addressing) derives its view from the same
declaration instead of re-encoding the shape.

Switches carry *names* (``leaf2``, ``spine0``, ``t1.0.2``) and
*coordinates* (``(tier, index)`` for Clos, ``(x, y, z)`` for a torus):
names address fault-injection sites and appear in reports; coordinates
let generators and tests reason about the geometry.

The spec deliberately does not mention trunks, lanes, or VCIs -- trunk
numbering is the fabric's job (it must walk one global order so every
shard agrees), and routing is :mod:`repro.topology.routing`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import SimulationError


@dataclass(frozen=True)
class TopologySpec:
    """One fabric shape, declaratively.

    ``links`` holds *directed* switch pairs; a physical cable
    contributes both ``(s, t)`` and ``(t, s)``.  ``host_attach[i]`` is
    the switch whose trunk serves host ``i``'s downlink and uplink.
    """

    kind: str                               # "switched" | "clos" | "torus"
    n_hosts: int
    switch_names: tuple                     # switch index -> name
    switch_coords: tuple                    # switch index -> coord tuple
    host_attach: tuple                      # host index -> switch index
    links: tuple                            # directed (src sw, dst sw)

    @property
    def n_switches(self) -> int:
        return len(self.switch_names)

    def switch_index(self, name: str) -> int:
        """Resolve a switch name (``leaf0``, ``t0.1.1``) to its index."""
        for k, known in enumerate(self.switch_names):
            if known == name:
                return k
        raise SimulationError(
            f"no switch named {name!r} in this {self.kind} topology; "
            f"known: {', '.join(self.switch_names)}")

    def name_table(self) -> dict:
        """name -> switch index, for symbolic fault-site addressing."""
        return {name: k for k, name in enumerate(self.switch_names)}

    def neighbors(self) -> tuple:
        """Per-switch sorted out-neighbor tuples (the routing graph)."""
        out: list = [[] for _ in range(self.n_switches)]
        for s, t in self.links:
            out[s].append(t)
        return tuple(tuple(sorted(ns)) for ns in out)

    def hosts_on(self, switch: int) -> tuple:
        """Host indices attached to one switch, ascending."""
        return tuple(i for i in range(self.n_hosts)
                     if self.host_attach[i] == switch)

    def validate(self) -> None:
        """Reject malformed shapes before any wiring happens."""
        n = self.n_switches
        if n < 1:
            raise SimulationError("a topology needs at least one switch")
        if len(self.switch_coords) != n:
            raise SimulationError(
                f"{n} switches but {len(self.switch_coords)} coordinates")
        if len(set(self.switch_names)) != n:
            raise SimulationError("switch names must be unique")
        if len(self.host_attach) != self.n_hosts:
            raise SimulationError(
                f"{self.n_hosts} hosts but {len(self.host_attach)} "
                f"attach points")
        for i, k in enumerate(self.host_attach):
            if not 0 <= k < n:
                raise SimulationError(
                    f"host {i} attaches to unknown switch {k}")
        seen = set()
        for s, t in self.links:
            if not (0 <= s < n and 0 <= t < n):
                raise SimulationError(f"link ({s}, {t}) names an "
                                      f"unknown switch")
            if s == t:
                raise SimulationError(f"switch {s} linked to itself")
            if (s, t) in seen:
                raise SimulationError(f"duplicate link ({s}, {t})")
            seen.add((s, t))
        for s, t in self.links:
            if (t, s) not in seen:
                raise SimulationError(
                    f"link ({s}, {t}) has no reverse direction; trunks "
                    f"are duplex pairs")
        unreached = self.unreachable_pairs()
        if unreached:
            s, t = unreached[0]
            raise SimulationError(
                f"switch {self.switch_names[t]} is unreachable from "
                f"{self.switch_names[s]}; the fabric must be connected")

    def unreachable_pairs(self) -> list:
        """Ordered switch pairs with no path, for diagnostics/tests."""
        dists = bfs_distances(self)
        return [(s, t)
                for s in range(self.n_switches)
                for t in range(self.n_switches)
                if dists[s][t] < 0]


def bfs_distances(spec: TopologySpec, dead_edges=()) -> list:
    """Hop counts between every switch pair; -1 when unreachable.

    ``dead_edges`` is a collection of *directed* ``(s, t)`` links to
    exclude -- the recovery control plane's mask for failed trunks.
    """
    adjacency = spec.neighbors()
    if dead_edges:
        dead = frozenset(dead_edges)
        adjacency = tuple(
            tuple(b for b in row if (a, b) not in dead)
            for a, row in enumerate(adjacency))
    n = spec.n_switches
    table = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adjacency[a]:
                    if dist[b] < 0:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        table.append(dist)
    return table


__all__ = ["TopologySpec", "bfs_distances"]
