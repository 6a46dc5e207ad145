"""Topology-aware shard partitioning: greedy min-cut over the spec.

The sharded runner used to deal hosts round-robin (``i % K``), which
maximizes cut traffic on exactly the workloads that matter -- the
``pairs`` pattern's neighbors always land on different shards, and a
Clos leaf's rack is sprayed across every simulator.  These functions
replace that with a deterministic greedy partition over the topology
spec's adjacency: hosts are placed in (attach switch, index) order,
each to the shard already holding the most same-switch and
neighbor-switch hosts, under a hard balance cap of
``ceil(n_hosts / K)``.  Co-located hosts -- same leaf, same torus
node, same flat switch block -- therefore share a shard, and most
pattern traffic stays intra-shard.

Everything is a pure function of ``(spec, n_shards)``: every shard
and the report merger recompute the identical assignment, no
coordination required.
"""

from __future__ import annotations

from .spec import TopologySpec


def partition_hosts(spec: TopologySpec, n_shards: int) -> list:
    """host index -> shard, balanced greedy min-cut placement."""
    n = spec.n_hosts
    if n_shards <= 1:
        return [0] * n
    cap = -(-n // n_shards)     # ceil
    adjacency = spec.neighbors()
    assign = [-1] * n
    load = [0] * n_shards
    # per-shard: attach switch -> hosts already placed there.
    placed: list = [dict() for _ in range(n_shards)]
    order = sorted(range(n), key=lambda i: (spec.host_attach[i], i))
    for i in order:
        k = spec.host_attach[i]
        best = -1
        best_key = None
        for s in range(n_shards):
            if load[s] >= cap:
                continue
            affinity = 2 * placed[s].get(k, 0)
            affinity += sum(placed[s].get(m, 0) for m in adjacency[k])
            key = (affinity, -load[s], -s)
            if best_key is None or key > best_key:
                best, best_key = s, key
        assign[i] = best
        load[best] += 1
        placed[best][k] = placed[best].get(k, 0) + 1
    return assign


def partition_switches(spec: TopologySpec, host_shard: list,
                       n_shards: int) -> list:
    """switch index -> shard owning its trunk ports.

    A switch follows the majority of its attached hosts (ties to the
    lowest shard), so downlink trunks land where their hosts live;
    host-less switches (Clos spines) spread round-robin to balance
    the transit-port load.
    """
    out = []
    for k in range(spec.n_switches):
        counts = [0] * n_shards
        for i in range(spec.n_hosts):
            if spec.host_attach[i] == k:
                counts[host_shard[i]] += 1
        if any(counts):
            best = 0
            for s in range(1, n_shards):
                if counts[s] > counts[best]:
                    best = s
            out.append(best)
        else:
            out.append(k % n_shards)
    return out


def cut_edges(spec: TopologySpec, host_shard: list) -> int:
    """Host pairs that share a switch yet sit on different shards --
    the quantity the greedy placement minimizes (diagnostics/tests)."""
    cut = 0
    for a in range(spec.n_hosts):
        for b in range(a + 1, spec.n_hosts):
            if (spec.host_attach[a] == spec.host_attach[b]
                    and host_shard[a] != host_shard[b]):
                cut += 1
    return cut


__all__ = ["partition_hosts", "partition_switches", "cut_edges"]
