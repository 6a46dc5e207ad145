"""Pinned perfbench outcomes: what every benchmark operation computes.

``perfbench/workloads.py`` defines the host-time benchmark's operations.
``golden_perfbench.json`` pins, for each operation of the four workloads
at seeds 1 and 9176 (``paper`` once: the paper fixes every parameter),
its report digest, its modelled counters, its model-event count
(``events_processed + events_absorbed`` summed over the simulators the
operation ran) and the sha256 of every host's ``HostStats`` (bus
utilisation, DMA transactions, interrupts, FIFO drops and the rest,
taken when its simulator last stopped).  A speed-only change must leave
all four as they are; an intended model change shows up as a diff of
that file.  Tier-1 checks the entries marked ``tier1``; running this
file as a script checks all of them::

    PYTHONPATH=src python tests/test_golden_perfbench.py          # check
    PYTHONPATH=src python tests/test_golden_perfbench.py --write  # regenerate

Regenerate only for an intended model change, in a change of its own,
and say there which operations moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.net.host_node import Host
from repro.sim.core import Simulator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_perfbench.json"
SEEDS = (1, 9176)
FIELDS = ("digest", "counters", "model_events", "host_stats")
ABOUT = [
    "Report digest, modelled counters, model events and the sha256 of",
    "every host's HostStats of every perfbench operation",
    "(perfbench/workloads.py) at seeds 1 and 9176 (paper once).",
    "tests/test_golden_perfbench.py checks the tier1",
    "entries in tier-1 and every entry when run as a script. Regenerate",
    "only for an intended model change, in a change of its own:",
    "PYTHONPATH=src python tests/test_golden_perfbench.py --write",
]

# The benchmark's own modules, imported as they are (never modified here).
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def operations():
    """``(workload, seed, op)`` for every pinned operation."""
    for name in sorted(WORKLOADS):
        for seed in SEEDS[:1] if name == "paper" else SEEDS:
            for op in WORKLOADS[name](seed).ops():
                yield name, seed, op


def run(op) -> dict:
    """Run ``op`` and reduce it to what the golden file pins."""
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    events: list[int] = []
    # simulator -> [(index into stats, weak host)], hosts in build order.
    hosts: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    stats: list = []
    plain_run, plain_window = Simulator.run, Simulator.run_window
    plain_init = Host.__init__

    def note(sim: Simulator) -> None:
        if sim not in seen:
            seen[sim] = len(events)
            events.append(0)
        events[seen[sim]] = sim.events_processed + sim.events_absorbed
        for index, ref in hosts.get(sim, ()):
            host = ref()
            if host is not None:
                stats[index] = host.stats()

    def counted_run(sim, *args, **kwargs):
        try:
            return plain_run(sim, *args, **kwargs)
        finally:
            note(sim)

    def counted_window(sim, *args, **kwargs):
        try:
            return plain_window(sim, *args, **kwargs)
        finally:
            note(sim)

    def tracked_init(host, sim, *args, **kwargs):
        plain_init(host, sim, *args, **kwargs)
        hosts.setdefault(sim, []).append((len(stats), weakref.ref(host)))
        stats.append(None)

    Simulator.run, Simulator.run_window = counted_run, counted_window
    Host.__init__ = tracked_init
    try:
        outcome = op.outcome(op.run())
    finally:
        Simulator.run, Simulator.run_window = plain_run, plain_window
        Host.__init__ = plain_init
    snapshots = [asdict(s) for s in stats if s is not None]
    canonical = json.dumps(snapshots, sort_keys=True, separators=(",", ":"))
    return {"digest": outcome.digest, "counters": outcome.counters,
            "model_events": sum(events),
            "host_stats": hashlib.sha256(canonical.encode()).hexdigest()}


def key(workload: str, seed: int, op_name: str) -> str:
    return f"{workload}@{seed}:{op_name}"


def _tier1_cases() -> list:
    ops = {key(w, s, op.name): op for w, s, op in operations()}
    return [(entry, ops[entry["key"]]) for entry in load()["ops"]
            if entry["tier1"]]


_CASES = _tier1_cases()


@pytest.mark.parametrize("entry,op", _CASES,
                         ids=[entry["key"] for entry, _op in _CASES])
def test_perfbench_outcome_matches_golden(entry, op):
    got = run(op)
    for field in FIELDS:
        assert got[field] == entry[field], (
            f"{entry['key']}: {field} moved; see "
            "tests/test_golden_perfbench.py before regenerating")


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__)
        return 2
    old = {e["key"]: e for e in load()["ops"]}
    entries = []
    failed = 0
    for workload, seed, op in operations():
        name = key(workload, seed, op.name)
        got = run(op)
        pinned = old.get(name)
        ok = pinned is not None and all(
            got[f] == pinned.get(f) for f in FIELDS)
        print(f"{'ok  ' if ok else 'DIFF'} {name}", flush=True)
        failed += not ok
        entries.append({"key": name,
                        "tier1": name == key("rpc-pairs", 1, "rpc-pairs"),
                        **got})
    if write:
        doc = {"about": ABOUT, "ops": entries}
        GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    print(f"{len(entries) - failed}/{len(entries)} operations match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
