"""Conservative parallel discrete-event simulation.

K *shard programs*, each owning a private :class:`~repro.sim.core.
Simulator`, advance in lockstep time windows.  The engine assumes the
model guarantees a **lookahead** of ``window_us``: any message a shard
emits for another shard is stamped at least ``window_us`` after the
emitting event.  Then a window of exactly that width is safe -- every
shard runs freely up to the horizon, all emitted messages are
exchanged at the barrier, and no shard ever receives a message
stamped in its past:

    horizon = T_min + W   where T_min = earliest pending event or
                                        undelivered message, fabric-wide
    a message emitted by an event at t (>= T_min) is stamped
    t + W >= T_min + W = horizon,

so delivery at the barrier always lands at or beyond the next
window's start.  For the cluster fabric the lookahead is the trunk
propagation delay -- hosts only interact through links that are at
least that long (see DESIGN.md, "Parallel simulation").

**Adaptive window coalescing** sharpens the bound with one extra bit
per shard: whether its *model state* can ever emit a cross-shard
message again (``may_emit()``, a pure function of the cluster flow
table).  A shard that provably cannot emit contributes an infinite
emission bound, so its peers' horizons stretch past it -- in the
limit where no shard can emit (a workload whose flows never cross the
partition cut), every shard runs to quiescence in a single window
instead of hundreds of fixed-width barriers.  With every shard
capable the horizons reduce exactly to the fixed-window formula
above, so coalescing never changes *which* events a window may run
-- only how many windows it takes.

A shard program is anything with::

    sim            -- its Simulator
    deliver(batch) -- schedule [(when, key, msg), ...] from peers
    drain_outbox() -- return and clear [(dest, when, key, msg), ...]
    collect(t_end) -- the shard's result once the clock reaches t_end
    may_emit()     -- optional capability bit for coalescing; absent
                      means "always capable"

The engine builds every shard program in the calling process and runs
the shards one after another.  A barrier is two phases: every active
shard runs its window, and only then are the outboxes filed, so no
shard sees a peer's output from the window it is running.

Boundary batches travel as pickles: after its window a shard's outbox
is grouped by destination shard and each batch is pickled once, the
bytes wait in the destination's mailbox untouched, and the receiving
shard unpickles them before its next window.  Shards therefore never
share a message object, and ``boundary_bytes`` counts the pickled
bytes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Optional

from .core import SimulationError

_INF = float("inf")


@dataclass
class ParallelRunResult:
    """What a sharded run produced."""

    t_end: float                # fabric-wide last event time
    partials: list              # one collect() result per shard
    windows: int                # synchronization barriers executed
    events_processed: int       # summed over shards
    events_absorbed: int = 0    # per-cell events folded into trains
    boundary_msgs: int = 0      # messages exchanged between shards
    boundary_bytes: int = 0     # pickled bytes that carried them


def _capable(program) -> bool:
    may_emit = getattr(program, "may_emit", None)
    return may_emit is None or bool(may_emit())


def _pack_outbox(program) -> list:
    """The shard's outbox as ``(dest, count, min_when, pickled batch)``,
    one entry per destination shard."""
    by_dest: dict[int, list] = {}
    for dest, when, key, msg in program.drain_outbox():
        by_dest.setdefault(dest, []).append((when, key, msg))
    return [(dest, len(batch), min(when for when, _k, _m in batch),
             pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            for dest, batch in sorted(by_dest.items())]


def run_shards(factory: Callable, n_shards: int, window_us: float,
               window_probe: Optional[Callable[[int, list], None]] = None,
               ) -> ParallelRunResult:
    """Drive ``n_shards`` shard programs to global quiescence.

    ``factory(index)`` builds shard ``index``'s program.  ``window_us``
    is the model's lookahead -- for the cluster fabric, the trunk
    propagation delay.

    ``window_probe(window_index, counters)``, when given, is called at
    every barrier with each shard's ``program.probe()`` result -- a
    true global snapshot, since no shard is mid-event at a barrier.
    The sanitizers use it to re-assert the conservation law every
    window instead of only at quiescence.  The probe fires once per
    *coalesced* window -- fewer, wider snapshots, same invariant.
    """
    if window_us <= 0.0:
        raise SimulationError(
            f"window_us must be positive, got {window_us}")
    if n_shards < 1:
        raise SimulationError(f"need at least one shard, got {n_shards}")

    programs = [factory(i) for i in range(n_shards)]
    peeks = [program.sim.peek() for program in programs]
    capable = [_capable(program) for program in programs]
    # Mailbox entries are (min_when, message count, pickled batch).
    inboxes: list[list] = [[] for _ in range(n_shards)]
    windows = 0
    boundary_msgs = 0
    boundary_bytes = 0

    while True:
        # The frontier: every place a future cross-shard effect can
        # originate -- a shard's next pending event, or an undelivered
        # message.
        loc_min = [_INF] * n_shards
        for i, peek in enumerate(peeks):
            if peek is not None:
                loc_min[i] = peek
        for i, box in enumerate(inboxes):
            for when, _count, _data in box:
                if when < loc_min[i]:
                    loc_min[i] = when
        if min(loc_min) == _INF:
            break

        # Emission bound: the earliest instant shard j could stamp a
        # *cross-shard* message.  Anything j emits comes from an event
        # at loc_min[j] or later and carries the lookahead, so eb[j] =
        # loc_min[j] + W -- unless j's model state rules out
        # cross-shard emission entirely, in which case the bound is
        # infinite and j stops constraining its peers (the whole point
        # of coalescing).
        #
        # A message can reach shard i either directly from a foreign
        # emission (eb[j]) or by a chain that starts at i's own
        # frontier, crosses to a peer, and bounces back (eb[i] + W
        # minimum -- the credit-return loop is exactly that shape);
        # longer chains only add more +W hops, so the two terms
        # dominate by induction:
        #
        #     horizon_i = min(min_{j!=i} eb[j],  eb[i] + W)
        #
        # With every shard capable this is the classic fixed window (W
        # past the fabric-wide frontier, 2W for a shard whose peers all
        # idle) -- coalescing strictly widens it.  Track the two
        # smallest bounds to get min-over-others per shard in O(1).
        eb = [_INF] * n_shards
        for i in range(n_shards):
            if loc_min[i] < _INF and capable[i]:
                eb[i] = loc_min[i] + window_us
        lo = lo2 = _INF
        lo_at = -1
        for i, value in enumerate(eb):
            if value < lo:
                lo2, lo, lo_at = lo, value, i
            elif value < lo2:
                lo2 = value

        # Phase one: every active shard runs its window.
        reports = []
        for i, program in enumerate(programs):
            foreign = lo2 if lo_at == i else lo
            echo = eb[i] + window_us
            horizon = echo if echo < foreign else foreign
            runnable = peeks[i] is not None and peeks[i] < horizon
            deliverable = any(when < horizon
                              for when, _c, _d in inboxes[i])
            if not (runnable or deliverable):
                continue            # idle this window; keep its mailbox
            if not runnable and not capable[i] and horizon < _INF:
                # Deliver-only work on a shard that provably cannot
                # emit: deferring it is invisible to every peer, so
                # batch it into the shard's next real window.
                continue
            for _when, _count, data in inboxes[i]:
                program.deliver(pickle.loads(data))
            inboxes[i] = []
            program.sim.run_window(horizon)
            reports.append((i, _pack_outbox(program)))
        if not reports:
            # Unreachable: the shard holding the smallest finite
            # emission bound is always runnable or deliverable and
            # never deferred; if no bound is finite, horizons are
            # infinite and deferral is off.  Guard anyway -- a silent
            # `continue` here would spin forever.
            raise SimulationError("window engine stalled with work pending")

        # Phase two: file every outbox into its destination's mailbox.
        for i, outbox in reports:
            peeks[i] = programs[i].sim.peek()
            capable[i] = _capable(programs[i])
            for dest, count, min_when, data in outbox:
                inboxes[dest].append((min_when, count, data))
                boundary_msgs += count
                boundary_bytes += len(data)
        windows += 1
        if window_probe is not None:
            window_probe(windows, [program.probe() for program in programs])

    sims = [program.sim for program in programs]
    result = ParallelRunResult(
        t_end=max(sim.last_event_time for sim in sims), partials=[],
        windows=windows,
        events_processed=sum(sim.events_processed for sim in sims),
        events_absorbed=sum(sim.events_absorbed for sim in sims),
        boundary_msgs=boundary_msgs, boundary_bytes=boundary_bytes)
    for program in programs:
        program.sim.advance_to(result.t_end)
        result.partials.append(program.collect(result.t_end))
    return result


__all__ = ["run_shards", "ParallelRunResult"]
