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
    collect(t_end) -- picklable result after the clock reaches t_end
    may_emit()     -- optional capability bit for coalescing; absent
                      means "always capable"

Two backends execute the shards: ``proc`` (one OS process per shard,
the fast path) and ``inline`` (a sequential loop over the shards in
the calling thread, the debugging backend).  Both run the identical
coordinator loop, so they produce identical results.

Boundary batches travel as pickles: a worker groups its outbox by
destination shard and pickles each batch once, the coordinator files
those bytes into the destination's mailbox untouched, and the
receiving worker unpickles them.  The proc backend's batches ride the
pipe that carries each window report.  Inline pickles too, so it
checks that every message survives the copy a process boundary makes,
and ``boundary_bytes`` counts the same pickled bytes on both backends.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Optional

from .core import SimulationError

BACKENDS = ("proc", "inline")

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


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _Worker:
    """One shard's command executor.  Runs in the child process -- or
    directly in the coordinator for the inline backend -- so every
    backend shares one implementation."""

    def __init__(self, factory: Callable, index: int):
        self.program = factory(index)
        self._may_emit = getattr(self.program, "may_emit", None)

    def _capable(self) -> bool:
        if self._may_emit is None:
            return True
        return bool(self._may_emit())

    def ready(self) -> tuple:
        return ("ready", self.program.sim.peek(), self._capable())

    def handle(self, cmd: tuple) -> Optional[tuple]:
        program = self.program
        op = cmd[0]
        if op == "window":
            _, horizon, inbox = cmd
            for data in inbox:
                program.deliver(pickle.loads(data))
            program.sim.run_window(horizon)
            return ("report", program.sim.peek(), self._pack_outbox(),
                    program.sim.last_event_time,
                    program.sim.events_processed,
                    program.sim.events_absorbed,
                    self._capable())
        if op == "probe":
            return ("counters", program.probe())
        if op == "collect":
            program.sim.advance_to(cmd[1])
            return ("partial", program.collect(cmd[1]))
        if op == "stop":
            return None
        raise SimulationError(f"unknown shard command {op!r}")

    def _pack_outbox(self) -> list:
        by_dest: dict[int, list] = {}
        for dest, when, key, msg in self.program.drain_outbox():
            by_dest.setdefault(dest, []).append((when, key, msg))
        return [(dest, len(batch), min(when for when, _k, _m in batch),
                 pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
                for dest, batch in sorted(by_dest.items())]


def _serve(factory: Callable, index: int, recv: Callable,
           send: Callable) -> None:
    """Run one shard's command loop in a child process."""
    try:
        worker = _Worker(factory, index)
        send(worker.ready())
        while True:
            reply = worker.handle(recv())
            if reply is None:
                return
            send(reply)
    except Exception as exc:  # every failure is relayed to the coordinator
        import traceback
        try:
            send(("error", index, f"{type(exc).__name__}: {exc}",
                  traceback.format_exc()))
        except Exception:
            pass


class _Channel:
    """Coordinator's handle on one worker: send a command, await a
    reply.  Subclasses bind the transport."""

    def send(self, cmd: tuple) -> None:
        raise NotImplementedError

    def recv(self) -> tuple:
        reply = self._recv()
        if reply[0] == "error":
            error = SimulationError(f"shard {reply[1]} failed: {reply[2]}")
            error.worker_traceback = reply[3]   # the worker's, formatted
            raise error
        return reply

    def _recv(self) -> tuple:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _InlineChannel(_Channel):
    """The shard runs synchronously inside send(); recv() returns the
    stored reply.  No parallelism -- this is the debugging backend."""

    def __init__(self, factory: Callable, index: int):
        self._worker = _Worker(factory, index)
        self._reply: Optional[tuple] = self._worker.ready()

    def send(self, cmd: tuple) -> None:
        self._reply = self._worker.handle(cmd)

    def _recv(self) -> tuple:
        return self._reply


class _ProcChannel(_Channel):
    def __init__(self, ctx, factory: Callable, index: int):
        parent, child = ctx.Pipe()
        self._conn = parent
        self._proc = ctx.Process(
            target=_serve,
            args=(factory, index, child.recv, child.send),
            name=f"shard-{index}", daemon=True)
        self._proc.start()
        child.close()

    def send(self, cmd: tuple) -> None:
        self._conn.send(cmd)

    def _recv(self) -> tuple:
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():
            self._proc.terminate()


def _open_channels(factory: Callable, n_shards: int,
                   backend: str) -> list:
    if backend == "inline":
        return [_InlineChannel(factory, i) for i in range(n_shards)]
    if backend == "proc":
        import multiprocessing
        try:
            # A forked child inherits the factory; it need not pickle.
            ctx = multiprocessing.get_context("fork")
        except ValueError:          # platform without fork
            ctx = multiprocessing.get_context()
        return [_ProcChannel(ctx, factory, i) for i in range(n_shards)]
    raise SimulationError(
        f"unknown shard backend {backend!r}; choose from {BACKENDS}")


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def run_shards(factory: Callable, n_shards: int, window_us: float,
               backend: str = "proc",
               window_probe: Optional[Callable[[int, list], None]] = None,
               ) -> ParallelRunResult:
    """Drive ``n_shards`` shard programs to global quiescence.

    ``factory(index)`` builds shard ``index``'s program; with the
    ``proc`` backend it runs in the child, so it (and whatever it
    closes over) must survive the journey into a worker process.
    ``window_us`` is the model's lookahead -- for the cluster fabric,
    the trunk propagation delay.

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

    channels = _open_channels(factory, n_shards, backend)
    try:
        peeks: list[Optional[float]] = []
        capable: list[bool] = []
        for channel in channels:
            reply = channel.recv()
            peeks.append(reply[1])
            capable.append(bool(reply[2]))
        # Mailbox entries are (min_when, message count, pickled batch).
        inboxes: list[list] = [[] for _ in range(n_shards)]
        lasts = [0.0] * n_shards
        events = [0] * n_shards
        absorbed = [0] * n_shards
        windows = 0
        boundary_msgs = 0
        boundary_bytes = 0

        while True:
            # The frontier: every place a future cross-shard effect
            # can originate -- a shard's next pending event, or an
            # undelivered message.
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

            # Emission bound: the earliest instant shard j could
            # stamp a *cross-shard* message.  Anything j emits comes
            # from an event at loc_min[j] or later and carries the
            # lookahead, so eb[j] = loc_min[j] + W -- unless j's model
            # state rules out cross-shard emission entirely, in which
            # case the bound is infinite and j stops constraining its
            # peers (the whole point of coalescing).
            #
            # A message can reach shard i either directly from a
            # foreign emission (eb[j]) or by a chain that starts at
            # i's own frontier, crosses to a peer, and bounces back
            # (eb[i] + W minimum -- the credit-return loop is exactly
            # that shape); longer chains only add more +W hops, so
            # the two terms dominate by induction:
            #
            #     horizon_i = min(min_{j!=i} eb[j],  eb[i] + W)
            #
            # With every shard capable this is the classic fixed
            # window (W past the fabric-wide frontier, 2W for a shard
            # whose peers all idle) -- coalescing strictly widens it.
            # Track the two smallest bounds to get min-over-others
            # per shard in O(1).
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

            active = []
            for i, channel in enumerate(channels):
                foreign = lo2 if lo_at == i else lo
                echo = eb[i] + window_us
                horizon = echo if echo < foreign else foreign
                runnable = peeks[i] is not None and peeks[i] < horizon
                deliverable = any(when < horizon
                                  for when, _c, _d in inboxes[i])
                if not (runnable or deliverable):
                    continue        # idle this window; keep its mailbox
                if not runnable and not capable[i] and horizon < _INF:
                    # Deliver-only work on a shard that provably
                    # cannot emit: deferring it is invisible to every
                    # peer, so batch it into the shard's next real
                    # window instead of paying a round-trip now.
                    continue
                active.append(i)
                channel.send(("window", horizon,
                              [data for _when, _count, data
                               in inboxes[i]]))
                inboxes[i] = []
            if not active:
                # Unreachable: the shard holding the smallest finite
                # emission bound is always runnable or deliverable and
                # never deferred; if no bound is finite, horizons are
                # infinite and deferral is off.  Guard anyway -- a
                # silent `continue` here would spin forever.
                raise SimulationError(
                    "window engine stalled with work pending")
            for i in active:
                (_tag, peek, payload, last, n_events, n_absorbed,
                 is_capable) = channels[i].recv()
                peeks[i] = peek
                lasts[i] = last
                events[i] = n_events
                absorbed[i] = n_absorbed
                capable[i] = bool(is_capable)
                for dest, count, min_when, data in payload:
                    inboxes[dest].append((min_when, count, data))
                    boundary_msgs += count
                    boundary_bytes += len(data)
            windows += 1
            if window_probe is not None:
                for channel in channels:
                    channel.send(("probe",))
                window_probe(windows,
                             [channel.recv()[1] for channel in channels])

        t_end = max(lasts)
        for channel in channels:
            channel.send(("collect", t_end))
        partials = [channel.recv()[1] for channel in channels]
        for channel in channels:
            channel.send(("stop",))
        return ParallelRunResult(t_end=t_end, partials=partials,
                                 windows=windows,
                                 events_processed=sum(events),
                                 events_absorbed=sum(absorbed),
                                 boundary_msgs=boundary_msgs,
                                 boundary_bytes=boundary_bytes)
    finally:
        for channel in channels:
            channel.close()


__all__ = ["run_shards", "ParallelRunResult", "BACKENDS"]
