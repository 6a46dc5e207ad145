"""Runtime sanitizers for the SRSW and windowing disciplines.

Two invariants hold this repo together and neither is visible to a
static pass:

* **SRSW ownership** (paper section 2.1.1): each descriptor-queue
  pointer is mutated by exactly one actor for the queue's lifetime --
  the head by the writer, the tail by the reader.  The queue classes
  already reject a *wrong-side* push/pop, but two distinct actors on
  the *same* side (two driver threads sharing a transmit queue) slip
  straight through: which object "is" the writer is a runtime fact
  about aliasing, not a property of any call site.
* **Conservative windowing** (DESIGN.md section 6): virtual time is
  monotone within a shard, no event executes at or past the shard's
  current horizon, and the extended conservation law ``injected ==
  delivered + corrupted + queued + dropped + lost_to_faults`` holds
  fabric-wide at every window barrier -- not just at quiescence,
  where a slow leak has already been averaged away.

When enabled (``pytest --sanitize``, ``python -m repro cluster
--sanitize``, ``python -m repro chaos --sanitize``) this module
installs hooks into :mod:`repro.osiris.queues`, :mod:`repro.sim.core`
and :mod:`repro.sim.process`.  The hooks observe; they never perturb
event order, so a sanitized run's report is byte-identical to an
unsanitized one (tests/test_sanitize.py pins this).

Actor identity defaults to the accessing side (``"host"`` /
``"board"``).  Code that wants finer attribution -- e.g. two driver
threads -- wraps its queue operations in :func:`actor`::

    with sanitize.actor("txproc-0"):
        queue.push(desc)

An ``actor`` block names the process that opened it only: a process
that the block's operations wake synchronously runs with an actor
stack of its own.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Optional


class SanitizerError(RuntimeError):
    """A checked discipline was violated at runtime."""


# ---------------------------------------------------------------------------
# Actor attribution
# ---------------------------------------------------------------------------

_ACTOR_STACK: list[str] = []


@contextmanager
def actor(name: str):
    """Attribute queue-pointer mutations in this block to ``name``."""
    _ACTOR_STACK.append(name)
    try:
        yield
    finally:
        _ACTOR_STACK.pop()


class _NullContext:
    """Reusable no-op context; cheaper than contextlib.nullcontext()
    on the per-cell fast path (no allocation per entry)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


def maybe_actor(name: str):
    """``actor(name)`` when the sanitizers are enabled, free
    otherwise -- model fast paths (cell-train fold/expansion, the
    per-cell processor loops) use this so attribution costs nothing
    in unsanitized runs."""
    return actor(name) if _enabled else _NULL_CONTEXT


def current_actor(by_host: bool) -> str:
    if _ACTOR_STACK:
        return _ACTOR_STACK[-1]
    return "host" if by_host else "board"


def _own_actor(step):
    """Wrap a process's resume callback so that the process runs with
    an actor stack of its own.  A pointer store then belongs to the
    actor that issued it: a process woken synchronously inside another
    process's ``actor`` block (a driver thread resumed by the signal a
    board-side ``push`` fires) does not run as that actor."""

    def resume(value=None, exc=None):
        outer = _ACTOR_STACK[:]
        _ACTOR_STACK.clear()
        try:
            step(value, exc)
        finally:
            _ACTOR_STACK[:] = outer

    return resume


# ---------------------------------------------------------------------------
# SRSW ownership checking
# ---------------------------------------------------------------------------

# queue -> {"head"|"tail": {actor names seen mutating it}}.  Weak keys
# so sanitizing never extends a queue's lifetime.
_QUEUE_OWNERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _pointer_hook(queue, pointer: str, by_host: bool) -> None:
    """Called by DescriptorQueue after every head/tail store."""
    who = current_actor(by_host)
    owners = _QUEUE_OWNERS.setdefault(queue, {}).setdefault(
        pointer, set())
    owners.add(who)
    if len(owners) > 1:
        raise SanitizerError(
            f"{queue.name}: SRSW violation: '{pointer}' pointer "
            f"mutated by {len(owners)} actors {sorted(owners)}; the "
            f"paper's discipline (section 2.1.1) allows exactly one")


# ---------------------------------------------------------------------------
# Simulator-core checking
# ---------------------------------------------------------------------------

class SimSanitizer:
    """Per-simulator monotone-time and horizon watchdog.

    Installed as the :mod:`repro.sim.core` sanitizer factory; every
    ``Simulator`` built while sanitizing owns one instance.
    """

    __slots__ = ("_last_time", "_horizon")

    def __init__(self) -> None:
        self._last_time = 0.0
        self._horizon: Optional[float] = None

    def on_event(self, time: float) -> None:
        if time < self._last_time:
            raise SanitizerError(
                f"virtual time ran backwards: event at {time} after "
                f"event at {self._last_time}")
        if self._horizon is not None and time >= self._horizon:
            raise SanitizerError(
                f"shard horizon violated: event at {time} inside a "
                f"window bounded by {self._horizon}; a cross-shard "
                f"message undercut the lookahead")
        self._last_time = time

    def window_begin(self, horizon: float) -> None:
        if self._horizon is not None:
            raise SanitizerError(
                f"nested run_window: horizon {horizon} opened inside "
                f"an unfinished window bounded by {self._horizon}")
        self._horizon = horizon

    def window_end(self) -> None:
        self._horizon = None


# ---------------------------------------------------------------------------
# Window-boundary conservation
# ---------------------------------------------------------------------------

def check_window_conservation(window: int, probes: list) -> None:
    """Assert the extended conservation law
    (:func:`repro.cluster.metrics.conservation`) over per-shard probes.

    Every counter is updated transactionally inside a single event, so
    at a barrier -- no shard mid-event -- each cell sits in exactly
    one bucket even though the shards' clocks differ.
    """
    # Deferred: the cluster package imports this module.
    from ..cluster.metrics import conservation
    law = conservation(probes)
    if not law["holds"]:
        accounted = sum(value for term, value in law.items()
                        if term not in ("injected", "holds"))
        raise SanitizerError(
            f"conservation violated at window {window}: injected="
            f"{law['injected']} != delivered={law['delivered']} + "
            f"corrupted={law['corrupted']} + queued={law['queued']} + "
            f"dropped={law['dropped']} + lost_to_faults="
            f"{law['lost_to_faults']} (= {accounted})")


# ---------------------------------------------------------------------------
# Enable / disable
# ---------------------------------------------------------------------------

_enabled = False


def is_enabled() -> bool:
    return _enabled


def enable() -> None:
    """Install the queue-pointer hook and simulator sanitizer factory.

    Idempotent; affects queues touched and simulators *constructed*
    after the call.  With the ``proc`` shard backend each worker
    enables independently (see ``cluster.sharded._build_shard``), so
    fork timing never matters.
    """
    global _enabled
    from ..osiris import queues as _queues
    from ..sim import core as _core
    from ..sim import process as _process
    _QUEUE_OWNERS.clear()
    _queues._POINTER_HOOK = _pointer_hook
    _core.set_sanitizer_factory(SimSanitizer)
    _process.set_resume_wrapper(_own_actor)
    _enabled = True


def disable() -> None:
    global _enabled
    from ..osiris import queues as _queues
    from ..sim import core as _core
    from ..sim import process as _process
    _queues._POINTER_HOOK = None
    _core.set_sanitizer_factory(None)
    _process.set_resume_wrapper(None)
    _QUEUE_OWNERS.clear()
    _enabled = False


@contextmanager
def enabled():
    """Sanitize for the duration of a ``with`` block (test helper)."""
    was = _enabled
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


__all__ = [
    "SanitizerError", "SimSanitizer", "actor", "maybe_actor",
    "current_actor",
    "check_window_conservation", "enable", "disable", "enabled",
    "is_enabled",
]
