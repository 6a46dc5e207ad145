"""Physical main memory and the board's dual-port memory.

Main memory is byte-accurate: every run moves real bytes through it.
It lives in a private anonymous mapping, so it reads as zeros and a
host pays resident memory only for the pages a run writes.  The
page-frame allocator deliberately hands out frames in a scrambled
order: contiguous virtual pages therefore map to non-contiguous
physical frames, which is exactly the buffer-fragmentation problem of
section 2.2 of the paper.
"""

from __future__ import annotations

import functools
import mmap
import random
from typing import Optional

from ..sim import SimulationError

# Seeds the scrambled free-frame order; every geometry shuffles with it.
SCRAMBLE_SEED = 0x05171994


class OutOfMemory(SimulationError):
    """No free page frames left."""


@functools.lru_cache(maxsize=8)        # a handful of geometries exist
def _scrambled_frames(first_frame: int,
                      frame_count: int) -> tuple[int, ...]:
    """The free-frame order of one memory geometry, shuffled once."""
    frames = list(range(first_frame, frame_count))
    random.Random(SCRAMBLE_SEED).shuffle(frames)
    return tuple(frames)


def _zeroed(size_bytes: int) -> mmap.mmap:
    """``size_bytes`` of zeros that take memory only once written.

    Untouched pages read from the kernel's shared zero page, and the
    mapping is copy-on-write across a fork, as a bytearray is.
    """
    data = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # One write must not fault in a whole 2 MB huge page.
        data.madvise(mmap.MADV_NOHUGEPAGE)
    return data


class PhysicalMemory:
    """Byte-addressable main memory with a page-frame allocator.

    A region at the bottom of memory (``reserved_bytes``) is set aside
    for statically allocated, physically contiguous kernel buffers --
    the traditional way operating systems sidestep fragmentation
    (section 2.2).  The rest is handed out frame-by-frame in scrambled
    order.
    """

    def __init__(self, size_bytes: int, page_size: int,
                 reserved_bytes: int = 4 * 1024 * 1024):
        if size_bytes % page_size != 0:
            raise SimulationError("memory size must be page aligned")
        if reserved_bytes % page_size != 0:
            raise SimulationError("reserved region must be page aligned")
        if reserved_bytes >= size_bytes:
            raise SimulationError("reserved region exceeds memory")
        self.size_bytes = size_bytes
        self.page_size = page_size
        self._data = _zeroed(size_bytes)

        self.reserved_bytes = reserved_bytes
        self._reserved_next = 0

        self._free_frames = list(_scrambled_frames(
            reserved_bytes // page_size, size_bytes // page_size))
        self._allocated: set[int] = set()

    # -- page-frame allocation -------------------------------------------

    @property
    def free_frame_count(self) -> int:
        return len(self._free_frames)

    def alloc_frame(self) -> int:
        """Allocate one frame; returns its physical base address."""
        if not self._free_frames:
            raise OutOfMemory("no free page frames")
        frame = self._free_frames.pop()
        self._allocated.add(frame)
        return frame * self.page_size

    def free_frame(self, phys_addr: int) -> None:
        if phys_addr % self.page_size != 0:
            raise SimulationError(f"address {phys_addr:#x} not page aligned")
        frame = phys_addr // self.page_size
        if frame not in self._allocated:
            raise SimulationError(f"frame {frame} is not allocated")
        self._allocated.discard(frame)
        self._free_frames.append(frame)

    def alloc_contiguous(self, nbytes: int) -> int:
        """Allocate physically contiguous bytes from the reserved region.

        Models static allocation of contiguous kernel buffers; raises
        :class:`OutOfMemory` when the region is exhausted.  The region
        is never freed (it is a boot-time pool in the real system).
        """
        nbytes = self._round_up(nbytes)
        if self._reserved_next + nbytes > self.reserved_bytes:
            raise OutOfMemory("contiguous kernel-buffer pool exhausted")
        addr = self._reserved_next
        self._reserved_next += nbytes
        return addr

    def try_alloc_contiguous_frames(self, npages: int) -> Optional[int]:
        """Best-effort dynamic allocation of contiguous frames.

        Models the experimental OS support mentioned at the end of
        section 2.2.  Scans the free list for a run of adjacent frames;
        returns the base physical address or ``None``.
        """
        free = sorted(self._free_frames)
        run_start = 0
        for i in range(1, len(free) + 1):
            if i == len(free) or free[i] != free[i - 1] + 1:
                if i - run_start >= npages:
                    chosen = free[run_start:run_start + npages]
                    for frame in chosen:
                        self._free_frames.remove(frame)
                        self._allocated.add(frame)
                    return chosen[0] * self.page_size
                run_start = i
        return None

    def _round_up(self, nbytes: int) -> int:
        mask = self.page_size - 1
        return (nbytes + mask) & ~mask

    # -- data access -------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        self._check_range(addr, nbytes)
        return self._data[addr:addr + nbytes]

    def write(self, addr: int, data: bytes) -> None:
        self._check_range(addr, len(data))
        self._data[addr:addr + len(data)] = data

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size_bytes:
            raise SimulationError(
                f"physical access [{addr:#x}, +{nbytes}) out of range")


class DualPortMemory:
    """The 128 KB dual-port memory on the OSIRIS board.

    Both the host and the on-board processors see it as an array of
    32-bit words.  Only individual word accesses are atomic (paper,
    section 2.1.1); the lock-free queues are built on that guarantee
    alone.  Contents are always kept, so descriptor encoding/decoding
    is real, but only written words are stored: the rest read 0.
    """

    WORD = 4

    def __init__(self, size_bytes: int = 128 * 1024):
        if size_bytes % self.WORD != 0:
            raise SimulationError("dual-port size must be word aligned")
        self.size_bytes = size_bytes
        self._words: dict[int, int] = {}
        self.host_reads = 0
        self.host_writes = 0
        self.board_reads = 0
        self.board_writes = 0

    def _index(self, addr: int) -> int:
        if addr % self.WORD != 0:
            raise SimulationError(f"unaligned dual-port access {addr:#x}")
        if addr < 0 or addr >= self.size_bytes:
            raise SimulationError(f"dual-port access {addr:#x} out of range")
        return addr // self.WORD

    def read_word(self, addr: int, by_host: bool) -> int:
        """Atomic 32-bit load."""
        if by_host:
            self.host_reads += 1
        else:
            self.board_reads += 1
        return self._words.get(self._index(addr), 0)

    def write_word(self, addr: int, value: int, by_host: bool) -> None:
        """Atomic 32-bit store."""
        if by_host:
            self.host_writes += 1
        else:
            self.board_writes += 1
        self._words[self._index(addr)] = value & 0xFFFFFFFF


class TestAndSetRegister:
    __test__ = False  # not a pytest class, despite the name

    """The per-half test-and-set register (spin-lock support).

    Provided by the hardware for mutual exclusion over the dual-port
    memory; the paper's software deliberately avoids it in favour of
    lock-free queues, but the baseline in
    :mod:`repro.baselines.locked_queue` uses it.
    """

    def __init__(self) -> None:
        self._held = False
        self.acquisitions = 0
        self.failed_attempts = 0

    def test_and_set(self) -> bool:
        """Atomically acquire; True when the lock was obtained."""
        if self._held:
            self.failed_attempts += 1
            return False
        self._held = True
        self.acquisitions += 1
        return True

    def clear(self) -> None:
        if not self._held:
            raise SimulationError("clearing a free test-and-set register")
        self._held = False

    @property
    def held(self) -> bool:
        return self._held


__all__ = [
    "PhysicalMemory", "DualPortMemory", "TestAndSetRegister", "OutOfMemory",
]
