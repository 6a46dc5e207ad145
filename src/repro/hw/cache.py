"""Host data cache model.

A direct-mapped cache that keeps real line contents so that reads
after a non-coherent DMA return genuinely stale bytes.  The
lazy-invalidation experiment of section 2.3 depends on this: a UDP
checksum computed over a stale read must actually fail, triggering the
invalidate-and-retry path.

The cache's two RAMs are held flat, as the hardware holds them: a tag
image of one 32-bit slot per line (the line's tag plus one, 0 for an
empty line), then a ``size_bytes`` line image with line ``i`` at
``i * line_bytes``.  Both live in one private anonymous mapping, so an
unused cache reads as empty from the kernel's zero page and a host pays
resident memory only for the pages its run fills: a few pages for a
cluster host that touches a handful of lines, the whole 2.25 MB for a
DEC 3000 rig that sweeps its cache.

Timing is not charged here; the per-machine cost constants in
:class:`repro.hw.specs.SoftwareCosts` carry it.  This class answers the
*correctness* questions: which bytes does the CPU see, and how many
words does an invalidation touch.
"""

from __future__ import annotations

from ..sim import SimulationError
from .memory import PhysicalMemory, _zeroed
from .specs import CacheSpec


class DataCache:
    """Direct-mapped data cache over :class:`PhysicalMemory`."""

    def __init__(self, spec: CacheSpec, memory: PhysicalMemory):
        if spec.size_bytes % spec.line_bytes != 0:
            raise SimulationError("cache size must be a multiple of line size")
        self.spec = spec
        self.memory = memory
        self.n_lines = spec.size_bytes // spec.line_bytes
        # Tags first, as tag + 1 with 0 for an empty line; then line i
        # at self._first + i * line_bytes.
        self._first = 4 * self.n_lines
        self._image = _zeroed(self._first + spec.size_bytes)
        self._tags = memoryview(self._image)[:self._first].cast("I")
        self.hits = 0
        self.misses = 0
        self.invalidated_words = 0
        self.stale_reads = 0

    # -- CPU side ----------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        """CPU load: returns possibly stale bytes, filling on miss."""
        if nbytes <= 0:
            return b""
        line = self.spec.line_bytes
        n_lines = self.n_lines
        tags = self._tags
        image = self._image
        first = self._first
        start = addr - addr % line
        end = addr + nbytes
        # One memory read covers every line the load touches: the
        # fill on a miss, the freshness check on a hit.
        fresh = self.memory.read(start, -(-(end - start) // line) * line)
        out = bytearray()
        pos = addr
        while pos < end:
            number, offset = divmod(pos, line)
            index = number % n_lines
            tag = number // n_lines + 1
            take = min(line - offset, end - pos)
            at = pos - start
            data = fresh[at:at + take]
            if tags[index] == tag:
                self.hits += 1
                base = first + index * line + offset
                cached = image[base:base + take]
                if cached != data:
                    self.stale_reads += 1
                    data = cached
            else:
                self.misses += 1
                tags[index] = tag
                base = first + index * line
                image[base:base + line] = fresh[at - offset:at - offset + line]
            out += data
            pos += take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """CPU store: write-through (memory and cache both updated)."""
        self.memory.write(addr, data)
        self._merge(addr, data, fill_missing=True)

    # -- DMA side ----------------------------------------------------------

    def dma_write(self, addr: int, data: bytes) -> None:
        """Board DMA writes host memory.

        On a coherent machine the cache is updated too; on the
        DECstation the cached lines silently keep their old contents --
        the stale-data hazard of section 2.3.
        """
        self.memory.write(addr, data)
        if self.spec.coherent_with_dma:
            self._merge(addr, data, fill_missing=False)

    def _merge(self, addr: int, data: bytes, fill_missing: bool) -> None:
        line = self.spec.line_bytes
        n_lines = self.n_lines
        tags = self._tags
        image = self._image
        first = self._first
        pos = addr
        end = addr + len(data)
        while pos < end:
            number, offset = divmod(pos, line)
            index = number % n_lines
            tag = number // n_lines + 1
            take = min(line - offset, end - pos)
            base = first + index * line
            if tags[index] == tag:
                image[base + offset:base + offset + take] = \
                    data[pos - addr:pos - addr + take]
            elif fill_missing:
                tags[index] = tag
                image[base:base + line] = self.memory.read(pos - offset, line)
            pos += take

    # -- maintenance ---------------------------------------------------------

    def invalidate(self, addr: int, nbytes: int) -> int:
        """Partial invalidation; returns the number of words touched.

        The caller charges ``words * invalidate_cycles_per_word`` CPU
        cycles (paper: ~1 cycle per 32-bit word).
        """
        words = -(-nbytes // 4)
        self.invalidated_words += words
        line = self.spec.line_bytes
        n_lines = self.n_lines
        tags = self._tags
        for number in range(addr // line, -(-(addr + nbytes) // line)):
            index = number % n_lines
            if tags[index] == number // n_lines + 1:
                tags[index] = 0
        return words

    def is_cached(self, addr: int) -> bool:
        number = addr // self.spec.line_bytes
        # Just below address 0, tag + 1 is 0: the empty mark.
        return addr >= 0 and \
            self._tags[number % self.n_lines] == number // self.n_lines + 1


__all__ = ["DataCache"]
