"""Host data cache model.

A direct-mapped cache that keeps real line contents so that reads
after a non-coherent DMA return genuinely stale bytes.  The
lazy-invalidation experiment of section 2.3 depends on this: a UDP
checksum computed over a stale read must actually fail, triggering the
invalidate-and-retry path.

Timing is not charged here; the per-machine cost constants in
:class:`repro.hw.specs.SoftwareCosts` carry it.  This class answers the
*correctness* questions: which bytes does the CPU see, and how many
words does an invalidation touch.
"""

from __future__ import annotations

from ..sim import SimulationError
from .memory import PhysicalMemory
from .specs import CacheSpec


class DataCache:
    """Direct-mapped data cache over :class:`PhysicalMemory`."""

    def __init__(self, spec: CacheSpec, memory: PhysicalMemory):
        if spec.size_bytes % spec.line_bytes != 0:
            raise SimulationError("cache size must be a multiple of line size")
        self.spec = spec
        self.memory = memory
        self.n_lines = spec.size_bytes // spec.line_bytes
        # index -> (tag, line bytes)
        self._lines: dict[int, tuple[int, bytes]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated_words = 0
        self.stale_reads = 0

    def _split(self, addr: int) -> tuple[int, int, int]:
        line = self.spec.line_bytes
        index = (addr // line) % self.n_lines
        tag = addr // (line * self.n_lines)
        offset = addr % line
        return index, tag, offset

    # -- CPU side ----------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        """CPU load: returns possibly stale bytes, filling on miss."""
        if nbytes <= 0:
            return b""
        line = self.spec.line_bytes
        n_lines = self.n_lines
        lines = self._lines
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
            tag = number // n_lines
            take = min(line - offset, end - pos)
            at = pos - offset - start
            cached = lines.get(index)
            if cached is not None and cached[0] == tag:
                self.hits += 1
                data = cached[1][offset:offset + take]
                if data != fresh[at + offset:at + offset + take]:
                    self.stale_reads += 1
            else:
                self.misses += 1
                fill = fresh[at:at + line]
                lines[index] = (tag, fill)
                data = fill[offset:offset + take]
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
        lines = self._lines
        pos = addr
        end = addr + len(data)
        while pos < end:
            number, offset = divmod(pos, line)
            index = number % n_lines
            tag = number // n_lines
            take = min(line - offset, end - pos)
            cached = lines.get(index)
            if cached is not None and cached[0] == tag:
                content = bytearray(cached[1])
                content[offset:offset + take] = \
                    data[pos - addr:pos - addr + take]
                lines[index] = (tag, bytes(content))
            elif fill_missing:
                lines[index] = (tag, self.memory.read(pos - offset, line))
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
        lines = self._lines
        for number in range(addr // line, -(-(addr + nbytes) // line)):
            index = number % n_lines
            cached = lines.get(index)
            if cached is not None and cached[0] == number // n_lines:
                del lines[index]
        return words

    def is_cached(self, addr: int) -> bool:
        index, tag, _ = self._split(addr)
        cached = self._lines.get(index)
        return cached is not None and cached[0] == tag


__all__ = ["DataCache"]
