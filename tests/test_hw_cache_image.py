"""The data cache's flat tag and line images.

``DataCache`` holds its tags and line contents in one page-lazy
mapping.  Two properties pin it: it behaves exactly as the
dict-of-tuples store it replaced (kept below as the oracle), and a
host pays resident memory only for the lines it fills.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import DEC3000_600, DS5000_200, DataCache, PhysicalMemory

SRC = Path(__file__).resolve().parent.parent / "src"
MEMORY_BYTES = 8 * 1024 * 1024
ALIASES = 4                 # tags drawn per index: base + k * size_bytes


class DictCache:
    """The dict-of-``(tag, bytes)`` data cache, as the oracle."""

    def __init__(self, spec, memory):
        self.spec = spec
        self.memory = memory
        self.n_lines = spec.size_bytes // spec.line_bytes
        self._lines = {}
        self.hits = 0
        self.misses = 0
        self.invalidated_words = 0
        self.stale_reads = 0

    def read(self, addr, nbytes):
        if nbytes <= 0:
            return b""
        line = self.spec.line_bytes
        start = addr - addr % line
        end = addr + nbytes
        fresh = self.memory.read(start, -(-(end - start) // line) * line)
        out = bytearray()
        pos = addr
        while pos < end:
            number, offset = divmod(pos, line)
            index = number % self.n_lines
            tag = number // self.n_lines
            take = min(line - offset, end - pos)
            at = pos - offset - start
            cached = self._lines.get(index)
            if cached is not None and cached[0] == tag:
                self.hits += 1
                data = cached[1][offset:offset + take]
                if data != fresh[at + offset:at + offset + take]:
                    self.stale_reads += 1
            else:
                self.misses += 1
                fill = fresh[at:at + line]
                self._lines[index] = (tag, fill)
                data = fill[offset:offset + take]
            out += data
            pos += take
        return bytes(out)

    def write(self, addr, data):
        self.memory.write(addr, data)
        self._merge(addr, data, fill_missing=True)

    def dma_write(self, addr, data):
        self.memory.write(addr, data)
        if self.spec.coherent_with_dma:
            self._merge(addr, data, fill_missing=False)

    def _merge(self, addr, data, fill_missing):
        line = self.spec.line_bytes
        pos = addr
        end = addr + len(data)
        while pos < end:
            number, offset = divmod(pos, line)
            index = number % self.n_lines
            tag = number // self.n_lines
            take = min(line - offset, end - pos)
            cached = self._lines.get(index)
            if cached is not None and cached[0] == tag:
                content = bytearray(cached[1])
                content[offset:offset + take] = \
                    data[pos - addr:pos - addr + take]
                self._lines[index] = (tag, bytes(content))
            elif fill_missing:
                self._lines[index] = (tag,
                                      self.memory.read(pos - offset, line))
            pos += take

    def invalidate(self, addr, nbytes):
        words = -(-nbytes // 4)
        self.invalidated_words += words
        line = self.spec.line_bytes
        for number in range(addr // line, -(-(addr + nbytes) // line)):
            index = number % self.n_lines
            cached = self._lines.get(index)
            if cached is not None and cached[0] == number // self.n_lines:
                del self._lines[index]
        return words

    def is_cached(self, addr):
        number = addr // self.spec.line_bytes
        cached = self._lines.get(number % self.n_lines)
        return cached is not None and cached[0] == number // self.n_lines


def _rig(cls, spec):
    memory = PhysicalMemory(MEMORY_BYTES, 4096, reserved_bytes=1024 * 1024)
    return memory, cls(spec, memory)


def _ops(spec):
    line = spec.line_bytes
    # Starts cluster in a few lines, so ops hit, miss and evict one
    # another's lines; k picks one of ALIASES tags for the same index.
    addr = st.builds(lambda base, k: base + k * spec.size_bytes,
                     st.integers(0, 4 * line + 3),
                     st.sampled_from([0, 0, 0, *range(1, ALIASES)]))
    length = st.integers(0, 5 * line + 3)
    span = st.one_of(length, length, length, st.just(16 * 1024))
    payload = length.flatmap(lambda n: st.binary(min_size=n, max_size=n))
    return st.lists(st.one_of(
        st.tuples(st.just("read"), addr, span),
        st.tuples(st.just("read"), addr, span),
        st.tuples(st.just("write"), addr, payload),
        st.tuples(st.just("dma_write"), addr, payload),
        st.tuples(st.just("invalidate"), addr, span),
        st.tuples(st.just("poke"), addr, payload),    # makes lines stale
    ), min_size=10, max_size=40)


def _lines_touched(spec, addr, arg):
    line = spec.line_bytes
    nbytes = arg if isinstance(arg, int) else len(arg)
    first, last = addr // line, -(-(addr + nbytes) // line)
    numbers = list(range(first, min(last, first + 16)))
    numbers += range(max(last - 16, first + 16), last)
    return [number * line for number in numbers]


def _check_against_oracle(spec, ops):
    rigs = [_rig(DictCache, spec), _rig(DataCache, spec)]
    for name, addr, arg in ops:
        results = []
        for memory, cache in rigs:
            if name == "poke":
                results.append(memory.write(addr, arg))
            else:
                results.append(getattr(cache, name)(addr, arg))
        assert results[0] == results[1], (name, addr, arg)
        (_, old), (_, new) = rigs
        for probe in _lines_touched(spec, addr, arg):
            for k in range(ALIASES):
                alias = probe % spec.size_bytes + k * spec.size_bytes
                assert old.is_cached(alias) == new.is_cached(alias), \
                    (name, addr, alias)
        assert (old.hits, old.misses, old.stale_reads,
                old.invalidated_words) == \
            (new.hits, new.misses, new.stale_reads, new.invalidated_words)


@settings(max_examples=60, deadline=None)
@given(ops=_ops(DS5000_200.cache))
def test_flat_cache_matches_dict_store_ds5000(ops):
    """64 KB, 4-byte lines, not coherent with DMA."""
    _check_against_oracle(DS5000_200.cache, ops)


@settings(max_examples=60, deadline=None)
@given(ops=_ops(DEC3000_600.cache))
def test_flat_cache_matches_dict_store_dec3000(ops):
    """2 MB, 32-byte lines, coherent with DMA."""
    _check_against_oracle(DEC3000_600.cache, ops)


def test_negative_addresses_are_never_cached():
    memory, cache = _rig(DataCache, DS5000_200.cache)
    size = DS5000_200.cache.size_bytes
    assert not any(cache.is_cached(addr) for addr in (-1, -4, -size))


# -- footprint ---------------------------------------------------------------

_FILL = textwrap.dedent("""
    import os, sys
    from repro.hw import MACHINES, DataCache, PhysicalMemory

    def resident():
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    spec = MACHINES[sys.argv[1]].cache
    memory = PhysicalMemory(8 * 1024 * 1024, 4096,
                            reserved_bytes=1024 * 1024)
    base = 2 * 1024 * 1024
    memory.write(base, bytes(range(1, 256)) * (spec.size_bytes // 255 + 1))
    cache = DataCache(spec, memory)
    before = resident()
    for chunk in range(base, base + spec.size_bytes, 16 * 1024):
        cache.read(chunk, 16 * 1024)
    assert cache.misses == cache.n_lines
    print((resident() - before) / 2**20)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
@pytest.mark.parametrize("machine,bound_mb", [
    ("DEC 3000/600", 3.0),          # 15.4 MB as a dict of tuples
    ("DECstation 5000/200", 0.5),   # 2.57 MB as a dict of tuples
])
def test_filling_every_line_costs_about_the_cache_size(machine, bound_mb):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _FILL, machine], env=env,
                         capture_output=True, text=True, check=True)
    grew_mb = float(out.stdout)
    assert grew_mb < bound_mb, f"{machine}: RSS grew {grew_mb:.2f} MB"
