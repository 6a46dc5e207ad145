"""Checksums implemented from scratch.

* CRC-32 with the IEEE 802.3 polynomial -- what AAL5 uses to protect a
  reassembled PDU.  Table-driven, reflected form.
* The 16-bit one's-complement Internet checksum used by IP and UDP.

Both are real implementations over real bytes: the lazy cache
invalidation experiment (section 2.3) relies on a stale read actually
failing its checksum.
"""

from __future__ import annotations

CRC32_POLY_REFLECTED = 0xEDB88320


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLY_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC_TABLE = _build_table()


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32 (IEEE 802.3 / AAL5 polynomial), incremental.

    ``crc`` is a previous return value for incremental computation over
    scattered buffers; start with 0.
    """
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


try:  # accelerated path for long PDUs; equality with the table-driven
    import zlib as _zlib  # implementation above is asserted in tests
except ImportError:  # pragma: no cover
    _zlib = None


def fast_crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32 identical to :func:`crc32`, using zlib when available.

    The from-scratch :func:`crc32` stays the reference implementation;
    this is the hot-path variant the AAL5 layer calls for multi-KB
    PDUs.
    """
    if _zlib is not None:
        return _zlib.crc32(data, crc)
    return crc32(data, crc)


def fast_internet_checksum(data: bytes) -> int:
    """Internet checksum identical to :func:`internet_checksum`, in
    one big-integer pass: the hot-path variant every protocol calls.

    2**16 is 1 modulo 0xFFFF, so the buffer read as one big-endian
    integer is congruent to the sum of its 16-bit words, and the
    end-around-carry fold of that sum is its residue, taken in
    1..0xFFFF (the fold of a non-zero sum is never 0).
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8                     # pad the odd byte to a word
    if not total:
        return 0xFFFF
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """RFC 1071 one's-complement 16-bit checksum."""
    total = initial
    length = len(data)
    # Sum 16-bit big-endian words.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_internet_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return fast_internet_checksum(data) == 0


__all__ = ["crc32", "fast_crc32", "internet_checksum",
           "fast_internet_checksum", "verify_internet_checksum"]
