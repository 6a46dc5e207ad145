"""AAL5-style framing: padding, trailer, CRC, segmentation.

A PDU handed to the adaptation layer is padded to a whole number of
44-byte payloads; the final 8 bytes of the last cell carry a trailer
(payload length + CRC-32), mirroring real AAL5.  The framing bit
("end of message") travels in the AAL header of the last cell.

Three segmentation modes support section 2.6's skew strategies:

* ``IN_ORDER`` -- plain AAL5: one framing bit on the last cell.  Only
  correct when the network preserves cell order.
* ``SEQUENCE`` -- like IN_ORDER but every cell also carries a sequence
  number in its AAL header (strategy 1; non-standard).
* ``CONCURRENT`` -- the PDU is treated as ``stripe_width`` interleaved
  sub-packets, each ending with its own framing bit; the very last cell
  additionally carries the proposed extra ATM-header framing bit
  (strategy 2).
"""

from __future__ import annotations

import enum
import struct

from ..hw.specs import AAL_PAYLOAD_BYTES, STRIPE_LINKS
from .cell import Cell
from .crc import fast_crc32 as crc32

TRAILER_BYTES = 8
_TRAILER = struct.Struct(">II")  # (length, crc32)
_WORD = struct.Struct(">I")


class Aal5Error(Exception):
    """Framing violation detected during reassembly."""


class BadLength(Aal5Error):
    """Trailer length does not match the reassembled size."""


class BadCrc(Aal5Error):
    """CRC-32 mismatch -- corrupted (or stale, section 2.3) data."""


class SegmentMode(enum.Enum):
    IN_ORDER = "in-order"
    SEQUENCE = "sequence"
    CONCURRENT = "concurrent"


def framed_size(data_len: int) -> int:
    """Total framed bytes (data + pad + trailer), a multiple of 44."""
    raw = data_len + TRAILER_BYTES
    cells = -(-raw // AAL_PAYLOAD_BYTES)
    return cells * AAL_PAYLOAD_BYTES


def cell_count(data_len: int) -> int:
    """Number of cells a PDU of ``data_len`` bytes occupies."""
    return framed_size(data_len) // AAL_PAYLOAD_BYTES


def pad_and_trailer(data_len: int, crc: int) -> bytes:
    """The pad and trailer that close a PDU of ``data_len`` bytes.

    ``crc`` is the running CRC-32 of the data alone, so a sender can
    frame a PDU whose bytes it has streamed past without keeping them.
    """
    tail = (bytes(framed_size(data_len) - data_len - TRAILER_BYTES)
            + _WORD.pack(data_len))
    return tail + _WORD.pack(crc32(tail, crc))


def trailer_length(trailer: bytes, framed_len: int) -> int | None:
    """The data length an 8-byte ``trailer`` declares for a PDU framed
    in ``framed_len`` bytes, or None when the padding that length
    implies is impossible (negative, or a whole cell payload or more).
    """
    length, _crc = _TRAILER.unpack(trailer)
    pad = framed_len - TRAILER_BYTES - length
    if 0 <= pad < AAL_PAYLOAD_BYTES:
        return length
    return None


def encode_pdu(data: bytes) -> bytes:
    """Pad ``data`` and append the AAL5 trailer."""
    return data + pad_and_trailer(len(data), crc32(data))


def decode_pdu(framed: bytes) -> bytes:
    """Strip padding and trailer, verifying length and CRC."""
    if len(framed) < TRAILER_BYTES or len(framed) % AAL_PAYLOAD_BYTES:
        raise BadLength(f"framed size {len(framed)} is not a cell multiple")
    length = trailer_length(framed[-TRAILER_BYTES:], len(framed))
    if length is None:
        raise BadLength(
            f"trailer length does not fit {len(framed)} framed bytes")
    (crc,) = _WORD.unpack_from(framed, len(framed) - 4)
    expect = crc32(framed[:-4])
    if expect != crc:
        raise BadCrc(f"crc {crc:#010x} != computed {expect:#010x}")
    return framed[:length]


def segment(data: bytes, vci: int,
            mode: SegmentMode = SegmentMode.IN_ORDER,
            stripe_width: int = STRIPE_LINKS) -> list[Cell]:
    """Frame ``data`` and cut it into cells per the chosen mode."""
    framed = encode_pdu(data)
    n = len(framed) // AAL_PAYLOAD_BYTES
    cells = []
    for i in range(n):
        payload = framed[i * AAL_PAYLOAD_BYTES:(i + 1) * AAL_PAYLOAD_BYTES]
        if mode is SegmentMode.CONCURRENT:
            eom = i >= n - min(stripe_width, n)
        else:
            eom = i == n - 1
        cells.append(Cell(
            vci=vci,
            payload=payload,
            eom=eom,
            seq=i if mode is SegmentMode.SEQUENCE else None,
            atm_last=(mode is SegmentMode.CONCURRENT and i == n - 1),
            tx_index=i,
        ))
    return cells


class Reassembler:
    """Plain in-order AAL5 reassembly for one VCI.

    Feed cells in arrival order; :meth:`push` returns the decoded PDU
    when the framing bit completes one, else ``None``.  Raises
    :class:`Aal5Error` subclasses on corruption.
    """

    def __init__(self, vci: int):
        self.vci = vci
        self._chunks: list[bytes] = []
        self.pdus_completed = 0
        self.errors = 0

    @property
    def cells_pending(self) -> int:
        return len(self._chunks)

    def push(self, cell: Cell) -> bytes | None:
        if cell.vci != self.vci:
            raise Aal5Error(
                f"cell for VCI {cell.vci} fed to reassembler {self.vci}")
        self._chunks.append(cell.payload)
        if not cell.eom:
            return None
        framed = b"".join(self._chunks)
        self._chunks = []
        try:
            pdu = decode_pdu(framed)
        except Aal5Error:
            self.errors += 1
            raise
        self.pdus_completed += 1
        return pdu


__all__ = [
    "Aal5Error", "BadLength", "BadCrc", "SegmentMode", "Reassembler",
    "encode_pdu", "decode_pdu", "segment", "framed_size", "cell_count",
    "pad_and_trailer", "trailer_length", "TRAILER_BYTES",
]
