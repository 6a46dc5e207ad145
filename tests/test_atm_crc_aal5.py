"""CRC, Internet checksum, and AAL5 framing tests."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.atm import (
    Aal5Error, BadCrc, BadLength, Cell, Reassembler, SegmentMode, cell_count,
    crc32, decode_pdu, encode_pdu, framed_size, internet_checksum,
    segment, verify_internet_checksum,
)
from repro.atm.aal5 import TRAILER_BYTES, trailer_length
from repro.atm.crc import fast_crc32, fast_internet_checksum

SRC = Path(__file__).resolve().parent.parent / "src"


# -- CRC-32 -----------------------------------------------------------------

def test_crc32_known_vector():
    # The classic check value for the IEEE 802.3 polynomial.
    assert crc32(b"123456789") == 0xCBF43926


def test_crc32_empty():
    assert crc32(b"") == 0


def test_crc32_incremental_equals_whole():
    data = bytes(range(200))
    whole = crc32(data)
    partial = crc32(data[100:], crc32(data[:100]))
    assert partial == whole


@given(st.binary(max_size=300), st.integers(0, 299))
def test_crc32_detects_single_bit_flips(data, pos):
    if not data:
        return
    pos %= len(data)
    corrupted = bytearray(data)
    corrupted[pos] ^= 0x40
    assert crc32(data) != crc32(bytes(corrupted))


@given(st.binary(max_size=1600), st.binary(max_size=200))
def test_fast_crc32_equals_table_driven(head, tail):
    assert fast_crc32(head) == crc32(head)
    assert fast_crc32(tail, fast_crc32(head)) == crc32(head + tail)


# -- Internet checksum --------------------------------------------------------

def test_internet_checksum_rfc1071_example():
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == (~0xDDF2) & 0xFFFF


def test_internet_checksum_verify_roundtrip():
    data = b"some UDP payload with odd length!"
    csum = internet_checksum(data)
    packet = data + csum.to_bytes(2, "big")
    # Verification sums data+checksum; for the odd-length layout here,
    # recomputing over the data must reproduce the stored value.
    assert internet_checksum(data) == csum
    assert csum != 0


@given(st.binary(min_size=2, max_size=128))
def test_internet_checksum_is_16_bit(data):
    assert 0 <= internet_checksum(data) <= 0xFFFF


def test_verify_internet_checksum_even_packet():
    data = b"ABCDEFGH"  # even length
    csum = internet_checksum(data)
    assert verify_internet_checksum(data + csum.to_bytes(2, "big"))
    bad = bytearray(data) + bytearray(csum.to_bytes(2, "big"))
    bad[0] ^= 0xFF
    assert not verify_internet_checksum(bytes(bad))


@given(st.integers(0, 1600).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)))
def test_fast_internet_checksum_equals_rfc1071_loop(data):
    """Lengths drawn evenly from 0..1,600 bytes, past an Ethernet MTU:
    odd and even buffers on both sides of every word boundary."""
    assert fast_internet_checksum(data) == internet_checksum(data)


def test_fast_internet_checksum_on_constant_buffers_and_a_16kb_pdu():
    # All-zero sums to 0 (checksum 0xFFFF); all-0xFF sums to a non-zero
    # multiple of 0xFFFF (checksum 0): the two ends of the fold.
    for length in [*range(1601), 16384, 16385]:
        for fill in (b"\x00", b"\xff"):
            data = fill * length
            assert fast_internet_checksum(data) == internet_checksum(data)
    pdu = bytes(range(256)) * 64 + b"\x5a"
    for data in (pdu, pdu[:-1]):
        assert fast_internet_checksum(data) == internet_checksum(data)


def test_importing_the_stack_never_asks_for_numpy():
    """The checksum is stdlib-only: importing the package, the cluster
    and the throughput rigs must not even look numpy up (a finder on
    ``sys.meta_path`` records every request, found or not)."""
    probe = textwrap.dedent("""
        import sys

        asked = []

        class Recorder:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "numpy":
                    asked.append("numpy")
                return None

        sys.meta_path.insert(0, Recorder())
        import repro, repro.cluster, repro.bench.throughput
        print(sorted(set(asked)))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- AAL5 framing -------------------------------------------------------------

def test_framed_size_is_cell_multiple():
    for n in (0, 1, 35, 36, 37, 44, 100, 16384):
        assert framed_size(n) % 44 == 0
        assert framed_size(n) >= n + 8


def test_cell_count_examples():
    assert cell_count(1) == 1
    assert cell_count(36) == 1     # 36 + 8 trailer = 44 exactly
    assert cell_count(37) == 2
    assert cell_count(16 * 1024) == 373


def test_encode_decode_roundtrip():
    data = b"hello, AURORA testbed"
    assert decode_pdu(encode_pdu(data)) == data


@given(st.binary(max_size=2000))
def test_encode_decode_roundtrip_property(data):
    assert decode_pdu(encode_pdu(data)) == data


def test_decode_detects_corruption():
    framed = bytearray(encode_pdu(b"x" * 100))
    framed[10] ^= 0x01
    with pytest.raises(BadCrc):
        decode_pdu(bytes(framed))


def test_decode_detects_bad_length_field():
    framed = bytearray(encode_pdu(b"y" * 50))
    framed[-8:-4] = (9999).to_bytes(4, "big")
    with pytest.raises(BadLength):
        decode_pdu(bytes(framed))


def test_decode_rejects_non_cell_multiple():
    with pytest.raises(BadLength):
        decode_pdu(b"z" * 45)


def test_trailer_length_accepts_only_pads_under_one_payload():
    framed_len = 3 * 44
    for pad, accepted in ((0, True), (43, True), (44, False), (-1, False)):
        length = framed_len - TRAILER_BYTES - pad
        trailer = length.to_bytes(4, "big") + bytes(4)
        expected = length if accepted else None
        assert trailer_length(trailer, framed_len) == expected, pad


# -- Segmentation -------------------------------------------------------------

def test_segment_in_order_single_eom():
    cells = segment(b"a" * 200, vci=5)
    assert len(cells) == cell_count(200)
    assert [c.eom for c in cells] == [False] * (len(cells) - 1) + [True]
    assert all(c.vci == 5 for c in cells)
    assert all(len(c.payload) == 44 for c in cells)
    assert all(c.seq is None for c in cells)


def test_segment_sequence_mode_numbers_cells():
    cells = segment(b"b" * 200, vci=7, mode=SegmentMode.SEQUENCE)
    assert [c.seq for c in cells] == list(range(len(cells)))
    assert cells[-1].eom and not cells[0].eom


def test_segment_concurrent_mode_marks_last_stripe_cells():
    cells = segment(b"c" * 400, vci=9, mode=SegmentMode.CONCURRENT,
                    stripe_width=4)
    n = len(cells)
    assert n >= 4
    assert all(c.eom for c in cells[-4:])
    assert not any(c.eom for c in cells[:-4])
    assert cells[-1].atm_last
    assert not any(c.atm_last for c in cells[:-1])


def test_segment_concurrent_short_pdu_all_eom():
    cells = segment(b"d" * 10, vci=9, mode=SegmentMode.CONCURRENT)
    assert len(cells) == 1
    assert cells[0].eom and cells[0].atm_last


def test_reassembler_roundtrip():
    data = b"PDU payload " * 30
    reasm = Reassembler(vci=3)
    cells = segment(data, vci=3)
    results = [reasm.push(c) for c in cells]
    assert results[:-1] == [None] * (len(cells) - 1)
    assert results[-1] == data
    assert reasm.pdus_completed == 1


def test_reassembler_rejects_wrong_vci():
    reasm = Reassembler(vci=3)
    with pytest.raises(Aal5Error):
        reasm.push(Cell(vci=4, payload=b"x" * 44, eom=True))


def test_reassembler_back_to_back_pdus():
    reasm = Reassembler(vci=1)
    for k in range(5):
        data = bytes([k]) * (50 + k)
        out = None
        for cell in segment(data, vci=1):
            out = reasm.push(cell)
        assert out == data
    assert reasm.pdus_completed == 5


@given(st.binary(max_size=1500))
def test_segment_reassemble_property(data):
    reasm = Reassembler(vci=0)
    out = None
    for cell in segment(data, vci=0):
        out = reasm.push(cell)
    assert out == data


def test_cell_rejects_oversized_payload():
    with pytest.raises(ValueError):
        Cell(vci=1, payload=b"x" * 45)


def test_cell_rejects_bad_vci():
    with pytest.raises(ValueError):
        Cell(vci=-1, payload=b"")
    with pytest.raises(ValueError):
        Cell(vci=70000, payload=b"")


# -- fault-model guarantee: any flipped bit is detected -----------------------
#
# The fault injector (repro.faults) flips one payload bit per corrupted
# cell and counts on the AAL5 trailer CRC to discard the enclosing PDU
# at the receiver.  That only holds if *every* bit position in a framed
# PDU -- body, padding, length field, or the CRC itself -- is covered.

@given(st.binary(max_size=500), st.integers(min_value=0,
                                            max_value=10**9))
def test_aal5_any_flipped_bit_raises(data, bit_seed):
    framed = encode_pdu(data)
    bit = bit_seed % (len(framed) * 8)
    corrupted = bytearray(framed)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises((BadCrc, BadLength)):
        decode_pdu(bytes(corrupted))
    # The pristine frame still decodes: the flip, not the framing,
    # caused the failure.
    assert decode_pdu(framed) == data


def test_aal5_trailer_bit_flips_detected_exhaustively():
    # The 8 trailer bytes (length + CRC) are the subtle region: a
    # corrupted length can mimic a shorter or longer PDU.  Sweep every
    # bit of a whole small frame, trailer included.
    data = b"\xa5" * 100
    framed = encode_pdu(data)
    for bit in range(len(framed) * 8):
        corrupted = bytearray(framed)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((BadCrc, BadLength)):
            decode_pdu(bytes(corrupted))
