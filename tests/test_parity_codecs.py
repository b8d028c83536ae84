"""Tests for the parity delta computation and every codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.buffers import nonzero_spans
from repro.common.errors import CodecError
from repro.parity import (
    PipelineCodec,
    RawCodec,
    SparseSegmentCodec,
    ZeroRleCodec,
    ZlibCodec,
    available_codecs,
    backward_parity,
    decode_frame,
    decode_frame_into,
    decode_frame_xor_into,
    encode_frame,
    encode_frames,
    forward_parity,
    get_codec,
)
from repro.parity.frame import FRAME_OVERHEAD, best_frame

ALL_CODECS = [RawCodec(), ZeroRleCodec(), ZlibCodec(), SparseSegmentCodec(), PipelineCodec()]


class TestDelta:
    def test_forward_then_backward(self):
        old = b"a" * 100
        new = b"a" * 40 + b"CHANGED" + b"a" * 53
        delta = forward_parity(new, old)
        assert backward_parity(delta, old) == new

    def test_unchanged_block_gives_zero_delta(self):
        data = bytes(range(200))
        assert forward_parity(data, data) == bytes(200)

    def test_delta_is_sparse_for_partial_change(self):
        old = bytes(1000)
        new = bytes(500) + b"\xff" * 10 + bytes(490)
        delta = forward_parity(new, old)
        assert delta.count(0) == 990

    @given(st.binary(min_size=1, max_size=512))
    def test_roundtrip_property(self, old):
        new = bytes(reversed(old))
        assert backward_parity(forward_parity(new, old), old) == new


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestCodecRoundTrip:
    def test_empty(self, codec):
        assert codec.decode(codec.encode(b""), 0) == b""

    def test_all_zero(self, codec):
        data = bytes(4096)
        assert codec.decode(codec.encode(data), 4096) == data

    def test_all_nonzero(self, codec):
        data = bytes(range(1, 256)) * 16
        assert codec.decode(codec.encode(data), len(data)) == data

    def test_sparse_delta(self, codec):
        data = bytearray(8192)
        data[100:120] = b"\x11" * 20
        data[4000:4300] = b"\x22" * 300
        data[8190:8192] = b"\x33\x44"
        raw = bytes(data)
        assert codec.decode(codec.encode(raw), len(raw)) == raw

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(min_size=0, max_size=2048))
    def test_roundtrip_property(self, codec, data):
        assert codec.decode(codec.encode(data), len(data)) == data


class TestSparsePayloadSizes:
    """The point of PRINS: sparse deltas must encode small."""

    def _sparse_block(self, block_size=8192, changed=400):
        data = bytearray(block_size)
        data[1000 : 1000 + changed] = bytes(range(1, 256))[: changed % 255] * 1 + bytes(
            max(0, changed - 255)
        )
        data[1000 : 1000 + changed] = (b"\x55" * changed)
        return bytes(data)

    @pytest.mark.parametrize("codec_name", ["zero-rle", "sparse", "rle+zlib"])
    def test_sparse_encodes_small(self, codec_name):
        data = self._sparse_block()
        encoded = get_codec(codec_name).encode(data)
        assert len(encoded) < len(data) / 10

    def test_zero_rle_all_zero_is_tiny(self):
        encoded = ZeroRleCodec().encode(bytes(65536))
        assert len(encoded) == 0  # nothing to say: decode pads with zeros

    def test_zero_rle_beats_raw_at_20_percent_change(self):
        data = bytearray(8192)
        data[0:1638] = b"\x99" * 1638  # 20% changed
        encoded = ZeroRleCodec().encode(bytes(data))
        assert len(encoded) < 8192 / 4


class TestCodecErrors:
    def test_raw_length_mismatch(self):
        with pytest.raises(CodecError):
            RawCodec().decode(b"abc", 5)

    def test_zlib_garbage(self):
        with pytest.raises(CodecError):
            ZlibCodec().decode(b"not zlib data", 10)

    def test_zlib_wrong_length(self):
        payload = ZlibCodec().encode(b"hello")
        with pytest.raises(CodecError):
            ZlibCodec().decode(payload, 99)

    def test_zero_rle_overrun(self):
        # declares a literal that exceeds the original length
        payload = ZeroRleCodec().encode(b"\x01" * 100)
        with pytest.raises(CodecError):
            ZeroRleCodec().decode(payload, 10)

    def test_sparse_truncated(self):
        with pytest.raises(CodecError):
            SparseSegmentCodec().decode(b"\x01", 100)

    def test_zlib_invalid_level(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=11)


def _error_delta(n: int) -> bytes:
    """Three literals; the second gap needs a 2-byte varint, the last ends at ``n``."""
    delta = bytearray(n)
    delta[10:30] = b"\x11" * 20
    delta[600:608] = b"\x22" * 8
    delta[n - 4 :] = b"\x33" * 4
    return bytes(delta)


def _malformed(codec, case: str, n: int = 1024) -> tuple[bytes, int]:
    """A bad ``(payload, target_length)`` whose first literal is valid.

    Codecs without records (raw, zlib, composed stages) get the nearest
    equivalent: a cut payload or an oversized delta.
    """
    payload = codec.encode(_error_delta(n))
    if case == "truncated-varint":
        # cut inside the 2-byte gap varint of the second record
        cut = {"zero-rle": 2 + 20 + 1, "sparse": 4 + 8 + 20 + 1}
        return payload[: cut.get(codec.name, len(payload) // 2)], n
    if case == "literal-past-payload-end":
        return payload[:-1], n
    if case == "literal-past-declared-length":
        wide = bytearray(2 * n)
        wide[10:30] = b"\x11" * 20
        wide[n + 100 : n + 110] = b"\x44" * 10
        return codec.encode(bytes(wide)), n
    assert case == "short-target"
    return payload, n - 1


@pytest.mark.parametrize("codec", available_codecs(), ids=lambda c: c.name)
@pytest.mark.parametrize(
    "case",
    [
        "truncated-varint",
        "literal-past-payload-end",
        "literal-past-declared-length",
        "short-target",
    ],
)
@pytest.mark.parametrize("method", ["decode_into", "decode_xor_into"])
def test_malformed_payload_leaves_target_unchanged(codec, case, method):
    payload, n = _malformed(codec, case)
    before = bytes(range(256)) * (n // 256) + bytes(range(n % 256))
    out = bytearray(before)
    with pytest.raises(CodecError):
        getattr(codec, method)(payload, out)
    assert bytes(out) == before


#: gap/length sizes crossing the 1-, 2- and 3-byte varint encodings
_VARINT_SIZED = st.one_of(
    st.integers(1, 127), st.integers(128, 16383), st.integers(16384, 40000)
)


def _literal_delta(n: int, runs: "list[tuple[int, int]]", seed: int) -> bytes:
    """Place nonzero literals at ``(gap, length)`` steps until ``n`` is full."""
    rng = np.random.default_rng(seed)
    delta = bytearray(n)
    cursor = 0
    for gap, length in runs:
        start = cursor + gap
        if start >= n:
            break
        cursor = min(n, start + length)
        delta[start:cursor] = rng.integers(1, 256, cursor - start, np.uint8).tobytes()
    return bytes(delta)


@st.composite
def _zero_rle_deltas(draw):
    n = draw(st.sampled_from([512, 8192, 65536]))
    pairs = st.tuples(_VARINT_SIZED, _VARINT_SIZED)
    runs = draw(st.lists(pairs, min_size=1, max_size=300))
    first_gap = draw(st.integers(0, n - 1))  # at least one literal always fits
    runs[0] = (first_gap, runs[0][1])
    return _literal_delta(n, runs, draw(st.integers(0, 2**32 - 1)))


class TestZeroRleRoundTripProperty:
    """Every zero-RLE decoder inverts encode, however many literals a frame has."""

    @settings(max_examples=60, deadline=None)
    @given(delta=_zero_rle_deltas(), merge_gap=st.sampled_from([0, 8]))
    @example(delta=_literal_delta(8192, [(9, 3)] * 300, 1), merge_gap=8)
    @example(delta=_literal_delta(65536, [(20000, 20000)] * 3, 2), merge_gap=0)
    def test_decoders_invert_encode(self, delta, merge_gap):
        codec = ZeroRleCodec(merge_gap=merge_gap)
        n = len(delta)
        payload = codec.encode(delta)
        assert codec.decode(payload, n) == delta
        out = bytearray(b"\xee" * n)
        codec.decode_into(payload, out)
        assert bytes(out) == delta

        a = np.random.default_rng(n).integers(0, 256, n, np.uint8).tobytes()
        expect = forward_parity(a, delta)  # a XOR delta
        block = bytearray(a)
        codec.decode_xor_into(payload, block)
        assert bytes(block) == expect
        block = bytearray(a)
        decode_frame_xor_into(encode_frame(codec, delta), block)
        assert bytes(block) == expect

    def test_examples_reach_many_literals_and_long_varints(self):
        starts, _ = nonzero_spans(_literal_delta(8192, [(9, 3)] * 300, 1), merge_gap=8)
        assert starts.size >= 256
        wide = ZeroRleCodec(merge_gap=0).encode(
            _literal_delta(65536, [(20000, 20000)] * 3, 2)
        )
        assert wide[:3] == bytes([0xA0, 0x9C, 0x01])  # 20000 is a 3-byte varint


class TestRegistry:
    def test_lookup_by_name_and_id(self):
        assert get_codec("zero-rle").codec_id == get_codec(1).codec_id

    def test_unknown_raises(self):
        with pytest.raises(CodecError):
            get_codec("nope")
        with pytest.raises(CodecError):
            get_codec(250)

    def test_available_sorted_by_id(self):
        ids = [c.codec_id for c in available_codecs()]
        assert ids == sorted(ids)
        assert 0 in ids  # raw always present


class TestFrame:
    def test_roundtrip(self):
        data = bytes(300)
        for codec in ALL_CODECS:
            assert decode_frame(encode_frame(codec, data)) == data

    def test_overhead_constant(self):
        frame = encode_frame(RawCodec(), b"abc")
        assert len(frame) == FRAME_OVERHEAD + 3

    def test_too_short(self):
        with pytest.raises(CodecError):
            decode_frame(b"\x00")

    def test_best_frame_picks_smallest(self):
        sparse = bytes(4000) + b"\x01" + bytes(4191)
        best = best_frame([RawCodec(), ZeroRleCodec()], sparse)
        assert len(best) < 100  # RLE must have won

    def test_best_frame_decodes(self):
        data = b"\x07" * 999
        assert decode_frame(best_frame(ALL_CODECS, data)) == data

    def test_best_frame_empty_codecs(self):
        with pytest.raises(ValueError):
            best_frame([], b"x")


class TestSparseSegmentMerging:
    def test_nearby_runs_merge(self):
        codec = SparseSegmentCodec(merge_gap=8)
        data = bytearray(100)
        data[10] = 1
        data[15] = 2  # 4 zero bytes apart -> merged
        segs = codec.segments(bytes(data))
        assert segs == [(10, 6)]

    def test_distant_runs_stay_separate(self):
        codec = SparseSegmentCodec(merge_gap=2)
        data = bytearray(100)
        data[10] = 1
        data[50] = 2
        assert len(codec.segments(bytes(data))) == 2

    def test_merge_gap_validation(self):
        with pytest.raises(ValueError):
            SparseSegmentCodec(merge_gap=-1)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestBufferProtocolInputs:
    """Codecs must accept memoryview/bytearray inputs on the zero-copy path."""

    def _sparse(self, n=4096):
        data = bytearray(n)
        data[100:140] = b"\x11" * 40
        data[2000:2300] = bytes(range(1, 151)) * 2
        data[n - 2 :] = b"\x33\x44"
        return bytes(data)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_encode_any_buffer_matches_bytes(self, codec, wrap):
        data = self._sparse()
        assert codec.encode(wrap(bytearray(data))) == codec.encode(data)

    def test_decode_into_bytearray(self, codec):
        data = self._sparse()
        payload = codec.encode(data)
        out = bytearray(b"\xee" * len(data))  # stale contents must vanish
        codec.decode_into(payload, out)
        assert bytes(out) == data

    def test_decode_into_memoryview(self, codec):
        data = self._sparse()
        payload = codec.encode(data)
        backing = bytearray(b"\xee" * len(data))
        codec.decode_into(payload, memoryview(backing))
        assert bytes(backing) == data

    def test_decode_xor_into_applies_delta(self, codec):
        old = bytes(range(256)) * 16
        new = bytearray(old)
        new[300:600] = b"\x77" * 300
        delta = forward_parity(bytes(new), old)
        payload = codec.encode(delta)
        block = bytearray(old)
        codec.decode_xor_into(payload, block)
        assert bytes(block) == bytes(new)

    def test_decode_into_short_target_raises(self, codec):
        # the trailing literal of the sparse block overruns a target one
        # byte too small (a too-large target is legal only for zero-rle,
        # whose implicit zero tail pads; the frame layer enforces exact
        # lengths, covered by TestFrameIntoDecoders)
        data = self._sparse()
        payload = codec.encode(data)
        with pytest.raises(CodecError):
            codec.decode_into(payload, bytearray(len(data) - 1))

    def test_encode_many_matches_mapped_encode(self, codec):
        datas = [self._sparse(), bytes(512), self._sparse(2048)]
        assert codec.encode_many(datas) == [codec.encode(d) for d in datas]


class TestFrameIntoDecoders:
    def _frame_and_data(self):
        data = bytearray(2048)
        data[70:90] = b"\x42" * 20
        data[1000:1010] = b"\x24" * 10
        raw = bytes(data)
        return encode_frame(get_codec("zero-rle"), raw), raw

    def test_decode_frame_into(self):
        frame, data = self._frame_and_data()
        out = bytearray(b"\xaa" * len(data))
        decode_frame_into(frame, out)
        assert bytes(out) == data

    def test_decode_frame_xor_into_recovers_new_block(self):
        old = bytes(range(1, 256)) * 8 + bytes(8)
        new = bytearray(old)
        new[100:200] = b"\x55" * 100
        frame = encode_frame(get_codec("sparse"), forward_parity(bytes(new), old))
        block = bytearray(old)
        decode_frame_xor_into(frame, block)
        assert bytes(block) == bytes(new)

    def test_target_length_mismatch_raises(self):
        frame, data = self._frame_and_data()
        with pytest.raises(CodecError):
            decode_frame_into(frame, bytearray(len(data) - 1))
        with pytest.raises(CodecError):
            decode_frame_xor_into(frame, bytearray(len(data) + 1))

    def test_truncated_frame_raises(self):
        with pytest.raises(CodecError):
            decode_frame_into(b"\x01", bytearray(8))

    def test_encode_frames_matches_per_frame_encode(self):
        codec = get_codec("zero-rle")
        datas = [bytes(64), b"\x01" * 64, bytes(30) + b"\x09\x08" + bytes(32)]
        assert encode_frames(codec, datas) == [
            encode_frame(codec, d) for d in datas
        ]


class TestParityBufferInputs:
    def test_forward_parity_accepts_views(self):
        old = bytes(range(256))
        new = bytes(reversed(old))
        expect = forward_parity(new, old)
        assert forward_parity(memoryview(new), bytearray(old)) == expect

    def test_backward_parity_accepts_views(self):
        old = bytes(range(256))
        new = bytes(reversed(old))
        delta = forward_parity(new, old)
        assert backward_parity(memoryview(delta), bytearray(old)) == new
