"""Zero-run-length codec.

"A simple encoding scheme can substantially reduce the size of the parity"
(Sec. 1).  This codec is that simple scheme: it alternates
``(zero_run_length, literal_length, literal_bytes)`` records, exploiting the
fact that a parity delta is zeros everywhere the write did not change the
block.  Run lengths are varint-encoded so a 64 KB block of zeros costs three
bytes.

The encoder is a single vectorized pass: one boolean-diff span detection
(:func:`repro.common.buffers.nonzero_spans`, O(n) independent of run count)
followed by one ``b"".join`` gather of varint headers and zero-copy literal
views — no growing ``bytearray`` and no per-byte work.  The wire format is
unchanged and byte-identical to the historical loop encoder.

The three decoders share one parse, :meth:`ZeroRleCodec._scatter`.  It walks
the records once, checks each against the target length and the payload
length, and slice-assigns every literal into a fresh zeroed delta.
``decode`` returns that delta, ``decode_into`` copies it with one
slice-assign, and ``decode_xor_into`` (the replica's Eq. 2 step) applies it
with one :func:`~repro.common.buffers.xor_into` over the dirty extent, from
the first literal's start to the last literal's end.  A frame therefore
costs one interpreted step per record plus a single XOR, not one numpy
dispatch per literal.  The whole payload is validated before the target is
touched, so a malformed payload raises :class:`CodecError` and leaves the
target unchanged.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.common.buffers import nonzero_spans, xor_into
from repro.common.errors import CodecError
from repro.parity.codecs import Buffer, Codec, _writable_view, register_codec

#: single-byte varints (values < 128) precomputed — covers every gap and
#: literal length under 128 bytes with a list index instead of arithmetic
_VARINT1 = [bytes([i]) for i in range(0x80)]

#: memoized multi-byte varints — block-sized gaps and literal lengths repeat
#: heavily across a flush window (every 64 KB delta produces offsets from
#: the same small range), so serving them from a dict beats rebuilding a
#: bytearray per call.  Bounded so adversarial value streams cannot grow it
#: without limit.
_VARINT_CACHE: dict[int, bytes] = {}
_VARINT_CACHE_MAX = 1 << 16


def _varint(value: int) -> bytes:
    """LEB128-style varint as bytes for ``value >= 0x80`` (cache-served).

    Smaller values are served from :data:`_VARINT1` inline by the caller.
    """
    cached = _VARINT_CACHE.get(value)
    if cached is not None:
        return cached
    out = bytearray()
    v = value
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    encoded = bytes(out)
    if len(_VARINT_CACHE) < _VARINT_CACHE_MAX:
        _VARINT_CACHE[value] = encoded
    return encoded


def _read_varint(payload: bytes, pos: int) -> tuple[int, int]:
    """Read a varint at ``pos``; return ``(value, new_pos)``.

    The one- and two-byte cases (every gap/length under 16 KB) are
    unrolled; the generic shift loop only runs for longer encodings.
    """
    n = len(payload)
    if pos >= n:
        raise CodecError("truncated varint in zero-RLE payload")
    byte = payload[pos]
    if not byte & 0x80:
        return byte, pos + 1
    if pos + 1 >= n:
        raise CodecError("truncated varint in zero-RLE payload")
    second = payload[pos + 1]
    if not second & 0x80:
        return (byte & 0x7F) | (second << 7), pos + 2
    value = (byte & 0x7F) | ((second & 0x7F) << 7)
    shift = 14
    pos += 2
    while True:
        if pos >= n:
            raise CodecError("truncated varint in zero-RLE payload")
        byte = payload[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long in zero-RLE payload")


class ZeroRleCodec(Codec):
    """Run-length encoding of zero gaps between literal (changed) segments.

    Wire format: repeated ``varint(zero_gap) varint(lit_len) lit_bytes``
    records.  The final zero tail is implicit — decoding pads with zeros to
    ``original_length``.  Literal segments separated by fewer than
    ``merge_gap`` zero bytes are coalesced (the stray zeros ship as
    literals), which keeps chance zeros inside a changed span from
    fragmenting it into hundreds of records.
    """

    codec_id = 1
    name = "zero-rle"

    def __init__(self, merge_gap: int = 8) -> None:
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
        self._merge_gap = merge_gap

    @property
    def merge_gap(self) -> int:
        """Zero gaps up to this length are encoded as literals."""
        return self._merge_gap

    def _encode_one(self, data: Buffer) -> bytes:
        """Run-length encode one delta (the loop behind both encoders).

        One span-detection pass plus one gather: literal segments are
        sliced as zero-copy ``memoryview`` s and joined with their varint
        headers in a single ``b"".join`` (CPython's join accepts buffer
        objects), so no intermediate copy of any literal is made.
        """
        starts, ends = nonzero_spans(data, merge_gap=self._merge_gap)
        if starts.size == 0:
            return b""
        view = data if isinstance(data, memoryview) else memoryview(data)
        parts: list[Buffer] = []
        append = parts.append
        cursor = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            gap = s - cursor  # zeros since the last literal
            append(_VARINT1[gap] if gap < 0x80 else _varint(gap))
            length = e - s
            append(_VARINT1[length] if length < 0x80 else _varint(length))
            append(view[s:e])
            cursor = e
        return b"".join(parts)

    def encode(self, data: Buffer) -> bytes:
        """Run-length encode the delta's zero gaps (Sec. 2's sparse P')."""
        return self._encode_one(data)

    def encode_many(self, datas: "Sequence[Buffer]") -> list[bytes]:
        """Encode a flush window of deltas, one :meth:`_encode_one` each."""
        encode_one = self._encode_one
        return [encode_one(data) for data in datas]

    def _scatter(self, payload: bytes, n: int) -> tuple[bytearray, int, int]:
        """Parse ``payload`` once into a fresh ``n``-byte delta.

        Returns ``(delta, lo, hi)`` where ``delta[lo:hi]`` is the dirty
        extent, from the first literal's start to the last literal's end
        (``lo == hi`` when there are no literals).  Every record is
        validated before the caller touches its target, so a malformed
        payload raises :class:`CodecError` with no side effects.
        """
        delta = bytearray(n)
        size = len(payload)
        pos = cursor = 0
        lo = -1
        while pos < size:
            gap = payload[pos]
            if gap < 0x80:
                pos += 1
            else:
                gap, pos = _read_varint(payload, pos)
            if pos < size and payload[pos] < 0x80:
                length = payload[pos]
                pos += 1
            else:  # multi-byte, or truncated: _read_varint raises
                length, pos = _read_varint(payload, pos)
            start = cursor + gap
            cursor = start + length
            stop = pos + length
            if cursor > n or stop > size:
                raise CodecError("zero-RLE payload overruns declared length")
            delta[start:cursor] = payload[pos:stop]
            pos = stop
            if lo < 0:
                lo = start
        return delta, lo if lo > 0 else 0, cursor

    def decode(self, payload: bytes, original_length: int) -> bytes:
        """Expand zero runs and literals back into the original delta."""
        return bytes(self._scatter(payload, original_length)[0])

    def decode_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """Overwrite ``out`` with the delta: one slice-assign of the scatter."""
        view = _writable_view(out)
        view[:] = self._scatter(payload, view.nbytes)[0]

    def decode_xor_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """XOR the delta into ``out`` over its dirty extent (Eq. 2 fast path).

        Zero gaps before the first and after the last literal are XOR
        identities, so with ``out`` holding ``A_old`` only the extent is
        read or written, in one :func:`xor_into` call however many
        literals the frame carries.
        """
        view = _writable_view(out)
        delta, lo, hi = self._scatter(payload, view.nbytes)
        if hi > lo:
            xor_into(view[lo:hi], memoryview(delta)[lo:hi])


ZERO_RLE = register_codec(ZeroRleCodec())
