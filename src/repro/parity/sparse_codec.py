"""Sparse segment codec.

Ships the changed byte ranges of a parity delta as explicit
``(offset, length, bytes)`` segments with fixed 32-bit headers.  Compared to
zero-RLE this trades a slightly larger header per segment for O(1) random
access to segments — the representation the CDP/TRAP parity log stores,
because point-in-time recovery wants to fold deltas without decoding whole
blocks.

Like :mod:`repro.parity.zero_rle`, the encoder is one vectorized span
detection plus one ``b"".join`` gather of headers and zero-copy literal
views; the wire format is byte-identical to the historical loop encoder.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.common.buffers import nonzero_spans, xor_into
from repro.common.errors import CodecError
from repro.parity.codecs import Buffer, Codec, _writable_view, register_codec

_HEADER = struct.Struct("<II")  # offset, length
_COUNT = struct.Struct("<I")


class SparseSegmentCodec(Codec):
    """Explicit segment-list encoding of nonzero ranges.

    Wire format: ``uint32 segment_count`` then ``segment_count`` records of
    ``uint32 offset, uint32 length, length bytes``.  Adjacent runs closer
    than :attr:`merge_gap` bytes are merged into one segment to amortize the
    8-byte header over near-contiguous edits.
    """

    codec_id = 3
    name = "sparse"

    def __init__(self, merge_gap: int = 8) -> None:
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
        self._merge_gap = merge_gap

    @property
    def merge_gap(self) -> int:
        """Runs separated by fewer than this many zero bytes are merged."""
        return self._merge_gap

    def segments(self, data: Buffer) -> list[tuple[int, int]]:
        """Return the merged ``(offset, length)`` segments for ``data``.

        The merge rule (coalesce spans separated by ``<= merge_gap`` zero
        bytes) is exactly :func:`repro.common.buffers.nonzero_spans`'s
        keep-mask, so this is now a single vectorized pass instead of a
        detect-then-merge Python loop.
        """
        starts, ends = nonzero_spans(data, merge_gap=self._merge_gap)
        return [(int(s), int(e - s)) for s, e in zip(starts, ends)]

    def encode(self, data: Buffer) -> bytes:
        """Emit (offset, length, bytes) segments for each nonzero run."""
        starts, ends = nonzero_spans(data, merge_gap=self._merge_gap)
        view = data if isinstance(data, memoryview) else memoryview(data)
        parts: list[Buffer] = [_COUNT.pack(starts.size)]
        header = _HEADER.pack
        for s, e in zip(starts.tolist(), ends.tolist()):
            parts.append(header(s, e - s))
            parts.append(view[s:e])
        return b"".join(parts)

    def decode(self, payload: bytes, original_length: int) -> bytes:
        """Rebuild the delta by writing each segment into a zero buffer."""
        return bytes(self._scatter(payload, original_length))

    def decode_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """Overwrite ``out`` with the delta, gaps zeroed."""
        view = _writable_view(out)
        view[:] = self._scatter(payload, view.nbytes)

    def decode_xor_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """XOR only the stored segments into ``out`` (Eq. 2 fast path)."""
        view = _writable_view(out)
        for offset, pos, length in self._parse(payload, view.nbytes):
            xor_into(view[offset : offset + length], payload[pos : pos + length])

    def _scatter(self, payload: bytes, n: int) -> bytearray:
        """Write every segment into a fresh zeroed ``n``-byte delta."""
        delta = bytearray(n)
        for offset, pos, length in self._parse(payload, n):
            delta[offset : offset + length] = payload[pos : pos + length]
        return delta

    def _parse(self, payload: bytes, n: int) -> list[tuple[int, int, int]]:
        """Validate the whole segment list against ``n`` and the payload.

        Returns ``(offset, payload_pos, length)`` per segment.  Callers
        write only after this returns, so a malformed payload raises
        :class:`CodecError` and leaves their target unchanged.
        """
        if len(payload) < _COUNT.size:
            raise CodecError("sparse payload shorter than its count field")
        (count,) = _COUNT.unpack_from(payload, 0)
        pos = _COUNT.size
        segments = []
        for _ in range(count):
            if pos + _HEADER.size > len(payload):
                raise CodecError("truncated sparse segment header")
            offset, length = _HEADER.unpack_from(payload, pos)
            pos += _HEADER.size
            if offset + length > n or pos + length > len(payload):
                raise CodecError("sparse segment overruns declared length")
            segments.append((offset, pos, length))
            pos += length
        return segments


SPARSE = register_codec(SparseSegmentCodec())
