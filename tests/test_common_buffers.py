"""Tests for repro.common.buffers: XOR, zero tests, run detection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from repro.common.buffers import (
    _INPLACE_CUTOFF,
    count_nonzero,
    is_zero,
    nonzero_fraction,
    nonzero_runs,
    nonzero_spans,
    same_bytes,
    xor_blocks_pairwise,
    xor_bytes,
    xor_into,
    xor_reduce_blocks,
)


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_identity_with_zeros(self):
        data = bytes(range(256))
        assert xor_bytes(data, bytes(256)) == data

    def test_self_cancels(self):
        data = b"hello world" * 20
        assert is_zero(xor_bytes(data, data))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(b"abc", b"ab")

    def test_empty(self):
        assert xor_bytes(b"", b"") == b""

    def test_large_buffers_use_numpy_path(self):
        a = bytes(range(256)) * 64  # 16 KiB, above the numpy cutoff
        b = bytes(reversed(range(256))) * 64
        expected = bytes(x ^ y for x, y in zip(a, b))
        assert xor_bytes(a, b) == expected

    @given(st.binary(min_size=0, max_size=2048))
    def test_involution(self, data):
        """XOR is its own inverse: (a ^ b) ^ b == a."""
        key = bytes((i * 37) % 256 for i in range(len(data)))
        assert xor_bytes(xor_bytes(data, key), key) == data

    @given(st.binary(min_size=1, max_size=512), st.binary(min_size=1, max_size=512))
    def test_commutative(self, a, b):
        n = min(len(a), len(b))
        assert xor_bytes(a[:n], b[:n]) == xor_bytes(b[:n], a[:n])


class TestXorInto:
    def test_in_place(self):
        target = bytearray(b"\x01\x02\x03")
        xor_into(target, b"\x01\x02\x03")
        assert target == bytearray(3)

    def test_matches_xor_bytes(self):
        a = bytes(range(200))
        b = bytes(reversed(range(200)))
        target = bytearray(a)
        xor_into(target, b)
        assert bytes(target) == xor_bytes(a, b)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_into(bytearray(3), b"ab")

    @pytest.mark.parametrize(
        "n", [_INPLACE_CUTOFF - 1, _INPLACE_CUTOFF, _INPLACE_CUTOFF + 1, 4096]
    )
    def test_both_sides_of_the_in_place_cutoff(self, n):
        a = bytes((i * 7) % 256 for i in range(n))
        b = bytes((i * 13 + 5) % 256 for i in range(n))
        target = bytearray(a)
        xor_into(memoryview(target), b)
        assert bytes(target) == xor_bytes(a, b)


class TestZeroPredicates:
    def test_is_zero_true(self):
        assert is_zero(bytes(1000))

    def test_is_zero_false(self):
        assert not is_zero(bytes(999) + b"\x01")

    def test_is_zero_empty(self):
        assert is_zero(b"")
        assert is_zero(bytearray())
        assert is_zero(memoryview(b""))

    @pytest.mark.parametrize("n", [1, 100, 8192])
    @pytest.mark.parametrize(
        "wrap", [bytes, bytearray, memoryview, lambda b: np.frombuffer(b, np.uint8)]
    )
    def test_is_zero_every_buffer_type(self, n, wrap):
        assert is_zero(wrap(bytes(n)))
        for pos in (0, n // 2, n - 1):
            data = bytearray(n)
            data[pos] = 0x80
            assert not is_zero(wrap(bytes(data)))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_same_bytes(self, wrap):
        a = bytes(range(256)) * 32
        assert same_bytes(wrap(a), wrap(bytes(a)))
        assert not same_bytes(wrap(a), wrap(a[:-1] + b"\x00"))
        assert not same_bytes(wrap(a), wrap(a[:-1]))

    def test_count_nonzero(self):
        assert count_nonzero(b"\x00\x01\x00\x02\x00") == 2

    def test_nonzero_fraction(self):
        assert nonzero_fraction(b"\x00\x01\x00\x01") == 0.5

    def test_nonzero_fraction_empty(self):
        assert nonzero_fraction(b"") == 0.0


class TestNonzeroRuns:
    def test_empty(self):
        assert nonzero_runs(b"") == []

    def test_all_zero(self):
        assert nonzero_runs(bytes(100)) == []

    def test_single_run(self):
        assert nonzero_runs(b"\x00\x00\x01\x02\x00") == [(2, 2)]

    def test_run_at_start_and_end(self):
        assert nonzero_runs(b"\x01\x00\x00\x02") == [(0, 1), (3, 1)]

    def test_adjacent_runs_merge(self):
        # no zero gap between them -> one run
        assert nonzero_runs(b"\x01\x02\x03") == [(0, 3)]

    @given(st.binary(min_size=0, max_size=1024))
    def test_runs_reconstruct_buffer(self, data):
        """Runs cover exactly the nonzero bytes."""
        rebuilt = bytearray(len(data))
        for offset, length in nonzero_runs(data):
            rebuilt[offset : offset + length] = data[offset : offset + length]
        assert bytes(rebuilt) == data

    @given(st.binary(min_size=0, max_size=1024))
    def test_runs_are_separated_and_nonzero(self, data):
        runs = nonzero_runs(data)
        previous_end = -2
        for offset, length in runs:
            assert length > 0
            assert offset > previous_end + 1  # separated by >= one zero
            segment = data[offset : offset + length]
            assert segment[0] != 0 and segment[-1] != 0
            previous_end = offset + length - 1


class TestBufferProtocolInputs:
    """Every helper must accept bytes, bytearray, and memoryview alike."""

    DATA = bytes(500) + b"\x07\x09" + bytes(500) + b"\xff" * 30 + bytes(100)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_xor_bytes_any_buffer(self, wrap):
        a, b = self.DATA, self.DATA[::-1]
        assert xor_bytes(wrap(a), wrap(b)) == xor_bytes(a, b)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_zero_predicates_any_buffer(self, wrap):
        assert not is_zero(wrap(self.DATA))
        assert is_zero(wrap(bytes(1000)))
        assert count_nonzero(wrap(self.DATA)) == count_nonzero(self.DATA)
        assert nonzero_fraction(wrap(self.DATA)) == nonzero_fraction(self.DATA)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_runs_any_buffer(self, wrap):
        assert nonzero_runs(wrap(self.DATA), 4) == nonzero_runs(self.DATA, 4)

    def test_xor_into_writable_memoryview(self):
        target = bytearray(self.DATA)
        xor_into(memoryview(target), self.DATA)
        assert is_zero(target)


class TestXorBlocksPairwise:
    def test_matches_per_pair_xor_across_paths(self):
        # sizes straddling the int/numpy cutoff and the stacking threshold
        for size in (16, 511, 512, 4096, 8192, 8193, 65536):
            lhs = [bytes([i % 251] * size) for i in range(5)]
            rhs = [bytes([(i * 7 + 3) % 251] * size) for i in range(5)]
            expect = [xor_bytes(a, b) for a, b in zip(lhs, rhs)]
            assert xor_blocks_pairwise(lhs, rhs) == expect

    def test_empty_sequences(self):
        assert xor_blocks_pairwise([], []) == []

    def test_zero_size_blocks(self):
        assert xor_blocks_pairwise([b"", b""], [b"", b""]) == [b"", b""]

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_blocks_pairwise([b"ab"], [b"ab", b"cd"])

    def test_length_mismatch_raises_even_with_zero_size_first(self):
        # regression: a zero-size first block must not bypass the
        # per-element length validation of the remaining blocks
        with pytest.raises(ValueError):
            xor_blocks_pairwise([b"", b"ab"], [b"", b"ab"])
        with pytest.raises(ValueError):
            xor_blocks_pairwise([b"ab", b"ab"], [b"ab", b"a"])

    def test_skip_zero_marks_identical_pairs_none(self):
        blocks = [b"\x01" * 4096, b"\x02" * 4096, b"\x03" * 4096]
        same = [blocks[0], b"\x00" * 4096, blocks[2]]
        out = xor_blocks_pairwise(blocks, same, skip_zero=True)
        assert out[0] is None
        assert out[1] == b"\x02" * 4096
        assert out[2] is None

    def test_skip_zero_small_and_large_paths_agree(self):
        for size in (8, 600, 65536):
            lhs = [b"\x05" * size, b"\x09" * size]
            rhs = [b"\x05" * size, b"\x00" * size]
            assert xor_blocks_pairwise(lhs, rhs, skip_zero=True) == [
                None,
                b"\x09" * size,
            ]

    @given(st.lists(st.binary(min_size=33, max_size=33), min_size=0, max_size=6))
    def test_matches_map_property(self, blocks):
        mirrored = list(reversed(blocks))
        assert xor_blocks_pairwise(blocks, mirrored) == [
            xor_bytes(a, b) for a, b in zip(blocks, mirrored)
        ]


class TestXorReduceBlocks:
    def test_single_block_copies(self):
        block = bytearray(b"\x11" * 64)
        out = xor_reduce_blocks([block])
        assert out == bytes(block)
        block[0] = 0  # result must not alias the input
        assert out[0] == 0x11

    def test_fold_matches_sequential(self):
        blocks = [bytes([i + 1] * 700) for i in range(5)]
        acc = blocks[0]
        for b in blocks[1:]:
            acc = xor_bytes(acc, b)
        assert xor_reduce_blocks(blocks) == acc

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_reduce_blocks([b"abc", b"ab"])


class TestNonzeroSpans:
    def test_matches_runs(self):
        data = bytes(100) + b"\x01\x02" + bytes(3) + b"\x03" + bytes(200)
        starts, ends = nonzero_spans(data)
        assert [(int(s), int(e - s)) for s, e in zip(starts, ends)] == (
            nonzero_runs(data)
        )

    def test_edges_start_and_end_nonzero(self):
        starts, ends = nonzero_spans(b"\x01" + bytes(10) + b"\x02")
        assert list(starts) == [0, 11]
        assert list(ends) == [1, 12]

    def test_merge_gap_coalesces(self):
        data = bytearray(50)
        data[10] = 1
        data[14] = 2  # gap of 3 zeros
        starts, ends = nonzero_spans(bytes(data), merge_gap=3)
        assert list(starts) == [10] and list(ends) == [15]
        starts, ends = nonzero_spans(bytes(data), merge_gap=2)
        assert list(starts) == [10, 14]

    def test_negative_merge_gap_raises(self):
        with pytest.raises(ValueError):
            nonzero_spans(b"\x01", merge_gap=-1)

    def test_empty_buffer(self):
        starts, ends = nonzero_spans(b"")
        assert starts.size == 0 and ends.size == 0

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 5))
    def test_spans_reconstruct_buffer(self, data, gap):
        starts, ends = nonzero_spans(data, merge_gap=gap)
        rebuilt = bytearray(len(data))
        for s, e in zip(starts.tolist(), ends.tolist()):
            rebuilt[s:e] = data[s:e]
        assert bytes(rebuilt) == data
