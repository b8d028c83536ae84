"""The Eq. 1 skip test of ``PrinsStrategy`` against the two-step reference.

``make_update`` decides "did this write change anything?" by a memcmp of
``A_new`` against ``A_old`` before any XOR.  ``encode_update`` must return
None exactly when the blocks are equal, and otherwise a frame
byte-identical to ``encode_frame(codec, xor_bytes(new, old))``, for every
buffer type the engine passes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.strategy as strategy_mod
import repro.parity.delta as delta_mod
from repro.block import MemoryBlockDevice
from repro.common.buffers import nonzero_spans, xor_bytes
from repro.engine import DirectLink, PrimaryEngine, ReplicaEngine
from repro.engine.strategy import PrinsStrategy
from repro.obs.telemetry import Telemetry
from repro.parity import (
    PipelineCodec,
    SparseSegmentCodec,
    ZeroRleCodec,
    ZlibCodec,
    encode_frame,
)
from repro.parity.frame import FRAME_OVERHEAD

BLOCK_SIZES = [1, 7, 512, 8192]
MERGE_GAPS = [0, 1, 8]
SPAN_CODECS = [ZeroRleCodec, SparseSegmentCodec]
WRAPPERS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


def _edit(old: bytes, runs: "list[tuple[int, int]]", seed: int) -> bytes:
    """Change every byte of each ``(gap, length)`` run after ``old``'s cursor."""
    rng = np.random.default_rng(seed)
    new = bytearray(old)
    cursor = 0
    for gap, length in runs:
        start = cursor + gap
        if start >= len(new):
            break
        cursor = min(len(new), start + length)
        flip = rng.integers(1, 256, cursor - start, np.uint8).tobytes()
        new[start:cursor] = xor_bytes(old[start:cursor], flip)
    return bytes(new)


def _old(n: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, np.uint8).tobytes()


def _reference(codec, new, old) -> bytes:
    return encode_frame(codec, xor_bytes(bytes(new), bytes(old)))


@st.composite
def _block_pairs(draw):
    n = draw(st.sampled_from(BLOCK_SIZES))
    seed = draw(st.integers(0, 2**32 - 1))
    old = _old(n, seed)
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 24), st.integers(1, 40)), min_size=0, max_size=40
        )
    )
    return _edit(old, runs, seed), old


def _edge_pair(case: str, n: int, merge_gap: int) -> tuple[bytes, bytes]:
    """Hand-built pairs at the block edges and the ``merge_gap`` boundary."""
    old = _old(n, n + merge_gap)
    if case == "first-byte":
        runs = [(0, 1)]
    elif case == "last-byte":
        runs = [(n - 1, 1)]
    elif case == "gap-equal":  # two runs exactly merge_gap apart: merged
        runs = [(1, 3), (merge_gap, 3)]
    elif case == "gap-plus-one":  # one byte further: two records
        runs = [(1, 3), (merge_gap + 1, 3)]
    elif case == "all-changed":
        runs = [(0, n)]
    else:
        raise AssertionError(case)
    return _edit(old, runs, n), old


class TestFrameMatchesTwoStepReference:
    @settings(max_examples=80, deadline=None)
    @given(
        pair=_block_pairs(),
        codec_cls=st.sampled_from(SPAN_CODECS),
        merge_gap=st.sampled_from(MERGE_GAPS),
        wrap=st.sampled_from(sorted(WRAPPERS)),
    )
    @example(
        pair=(_old(8192, 1), _old(8192, 1)),
        codec_cls=ZeroRleCodec,
        merge_gap=8,
        wrap="bytes",
    )
    def test_span_codecs(self, pair, codec_cls, merge_gap, wrap):
        new, old = pair
        strategy = PrinsStrategy(codec=codec_cls(merge_gap=merge_gap))
        as_buf = WRAPPERS[wrap]
        frame = strategy.encode_update(as_buf(new), as_buf(old))
        if new == old:
            assert frame is None
        else:
            assert frame == _reference(strategy.codec, new, old)

    @pytest.mark.parametrize("codec_cls", SPAN_CODECS)
    @pytest.mark.parametrize("merge_gap", MERGE_GAPS)
    @pytest.mark.parametrize("n", [512, 8192])
    @pytest.mark.parametrize(
        "case", ["first-byte", "last-byte", "gap-equal", "gap-plus-one", "all-changed"]
    )
    def test_edges(self, codec_cls, merge_gap, n, case):
        new, old = _edge_pair(case, n, merge_gap)
        strategy = PrinsStrategy(codec=codec_cls(merge_gap=merge_gap))
        for as_buf in WRAPPERS.values():
            frame = strategy.encode_update(as_buf(new), as_buf(old))
            assert frame == _reference(strategy.codec, new, old)
        starts, _ = nonzero_spans(xor_bytes(new, old), merge_gap)
        if case == "gap-equal":
            assert starts.size == 1
        if case == "gap-plus-one":
            assert starts.size == 2

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("codec_cls", SPAN_CODECS)
    def test_every_block_size_at_both_ends(self, n, codec_cls):
        old = _old(n, 3)
        strategy = PrinsStrategy(codec=codec_cls())
        assert strategy.encode_update(old, bytes(old)) is None
        for runs in ([(0, 1)], [(n - 1, 1)], [(0, n)]):
            new = _edit(old, runs, 5)
            frame = strategy.encode_update(new, old)
            assert frame == _reference(strategy.codec, new, old)

    @pytest.mark.parametrize(
        "codec", [ZlibCodec(), PipelineCodec()], ids=["zlib", "rle+zlib"]
    )
    def test_fallback_codecs(self, codec):
        old = _old(8192, 9)
        new = _edit(old, [(100, 50), (3000, 7)], 9)
        strategy = PrinsStrategy(codec=codec)
        assert strategy.encode_update(new, old) == _reference(codec, new, old)
        assert strategy.encode_update(new, bytearray(new)) is None


class TestStrategySkip:
    @pytest.mark.parametrize("codec_cls", SPAN_CODECS)
    def test_equal_blocks_without_skip_ship_header_only_frame(self, codec_cls):
        block = _old(8192, 2)
        strategy = PrinsStrategy(codec=codec_cls(), skip_unchanged=False)
        frame = strategy.encode_update(block, bytes(block))
        assert frame == encode_frame(strategy.codec, bytes(8192))
        if codec_cls is ZeroRleCodec:
            assert len(frame) == FRAME_OVERHEAD

    @pytest.mark.parametrize("skip", [True, False])
    @pytest.mark.parametrize(
        "codec", [ZeroRleCodec(), SparseSegmentCodec(), ZlibCodec()],
        ids=["zero-rle", "sparse", "zlib"],
    )
    def test_length_mismatch_raises(self, codec, skip):
        strategy = PrinsStrategy(codec=codec, skip_unchanged=skip)
        with pytest.raises(ValueError):
            strategy.encode_update(bytes(16), bytes(15))

    def test_raid_delta_is_tested_for_zeros(self):
        strategy = PrinsStrategy()
        delta = bytes(100) + b"\x01" + bytes(411)
        assert strategy.encode_update(b"", b"", raid_delta=delta) == encode_frame(
            strategy.codec, delta
        )
        assert strategy.encode_update(b"", b"", raid_delta=bytes(512)) is None


def _forbid(monkeypatch, module, name):
    def boom(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} called")

    monkeypatch.setattr(module, name, boom)


def _engine(telemetry=None, cache=4):
    """An 8 KiB PRINS engine with one direct replica and an A_old cache."""
    primary = MemoryBlockDevice(8192, 4)
    replica = MemoryBlockDevice(8192, 4)
    strategy = PrinsStrategy()
    kwargs = {"telemetry": telemetry} if telemetry is not None else {}
    engine = PrimaryEngine(
        primary,
        strategy,
        [DirectLink(ReplicaEngine(replica, strategy=PrinsStrategy()))],
        old_block_cache=cache,
        **kwargs,
    )
    return engine, primary, replica


class TestUnbatchedWritePath:
    def test_unchanged_rewrite_never_xors(self, monkeypatch):
        engine, primary, replica = _engine()
        block = _old(8192, 6)
        engine.write_block(1, block)
        _forbid(monkeypatch, strategy_mod, "forward_parity")
        _forbid(monkeypatch, delta_mod, "xor_bytes")
        _forbid(monkeypatch, strategy_mod, "is_zero")
        engine.write_block(1, bytes(block))
        assert engine.accountant.writes_skipped == 1
        assert replica.read_block(1) == block
        assert PrinsStrategy().make_update(block, bytes(block)) is None

    def test_changed_write_skips_the_zero_scan(self, monkeypatch):
        engine, primary, replica = _engine()
        old = _old(8192, 7)
        engine.write_block(2, old)
        _forbid(monkeypatch, strategy_mod, "is_zero")
        new = _edit(old, [(1000, 10), (30, 20)], 7)
        engine.write_block(2, new)
        assert engine.accountant.writes_replicated == 2
        assert replica.read_block(2) == new == primary.read_block(2)

    def test_stage_spans_still_emitted(self):
        tel = Telemetry(detail=True)
        engine, _, _ = _engine(telemetry=tel)
        old = _old(8192, 8)
        engine.write_block(0, old)
        engine.write_block(0, _edit(old, [(10, 5)], 8))
        engine.write_block(0, _edit(old, [(10, 5)], 8))  # unchanged rewrite
        records = tel.snapshot()["traces"]
        deltas = [
            r["attrs"]["cache_hit"]
            for r in records
            if r["name"] == "write.delta" and "cache_hit" in r.get("attrs", {})
        ]
        assert deltas == [False, True, True]
        encodes = [r for r in records if r["name"] == "write.encode"]
        assert len(encodes) == 2  # the skipped write encodes nothing
