"""Byte-buffer helpers: XOR, zero tests, and change-density measurement.

The whole point of PRINS is that ``P' = A_new XOR A_old`` is mostly zeros.
These helpers implement the XOR and the "how sparse is it" measurements used
throughout the parity codecs, the RAID small-write path, and the traffic
accounting.  They are numpy-backed so that 64 KB blocks cost microseconds,
with an ``int.from_bytes`` big-integer fallback for tiny buffers where numpy
dispatch overhead dominates.

Every helper accepts any C-contiguous buffer-protocol object (``bytes``,
``bytearray``, ``memoryview``, numpy arrays) so callers on the zero-copy hot
path can pass views without materializing intermediate ``bytes`` copies.
"""

from __future__ import annotations

import functools
from typing import Sequence, Union

import numpy as np

Buffer = Union[bytes, bytearray, memoryview]

#: Crossover between the big-integer XOR path and numpy, in bytes.
#:
#: Measured with ``timeit`` on CPython 3.11 / numpy 2.4 (2-vCPU VM, best
#: of 9), ``xor_bytes`` integer path vs numpy:
#:
#:   ====== ======= =======
#:   bytes  int µs  numpy µs
#:   ====== ======= =======
#:   256    1.36    1.73
#:   384    1.48    1.65
#:   448    1.61    1.64
#:   512    1.86    1.71
#:   1024   3.56    1.90
#:   ====== ======= =======
#:
#: The two tie near 480 B; 512 keeps every size where the integer path
#: still wins or ties.  Above it numpy scales ~50x better.
_NUMPY_CUTOFF = 512

#: Crossover for the in-place :func:`xor_into`, in bytes.  The integer path
#: pays an extra slice-assign back into the target, so numpy overtakes it
#: earlier than in :func:`xor_bytes` (same setup as above):
#:
#:   ====== ======= =======
#:   bytes  int µs  numpy µs
#:   ====== ======= =======
#:   256    1.47    1.71
#:   320    1.62    1.66
#:   352    1.70    1.69
#:   384    1.76    1.62
#:   512    2.20    1.77
#:   ====== ======= =======
_INPLACE_CUTOFF = 320

#: Largest per-block size for which :func:`xor_blocks_pairwise` stacks the
#: two input sequences into matrices.  Stacking pays two ``b"".join`` copies
#: of the whole window; above ~8 KB per block that copy cost exceeds the
#: dispatch savings and a per-pair :func:`xor_bytes` loop wins (measured:
#: 32x64 KB window is 332 µs per-pair vs 3.9 ms stacked on the reference
#: box; the crossover sits near 8 KB).
_PAIRWISE_STACK_MAX = 8192

#: Shared ``[0]`` index array prepended when a buffer starts nonzero; kept
#: module-level so :func:`nonzero_spans` never allocates it per call.
_ZERO_INDEX = np.zeros(1, dtype=np.intp)


def _nbytes(buf: Buffer) -> int:
    """Length in bytes of any buffer-protocol object."""
    if isinstance(buf, (bytes, bytearray)):
        return len(buf)
    if isinstance(buf, memoryview):
        return buf.nbytes  # no second view: ~4x cheaper on the Eq. 2 path
    return memoryview(buf).nbytes


def xor_bytes(a: Buffer, b: Buffer) -> bytes:
    """Return ``a XOR b``.

    Both buffers must be the same length.  This single function implements
    both the paper's forward parity computation (Eq. 1 fragment,
    ``P' = A_new XOR A_old``) and the backward computation (Eq. 2,
    ``A_new = P' XOR A_old``), because XOR is its own inverse.

    Accepts any buffer-protocol object; always returns ``bytes``.
    """
    n = _nbytes(a)
    nb = _nbytes(b)
    if n != nb:
        raise ValueError(f"xor_bytes: length mismatch ({n} != {nb})")
    if n < _NUMPY_CUTOFF:
        # One C-level big-integer XOR beats both a Python byte loop and
        # numpy's dispatch overhead for small buffers.
        return (
            int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
        ).to_bytes(n, "little")
    av = np.frombuffer(a, dtype=np.uint8)
    bv = np.frombuffer(b, dtype=np.uint8)
    return np.bitwise_xor(av, bv).tobytes()


def xor_into(target: Union[bytearray, memoryview], source: Buffer) -> None:
    """XOR ``source`` into ``target`` in place (``target ^= source``).

    Used by the RAID parity scrubber and the CDP recovery path, where a
    running XOR accumulator over many blocks avoids allocating one
    intermediate buffer per block.  ``target`` must be writable
    (``bytearray`` or a writable ``memoryview``).
    """
    n = _nbytes(target)
    ns = _nbytes(source)
    if n != ns:
        raise ValueError(f"xor_into: length mismatch ({n} != {ns})")
    if n == 0:
        return
    if n < _INPLACE_CUTOFF:
        target[:n] = (
            int.from_bytes(target, "little") ^ int.from_bytes(source, "little")
        ).to_bytes(n, "little")
        return
    tv = np.frombuffer(target, dtype=np.uint8)
    sv = np.frombuffer(source, dtype=np.uint8)
    np.bitwise_xor(tv, sv, out=tv)


def xor_reduce_blocks(blocks: "Sequence[Buffer]") -> bytes:
    """XOR-fold many equal-length buffers into one, in a single numpy kernel.

    This is the batch form of :func:`xor_bytes`: stacking the buffers into
    one ``(n, block_size)`` matrix and reducing along axis 0 replaces
    ``n - 1`` Python-level XOR calls with one vectorized pass.  It is the
    kernel behind same-LBA delta merging in
    :class:`repro.engine.batch.ShipBatcher` — XOR is associative, so the
    fold of parity deltas ``P'₁ ⊕ P'₂ ⊕ …`` is itself a valid parity delta
    against the replica's original block (paper Eqs. 1–2 compose).
    """
    if not blocks:
        raise ValueError("xor_reduce_blocks needs at least one buffer")
    size = _nbytes(blocks[0])
    for i, b in enumerate(blocks[1:], start=1):
        if _nbytes(b) != size:
            raise ValueError(
                f"xor_reduce_blocks: length mismatch at index {i} "
                f"({_nbytes(b)} != {size})"
            )
    if len(blocks) == 1:
        return bytes(blocks[0])
    if size == 0:
        return b""
    if size * len(blocks) < _NUMPY_CUTOFF:
        acc = int.from_bytes(blocks[0], "little")
        for b in blocks[1:]:
            acc ^= int.from_bytes(b, "little")
        return acc.to_bytes(size, "little")
    mat = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        len(blocks), size
    )
    return np.bitwise_xor.reduce(mat, axis=0).tobytes()


def xor_blocks_pairwise(
    lhs: "Sequence[Buffer]",
    rhs: "Sequence[Buffer]",
    skip_zero: bool = False,
) -> "list[bytes | None]":
    """XOR many equal-length pairs ``lhs[i] ^ rhs[i]`` in one 2-D numpy op.

    The vectorized form of mapping :func:`xor_bytes` over two equal-length
    sequences: both sides are stacked into ``(n, block_size)`` matrices and
    XORed in a single kernel, amortizing numpy dispatch over the whole
    batch (many small forward-parity computations per call instead of one).

    The result matrix is serialized **once** (one contiguous ``tobytes``)
    and sliced per row, instead of a per-row ``tobytes`` Python loop — the
    slices share the row boundaries so no per-row numpy call remains.

    With ``skip_zero=True``, all-zero results come back as ``None`` instead
    of a zero-filled buffer — the no-op test runs on the XOR result while
    it is still a hot numpy array, which is cheaper than a separate
    :func:`is_zero` rescan of the materialized bytes per pair.
    """
    if len(lhs) != len(rhs):
        raise ValueError(
            f"xor_blocks_pairwise: {len(lhs)} lhs buffers vs {len(rhs)} rhs"
        )
    if not lhs:
        return []
    size = _nbytes(lhs[0])
    for seq_name, seq in (("lhs", lhs), ("rhs", rhs)):
        for i, b in enumerate(seq):
            if _nbytes(b) != size:
                raise ValueError(
                    f"xor_blocks_pairwise: {seq_name}[{i}] is {_nbytes(b)} "
                    f"bytes, expected {size}"
                )
    if size == 0:
        return [b""] * len(lhs)
    if size > _PAIRWISE_STACK_MAX:
        # For large blocks the two b"".join copies needed to stack the
        # inputs dominate (~12x slower than per-pair XOR at 64 KB on the
        # reference box); per-pair numpy XOR is already bandwidth-bound.
        out: "list[bytes | None]" = []
        for a, b in zip(lhs, rhs):
            av = np.frombuffer(a, dtype=np.uint8)
            bv = np.frombuffer(b, dtype=np.uint8)
            d = np.bitwise_xor(av, bv)
            if skip_zero and not d.any():
                out.append(None)
            else:
                out.append(d.tobytes())
        return out
    if size * len(lhs) < _NUMPY_CUTOFF:
        results = [xor_bytes(a, b) for a, b in zip(lhs, rhs)]
        if skip_zero:
            return [None if is_zero(d) else d for d in results]
        return results
    a = np.frombuffer(b"".join(lhs), dtype=np.uint8).reshape(len(lhs), size)
    b = np.frombuffer(b"".join(rhs), dtype=np.uint8).reshape(len(rhs), size)
    # One contiguous serialization, then zero-copy-ish row slices (each
    # slice is a cheap bytes-of-bytes copy of exactly one row; the old code
    # paid a numpy attribute lookup + tobytes dispatch per row).
    mat = np.bitwise_xor(a, b)
    flat = mat.tobytes()
    if skip_zero:
        nonzero_rows = np.any(mat, axis=1)
        return [
            flat[i * size:(i + 1) * size] if nonzero_rows[i] else None
            for i in range(len(lhs))
        ]
    return [flat[i * size:(i + 1) * size] for i in range(len(lhs))]


def _zero_count(buf: Buffer) -> int:
    """Number of zero bytes in any buffer-protocol object."""
    n = _nbytes(buf)
    if n < _NUMPY_CUTOFF:
        if isinstance(buf, (bytes, bytearray)):
            return buf.count(0)
        return bytes(memoryview(buf).cast("B")).count(0)
    # numpy's SIMD nonzero count beats bytes.count(0)'s byte-at-a-time scan
    # by ~6x at 64 KB (4.8 µs vs 29 µs measured).
    arr = np.frombuffer(buf, dtype=np.uint8)
    return n - int(np.count_nonzero(arr))


@functools.lru_cache(maxsize=8)
def _zero_block(n: int) -> bytes:
    """An ``n``-byte zero block, kept for the few block sizes in use."""
    return bytes(n)


def is_zero(buf: Buffer) -> bool:
    """Return True if every byte of ``buf`` is zero.

    An all-zero parity delta means the write did not actually change the
    block; the PRINS engine can then skip replication entirely.
    """
    if isinstance(buf, (bytes, bytearray)):
        # A memcmp against a cached zero block: ~0.16 µs at 8 KiB, where
        # numpy's ``.any()`` costs ~2.4 µs and ``np.any`` ~4.5 µs.
        return buf == _zero_block(len(buf))
    n = _nbytes(buf)
    if n == 0:
        return True
    if n < _NUMPY_CUTOFF:
        # bytes.count is a C-level scan; cheaper than numpy dispatch here.
        return _zero_count(buf) == n
    return not np.frombuffer(buf, dtype=np.uint8).any()


def same_bytes(a: Buffer, b: Buffer) -> bool:
    """True if ``a`` and ``b`` hold the same bytes (the Eq. 1 skip test).

    ``bytes``/``bytearray`` compare by memcmp (~0.04 µs at 8 KiB).  Any
    other buffer is copied to ``bytes`` first, which is still ~70x
    cheaper than comparing through ``memoryview.__eq__``.
    """
    if not isinstance(a, (bytes, bytearray)):
        a = bytes(a)
    if not isinstance(b, (bytes, bytearray)):
        b = bytes(b)
    return a == b


def count_nonzero(buf: Buffer) -> int:
    """Return the number of nonzero bytes in ``buf``."""
    return _nbytes(buf) - _zero_count(buf)


def nonzero_fraction(buf: Buffer) -> float:
    """Return the fraction of bytes in ``buf`` that are nonzero.

    This is the paper's "5 % to 20 % of a data block actually changes"
    metric, measured on a parity delta.  Returns 0.0 for an empty buffer.
    """
    n = _nbytes(buf)
    if n == 0:
        return 0.0
    return count_nonzero(buf) / n


def nonzero_spans(
    buf: Buffer, merge_gap: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Return nonzero spans as numpy ``(starts, ends)`` arrays (end exclusive).

    This is the vectorized kernel behind :func:`nonzero_runs` and the
    single-pass codec encoders: a boolean diff finds every run boundary in
    one O(n) pass whose cost does not depend on the number of runs, and the
    ``merge_gap`` coalescing is a single keep-mask over the inter-span gaps
    rather than a Python loop.  Both returned arrays are ``intp`` and ready
    for direct fancy-indexed gathers.
    """
    if merge_gap < 0:
        raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
    arr = np.frombuffer(buf, dtype=np.uint8)
    if arr.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    nz = arr != 0
    # Run boundaries are exactly the indices where the nonzero mask flips;
    # comparing the mask against itself shifted by one finds them in a
    # single pass with no int8 cast or diff temporary (2-3x faster than the
    # np.diff formulation at 64 KB).  Boundaries alternate start, end,
    # start, end, … once the edges are patched in.
    boundary = np.flatnonzero(nz[1:] != nz[:-1]) + 1
    head: tuple = (boundary,)
    if nz[0]:
        head = (_ZERO_INDEX, boundary)
    if nz[-1]:
        boundary = np.concatenate(head + (np.array([arr.size], dtype=np.intp),))
    elif len(head) > 1:
        boundary = np.concatenate(head)
    starts = boundary[0::2]
    ends = boundary[1::2]
    if merge_gap and starts.size > 1:
        # Gap of zeros between consecutive spans; keep the boundary only
        # where the gap exceeds the merge threshold.
        keep = (starts[1:] - ends[:-1]) > merge_gap
        starts = np.concatenate((starts[:1], starts[1:][keep]))
        ends = np.concatenate((ends[:-1][keep], ends[-1:]))
    return starts, ends


def nonzero_runs(buf: Buffer, merge_gap: int = 0) -> list[tuple[int, int]]:
    """Return runs of nonzero bytes as ``(offset, length)`` pairs.

    With ``merge_gap == 0`` the runs are maximal and never touch (a zero
    byte separates any two).  With ``merge_gap > 0``, runs separated by at
    most that many zero bytes are coalesced into one (the zeros become part
    of the run).  Codecs use a small merge gap because a changed span of
    high-entropy data contains chance zero bytes (1 in 256) that would
    otherwise fragment it into hundreds of tiny runs — coalescing costs a
    few literal zero bytes but saves a per-run header and a Python-level
    loop iteration each.

    Thin list-of-tuples wrapper over :func:`nonzero_spans`.
    """
    starts, ends = nonzero_spans(buf, merge_gap)
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]
