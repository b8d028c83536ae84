"""k-of-n striping: erasure-coded fan-out with regenerating-style repair.

PRINS's core identity — the parity delta ``P' = A_new ⊕ A_old`` that
updates a mirror is byte-for-byte the quantity that updates an XOR
erasure parity — generalizes to any *linear* code over GF(2): a
Reed-Solomon combination of delta slices is itself a valid delta against
the coded fragment.  This module exploits that as a first-class
replication tier (Dimakis et al., *Network Coding for Distributed
Storage* — PAPERS.md):

* :class:`StripeConfig` / :class:`StripeCodec` — split one block (or one
  parity delta) into ``k`` data slices and ``m = n - k`` coded parity
  fragments.  ``m == 1`` is plain RAID-5 XOR; ``m >= 2`` uses a
  systematized-Vandermonde RS-lite code over GF(256), whose generator
  keeps any ``k`` of the ``n`` fragments sufficient to reassemble;
* :class:`FragmentView` — a read-only :class:`~repro.block.device
  .BlockDevice` exposing fragment ``j`` of a source volume, so the
  GuardedLink heal ladder (journal replay → PBS reconcile → digest
  sweep) runs per-fragment with zero new recovery code;
* :class:`ParityCrcTracker` — CRC32 is affine over GF(2), so the primary
  can maintain the end-to-end verification CRC of every *remote* parity
  fragment incrementally (``crc' = crc ⊕ crc(delta) ⊕ crc(zeros)``)
  without storing a local parity shadow;
* :func:`repair_from_survivors` — rebuild one lost fragment holder by
  pulling fragment-sized pieces from ``k`` survivors and folding them
  through :func:`~repro.common.buffers.xor_bytes` (plus a GF(256) scale
  where the code demands it) — bytes shipped to the replacement are
  ``volume / k``, not a full re-mirror.

The striping layer deliberately produces ordinary
:class:`~repro.engine.messages.ReplicationRecord` payloads: each
fragment rides the scheduler, resilience, and accounting machinery as a
normal per-link submission.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.block.device import BlockDevice
from repro.common.buffers import is_zero
from repro.common.errors import ConfigurationError, ReplicationError, SyncError

__all__ = [
    "FragmentView",
    "ParityCrcTracker",
    "RepairReport",
    "StripeCodec",
    "StripeConfig",
    "repair_from_survivors",
    "stripe_full_sync",
    "verify_fragments",
]

# -- GF(256) arithmetic (AES polynomial 0x11d) --------------------------------

_GF_EXP = np.zeros(512, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int64)


def _init_tables() -> None:
    """Fill the exp/log tables for GF(256) with generator 2."""
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    _GF_EXP[255:510] = _GF_EXP[0:255]


_init_tables()

#: lazily built 256-entry multiply-by-constant lookup rows (c -> row)
_MUL_ROWS: dict[int, np.ndarray] = {}


def _gf_mul(a: int, b: int) -> int:
    """Scalar GF(256) multiply."""
    if a == 0 or b == 0:
        return 0
    return int(_GF_EXP[int(_GF_LOG[a]) + int(_GF_LOG[b])])


def _gf_inv(a: int) -> int:
    """Scalar GF(256) inverse (``a`` must be nonzero)."""
    if a == 0:
        raise ZeroDivisionError("GF(256) zero has no inverse")
    return int(_GF_EXP[255 - int(_GF_LOG[a])])


def _mul_row(c: int) -> np.ndarray:
    """The 256-entry table mapping byte ``b`` to ``c * b`` in GF(256)."""
    row = _MUL_ROWS.get(c)
    if row is None:
        row = np.array([_gf_mul(c, b) for b in range(256)], dtype=np.uint8)
        _MUL_ROWS[c] = row
    return row


def _scale_xor_into(acc: np.ndarray, frag, coeff: int) -> None:
    """``acc ^= coeff * frag`` in GF(256), vectorized.

    ``coeff == 1`` skips the table gather entirely — that is the pure
    :func:`~repro.common.buffers.xor_bytes` fold the XOR parity row and
    every systematic data coefficient reduce to.
    """
    if coeff == 0:
        return
    src = np.frombuffer(frag, dtype=np.uint8)
    if coeff == 1:
        np.bitwise_xor(acc, src, out=acc)
    else:
        np.bitwise_xor(acc, _mul_row(coeff)[src], out=acc)


def _invert_matrix(matrix: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inversion of a small GF(256) matrix."""
    size = len(matrix)
    aug = [row[:] + [1 if i == j else 0 for j in range(size)]
           for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if aug[r][col]), None
        )
        if pivot is None:
            raise ReplicationError(
                "stripe generator matrix is singular (bug: the "
                "systematized Vandermonde construction guarantees any "
                "k rows invert)"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = _gf_inv(aug[col][col])
        aug[col] = [_gf_mul(v, inv_p) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [
                    v ^ _gf_mul(factor, aug[col][c2])
                    for c2, v in enumerate(aug[r])
                ]
    return [row[size:] for row in aug]


def _generator_rows(k: int, n: int) -> list[list[int]]:
    """The full ``n x k`` systematic generator matrix, row-major.

    Rows ``0..k-1`` are the identity (data fragments are plain slices);
    rows ``k..n-1`` are the parity coefficients.  ``m == 1`` uses the
    all-ones row (RAID-5 XOR).  ``m >= 2`` starts from an ``n x k``
    Vandermonde over distinct points and right-multiplies by the inverse
    of its top ``k x k`` square — row operations preserve the Vandermonde
    property that *any* ``k`` rows are linearly independent, which is
    exactly the any-k-of-n reassembly guarantee.
    """
    m = n - k
    if m == 1:
        return [[1 if c == r else 0 for c in range(k)] for r in range(k)] + [
            [1] * k
        ]
    # row r evaluates the message polynomial at alpha^r (alpha^0 == 1)
    vander = [
        [int(_GF_EXP[(r * c) % 255]) for c in range(k)] for r in range(n)
    ]
    top_inv = _invert_matrix([row[:] for row in vander[:k]])
    rows = []
    for r in range(n):
        rows.append(
            [
                _reduce_dot(vander[r], [top_inv[i][c] for i in range(k)])
                for c in range(k)
            ]
        )
    return rows


def _reduce_dot(row: list[int], col: list[int]) -> int:
    """GF(256) dot product of two coefficient vectors."""
    acc = 0
    for a, b in zip(row, col):
        acc ^= _gf_mul(a, b)
    return acc


@dataclass(frozen=True)
class StripeConfig:
    """Shape of the erasure tier: ``k`` data fragments out of ``n`` total.

    Tolerates ``m = n - k`` simultaneous fragment-holder failures at a
    replica storage overhead of ``n / k`` — versus ``f + 1`` full
    mirrors for the same fault tolerance ``f = m``.
    """

    k: int = 4
    n: int = 6

    def __post_init__(self) -> None:
        """Validate the code parameters."""
        if self.k < 2:
            raise ConfigurationError(f"stripe k must be >= 2, got {self.k}")
        if self.n <= self.k:
            raise ConfigurationError(
                f"stripe n must exceed k, got n={self.n} k={self.k}"
            )
        if self.n > 255:
            raise ConfigurationError(
                f"stripe n must be <= 255 (GF(256) code), got {self.n}"
            )

    @property
    def m(self) -> int:
        """Parity fragment count — the failures the tier tolerates."""
        return self.n - self.k

    @property
    def storage_overhead(self) -> float:
        """Replica bytes stored per data byte (``n / k``)."""
        return self.n / self.k


class StripeCodec:
    """Splits blocks (or parity deltas) into ``n`` code fragments.

    Because the code is linear over GF(2), :meth:`encode` applied to a
    PRINS delta yields per-fragment *deltas*: XORing fragment ``j``'s
    delta into the holder's stored fragment is exactly the paper's Eq. 1
    applied per fragment.  Applied to a full block it yields the
    fragment *contents* — both uses ship through the same strategy
    codecs.
    """

    def __init__(self, config: StripeConfig, block_size: int) -> None:
        if block_size % config.k:
            raise ConfigurationError(
                f"block_size {block_size} is not divisible by k={config.k}; "
                "pick k dividing the block size"
            )
        self.config = config
        self.block_size = block_size
        self.fragment_size = block_size // config.k
        rows = _generator_rows(config.k, config.n)
        #: parity coefficient rows (m x k), row j encodes fragment k+j
        self.parity_rows: tuple[tuple[int, ...], ...] = tuple(
            tuple(rows[config.k + j]) for j in range(config.m)
        )
        self._rows = rows

    @property
    def k(self) -> int:
        """Data fragment count."""
        return self.config.k

    @property
    def n(self) -> int:
        """Total fragment count (data + parity)."""
        return self.config.n

    @property
    def m(self) -> int:
        """Parity fragment count."""
        return self.config.m

    # -- encode ---------------------------------------------------------------

    def slice_of(self, block, index: int) -> bytes:
        """Data slice ``index`` of ``block`` (``index < k``)."""
        start = index * self.fragment_size
        return bytes(memoryview(block)[start : start + self.fragment_size])

    def split(self, block) -> list[bytes]:
        """All ``k`` data slices of ``block``."""
        view = memoryview(block)
        if view.nbytes != self.block_size:
            raise ReplicationError(
                f"stripe split expects {self.block_size} bytes, "
                f"got {view.nbytes}"
            )
        size = self.fragment_size
        return [bytes(view[i * size : (i + 1) * size]) for i in range(self.k)]

    def parity_of(self, slices: Sequence[bytes]) -> list[bytes]:
        """The ``m`` parity fragments coded from ``k`` data slices."""
        out = []
        for row in self.parity_rows:
            acc = np.zeros(self.fragment_size, dtype=np.uint8)
            for coeff, frag in zip(row, slices):
                _scale_xor_into(acc, frag, coeff)
            out.append(acc.tobytes())
        return out

    def parity_fragment(self, block, j: int) -> bytes:
        """Parity fragment ``j`` (``0 <= j < m``) of one full block."""
        return self.parity_of(self.split(block))[j]

    def encode(self, block) -> list[bytes]:
        """All ``n`` fragments of ``block``: ``k`` slices then ``m`` parity."""
        slices = self.split(block)
        return slices + self.parity_of(slices)

    def fragment_of(self, block, index: int) -> bytes:
        """Fragment ``index`` (data or parity) of one full block."""
        if index < self.k:
            return self.slice_of(block, index)
        return self.parity_fragment(block, index - self.k)

    # -- decode ---------------------------------------------------------------

    def reassemble(self, fragments: Mapping[int, bytes]) -> bytes:
        """Rebuild the full block from any ``k`` (or more) fragments.

        ``fragments`` maps fragment index to content.  When every data
        slice is present the block is a straight concatenation; otherwise
        a ``k x k`` GF(256) solve recovers the missing slices.
        """
        if all(i in fragments for i in range(self.k)):
            for i in range(self.k):
                if len(fragments[i]) != self.fragment_size:
                    raise ReplicationError(
                        f"fragment {i} is {len(fragments[i])} bytes, "
                        f"expected {self.fragment_size}"
                    )
            return b"".join(fragments[i] for i in range(self.k))
        return b"".join(self._solve_data(fragments))

    def decode_missing(self, index: int, fragments: Mapping[int, bytes]) -> bytes:
        """Recompute fragment ``index`` from ``k`` surviving fragments.

        The regenerating-style repair primitive: survivors contribute
        fragment-sized reads only, folded through XOR (with a GF(256)
        scale where a coefficient is not 1).
        """
        data = self._solve_data(fragments)
        if index < self.k:
            return data[index]
        row = self.parity_rows[index - self.k]
        acc = np.zeros(self.fragment_size, dtype=np.uint8)
        for coeff, frag in zip(row, data):
            _scale_xor_into(acc, frag, coeff)
        return acc.tobytes()

    def _solve_data(self, fragments: Mapping[int, bytes]) -> list[bytes]:
        """Recover all ``k`` data slices from any ``k`` available fragments."""
        chosen = sorted(fragments)[: self.k]
        if len(chosen) < self.k:
            raise ReplicationError(
                f"need {self.k} fragments to reassemble, "
                f"have {len(fragments)}"
            )
        for i in chosen:
            if len(fragments[i]) != self.fragment_size:
                raise ReplicationError(
                    f"fragment {i} is {len(fragments[i])} bytes, "
                    f"expected {self.fragment_size}"
                )
        matrix = [list(self._rows[i]) for i in chosen]
        inverse = _invert_matrix(matrix)
        out: list[bytes] = []
        for data_index in range(self.k):
            acc = np.zeros(self.fragment_size, dtype=np.uint8)
            for j, frag_index in enumerate(chosen):
                _scale_xor_into(
                    acc, fragments[frag_index], inverse[data_index][j]
                )
            out.append(acc.tobytes())
        return out


class FragmentView(BlockDevice):
    """Read-only fragment-``index`` view of a source volume.

    Geometry is the fragment tier's (``fragment_size`` x source blocks),
    so :func:`~repro.engine.sync.digest_sync` and the
    :mod:`~repro.engine.reconcile` session run against a fragment
    holder's device unchanged — this is what lets
    :meth:`~repro.engine.primary.PrimaryEngine.heal_link` reuse the
    whole GuardedLink heal ladder per-fragment.
    """

    def __init__(self, source: BlockDevice, codec: StripeCodec, index: int) -> None:
        if not 0 <= index < codec.n:
            raise ConfigurationError(
                f"fragment index {index} out of range for n={codec.n}"
            )
        if source.block_size != codec.block_size:
            raise ConfigurationError(
                f"source block size {source.block_size} does not match "
                f"codec block size {codec.block_size}"
            )
        super().__init__(codec.fragment_size, source.num_blocks)
        self._source = source
        self._codec = codec
        self._index = index

    @property
    def fragment_index(self) -> int:
        """Which of the ``n`` fragments this view exposes."""
        return self._index

    def _read(self, lba: int) -> bytes:
        """Compute fragment ``index`` of the source block on demand."""
        return self._codec.fragment_of(self._source.read_block(lba), self._index)

    def _write(self, lba: int, data: bytes) -> None:
        """Reject writes — the view derives from the source volume."""
        raise SyncError("FragmentView is read-only (derived from the source)")


class ParityCrcTracker:
    """Incremental CRC32 of every remote parity fragment.

    End-to-end verification needs each shipped record to carry the CRC of
    the block the replica will hold *after* applying it.  For data
    fragments that is a slice of ``A_new``; for parity fragments the
    primary holds no copy — but CRC32 is affine over GF(2), so for
    equal-length buffers ``crc(a ⊕ d) == crc(a) ⊕ crc(d) ⊕ crc(0)``,
    and 4 bytes per (block, parity fragment) suffice to track the exact
    CRC through every XOR-applied parity delta.
    """

    def __init__(self, codec: StripeCodec, device: BlockDevice) -> None:
        self._codec = codec
        self._zero_crc = zlib.crc32(bytes(codec.fragment_size))
        self._crcs = np.full(
            (device.num_blocks, codec.m), self._zero_crc, dtype=np.uint32
        )
        # a preloaded primary seeds from its actual contents; all-zero
        # blocks (the common fresh-volume case) keep the shared constant
        for lba in range(device.num_blocks):
            block = device.read_block(lba)
            if not is_zero(block):
                for j, parity in enumerate(codec.parity_of(codec.split(block))):
                    self._crcs[lba, j] = zlib.crc32(parity)

    def current(self, lba: int, j: int) -> int:
        """The tracked CRC of parity fragment ``j`` at ``lba``."""
        return int(self._crcs[lba, j])

    def advance(self, lba: int, j: int, parity_delta: bytes) -> int:
        """Fold one XOR-applied parity delta in; returns the new CRC."""
        new = (
            int(self._crcs[lba, j]) ^ zlib.crc32(parity_delta) ^ self._zero_crc
        )
        self._crcs[lba, j] = new
        return new

    def set(self, lba: int, j: int, crc: int) -> None:
        """Pin the tracked CRC (full-content overwrite paths)."""
        self._crcs[lba, j] = crc


@dataclass(frozen=True)
class RepairReport:
    """What one survivor-driven fragment rebuild cost.

    ``read_bytes`` are fragment-sized reads pulled from the ``k``
    survivors; ``written_bytes`` is what actually shipped to the
    replacement holder — ``volume / k``, the regenerating-repair win
    over a full re-mirror's ``volume``.
    """

    fragment_index: int
    blocks: int
    survivors: tuple[int, ...]
    read_bytes: int
    written_bytes: int


def repair_from_survivors(
    codec: StripeCodec,
    holders: Sequence[BlockDevice],
    failed_index: int,
    replacement: BlockDevice | None = None,
    accountant=None,
) -> RepairReport:
    """Rebuild fragment ``failed_index`` from ``k`` surviving holders.

    Reads fragment-sized pieces from the first ``k`` healthy holders,
    solves the missing fragment per block (a pure
    :func:`~repro.common.buffers.xor_bytes` fold when the coefficients
    allow), and writes it to ``replacement`` (default: the failed
    holder's device, assumed replaced/zeroed).  Charges the repair to
    ``accountant.record_repair`` when one is given, attributed to the
    failed fragment's channel — the per-fragment conservation law covers
    repair traffic too.
    """
    if len(holders) != codec.n:
        raise ConfigurationError(
            f"expected {codec.n} fragment holders, got {len(holders)}"
        )
    survivors = tuple(i for i in range(codec.n) if i != failed_index)[: codec.k]
    if len(survivors) < codec.k:
        raise ReplicationError(
            f"need {codec.k} survivors to repair fragment {failed_index}"
        )
    dest = replacement if replacement is not None else holders[failed_index]
    num_blocks = dest.num_blocks
    read_bytes = 0
    written = 0
    for lba in range(num_blocks):
        fragments = {i: holders[i].read_block(lba) for i in survivors}
        read_bytes += codec.k * codec.fragment_size
        rebuilt = codec.decode_missing(failed_index, fragments)
        dest.write_block(lba, rebuilt)
        written += codec.fragment_size
    if accountant is not None:
        accountant.record_repair(read_bytes, written, replica=failed_index)
    return RepairReport(
        fragment_index=failed_index,
        blocks=num_blocks,
        survivors=survivors,
        read_bytes=read_bytes,
        written_bytes=written,
    )


def stripe_full_sync(
    codec: StripeCodec, source: BlockDevice, holders: Sequence[BlockDevice]
) -> int:
    """Encode ``source`` onto every fragment holder (initial sync).

    The erasure tier's analogue of :func:`~repro.engine.sync.full_sync`;
    returns total bytes written across holders.
    """
    if len(holders) != codec.n:
        raise ConfigurationError(
            f"expected {codec.n} fragment holders, got {len(holders)}"
        )
    written = 0
    for lba, block in source.iter_blocks():
        for holder, fragment in zip(holders, codec.encode(block)):
            holder.write_block(lba, fragment)
            written += len(fragment)
    return written


def verify_fragments(
    codec: StripeCodec, source: BlockDevice, holders: Sequence[BlockDevice]
) -> dict[int, list[int]]:
    """Check every holder against its derived fragment of ``source``.

    Returns ``{fragment_index: [mismatched LBAs]}`` — empty when the
    whole stripe group is byte-identical to what the source implies (the
    erasure tier's consistency invariant, analogous to
    :func:`~repro.engine.sync.verify_consistency` per mirror).
    """
    mismatches: dict[int, list[int]] = {}
    for index, holder in enumerate(holders):
        view = FragmentView(source, codec, index)
        bad = [
            lba
            for lba in range(source.num_blocks)
            if view.read_block(lba) != holder.read_block(lba)
        ]
        if bad:
            mismatches[index] = bad
    return mismatches
