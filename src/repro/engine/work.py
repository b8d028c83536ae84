"""Unified ship submission: one value type for records and batches.

:class:`ShipWork` is one immutable value describing *what goes on the
wire for one submission* — a single :class:`~repro.engine.messages
.ReplicationRecord` or a multi-segment :class:`~repro.engine.batch
.ShipBatch` — so every link decorator
(:class:`~repro.engine.resilience.FaultyLink`,
:class:`~repro.engine.resilience.ResilientLink`, …) handles both through
one code path.  It is carried through the single
:meth:`repro.engine.links.ReplicaLink.submit` entry point and through the
fan-out scheduler (:mod:`repro.engine.scheduler`), which needs exactly
one submission surface per replica channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import ReplicationError
from repro.engine.batch import ShipBatch, unpack_batch_ack
from repro.engine.messages import ReplicationRecord
from repro.engine.replica import ReplicaEngine
from repro.obs.dist import TraceContext

__all__ = ["ShipWork"]


@dataclass(frozen=True)
class ShipWork:
    """One unit of replication work bound for a replica link.

    Exactly one of ``record`` / ``batch`` is set.  ``lba`` is the target
    block for single records and the first segment's LBA for batches
    (informational — batch segments carry their own LBAs on the wire).

    ``ctx`` is the optional causal trace context of the originating write
    span (:mod:`repro.obs.dist`): it rides with the work through the
    scheduler's worker threads and onto the iSCSI BHS, and is excluded
    from equality/repr — two submissions shipping the same bytes are the
    same work whether or not tracing happened to be on.

    ``fragment`` tags erasure-tier submissions with their stripe position
    (``0..n-1``) so journal replay, tracing, and tests can tell which
    coded fragment a record carries; ``None`` for mirror traffic.  The
    wire format is unchanged — a fragment is an ordinary record whose
    payload happens to be ``1/k`` of a block (or parity thereof).
    """

    lba: int
    record: ReplicationRecord | None = None
    batch: ShipBatch | None = None
    ctx: TraceContext | None = field(default=None, compare=False, repr=False)
    fragment: int | None = None

    def __post_init__(self) -> None:
        """Enforce the record-xor-batch invariant."""
        if (self.record is None) == (self.batch is None):
            raise ReplicationError(
                "ShipWork must carry exactly one of record/batch"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_record(
        cls,
        lba: int,
        record: ReplicationRecord,
        ctx: TraceContext | None = None,
        fragment: int | None = None,
    ) -> "ShipWork":
        """Wrap a single replication record (optionally a stripe fragment)."""
        return cls(lba=lba, record=record, ctx=ctx, fragment=fragment)

    @classmethod
    def for_batch(
        cls, batch: ShipBatch, ctx: TraceContext | None = None
    ) -> "ShipWork":
        """Wrap a multi-segment batch (lba = first segment's LBA)."""
        lba = batch.entries[0].lba if batch.entries else 0
        return cls(lba=lba, batch=batch, ctx=ctx)

    # -- introspection -------------------------------------------------------

    @property
    def is_batch(self) -> bool:
        """True when this submission is a multi-segment batch."""
        return self.batch is not None

    @property
    def last_seq(self) -> int:
        """Highest sequence number this submission carries."""
        if self.batch is not None:
            return self.batch.last_seq
        assert self.record is not None
        return self.record.seq

    @property
    def record_count(self) -> int:
        """Wire records in this submission (1 for a single record)."""
        return self.batch.record_count if self.batch is not None else 1

    @property
    def wire_size(self) -> int:
        """Payload bytes this submission puts on the wire (sans PDU header)."""
        if self.batch is not None:
            return len(self.batch.pack())
        assert self.record is not None
        return self.record.wire_size

    def pack(self) -> bytes:
        """Serialize the payload (record or batch) to wire bytes."""
        if self.batch is not None:
            return self.batch.pack()
        assert self.record is not None
        return self.record.pack()

    def records(self) -> Iterator[tuple[int, ReplicationRecord]]:
        """Iterate ``(lba, record)`` constituents in sequence order.

        Used by the resilience layer to disaggregate a failed submission
        into individually journaled records (replay then needs no batch
        awareness).
        """
        if self.batch is not None:
            for entry in self.batch:
                yield entry.lba, entry.record
        else:
            assert self.record is not None
            yield self.lba, self.record

    # -- verification --------------------------------------------------------

    def verify_ack(self, ack: bytes) -> None:
        """Raise :class:`ReplicationError` unless ``ack`` matches this work.

        Single records check the acked sequence number against
        :attr:`ReplicationRecord.seq`; batches check the batch ack's last
        sequence number — the same checks the engine's sequential fan-out
        performs inline, factored here so the pipelined scheduler and the
        legacy path verify identically.
        """
        if self.batch is not None:
            last_seq, _applied, _dups = unpack_batch_ack(ack)
            if last_seq != self.batch.last_seq:
                raise ReplicationError(
                    f"replica acked batch seq {last_seq}, "
                    f"expected {self.batch.last_seq}"
                )
            return
        assert self.record is not None
        seq, _status = ReplicaEngine.parse_ack(ack)
        if seq != self.record.seq:
            raise ReplicationError(
                f"replica acked seq {seq}, expected {self.record.seq}"
            )
