"""Whole-stripe parity helpers."""

from __future__ import annotations

from collections.abc import Iterable

from repro.common.buffers import is_zero, xor_into


def stripe_parity(blocks: Iterable[bytes]) -> bytes:
    """XOR a set of equal-length blocks into their parity block."""
    accumulator: bytearray | None = None
    for block in blocks:
        if accumulator is None:
            accumulator = bytearray(block)
        else:
            xor_into(accumulator, block)
    if accumulator is None:
        raise ValueError("stripe_parity needs at least one block")
    return bytes(accumulator)


def verify_stripe(data_blocks: Iterable[bytes], parity_block: bytes) -> bool:
    """Return True if ``parity_block`` is the XOR of ``data_blocks``."""
    accumulator = bytearray(parity_block)
    for block in data_blocks:
        xor_into(accumulator, block)
    return is_zero(accumulator)


def reconstruct_block(surviving_blocks: Iterable[bytes]) -> bytes:
    """Rebuild a lost block from all other blocks in its stripe plus parity.

    In an XOR-parity stripe every block — data or parity — equals the XOR
    of all the others, so reconstruction and parity computation are the
    same fold.
    """
    return stripe_parity(surviving_blocks)
