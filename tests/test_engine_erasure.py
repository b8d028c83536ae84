"""Single-parity erasure: the stripe tier at ``n = k + 1`` (m = 1).

The RAID-5 shape of the erasure tier, driven through :mod:`repro.api`:
PRINS deltas become parity updates on one parity holder, an unchanged
rewrite ships nothing, and writes keep flowing while one holder is down.
"""

from __future__ import annotations

from repro.api import ReplicationConfig, open_primary
from repro.common.rng import make_rng

BS = 64
N_BLOCKS = 8
K = 4


def _single_parity_config(**overrides) -> ReplicationConfig:
    defaults = dict(
        block_size=BS,
        num_blocks=N_BLOCKS,
        redundancy="erasure",
        k=K,
        n=K + 1,
        strategy="prins",
    )
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


class TestDataPath:
    def test_unchanged_write_ships_nothing(self):
        with open_primary(_single_parity_config()) as stack:
            data = bytearray(bytes([7]) * BS)
            stack.engine.write_block(5, bytes(data))
            stack.drain()
            accountant = stack.engine.accountant
            before = accountant.fragments_shipped
            elided = accountant.fragments_elided
            data[0] ^= 0xFF  # touch only fragment 0's slice
            stack.engine.write_block(5, bytes(data))
            stack.drain()
            # fragment 0 plus the one parity fragment ship; slices 1..3 elide
            assert accountant.fragments_shipped == before + 2
            assert accountant.fragments_elided == elided + 3
            assert stack.verify()
            skipped = accountant.writes_skipped
            shipped_bytes = accountant.payload_bytes
            stack.engine.write_block(5, bytes(data))  # identical rewrite
            stack.drain()
            assert accountant.writes_skipped == skipped + 1
            assert accountant.fragments_shipped == before + 2
            assert accountant.payload_bytes == shipped_bytes


class TestFailureRecovery:
    def test_writes_continue_while_degraded(self):
        rng = make_rng(41, "single-parity")
        writes = [
            (
                int(rng.integers(0, N_BLOCKS)),
                rng.integers(0, 256, BS, dtype="u1").tobytes(),
            )
            for _ in range(20)
        ]
        down = 0  # a data holder: its reads must be reconstructed
        with open_primary(_single_parity_config(resilient=True)) as stack:
            for lba, data in writes[:8]:
                stack.engine.write_block(lba, data)
            stack.engine.fail_link(down)
            for lba, data in writes[8:]:  # still writable
                stack.engine.write_block(lba, data)
            stack.drain()
            assert not stack.verify()  # the downed holder is behind
            for lba in range(N_BLOCKS):
                assert (
                    stack.read_striped(lba, exclude=(down,))
                    == stack.device.read_block(lba)
                )
            outcome = stack.engine.heal_link(down)
            assert "replay" in outcome.tiers
            stack.drain()
            assert stack.verify()
            stack.engine.verify_traffic_conservation()
