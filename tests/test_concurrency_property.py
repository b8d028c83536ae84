"""Property suite: the concurrency tiers are observationally invisible.

The concurrency contract is *exact equivalence*: whatever combination of
``transport`` (inline / asyncio) and ``workers`` (inline / threads)
is configured, the primary image, every replica image, the traffic
ledger, and accounting conservation must be byte-for-byte identical to
the plain inline stack — across codec × strategy × fanout.  Hypothesis
drives random write schedules through paired stacks and compares
everything that can be compared.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReplicationConfig, open_primary

BS = 256
N = 8

write_lists = st.lists(
    st.tuples(st.integers(0, N - 1), st.binary(min_size=BS, max_size=BS)),
    max_size=24,
)

#: (strategy, codec) pairs covering the paper's three bars + pinned codecs
strategy_codecs = st.sampled_from(
    [
        ("prins", None),
        ("prins", "rle+zlib"),
        ("prins", "sparse"),
        ("compressed", "zlib"),
        ("traditional", None),
    ]
)

fanouts = st.sampled_from(["sequential", "pipelined"])


def _run(writes, strategy, codec, fanout, **concurrency):
    """Drive one stack and capture everything observable about it."""
    config = ReplicationConfig(
        block_size=BS,
        num_blocks=N,
        replicas=2,
        strategy=strategy,
        codec=codec,
        fanout=fanout,
        **concurrency,
    )
    with open_primary(config) as stack:
        stack.engine.write_many(writes)
        stack.drain()
        assert stack.verify()
        accountant = stack.engine.accountant
        accountant.verify_conservation()
        return {
            "primary": stack.device.snapshot(),
            "replicas": [d.snapshot() for d in stack.replica_devices],
            "ledger": accountant.snapshot(),
        }


@settings(max_examples=8, deadline=None)
@given(writes=write_lists, strategy_codec=strategy_codecs, fanout=fanouts)
def test_asyncio_transport_identical_to_inline(writes, strategy_codec, fanout):
    """transport="asyncio": images + full ledger match the inline stack."""
    strategy, codec = strategy_codec
    inline = _run(writes, strategy, codec, fanout)
    asyncio_tier = _run(
        writes, strategy, codec, fanout, transport="asyncio"
    )
    assert asyncio_tier == inline


@settings(max_examples=5, deadline=None)
@given(writes=write_lists)
def test_threads_asyncio_combo_identical_to_inline(writes):
    """Both tiers stacked together still change nothing observable."""
    inline = _run(writes, "prins", None, "pipelined")
    combo = _run(
        writes,
        "prins",
        None,
        "pipelined",
        transport="asyncio",
        workers="threads",
    )
    assert combo == inline


@settings(max_examples=6, deadline=None)
@given(writes=write_lists, batch=st.sampled_from([None, 4]))
def test_batched_shipping_survives_the_tiers(writes, batch):
    """REPL_BATCH_OUT amortization is tier-independent too."""
    inline = _run(writes, "prins", None, "sequential", batch_records=batch)
    networked = _run(
        writes, "prins", None, "sequential", batch_records=batch,
        transport="asyncio",
    )
    assert networked == inline
