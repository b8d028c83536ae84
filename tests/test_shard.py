"""Tests for LBA-sharded multi-primary (repro.engine.shard).

The headline invariant: sharding is pure address arithmetic over shared
devices, so the primary volume, the replica images, and the shipped
payload bytes are all byte/count-identical to an unsharded run of the
same workload — only the internal ownership of LBAs changes.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ReplicationConfig, open_cluster, open_primary
from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError
from repro.engine import (
    AggregateAccountant,
    PrimaryEngine,
    ShardMap,
    ShardView,
    ShardedEngine,
)
from repro.engine.resilience import LinkHealth

BS = 512
N = 32


class TestShardMap:
    @pytest.mark.parametrize("policy", ["hash", "range"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_bijection(self, policy, shards):
        shard_map = ShardMap(shards, N, policy)
        seen = set()
        for lba in range(N):
            shard = shard_map.shard_of(lba)
            local = shard_map.local_of(lba)
            assert 0 <= shard < shards
            assert 0 <= local < shard_map.blocks_in(shard)
            assert shard_map.global_of(shard, local) == lba
            seen.add((shard, local))
        assert len(seen) == N  # injective

    @pytest.mark.parametrize("policy", ["hash", "range"])
    def test_blocks_in_partitions_the_space(self, policy):
        shard_map = ShardMap(3, N, policy)
        assert sum(shard_map.blocks_in(s) for s in range(3)) == N

    def test_hash_interleaves(self):
        shard_map = ShardMap(4, N)
        assert [shard_map.shard_of(lba) for lba in range(6)] == [
            0, 1, 2, 3, 0, 1,
        ]

    def test_range_is_contiguous(self):
        shard_map = ShardMap(4, 10, "range")
        assert [shard_map.shard_of(lba) for lba in range(10)] == [
            0, 0, 0, 1, 1, 1, 2, 2, 2, 3,
        ]

    def test_split_preserves_within_shard_order(self):
        shard_map = ShardMap(2, N)
        writes = [(0, b"a"), (1, b"b"), (2, b"c"), (0, b"d")]
        split = shard_map.split(writes)
        assert split[0] == [(0, b"a"), (1, b"c"), (0, b"d")]
        assert split[1] == [(0, b"b")]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0, N)
        with pytest.raises(ConfigurationError):
            ShardMap(5, 4)
        with pytest.raises(ConfigurationError):
            ShardMap(2, N, "modulo")


class TestShardView:
    def test_translates_to_shared_base(self):
        base = MemoryBlockDevice(BS, N)
        shard_map = ShardMap(2, N)
        views = [ShardView(base, shard_map, s) for s in range(2)]
        views[0].write_block(0, bytes([1]) * BS)  # global LBA 0
        views[1].write_block(0, bytes([2]) * BS)  # global LBA 1
        views[0].write_block(1, bytes([3]) * BS)  # global LBA 2
        assert base.read_block(0) == bytes([1]) * BS
        assert base.read_block(1) == bytes([2]) * BS
        assert base.read_block(2) == bytes([3]) * BS
        assert views[1].read_block(0) == bytes([2]) * BS

    def test_close_leaves_base_open(self):
        base = MemoryBlockDevice(BS, N)
        view = ShardView(base, ShardMap(2, N), 0)
        view.close()
        assert view.closed
        assert not base.closed
        base.write_block(0, bytes(BS))  # still usable

    def test_shard_bounds_checked(self):
        base = MemoryBlockDevice(BS, N)
        with pytest.raises(ConfigurationError):
            ShardView(base, ShardMap(2, N), 2)


def _workload(engine, seed=17, writes=120):
    rng = random.Random(seed)
    for _ in range(writes):
        lba = rng.randrange(N)
        engine.write_block(lba, bytes(rng.randrange(256) for _ in range(BS)))
    engine.write_many(
        [(lba, bytes(rng.randrange(256) for _ in range(BS))) for lba in range(8)]
    )
    engine.drain()


def _open(shards, read_policy="primary", **overrides):
    config = ReplicationConfig(
        block_size=BS, num_blocks=N, replicas=2, **overrides
    )
    return open_primary(config, shards=shards, read_policy=read_policy)


class TestShardedEngineIdentity:
    def test_default_is_plain_engine(self):
        with _open(shards=1) as stack:
            assert isinstance(stack.engine, PrimaryEngine)
            assert not isinstance(stack.engine, ShardedEngine)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_images_and_payload_match_unsharded(self, shards):
        with _open(shards=1) as flat:
            _workload(flat.engine)
            flat_primary = flat.device.snapshot()
            flat_replicas = [d.snapshot() for d in flat.replica_devices]
            flat_payload = flat.engine.accountant.payload_bytes
        with _open(shards=shards) as stack:
            assert isinstance(stack.engine, ShardedEngine)
            _workload(stack.engine)
            assert stack.device.snapshot() == flat_primary
            assert [
                d.snapshot() for d in stack.replica_devices
            ] == flat_replicas
            assert stack.engine.accountant.payload_bytes == flat_payload

    @pytest.mark.parametrize("shards", [2, 4])
    def test_routed_sharded_reads_match(self, shards):
        with _open(shards=shards, read_policy="replica") as stack:
            _workload(stack.engine)
            for lba in range(N):
                assert stack.engine.read_block(lba) == stack.device.read_block(
                    lba
                )
            snap = stack.engine.router_snapshot()
            assert snap["reads_replica"] == N

    def test_erasure_images_match_unsharded(self):
        def build(shards):
            return open_primary(
                ReplicationConfig(
                    block_size=BS,
                    num_blocks=N,
                    redundancy="erasure",
                    k=2,
                    n=4,
                ),
                shards=shards,
            )

        with build(1) as flat:
            _workload(flat.engine)
            flat_fragments = [d.snapshot() for d in flat.replica_devices]
        with build(2) as stack:
            _workload(stack.engine)
            assert [
                d.snapshot() for d in stack.replica_devices
            ] == flat_fragments


class TestShardedEngineOps:
    def test_write_many_splits_across_shards(self):
        with _open(shards=2) as stack:
            stack.engine.write_many(
                [(lba, bytes([lba + 1]) * BS) for lba in range(6)]
            )
            stack.engine.drain()
            for lba in range(6):
                assert stack.device.read_block(lba) == bytes([lba + 1]) * BS
            # hash interleave: LBAs 0,2,4 vs 1,3,5 — an even split
            per_shard = [
                e.accountant.writes_replicated for e in stack.engine.shards
            ]
            assert per_shard[0] == per_shard[1] > 0

    def test_aggregate_accountant_sums(self):
        with _open(shards=2) as stack:
            _workload(stack.engine)
            agg = stack.engine.accountant
            assert isinstance(agg, AggregateAccountant)
            assert agg.payload_bytes == sum(
                e.accountant.payload_bytes for e in stack.engine.shards
            )
            assert agg.data_bytes > 0
            assert agg.reduction_vs_data > 0
            stack.engine.verify_traffic_conservation()

    def test_aggregate_rejects_non_numeric(self):
        with _open(shards=2) as stack:
            with pytest.raises(AttributeError):
                stack.engine.accountant.no_such_counter

    def test_fail_heal_fans_out(self):
        config = ReplicationConfig(
            block_size=BS, num_blocks=N, replicas=2, resilient=True
        )
        with open_primary(config, shards=2) as stack:
            _workload(stack.engine)
            stack.engine.fail_link(0)
            assert stack.engine.link_health()[0] is LinkHealth.DOWN
            assert stack.engine.link_health()[1] is LinkHealth.HEALTHY
            stack.engine.write_block(0, bytes([9]) * BS)
            stack.engine.drain()
            assert stack.engine.backlog_depth(0) > 0
            outcomes = stack.engine.heal_link(0)
            assert len(outcomes) == 2  # one per shard
            assert stack.engine.link_health()[0] is LinkHealth.HEALTHY
            assert stack.engine.backlog_depth(0) == 0
            assert stack.replica_devices[0].snapshot() == (
                stack.device.snapshot()
            )

    def test_mismatched_engine_count_rejected(self):
        with _open(shards=2) as stack:
            with pytest.raises(ConfigurationError):
                ShardedEngine(
                    list(stack.engine.shards), ShardMap(3, N), stack.device
                )

    def test_accountant_kwarg_rejected_when_sharded(self):
        from repro.engine.accounting import TrafficAccountant

        config = ReplicationConfig(block_size=BS, num_blocks=N, shards=2)
        with pytest.raises(ConfigurationError):
            open_primary(config, accountant=TrafficAccountant())


class TestShardedCluster:
    def _cluster(self, shards, read_policy="primary"):
        config = ReplicationConfig(
            block_size=BS,
            num_blocks=N,
            nodes=4,
            replicas_per_node=2,
            resilient=True,
        )
        return open_cluster(config, shards=shards, read_policy=read_policy)

    def _drive(self, cluster, seed=23, writes=100):
        rng = random.Random(seed)
        for _ in range(writes):
            cluster.write(
                rng.randrange(4),
                rng.randrange(N),
                bytes(rng.randrange(256) for _ in range(BS)),
            )
        cluster.drain()

    def test_sharded_cluster_images_match_unsharded(self):
        flat = self._cluster(shards=1)
        self._drive(flat)
        assert flat.verify() == {}
        flat_images = [n.primary_device.snapshot() for n in flat.nodes]
        flat.close()

        sharded = self._cluster(shards=2, read_policy="replica")
        assert isinstance(sharded.nodes[0].engine, ShardedEngine)
        self._drive(sharded)
        assert sharded.verify() == {}
        assert [
            n.primary_device.snapshot() for n in sharded.nodes
        ] == flat_images
        sharded.verify_traffic_conservation()
        sharded.close()

    def test_failover_read_with_shards(self):
        cluster = self._cluster(shards=2)
        cluster.write(0, 5, bytes([0xAB]) * BS)
        cluster.fail_node(0)
        assert cluster.read(0, 5) == bytes([0xAB]) * BS
        outcomes = cluster.heal_node(0)
        assert all(len(v) == 2 for v in outcomes.values())  # per shard
        cluster.close()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(block_size=BS, num_blocks=N, shards=0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(block_size=BS, num_blocks=4, shards=8)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(block_size=BS, num_blocks=N, read_policy="x")
