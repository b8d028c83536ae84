"""API-surface snapshot: the public facade must not drift silently.

Pins the exported names of :mod:`repro.api`, the fields of
:class:`~repro.api.ReplicationConfig`, and the engine-package exports the
facade is built on.  A failing test here means a (possibly accidental)
public-API change: update the snapshot *deliberately*, in the same commit
that documents the change.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro
import repro.api as api
import repro.engine as engine
from repro.common.errors import ConfigurationError

#: the complete public surface of repro.api
API_EXPORTS = {
    "ObservabilityConfig",
    "PrimaryStack",
    "ReplicationConfig",
    "open_cluster",
    "open_primary",
}

#: every ReplicationConfig field, in declaration order
CONFIG_FIELDS = (
    "strategy",
    "codec",
    "block_size",
    "num_blocks",
    "replicas",
    "nodes",
    "replicas_per_node",
    "redundancy",
    "k",
    "n",
    "batch_records",
    "batch_bytes",
    "old_block_cache",
    "fanout",
    "window",
    "link_latency_s",
    "per_link_latency_s",
    "latency_jitter",
    "transport",
    "workers",
    "read_policy",
    "shards",
    "resilient",
    "max_attempts",
    "backlog_capacity_bytes",
    "resync",
    "verify_acks",
    "telemetry",
    "observability",
    "seed",
)

#: engine exports the redesign added (scheduler + unified work protocol)
ENGINE_SCHEDULER_EXPORTS = {
    "FanoutScheduler",
    "LatencyLink",
    "ReplicaChannel",
    "SchedulerConfig",
    "ShipWork",
    "SimClock",
    "ConservationError",
    "ReplicaTraffic",
}


#: engine exports the read-scaling tier added (router + sharding)
ENGINE_SCALEOUT_EXPORTS = {
    "AggregateAccountant",
    "READ_POLICIES",
    "ReadRouter",
    "ShardMap",
    "ShardView",
    "ShardedEngine",
}


#: engine exports the concurrency tier added (the fan-out worker backends)
ENGINE_CONCURRENCY_EXPORTS = {
    "WORKER_BACKENDS",
}

#: engine exports deleted with the tiers they fronted; they must stay gone
ENGINE_REMOVED_EXPORTS = {
    "AsyncPrimaryEngine",
    "AsyncReplicator",
    "CodecWorkerPool",
    "ErasureConfig",
    "ErasurePool",
}


#: iscsi exports of the networked target
ISCSI_AIO_EXPORTS = {
    "AsyncTargetServer",
    "EventLoopThread",
}

#: the thread-per-session target and the asyncio client, deleted
ISCSI_REMOVED_EXPORTS = {
    "AsyncInitiator",
    "AsyncTcpTransport",
    "TargetServer",
}


def test_api_all_is_exact():
    assert set(api.__all__) == API_EXPORTS
    for name in API_EXPORTS:
        assert hasattr(api, name), f"repro.api.{name} missing"


def test_api_reexported_from_repro():
    for name in API_EXPORTS:
        assert name in repro.__all__, f"repro.{name} not re-exported"
        assert getattr(repro, name) is getattr(api, name)


def test_replication_config_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(api.ReplicationConfig))
    assert fields == CONFIG_FIELDS


def test_replication_config_is_frozen():
    params = dataclasses.fields(api.ReplicationConfig)
    assert api.ReplicationConfig.__dataclass_params__.frozen
    assert all(f.init for f in params)


def test_engine_exports_scheduler_surface():
    missing = ENGINE_SCHEDULER_EXPORTS - set(engine.__all__)
    assert not missing, f"engine exports missing: {sorted(missing)}"


def test_engine_exports_scaleout_surface():
    missing = ENGINE_SCALEOUT_EXPORTS - set(engine.__all__)
    assert not missing, f"engine exports missing: {sorted(missing)}"


def test_engine_exports_concurrency_surface():
    missing = ENGINE_CONCURRENCY_EXPORTS - set(engine.__all__)
    assert not missing, f"engine exports missing: {sorted(missing)}"
    assert engine.WORKER_BACKENDS == ("inline", "threads")
    assert not ENGINE_REMOVED_EXPORTS & set(engine.__all__)
    for name in ENGINE_REMOVED_EXPORTS:
        assert not hasattr(engine, name), f"repro.engine.{name} is back"


def test_removed_concurrency_knobs_are_rejected():
    """The process-pool fields, the scheduler_mode alias and the
    thread-per-session ``transport="tcp"`` tier do not load.

    The removed fields are rejected as unknown keys even at what used to
    be their default values.
    """
    removed = ({"worker_count": 0}, {"ring_slots": 8}, {"scheduler_mode": "threads"})
    for raw in removed:
        with pytest.raises(ConfigurationError, match="unknown"):
            api.ReplicationConfig.from_dict(raw)
    with pytest.raises(ConfigurationError, match="workers"):
        api.ReplicationConfig(workers="process")
    with pytest.raises(ConfigurationError, match="transport"):
        api.ReplicationConfig(transport="tcp")
    with pytest.raises(ConfigurationError, match="transport"):
        api.ReplicationConfig.from_dict({"transport": "tcp"})


def test_iscsi_exports_aio_surface():
    import repro.iscsi as iscsi

    missing = ISCSI_AIO_EXPORTS - set(iscsi.__all__)
    assert not missing, f"iscsi exports missing: {sorted(missing)}"
    for name in ISCSI_AIO_EXPORTS:
        assert hasattr(iscsi, name), f"repro.iscsi.{name} missing"
    for name in ISCSI_REMOVED_EXPORTS:
        for module in (iscsi, repro):
            assert name not in module.__all__, f"{module.__name__}.{name}"
            assert not hasattr(module, name), f"{module.__name__}.{name} is back"


def test_open_primary_signature_is_stable():
    signature = inspect.signature(api.open_primary)
    assert list(signature.parameters) == [
        "config",
        "shards",
        "read_policy",
        "initial_image",
        "link_factory",
        "telemetry_name",
        "accountant",
        "resilience",
    ]


def test_open_cluster_signature_is_stable():
    signature = inspect.signature(api.open_cluster)
    assert list(signature.parameters) == [
        "config",
        "shards",
        "read_policy",
        "placement",
        "link_factory",
        "resilience",
    ]


def test_link_protocol_surface():
    """submit() is the whole protocol; the ship/ship_batch aliases are gone."""
    from repro.engine.links import ReplicaLink

    assert callable(ReplicaLink.submit)
    assert not hasattr(ReplicaLink, "ship")
    assert not hasattr(ReplicaLink, "ship_batch")
