"""PRINS: Parity Replication in IP-Network Storages — full reproduction.

Reproduces Yang, Xiao & Ren, *PRINS: Optimizing Performance of Reliable
Internet Storages* (ICDCS 2006): a block-level replication scheme that
ships the encoded parity delta ``P' = A_new XOR A_old`` instead of the
block itself, recovering ``A_new = P' XOR A_old`` at each replica.

Quick start (the :mod:`repro.api` front door)::

    from repro import ReplicationConfig, open_primary

    config = ReplicationConfig(strategy="prins", block_size=8192)
    with open_primary(config) as stack:
        stack.engine.write_block(0, b"x" * 8192)   # ships a tiny delta
        print(stack.engine.accountant.payload_bytes)

The pieces the factory wires (``MemoryBlockDevice``, ``PrimaryEngine``,
``ReplicaEngine``, ``DirectLink``, ``make_strategy``, …) stay public for
hand-assembly when an experiment needs a custom topology.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.api import (
    ObservabilityConfig,
    PrimaryStack,
    ReplicationConfig,
    open_cluster,
    open_primary,
)
from repro.block import (
    BlockDevice,
    CachedDevice,
    ChecksumDevice,
    CountingDevice,
    FileBlockDevice,
    MemoryBlockDevice,
    SparseBlockDevice,
)
from repro.cdp import ParityLog, RecoveryPoint, recover_block, recover_image
from repro.engine import (
    CompressedBlockStrategy,
    DirectLink,
    FullBlockStrategy,
    InitiatorLink,
    PrimaryEngine,
    PrinsStrategy,
    ReplicaEngine,
    TrafficAccountant,
    digest_sync,
    full_sync,
    make_strategy,
    verify_consistency,
)
from repro.fs import FileSystem
from repro.iscsi import (
    AsyncTargetServer,
    Initiator,
    Target,
    TcpTransport,
    transport_pair,
)
from repro.minidb import Column, ColumnType, Database, Schema
from repro.parity import backward_parity, forward_parity, get_codec
from repro.queueing import ReplicationNetworkModel, StrategyTraffic, T1, T3
from repro.raid import Raid0Array, Raid1Array, Raid4Array, Raid5Array

__version__ = "1.0.0"

__all__ = [
    "AsyncTargetServer",
    "BlockDevice",
    "CachedDevice",
    "ChecksumDevice",
    "Column",
    "ColumnType",
    "CompressedBlockStrategy",
    "CountingDevice",
    "Database",
    "DirectLink",
    "FileBlockDevice",
    "FileSystem",
    "FullBlockStrategy",
    "Initiator",
    "InitiatorLink",
    "MemoryBlockDevice",
    "ObservabilityConfig",
    "ParityLog",
    "PrimaryEngine",
    "PrimaryStack",
    "PrinsStrategy",
    "Raid0Array",
    "Raid1Array",
    "Raid4Array",
    "Raid5Array",
    "RecoveryPoint",
    "ReplicaEngine",
    "ReplicationConfig",
    "ReplicationNetworkModel",
    "Schema",
    "SparseBlockDevice",
    "StrategyTraffic",
    "T1",
    "T3",
    "Target",
    "TcpTransport",
    "TrafficAccountant",
    "backward_parity",
    "digest_sync",
    "forward_parity",
    "full_sync",
    "get_codec",
    "make_strategy",
    "open_cluster",
    "open_primary",
    "recover_block",
    "recover_image",
    "transport_pair",
    "verify_consistency",
    "__version__",
]
