"""The PRINS stack each workload replays through.

``tpcc`` and ``tpcw`` use :func:`repro.api.open_primary` with in-process
replicas behind ``DirectLink``.  ``tar-iscsi`` ships every record through
the iSCSI initiator, PDU framing and target to one replica, over an
in-memory pipe that the target serves inline (README.md explains why not
loopback TCP).
"""

from __future__ import annotations

import queue
from typing import Any

from repro.api import ReplicationConfig, open_primary
from repro.block.memory import MemoryBlockDevice
from repro.engine.links import InitiatorLink
from repro.engine.primary import PrimaryEngine
from repro.engine.replica import ReplicaEngine
from repro.engine.strategy import make_strategy
from repro.engine.sync import full_sync
from repro.iscsi.initiator import Initiator
from repro.iscsi.target import Target
from repro.iscsi.transport import InProcessTransport
from streams import BLOCK_SIZE, NUM_BLOCKS

#: the paper's default engine: prins/zero-RLE, inline links, sequential
#: fan-out, per-write shipping, two mirrors
TPCC_CONFIG = ReplicationConfig(
    block_size=BLOCK_SIZE, num_blocks=NUM_BLOCKS, replicas=2
)

#: read-mostly: pipelined fan-out, reads routed to conflict-free replicas,
#: an A_old cache smaller than the write working set
TPCW_CONFIG = ReplicationConfig(
    block_size=BLOCK_SIZE,
    num_blocks=NUM_BLOCKS,
    replicas=2,
    fanout="pipelined",
    read_policy="replica",
    old_block_cache=16,
)


class LocalStack:
    """An :func:`open_primary` stack with in-process replicas."""

    def __init__(self, config: ReplicationConfig, base_image: bytes) -> None:
        self._stack = open_primary(config, initial_image=base_image)
        self.engine = self._stack.engine

    def verify(self) -> bool:
        """Every replica image equals the primary's."""
        return self._stack.verify()

    def close(self) -> None:
        """Drain and close the engine and its replicas."""
        self._stack.close()


class ServedTransport(InProcessTransport):
    """Initiator end of an in-memory PDU pipe whose target answers inline.

    Each PDU the initiator sends is serialized onto the pipe, parsed at
    the target end, handled by ``target`` and its response queued for the
    initiator's next ``receive``, all on the caller's thread.  The PDUs
    and byte counts are those of a socket session; no thread hand-off or
    socket round trip is timed.
    """

    def __init__(self, target: Target) -> None:
        to_target: queue.Queue[object] = queue.Queue()
        to_initiator: queue.Queue[object] = queue.Queue()
        super().__init__(outbox=to_target, inbox=to_initiator)
        self._target_end = InProcessTransport(outbox=to_initiator, inbox=to_target)
        self._target = target

    def _send_raw(self, raw: bytes) -> None:
        super()._send_raw(raw)
        response = self._target.handle(self._target_end.receive(timeout=0))
        if response is not None:
            self._target_end.send(response)


class IscsiStack:
    """A primary shipping through an iSCSI session to one replica target."""

    def __init__(self, base_image: bytes) -> None:
        device = MemoryBlockDevice(BLOCK_SIZE, NUM_BLOCKS)
        device.load(base_image)
        self._replica_device = MemoryBlockDevice(BLOCK_SIZE, NUM_BLOCKS)
        full_sync(device, self._replica_device)
        replica = ReplicaEngine(self._replica_device, make_strategy("prins"))
        target = Target(
            self._replica_device,
            replication_handler=replica.receive,
            batch_handler=replica.receive_batch,
        )
        link = InitiatorLink(Initiator(ServedTransport(target)))  # logs in
        self.engine = PrimaryEngine(device, make_strategy("prins"), [link])

    def verify(self) -> bool:
        """The replica image equals the primary's."""
        return self._replica_device.snapshot() == self.engine.device.snapshot()

    def close(self) -> None:
        """Close the engine, which logs the iSCSI session out."""
        self.engine.close()


def build_stack(workload: str, base_image: bytes) -> Any:
    """Build the stack a workload replays through (this is ``setup_s``)."""
    if workload == "tpcc":
        return LocalStack(TPCC_CONFIG, base_image)
    if workload == "tpcw":
        return LocalStack(TPCW_CONFIG, base_image)
    if workload == "tar-iscsi":
        return IscsiStack(base_image)
    raise ValueError(f"unknown workload {workload!r}")
