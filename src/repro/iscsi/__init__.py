"""A compact iSCSI-flavoured network storage protocol.

The paper's prototype runs inside an iSCSI target (UNH implementation on
Linux, the authors' own on Windows) and uses a second iSCSI
initiator/target pair between PRINS-engines for replication traffic
(Sec. 2).  This package reproduces that substrate in pure Python:

* :mod:`repro.iscsi.pdu` — binary PDUs with a real 48-byte Basic Header
  Segment, so on-wire byte accounting is honest;
* :mod:`repro.iscsi.transport` — in-process and TCP transports with byte
  counters;
* :mod:`repro.iscsi.target` — a target exposing one
  :class:`~repro.block.device.BlockDevice` as a LUN, plus a vendor-specific
  replication opcode that the PRINS replica engine hooks;
* :mod:`repro.iscsi.initiator` — the client side (login, READ/WRITE,
  replication frames, logout);
* :mod:`repro.iscsi.aio` — the networked server: one event-loop thread
  multiplexing thousands of TCP sessions as tasks instead of threads.

Scope: login/logout and the full-feature phase commands needed by the
engines.  No CHAP, no multi-connection sessions, no task management — see
DESIGN.md Sec. 6.
"""

from repro.iscsi.aio import AsyncTargetServer, EventLoopThread
from repro.iscsi.initiator import Initiator
from repro.iscsi.pdu import Opcode, Pdu
from repro.iscsi.target import Target
from repro.iscsi.transport import (
    InProcessTransport,
    TcpTransport,
    Transport,
    transport_pair,
)

__all__ = [
    "AsyncTargetServer",
    "EventLoopThread",
    "InProcessTransport",
    "Initiator",
    "Opcode",
    "Pdu",
    "Target",
    "TcpTransport",
    "Transport",
    "transport_pair",
]
