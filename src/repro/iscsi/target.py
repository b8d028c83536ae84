"""The iSCSI target: serves one block device, hooks replication frames.

A :class:`Target` owns the protocol state machine for one session
(security-negotiation-free login → full-feature phase → logout) and
dispatches SCSI READ/WRITE to its LUN.  The vendor-specific
``REPL_DATA_OUT`` opcode is handed to a pluggable handler — the PRINS
replica engine registers itself there, exactly as the paper's PRINS-engine
"runs as a software module inside the iSCSI target" (Sec. 1).

:class:`~repro.iscsi.aio.AsyncTargetServer` runs one :class:`Target` per
TCP connection, so the networked examples can mirror across real sockets.
"""

from __future__ import annotations

import logging
from collections.abc import Callable

from repro.block.device import BlockDevice
from repro.common.errors import BlockRangeError, ProtocolError
from repro.iscsi.pdu import Opcode, Pdu, ScsiOp, Status
from repro.iscsi.transport import Transport, TransportClosedError
from repro.obs.dist import context_from_wire

logger = logging.getLogger(__name__)

#: Called with (lba, frame_bytes, ctx=...); returns the ack payload
#: (usually empty).  ``ctx`` is the carried
#: :class:`~repro.obs.dist.TraceContext`, or None when the request PDU
#: brought none.
ReplicationHandler = Callable[..., bytes]

#: Called with (packed_batch_bytes, ctx=...); returns the batch ack
#: payload.  Same ``ctx`` keyword as :data:`ReplicationHandler`.
BatchHandler = Callable[..., bytes]


class Target:
    """Protocol engine for one session against one LUN."""

    def __init__(
        self,
        device: BlockDevice,
        name: str = "iqn.2006-01.edu.uri.hpcl:prins",
        replication_handler: ReplicationHandler | None = None,
        batch_handler: BatchHandler | None = None,
    ) -> None:
        self._device = device
        self._name = name
        self._replication_handler = replication_handler
        self._batch_handler = batch_handler
        self._logged_in = False
        self._stat_sn = 0

    @property
    def name(self) -> str:
        """The target's IQN-style name."""
        return self._name

    @property
    def device(self) -> BlockDevice:
        """The LUN this target serves."""
        return self._device

    def set_replication_handler(self, handler: ReplicationHandler) -> None:
        """Install the callback invoked for every ``REPL_DATA_OUT`` PDU."""
        self._replication_handler = handler

    def set_batch_handler(self, handler: BatchHandler) -> None:
        """Install the callback invoked for every ``REPL_BATCH_OUT`` PDU."""
        self._batch_handler = handler

    # -- session loop -------------------------------------------------------

    def serve(self, transport: Transport) -> None:
        """Process PDUs from ``transport`` until logout or disconnect."""
        try:
            while True:
                try:
                    request = transport.receive()
                except TransportClosedError:
                    return
                response = self.handle(request)
                if response is not None:
                    transport.send(response)
                if request.opcode is Opcode.LOGOUT_REQUEST:
                    return
        finally:
            transport.close()

    def handle(self, request: Pdu) -> Pdu | None:
        """Handle a single request PDU; return the response (or None)."""
        self._stat_sn += 1
        handlers = {
            Opcode.LOGIN_REQUEST: self._handle_login,
            Opcode.SCSI_COMMAND: self._handle_scsi,
            Opcode.REPL_DATA_OUT: self._handle_replication,
            Opcode.REPL_BATCH_OUT: self._handle_batch,
            Opcode.NOP_OUT: self._handle_nop,
            Opcode.LOGOUT_REQUEST: self._handle_logout,
        }
        handler = handlers.get(request.opcode)
        if handler is None:
            raise ProtocolError(f"target cannot handle opcode {request.opcode!r}")
        if request.opcode is not Opcode.LOGIN_REQUEST and not self._logged_in:
            return self._respond(
                request, Opcode.SCSI_RESPONSE, status=Status.PROTOCOL_VIOLATION
            )
        return handler(request)

    # -- opcode handlers ------------------------------------------------------

    def _handle_login(self, request: Pdu) -> Pdu:
        requested = request.data.decode("utf-8", errors="replace")
        if requested and requested != self._name:
            logger.warning("login rejected: wanted %r, serving %r", requested, self._name)
            return self._respond(
                request, Opcode.LOGIN_RESPONSE, status=Status.LOGIN_REJECT
            )
        self._logged_in = True
        params = (
            f"TargetName={self._name};BlockSize={self._device.block_size};"
            f"NumBlocks={self._device.num_blocks}"
        )
        return self._respond(
            request, Opcode.LOGIN_RESPONSE, data=params.encode("utf-8")
        )

    def _handle_scsi(self, request: Pdu) -> Pdu:
        try:
            op = ScsiOp(request.flags)
        except ValueError:
            raise ProtocolError(f"unknown SCSI op {request.flags:#04x}") from None
        try:
            if op is ScsiOp.READ:
                data = self._device.read_blocks(request.lba, request.transfer_length)
                return self._respond(request, Opcode.SCSI_DATA_IN, data=data)
            self._device.write_blocks(request.lba, request.data)
            return self._respond(request, Opcode.SCSI_RESPONSE)
        except BlockRangeError:
            return self._respond(
                request, Opcode.SCSI_RESPONSE, status=Status.INVALID_LBA
            )

    def _handle_replication(self, request: Pdu) -> Pdu:
        if self._replication_handler is None:
            logger.warning("replication frame received but no handler installed")
            return self._respond(
                request, Opcode.REPL_ACK, status=Status.PROTOCOL_VIOLATION
            )
        ctx = context_from_wire(request.trace_id, request.parent_span)
        ack_payload = self._replication_handler(request.lba, request.data, ctx=ctx)
        return self._respond(request, Opcode.REPL_ACK, data=ack_payload)

    def _handle_batch(self, request: Pdu) -> Pdu:
        if self._batch_handler is None:
            logger.warning("replication batch received but no handler installed")
            return self._respond(
                request, Opcode.REPL_BATCH_ACK, status=Status.PROTOCOL_VIOLATION
            )
        ctx = context_from_wire(request.trace_id, request.parent_span)
        ack_payload = self._batch_handler(request.data, ctx=ctx)
        return self._respond(request, Opcode.REPL_BATCH_ACK, data=ack_payload)

    def _handle_nop(self, request: Pdu) -> Pdu:
        return self._respond(request, Opcode.NOP_IN, data=request.data)

    def _handle_logout(self, request: Pdu) -> Pdu:
        self._logged_in = False
        return self._respond(request, Opcode.LOGOUT_RESPONSE)

    def _respond(
        self,
        request: Pdu,
        opcode: Opcode,
        status: Status = Status.GOOD,
        data: bytes = b"",
    ) -> Pdu:
        return Pdu(
            opcode=opcode,
            status=int(status),
            itt=request.itt,
            lba=request.lba,
            seq=self._stat_sn,
            data=data,
        )
