"""Tests for the iSCSI substrate: PDUs, transports, initiator/target."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.common.errors import ProtocolError
from repro.iscsi import (
    AsyncTargetServer,
    Initiator,
    Opcode,
    Pdu,
    Target,
    TcpTransport,
    transport_pair,
)
from repro.iscsi.pdu import BHS_SIZE, ScsiOp, Status
from repro.iscsi.transport import TransportClosedError

BS = 512


class TestPdu:
    def test_pack_unpack_roundtrip(self):
        pdu = Pdu(
            opcode=Opcode.SCSI_COMMAND,
            flags=int(ScsiOp.WRITE),
            itt=7,
            lba=123456789,
            transfer_length=4,
            seq=99,
            data=b"payload",
        )
        parsed = Pdu.unpack(pdu.pack())
        assert parsed == pdu

    def test_wire_size(self):
        pdu = Pdu(opcode=Opcode.NOP_OUT, data=b"x" * 100)
        assert pdu.wire_size == BHS_SIZE + 100
        assert len(pdu.pack()) == pdu.wire_size

    def test_header_is_48_bytes(self):
        assert BHS_SIZE == 48  # matches real iSCSI BHS

    def test_unknown_opcode(self):
        raw = bytearray(Pdu(opcode=Opcode.NOP_OUT).pack())
        raw[0] = 0xEE
        with pytest.raises(ProtocolError, match="unknown opcode"):
            Pdu.unpack(bytes(raw))

    def test_data_length_mismatch(self):
        raw = Pdu(opcode=Opcode.NOP_OUT, data=b"abc").pack()
        with pytest.raises(ProtocolError):
            Pdu.unpack(raw[:-1])

    @settings(max_examples=30, deadline=None)
    @given(
        lba=st.integers(0, 2**63 - 1),
        itt=st.integers(0, 2**32 - 1),
        data=st.binary(max_size=256),
    )
    def test_roundtrip_property(self, lba, itt, data):
        pdu = Pdu(opcode=Opcode.REPL_DATA_OUT, lba=lba, itt=itt, data=data)
        assert Pdu.unpack(pdu.pack()) == pdu


class TestInProcessTransport:
    def test_send_receive(self):
        a, b = transport_pair()
        a.send(Pdu(opcode=Opcode.NOP_OUT, data=b"hi"))
        received = b.receive(timeout=1)
        assert received.data == b"hi"

    def test_byte_accounting_symmetric(self):
        a, b = transport_pair()
        pdu = Pdu(opcode=Opcode.NOP_OUT, data=b"x" * 10)
        a.send(pdu)
        b.receive(timeout=1)
        assert a.bytes_sent == pdu.wire_size
        assert b.bytes_received == pdu.wire_size

    def test_close_wakes_peer(self):
        a, b = transport_pair()
        a.close()
        with pytest.raises(TransportClosedError):
            b.receive(timeout=1)

    def test_send_after_close_rejected(self):
        a, _ = transport_pair()
        a.close()
        with pytest.raises(TransportClosedError):
            a.send(Pdu(opcode=Opcode.NOP_OUT))

    def test_receive_timeout(self):
        _, b = transport_pair()
        with pytest.raises(TimeoutError):
            b.receive(timeout=0.05)


def _serve(target, transport):
    thread = threading.Thread(target=target.serve, args=(transport,), daemon=True)
    thread.start()
    return thread


class TestSession:
    def _connect(self, device=None, handler=None):
        device = device or MemoryBlockDevice(BS, 16)
        t_end, i_end = transport_pair()
        target = Target(device, replication_handler=handler)
        thread = _serve(target, t_end)
        return Initiator(i_end, timeout=5), device, thread

    def test_login_negotiates_geometry(self):
        initiator, _, _ = self._connect()
        params = initiator.login()
        assert params["BlockSize"] == str(BS)
        assert initiator.block_size == BS
        assert initiator.num_blocks == 16

    def test_login_wrong_target_name_rejected(self):
        initiator, _, _ = self._connect()
        from repro.common.errors import LoginError

        with pytest.raises(LoginError):
            initiator.login("iqn.wrong:name")

    def test_io_before_login_fails(self):
        initiator, _, _ = self._connect()
        with pytest.raises(ProtocolError):
            initiator.read(0)

    def test_write_read(self):
        initiator, device, _ = self._connect()
        initiator.login()
        initiator.write(3, b"d" * BS)
        assert initiator.read(3) == b"d" * BS
        assert device.read_block(3) == b"d" * BS

    def test_multi_block_transfer(self):
        initiator, _, _ = self._connect()
        initiator.login()
        payload = bytes(range(256)) * 2 * 3
        initiator.write(2, payload)
        assert initiator.read(2, count=3) == payload

    def test_out_of_range_lba_returns_error_status(self):
        initiator, _, _ = self._connect()
        initiator.login()
        with pytest.raises(ProtocolError, match="status"):
            initiator.read(99)

    def test_nop_echo(self):
        initiator, _, _ = self._connect()
        initiator.login()
        assert initiator.ping(b"ping!") == b"ping!"

    def test_replication_frame_dispatched(self):
        seen = []

        def handler(lba, frame, ctx=None):
            seen.append((lba, frame))
            return b"ack-payload"

        initiator, _, _ = self._connect(handler=handler)
        initiator.login()
        ack = initiator.send_replication_frame(9, b"FRAME")
        assert ack == b"ack-payload"
        assert seen == [(9, b"FRAME")]

    def test_replication_without_handler_rejected_with_status(self):
        initiator, _, _ = self._connect()
        initiator.login()
        with pytest.raises(ProtocolError, match="status"):
            initiator.send_replication_frame(0, b"x")

    def test_logout_closes_session(self):
        initiator, _, thread = self._connect()
        initiator.login()
        initiator.logout()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert not initiator.logged_in


@pytest.fixture
def tcp_server():
    server = AsyncTargetServer(MemoryBlockDevice(BS, 16)).serve_background()
    yield server
    server.stop_background()


class TestTcp:
    def test_full_session_over_sockets(self, tcp_server):
        host, port = tcp_server.address
        initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
        initiator.login()
        initiator.write(1, b"t" * BS)
        assert initiator.read(1) == b"t" * BS
        assert initiator.transport.bytes_sent > 0
        initiator.logout()

    def test_multiple_concurrent_sessions(self, tcp_server):
        host, port = tcp_server.address
        initiators = [
            Initiator(TcpTransport.connect(host, port), timeout=5)
            for _ in range(3)
        ]
        for i, initiator in enumerate(initiators):
            initiator.login()
            initiator.write(i, bytes([i]) * BS)
        for i, initiator in enumerate(initiators):
            assert initiator.read(i) == bytes([i]) * BS
            initiator.logout()

    def test_itt_matching_enforced(self, tcp_server):
        """Responses must carry the request's task tag."""
        host, port = tcp_server.address
        initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
        initiator.login()
        # normal operation keeps tags in sync; just exercise several ops
        for lba in range(5):
            initiator.write(lba, bytes([lba + 1]) * BS)
            assert initiator.read(lba) == bytes([lba + 1]) * BS
        initiator.logout()


class TestStatusCodes:
    def test_handle_returns_invalid_lba_status(self):
        target = Target(MemoryBlockDevice(BS, 4))
        login = Pdu(opcode=Opcode.LOGIN_REQUEST, itt=1)
        target.handle(login)
        bad_read = Pdu(
            opcode=Opcode.SCSI_COMMAND,
            flags=int(ScsiOp.READ),
            lba=100,
            transfer_length=1,
            itt=2,
        )
        response = target.handle(bad_read)
        assert response.status == Status.INVALID_LBA
