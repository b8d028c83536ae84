"""Tests for the networked iSCSI target and its deterministic shutdown.

Covers the two halves of the server contract:

* :class:`~repro.iscsi.aio.AsyncTargetServer` — one process, one event
  loop, many sessions as tasks — must serve the same wire bytes as the
  in-process ``Target.serve`` loop, and a bad session must end alone;
* stopping the server must be deterministic even with half-open
  connections parked awaiting their next PDU.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import socket
import threading
import time

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ProtocolError
from repro.engine import ReplicaEngine, make_strategy
from repro.iscsi import (
    AsyncTargetServer,
    EventLoopThread,
    Initiator,
    Opcode,
    Pdu,
    Target,
    TcpTransport,
    transport_pair,
)

BS = 512


def _wait_until(predicate, what: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


class TestAsyncTargetServer:
    def test_blocking_initiator_against_async_target(self):
        device = MemoryBlockDevice(BS, 16)
        server = AsyncTargetServer(device).serve_background()
        try:
            host, port = server.address
            initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
            params = initiator.login()
            assert params["BlockSize"] == str(BS)
            initiator.write(1, b"a" * BS)
            assert initiator.read(1) == b"a" * BS
            assert initiator.ping(b"echo") == b"echo"
            initiator.logout()
        finally:
            server.stop_background()

    def test_replication_handler_dispatch(self):
        device = MemoryBlockDevice(BS, 16)
        seen = []

        def handler(lba, frame, ctx=None):
            seen.append((lba, bytes(frame)))
            return b"ok"

        server = AsyncTargetServer(
            device, replication_handler=handler
        ).serve_background()
        try:
            host, port = server.address
            initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
            initiator.login()
            ack = initiator.send_replication_frame(7, b"frame-bytes")
            assert ack == b"ok"
            assert seen == [(7, b"frame-bytes")]
            initiator.logout()
        finally:
            server.stop_background()

    def test_sixty_four_concurrent_sessions_one_process(self):
        """The acceptance bar: >= 64 live sessions multiplexed on one loop."""
        device = MemoryBlockDevice(BS, 256)
        server = AsyncTargetServer(device).serve_background()
        results: dict[int, bytes] = {}
        errors: list[Exception] = []
        all_connected = threading.Barrier(64, timeout=10)

        def session(index: int) -> None:
            try:
                initiator = Initiator(
                    TcpTransport.connect(*server.address), timeout=10
                )
                initiator.login()
                all_connected.wait()  # every session is live at once
                initiator.write(index, bytes([index % 255 + 1]) * BS)
                results[index] = initiator.read(index)
                initiator.logout()
            except Exception as exc:  # re-raised below, after join
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=session, args=(i,), daemon=True)
                for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[0]
            assert len(results) == 64
            for index, data in results.items():
                assert data == bytes([index % 255 + 1]) * BS
            assert device.read_block(5) == bytes([6]) * BS
            assert server.snapshot()["sessions_served"] >= 64
            # clients saw their LOGOUT_RESPONSE, but each server-side
            # task is only discarded by its done-callback a beat later
            _wait_until(
                lambda: server.connection_count == 0, "sessions never drained"
            )
        finally:
            server.stop_background()

    def test_wire_bytes_identical_to_threaded_server(self):
        """Same script over TCP and in-process: client counters match."""

        def drive(transport):
            initiator = Initiator(transport, timeout=5)
            initiator.login()
            for lba in range(8):
                initiator.write(lba, bytes([lba + 1]) * BS)
                assert initiator.read(lba) == bytes([lba + 1]) * BS
            initiator.ping(b"done")
            initiator.logout()
            t = initiator.transport
            return (t.bytes_sent, t.bytes_received, t.pdus_sent, t.pdus_received)

        t_end, i_end = transport_pair()
        target = Target(MemoryBlockDevice(BS, 16))
        serving = threading.Thread(target=target.serve, args=(t_end,))
        serving.start()
        in_process_counts = drive(i_end)
        serving.join(timeout=5)
        assert not serving.is_alive()
        aio = AsyncTargetServer(MemoryBlockDevice(BS, 16)).serve_background()
        try:
            aio_counts = drive(TcpTransport.connect(*aio.address))
        finally:
            aio.stop_background()
        assert aio_counts == in_process_counts

    def test_bad_pdu_and_failing_handler_end_only_their_session(self, caplog):
        """A malformed PDU or a raising handler drops its session cleanly.

        Nothing reaches the loop's exception handler (no "Task exception
        was never retrieved"), the sessions drain, and the server keeps
        serving new sessions.
        """
        loop_thread = EventLoopThread()
        leaked: list[dict] = []
        loop_thread.loop.set_exception_handler(
            lambda _loop, context: leaked.append(context)
        )
        device = MemoryBlockDevice(BS, 16)
        replica = ReplicaEngine(device, make_strategy("prins"))
        server = AsyncTargetServer(
            device, replication_handler=replica.receive
        ).serve_background(loop_thread)
        try:
            host, port = server.address
            header = bytearray(Pdu(opcode=Opcode.NOP_OUT).pack())
            header[0] = 0x7F  # no such opcode
            with caplog.at_level(logging.WARNING, logger="repro.iscsi.aio"):
                with socket.create_connection((host, port), timeout=5) as raw:
                    raw.sendall(bytes(header))
                    assert raw.recv(1) == b""  # server hung up
                initiator = Initiator(
                    TcpTransport.connect(host, port), timeout=5
                )
                initiator.login()
                with pytest.raises(ProtocolError):
                    initiator.send_replication_frame(3, b"garbage-record")
                initiator.transport.close()
                _wait_until(
                    lambda: server.snapshot()["live_sessions"] == 0,
                    "bad sessions never drained",
                )
            gc.collect()
            assert leaked == []
            assert "ProtocolError" in caplog.text
            assert "CodecError" in caplog.text

            fresh = Initiator(TcpTransport.connect(host, port), timeout=5)
            fresh.login()
            fresh.write(2, b"f" * BS)
            assert fresh.read(2) == b"f" * BS
            fresh.logout()
        finally:
            server.stop_background()
            loop_thread.close()

    def test_shared_loop_thread_hosts_many_servers(self):
        loop_thread = EventLoopThread()
        devices = [MemoryBlockDevice(BS, 8) for _ in range(3)]
        servers = [
            AsyncTargetServer(device).serve_background(loop_thread)
            for device in devices
        ]
        try:
            for index, server in enumerate(servers):
                host, port = server.address
                initiator = Initiator(
                    TcpTransport.connect(host, port), timeout=5
                )
                initiator.login()
                initiator.write(0, bytes([index + 1]) * BS)
                initiator.logout()
            for index, device in enumerate(devices):
                assert device.read_block(0) == bytes([index + 1]) * BS
        finally:
            for server in servers:
                server.stop_background()
            loop_thread.close()

    def test_stop_cancels_parked_sessions(self):
        """A connected-but-idle client must not wedge server shutdown."""
        device = MemoryBlockDevice(BS, 8)
        server = AsyncTargetServer(device).serve_background()
        host, port = server.address
        parked = socket.create_connection((host, port), timeout=5)
        try:
            _wait_until(
                lambda: server.connection_count > 0, "session never registered"
            )
            server.stop_background()
            assert server.connection_count == 0
        finally:
            parked.close()


class TestTargetServerShutdown:
    """Regression: stopping must be deterministic with half-open sessions."""

    def test_close_with_half_open_connection(self):
        """A client that logs in and then goes silent leaves a session
        task parked awaiting its next PDU; stopping must cancel it."""
        device = MemoryBlockDevice(BS, 8)
        server = AsyncTargetServer(device).serve_background()
        host, port = server.address
        initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
        initiator.login()  # session task now parked awaiting the next PDU
        assert server.connection_count == 1
        start = time.monotonic()
        server.stop_background(timeout=5.0)
        assert time.monotonic() - start < 5.0
        assert server.connection_count == 0
        initiator.transport.close()

    def test_close_refuses_new_sessions(self):
        device = MemoryBlockDevice(BS, 8)
        server = AsyncTargetServer(device).serve_background()
        host, port = server.address
        server.stop_background()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)
        with pytest.raises(ProtocolError):
            server.serve_background()

    def test_close_is_idempotent(self):
        server = AsyncTargetServer(MemoryBlockDevice(BS, 8)).serve_background()
        server.stop_background()
        server.stop_background()


class TestEventLoopThread:
    def test_run_returns_coroutine_result(self):
        loop_thread = EventLoopThread()
        try:

            async def compute():
                await asyncio.sleep(0)
                return 41 + 1

            assert loop_thread.run(compute()) == 42
        finally:
            loop_thread.close()

    def test_context_manager(self):
        with EventLoopThread() as loop_thread:

            async def one():
                return 1

            assert loop_thread.run(one()) == 1
