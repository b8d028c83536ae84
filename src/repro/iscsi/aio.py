"""The networked iSCSI target: one event loop, thousands of sessions.

:class:`AsyncTargetServer` serves replica traffic over real TCP sockets
on :mod:`asyncio` streams, so a session costs a task, not an OS thread:

* every connection gets its own :class:`~repro.iscsi.target.Target`
  protocol engine — the *same* synchronous state machine the in-process
  ``Target.serve`` loop drives, invoked PDU-by-PDU from the reader
  coroutine — so the response bytes are identical by construction;
* per-connection PDU framing is strictly ordered: one reader coroutine
  reads a 48-byte BHS with ``readexactly``, then the data segment, then
  writes the response and awaits ``drain()`` — the flow-controlled write
  that turns a slow initiator into backpressure on exactly that session
  instead of unbounded buffering;
* a malformed PDU or a failing handler ends only its own session: the
  error is logged and the connection dropped, the server keeps serving;
* shutdown is cancellation, not abandonment: :meth:`AsyncTargetServer.stop`
  closes the listener, cancels every live session task, and awaits them,
  so no connection outlives the server.

Clients are the blocking :class:`~repro.iscsi.initiator.Initiator` over
:class:`~repro.iscsi.transport.TcpTransport`.  Sync callers (the API
facade, tests, benchmarks) host the loop in a daemon thread via
:class:`EventLoopThread`; ``serve_background`` / ``stop_background``
wrap the coroutine round-trips.

Telemetry: accepts emit a ``transport.accept`` span and tick
``transport.accepts`` / the ``transport.sessions`` gauge, so
``prins trace critical`` can attribute connection-setup time; response
sizes land in the same ``transport.sent_pdu_bytes`` histogram as the
blocking transport's.
"""

from __future__ import annotations

import asyncio
import logging
import threading

from repro.block.device import BlockDevice
from repro.common.errors import ProtocolError, ReproError
from repro.iscsi.pdu import BHS_SIZE, Opcode, Pdu
from repro.iscsi.target import BatchHandler, ReplicationHandler, Target
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "AsyncTargetServer",
    "EventLoopThread",
]

logger = logging.getLogger(__name__)


class EventLoopThread:
    """An asyncio event loop hosted in a daemon thread.

    Lets synchronous code own asyncio servers: ``run(coro)`` submits a
    coroutine and blocks for its result.  One loop thread can host many
    :class:`AsyncTargetServer` instances — that is exactly the
    single-process multiplexing the server exists for.
    """

    def __init__(self, name: str = "prins-aio") -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The hosted event loop."""
        return self._loop

    def run(self, coro, timeout: float | None = 30.0):
        """Run ``coro`` on the loop thread and return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._loop.is_closed():
            return
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
        self._loop.close()

    def __enter__(self) -> "EventLoopThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


async def _read_pdu(reader: asyncio.StreamReader) -> Pdu:
    """Read one framed PDU: fixed BHS, then the advertised data segment."""
    header = await reader.readexactly(BHS_SIZE)
    pdu, data_len = Pdu.unpack_header(header)
    pdu.data = await reader.readexactly(data_len) if data_len else b""
    return pdu


class AsyncTargetServer:
    """Event-loop iSCSI target: every session is a task, not a thread.

    Each accepted connection runs :meth:`_serve_connection` — a fresh
    :class:`~repro.iscsi.target.Target` state machine fed PDUs in arrival
    order, its responses written back through the flow-controlled stream.
    Because :meth:`Target.handle` is the same code ``Target.serve`` runs
    over an in-process transport, a given request sequence produces
    identical response bytes on either path.
    """

    def __init__(
        self,
        device: BlockDevice,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "iqn.2006-01.edu.uri.hpcl:prins",
        replication_handler: ReplicationHandler | None = None,
        batch_handler: BatchHandler | None = None,
        telemetry=None,
    ) -> None:
        self._device = device
        self._host = host
        self._port = port
        self._name = name
        self._replication_handler = replication_handler
        self._batch_handler = batch_handler
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        self.sessions_served = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.pdus_served = 0
        self._telemetry = NULL_TELEMETRY
        self._accept_counter = NULL_COUNTER
        self._session_gauge = NULL_GAUGE
        self._pdu_hist = NULL_HISTOGRAM
        if telemetry is not None:
            self.bind_telemetry(telemetry)
        # set by serve_background for the sync-facade lifecycle
        self._loop_thread: EventLoopThread | None = None
        self._owns_loop = False

    def bind_telemetry(self, telemetry) -> None:
        """Meter accepts, live sessions, and response sizes in ``telemetry``."""
        self._telemetry = telemetry
        self._accept_counter = telemetry.counter("transport.accepts")
        self._session_gauge = telemetry.gauge("transport.sessions")
        self._pdu_hist = telemetry.histogram("transport.sent_pdu_bytes")

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is listening on."""
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def connection_count(self) -> int:
        """Live session tasks."""
        return len(self._tasks)

    # -- async lifecycle ------------------------------------------------------

    async def start(self) -> "AsyncTargetServer":
        """Bind the listener and begin accepting sessions."""
        if self._closed:
            raise ProtocolError("target server is closed")
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port
        )
        return self

    def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._telemetry.span("transport.accept", target=self._name):
            self._accept_counter.inc()
            self.sessions_served += 1
            self._session_gauge.set(len(self._tasks))
            target = Target(
                self._device,
                name=self._name,
                replication_handler=self._replication_handler,
                batch_handler=self._batch_handler,
            )
        try:
            while True:
                request = await _read_pdu(reader)
                self.bytes_received += request.wire_size
                response = target.handle(request)
                if response is not None:
                    raw = response.pack()
                    writer.write(raw)
                    # flow-controlled backpressure: a slow initiator stalls
                    # only its own session coroutine
                    await writer.drain()
                    self.bytes_sent += len(raw)
                    self.pdus_served += 1
                    self._pdu_hist.record(len(raw))
                if request.opcode is Opcode.LOGOUT_REQUEST:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer vanished mid-frame: drop the session
        except ReproError as exc:
            # malformed PDU or failing handler: end this session only
            logger.warning(
                "%s: dropping session after %s: %s",
                self._name, type(exc).__name__, exc,
            )
        finally:
            self._session_gauge.set(max(0, len(self._tasks) - 1))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def stop(self) -> None:
        """Stop listening, cancel every live session, await clean exit."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()

    # -- sync facade ----------------------------------------------------------

    def serve_background(
        self, loop_thread: EventLoopThread | None = None
    ) -> "AsyncTargetServer":
        """Start on a loop thread (creating one if needed); returns self.

        The sync entry point used by ``open_primary(transport="asyncio")``
        and tests: the server runs on ``loop_thread`` (shared across many
        servers for true single-process multiplexing) and blocking
        clients connect to :attr:`address` as usual.  A stopped server
        cannot be restarted.
        """
        if self._closed:
            raise ProtocolError("target server is closed")
        if loop_thread is None:
            loop_thread = EventLoopThread(name=f"aio-{self._name}")
            self._owns_loop = True
        self._loop_thread = loop_thread
        loop_thread.run(self.start())
        return self

    def stop_background(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`serve_background` server from sync code."""
        if self._loop_thread is None:
            return
        self._loop_thread.run(self.stop(), timeout=timeout)
        if self._owns_loop:
            self._loop_thread.close()
        self._loop_thread = None

    def snapshot(self) -> dict:
        """JSON-safe server counters."""
        return {
            "name": self._name,
            "sessions_served": self.sessions_served,
            "live_sessions": len(self._tasks),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "pdus_served": self.pdus_served,
        }
