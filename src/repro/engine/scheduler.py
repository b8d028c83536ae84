"""Pipelined, credit-based fan-out scheduling for the primary→replica path.

The sequential fan-out in :class:`~repro.engine.primary.PrimaryEngine`
ships each write to every replica in turn and waits for each ack before
touching the next link, so wall-clock ship time grows *linearly* with
replica count — the scaling wall the ROADMAP's "millions of users"
north-star calls out.  :class:`FanoutScheduler` breaks it the way
windowed replication protocols do:

* every replica gets its own :class:`ReplicaChannel` with a bounded
  **in-flight window** (``window`` credits).  Submissions are sent the
  moment a credit is free and queue FIFO behind the window otherwise —
  per-channel FIFO send order preserves the PRINS invariant that parity
  deltas apply in primary order;
* acks may complete **out of order** across (and, with jittered
  latencies, within) channels.  Each channel tracks them with
  **cumulative-ack compaction**: a dense per-channel ticket sequence, a
  ``acked_through`` cumulative pointer, and a bounded out-of-order set
  that drains into the pointer as gaps close;
* **credits are the backpressure**: a full window stalls that channel's
  queue (sim mode) or blocks the producer on that channel's bounded
  queue (thread mode), and the stall is metered (``sched.stall_ns``);
* a slow or DOWN replica **degrades independently**: a guarded channel
  whose :class:`~repro.engine.resilience.GuardedLink` journals a
  submission resolves immediately without consuming window latency, so
  healthy replicas never wait behind a dead one.

Two execution modes, one semantics:

* ``workers="inline"`` (default) — deterministic, event-driven, on a
  :class:`repro.sim.core.Simulator`.  The *send* happens synchronously
  in submission order (so replica images and byte accounting are
  bit-identical to sequential fan-out); only the **ack** is delayed by
  the channel's (optionally jittered) latency.  After :meth:`drain`,
  :attr:`FanoutScheduler.now` is the simulated makespan — with ``n``
  submissions and window ``w`` per channel it is ``ceil(n/w) × latency``
  per channel, overlapped across channels, versus the sequential
  ``n × Σ latency``;
* ``workers="threads"`` — one worker per channel on a real
  :class:`concurrent.futures.ThreadPoolExecutor`, for wall-clock wins
  over :class:`~repro.engine.links.InitiatorLink`/TCP transports.  Each
  channel's bounded queue is its credit window; accounting-touching
  operations serialize on one resolve lock so the
  :class:`~repro.engine.accounting.TrafficAccountant` conservation laws
  hold unchanged.

Charging is deferred, not changed: the engine hands each submission a
``charge(delivered)`` / ``journal_charge()`` callback pair (the same
closures its sequential paths invoke inline), and the scheduler fires
exactly one of them once the submission's fate on *every* channel is
known — so per-replica byte accounting is identical in all modes.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import (
    ConfigurationError,
    PartialReplicationError,
    ReplicationError,
)
from repro.common.rng import make_rng
from repro.engine.links import ReplicaLink
from repro.engine.work import ShipWork
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.accounting import TrafficAccountant
    from repro.engine.resilience import GuardedLink

__all__ = [
    "FanoutScheduler",
    "LatencyLink",
    "ReplicaChannel",
    "SchedulerConfig",
    "SimClock",
]

#: sentinel that stops a thread-mode channel worker
_STOP = object()


#: worker backends a scheduler accepts
WORKER_BACKENDS = ("inline", "threads")


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables for a pipelined fan-out scheduler.

    ``workers`` picks the concurrency backend: ``"inline"`` (the
    deterministic event-driven simulation — the default) or ``"threads"``
    (one real worker thread per channel, overlapping link I/O).
    ``window`` is the per-replica credit budget (max in-flight
    submissions).  ``link_latency_s`` is the simulated
    send→ack latency every channel charges in inline mode;
    ``per_link_latency_s`` overrides it per channel index.
    ``latency_jitter`` scales each ack's latency by a factor drawn
    uniformly from ``[1 - jitter, 1]`` using a seeded generator, so
    out-of-order acks within a channel are exercised deterministically.
    ``max_queue`` bounds how many submissions may wait behind a full
    window before :meth:`FanoutScheduler.submit` stalls the producer
    (``threads`` blocks for real; ``inline`` counts a stall and keeps
    queueing, staying deterministic).
    """

    workers: str = "inline"
    window: int = 8
    link_latency_s: float = 0.0
    per_link_latency_s: tuple[float, ...] = ()
    latency_jitter: float = 0.0
    max_queue: int = 1024
    seed: int = 0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        """Validate backend, window, queue and latency settings."""
        if self.workers not in WORKER_BACKENDS:
            raise ConfigurationError(
                f"scheduler workers must be one of {WORKER_BACKENDS}, "
                f"got {self.workers!r}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.link_latency_s < 0:
            raise ConfigurationError("link_latency_s must be non-negative")
        if any(lat < 0 for lat in self.per_link_latency_s):
            raise ConfigurationError("per-link latencies must be non-negative")
        if not 0.0 <= self.latency_jitter <= 1.0:
            raise ConfigurationError(
                f"latency_jitter must be in [0, 1], got {self.latency_jitter}"
            )

    @property
    def execution(self) -> str:
        """How channel sends run: ``"sim"`` (inline) or ``"threads"``."""
        return "sim" if self.workers == "inline" else "threads"

    def latency_for(self, index: int) -> float:
        """The configured base latency for channel ``index``."""
        if index < len(self.per_link_latency_s):
            return self.per_link_latency_s[index]
        return self.link_latency_s


class SimClock:
    """A trivially advanceable clock for metering *sequential* ship time.

    The sequential engine has no scheduler to account simulated latency,
    so benchmarks wrap its links in :class:`LatencyLink` bound to one
    shared ``SimClock``: every ship advances the clock by the link's
    latency, serially — exactly what lock-step fan-out costs.  Comparing
    ``SimClock.now`` against :attr:`FanoutScheduler.now` after a
    pipelined run of the same workload gives the makespan ratio with
    identical byte accounting on both sides.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        """Move the clock forward ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        self.now += dt


class LatencyLink(ReplicaLink):
    """Pass-through link that charges a fixed latency per submission.

    With a :class:`SimClock` the latency is *simulated* (the clock
    advances, nothing sleeps) — the sequential-baseline half of the
    scaling benchmark.  Without a clock the latency is *real*
    (``time.sleep``), which is how thread-mode tests emulate a slow WAN
    link without a network.  Byte accounting is untouched either way:
    the record still fully serializes through the inner link.
    """

    def __init__(
        self,
        inner: ReplicaLink,
        latency_s: float,
        clock: SimClock | None = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {latency_s}")
        self._inner = inner
        self.latency_s = latency_s
        self.clock = clock
        self.ships = 0

    @property
    def inner(self) -> ReplicaLink:
        """The wrapped link."""
        return self._inner

    def submit(self, work: ShipWork) -> bytes:
        """Deliver through the inner link, then charge the latency."""
        ack = self._inner.submit(work)
        self.ships += 1
        if self.clock is not None:
            self.clock.advance(self.latency_s)
        elif self.latency_s:
            time.sleep(self.latency_s)
        return ack

    def bind_telemetry(self, telemetry) -> None:
        """Forward the telemetry handle to the wrapped link."""
        self._inner.bind_telemetry(telemetry)

    def sync_device(self):
        """Expose the wrapped link's replica device (for resync)."""
        return self._inner.sync_device()

    def close(self) -> None:
        """Close the wrapped link."""
        self._inner.close()


class _WorkState:
    """One submission's fate across all channels (resolution bookkeeping)."""

    __slots__ = (
        "work",
        "charge",
        "journal_charge",
        "remaining",
        "delivered",
        "journaled",
        "failure",
        "failed_index",
        "lbas",
    )

    def __init__(
        self,
        work: ShipWork,
        charge: Callable[[int], None],
        journal_charge: Callable[[], None],
        fanout: int,
    ) -> None:
        self.work = work
        self.charge = charge
        self.journal_charge = journal_charge
        self.remaining = fanout
        self.delivered = 0
        self.journaled = 0
        self.failure: BaseException | None = None
        self.failed_index = -1
        # the LBAs this submission touches (all batch segments), held in
        # each target channel's dirty set until that channel resolves
        if work.batch is not None:
            self.lbas: tuple[int, ...] = tuple(
                entry.lba for entry in work.batch.entries
            )
        else:
            self.lbas = (work.lba,)


@dataclass
class ChannelStats:
    """Counters one :class:`ReplicaChannel` accumulates."""

    sends: int = 0
    acks: int = 0
    journaled: int = 0
    failures: int = 0
    stalls: int = 0
    max_inflight: int = 0
    max_ooo: int = 0  # peak out-of-order ack set size (sim mode)


class ReplicaChannel:
    """One replica's windowed submission pipeline.

    Owns the FIFO queue, the credit window, and the cumulative-ack
    state for a single replica.  A channel targets either a raw
    :class:`~repro.engine.links.ReplicaLink` (strict semantics: failures
    stash and surface at drain) or a
    :class:`~repro.engine.resilience.GuardedLink` (degrading semantics:
    failures journal and the channel resolves instantly).
    """

    def __init__(
        self,
        index: int,
        scheduler: "FanoutScheduler",
        link: ReplicaLink | None = None,
        guard: "GuardedLink | None" = None,
    ) -> None:
        if (link is None) == (guard is None):
            raise ConfigurationError(
                "a channel targets exactly one of link/guard"
            )
        self.index = index
        self.link = link
        self.guard = guard
        self._sched = scheduler
        config = scheduler.config
        self.latency_s = config.latency_for(index)
        self._jitter = config.latency_jitter
        self._rng = (
            make_rng(config.seed, "sched-latency", index)
            if self._jitter
            else None
        )
        self.credits = config.window
        self.stats = ChannelStats()
        # FIFO of (state, enqueue_time) waiting for a credit (sim mode)
        self._fifo: deque[tuple[_WorkState, float]] = deque()
        # cumulative-ack compaction over a dense per-channel ticket space
        self._next_ticket = 0
        self.acked_through = -1
        self._ooo_acks: set[int] = set()
        # dirty-LBA refcounts: LBAs in submitted-but-unresolved ShipWork
        # toward this replica.  Marked at submit, cleared as acks compact
        # (resolve); both under the scheduler's resolve lock.  The read
        # router treats a dirty LBA as unroutable to this replica.
        self._dirty: dict[int, int] = {}
        # thread mode: bounded queue == credit window, one worker drains it
        self._queue: queue.Queue | None = None

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Submissions sent but not yet acked."""
        return self._sched.config.window - self.credits

    @property
    def queue_depth(self) -> int:
        """Submissions waiting behind the window."""
        if self._queue is not None:
            return self._queue.qsize()
        return len(self._fifo)

    @property
    def ooo_ack_count(self) -> int:
        """Acks received ahead of the cumulative pointer (awaiting gaps)."""
        return len(self._ooo_acks)

    # -- dirty-LBA conflict tracking ----------------------------------------

    @property
    def dirty_lba_count(self) -> int:
        """Distinct LBAs with submitted-but-unresolved work on this channel."""
        return len(self._dirty)

    def mark_dirty(self, lbas: tuple[int, ...]) -> None:
        """Refcount ``lbas`` as in flight toward this replica (hold lock)."""
        dirty = self._dirty
        for lba in lbas:
            dirty[lba] = dirty.get(lba, 0) + 1

    def clear_dirty(self, lbas: tuple[int, ...]) -> None:
        """Release one in-flight reference per LBA (hold lock)."""
        dirty = self._dirty
        for lba in lbas:
            count = dirty.get(lba, 0) - 1
            if count <= 0:
                dirty.pop(lba, None)
            else:
                dirty[lba] = count

    def lba_in_flight(self, lba: int) -> bool:
        """True when ``lba`` has unresolved work toward this replica."""
        return lba in self._dirty

    # -- sim mode ------------------------------------------------------------

    def enqueue_sim(self, state: _WorkState) -> None:
        """Accept one submission: send now if a credit is free, else queue."""
        sched = self._sched
        if self.credits > 0 and not self._fifo:
            self._send_sim(state)
            return
        sched.record_queue_depth(len(self._fifo) + 1)
        if len(self._fifo) >= sched.config.max_queue:
            # Deterministic backpressure: drain acks until a slot frees.
            self.stats.stalls += 1
            sched.stall_until(lambda: len(self._fifo) < sched.config.max_queue)
        self._fifo.append((state, sched.sim.now))

    def _send_sim(self, state: _WorkState) -> None:
        """Put one submission on the wire and schedule (or skip) its ack."""
        sched = self._sched
        self.stats.sends += 1
        outcome = self._perform(state)
        if outcome == "delivered":
            self.credits -= 1
            self.stats.max_inflight = max(self.stats.max_inflight, self.inflight)
            sched.update_inflight()
            ticket = self._next_ticket
            self._next_ticket += 1
            sched.sim.schedule(
                self._draw_latency(),
                lambda: self._on_ack_sim(ticket, state),
            )
        else:
            # journaled/failed: no wire latency, the channel resolves now
            self._next_ticket += 1
            self._compact(self._next_ticket - 1)
            sched.resolve(state, self.index, outcome)

    def _pump_sim(self) -> None:
        """Send queued submissions while window credits are free.

        Looping (rather than pulling one entry per ack) matters when a
        send resolves *instantly* — a journaled ship on a DOWN guard or a
        stashed strict failure consumes no credit and schedules no ack,
        so without the loop the queue behind it would starve.
        """
        while self._fifo and self.credits > 0:
            state, enqueued_at = self._fifo.popleft()
            waited = self._sched.sim.now - enqueued_at
            if waited > 0:
                self.stats.stalls += 1
                self._sched.record_stall(waited)
            self._send_sim(state)

    def _on_ack_sim(self, ticket: int, state: _WorkState) -> None:
        """An ack arrived: compact, free the credit, pump the queue."""
        self.stats.acks += 1
        self._compact(ticket)
        self.credits += 1
        self._sched.update_inflight()
        self._sched.resolve(state, self.index, "delivered")
        self._pump_sim()

    def _draw_latency(self) -> float:
        """This ack's latency, jittered deterministically when configured."""
        latency = self.latency_s
        if self._rng is not None and latency:
            latency *= 1.0 - self._jitter * float(self._rng.random())
        return latency

    def _compact(self, ticket: int) -> None:
        """Cumulative-ack compaction: fold ``ticket`` into the pointer."""
        if ticket == self.acked_through + 1:
            self.acked_through = ticket
            while self.acked_through + 1 in self._ooo_acks:
                self.acked_through += 1
                self._ooo_acks.discard(self.acked_through)
        else:
            self._ooo_acks.add(ticket)
            self.stats.max_ooo = max(self.stats.max_ooo, len(self._ooo_acks))

    # -- thread mode ---------------------------------------------------------

    def start_worker(self, executor: ThreadPoolExecutor) -> None:
        """Spin up this channel's single FIFO worker (thread mode)."""
        self._queue = queue.Queue(maxsize=self._sched.config.window)
        executor.submit(self._worker)

    def enqueue_threaded(self, state: _WorkState) -> None:
        """Hand one submission to the worker; block when the window is full."""
        assert self._queue is not None
        started = time.perf_counter()
        try:
            self._queue.put_nowait(state)
        except queue.Full:
            self.stats.stalls += 1
            self._queue.put(state)  # real backpressure: producer blocks
            self._sched.record_stall(time.perf_counter() - started)
        self._sched.record_queue_depth(self._queue.qsize())

    def stop_worker(self) -> None:
        """Ask the worker loop to exit after the queue drains."""
        if self._queue is not None:
            self._queue.put(_STOP)

    def _worker(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            state: _WorkState = item
            self.stats.sends += 1
            outcome = self._perform(state, locked=True)
            ticket = self._next_ticket
            self._next_ticket += 1
            # One worker per channel: acks complete in FIFO order, so the
            # cumulative pointer advances without an out-of-order set.
            self._compact(ticket)
            if outcome == "delivered":
                self.stats.acks += 1
            self._sched.resolve(state, self.index, outcome)

    # -- shared --------------------------------------------------------------

    def _perform(self, state: _WorkState, locked: bool = False) -> str:
        """Execute the submission; returns delivered/journaled/failed.

        ``locked`` (thread mode) serializes accounting-mutating guard
        submissions on the scheduler's resolve lock; raw-link I/O always
        runs unlocked so thread-mode channels overlap on the wire.

        The wire time is metered as a ``sched.send`` span joined to the
        submission's causal context, so cross-channel fan-out shows up as
        sibling sends under the originating write when tracing is on.
        """
        work = state.work
        with self._sched.telemetry.span_in(
            "sched.send", work.ctx, link=self.index, seq=work.last_seq
        ) as span:
            if self.guard is not None:
                if locked:
                    with self._sched.resolve_lock:
                        ok = self.guard.submit(work, self._sched.verify_acks)
                else:
                    ok = self.guard.submit(work, self._sched.verify_acks)
                if ok:
                    return "delivered"
                self.stats.journaled += 1
                span.set("journaled", True)
                return "journaled"
            assert self.link is not None
            try:
                ack = self.link.submit(work)
                if self._sched.verify_acks:
                    work.verify_ack(ack)
            except Exception as exc:  # noqa: BLE001 — stashed, surfaced at drain
                self.stats.failures += 1
                span.set("failed", type(exc).__name__)
                with self._sched.resolve_lock:
                    if state.failure is None:
                        state.failure = exc
                        state.failed_index = self.index
                return "failed"
            return "delivered"


class FanoutScheduler:
    """Credit-windowed fan-out across every replica channel.

    Construct with either raw ``links`` (strict semantics) or the
    engine's ``guards`` (degrading semantics) — exactly one of the two —
    then feed it :meth:`submit` calls and finish with :meth:`drain`.
    :class:`~repro.engine.primary.PrimaryEngine` does all of this
    automatically when built with ``fanout="pipelined"``.
    """

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        links: Sequence[ReplicaLink] | None = None,
        guards: "Sequence[GuardedLink] | None" = None,
        verify_acks: bool = True,
        telemetry=None,
        accountant: "TrafficAccountant | None" = None,
        simulator: Simulator | None = None,
    ) -> None:
        if links is not None and guards is not None:
            raise ConfigurationError(
                "pass links (strict) or guards (resilient), not both"
            )
        self.config = config if config is not None else SchedulerConfig()
        self.verify_acks = verify_acks
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.accountant = accountant
        self.sim = simulator if simulator is not None else Simulator()
        self.resolve_lock = threading.RLock()
        self._drained = threading.Condition(self.resolve_lock)
        self._outstanding = 0
        self._submitted = 0
        self._resolved = 0
        self._stashed_failures: list[tuple[_WorkState, BaseException]] = []
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self.channels: list[ReplicaChannel] = []
        self._guarded = guards is not None
        for target in guards if guards is not None else (links or []):
            if self._guarded:
                self.add_channel(guard=target)
            else:
                self.add_channel(link=target)
        # telemetry instruments (shared, cheap null objects when disabled)
        tel = self.telemetry
        self._inflight_gauge = tel.gauge("sched.inflight")
        self._queue_histogram = tel.histogram("sched.queue_depth")
        self._stall_counter = tel.counter("sched.stall_ns")
        self._submit_counter = tel.counter("sched.submits")
        self._drain_counter = tel.counter("sched.drains")

    # -- channel management --------------------------------------------------

    def add_channel(
        self,
        link: ReplicaLink | None = None,
        guard: "GuardedLink | None" = None,
    ) -> ReplicaChannel:
        """Attach one more replica channel (before any traffic flows)."""
        if self._submitted:
            raise ConfigurationError(
                "channels must be attached before the first submission"
            )
        channel = ReplicaChannel(
            len(self.channels), self, link=link, guard=guard
        )
        self.channels.append(channel)
        if self._executor is not None:
            channel.start_worker(self._executor)
        return channel

    def _ensure_workers(self) -> None:
        if self.config.execution != "threads" or self._executor is not None:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, len(self.channels)),
            thread_name_prefix="prins-sched",
        )
        for channel in self.channels:
            channel.start_worker(self._executor)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        work: ShipWork,
        charge: Callable[[int], None],
        journal_charge: Callable[[], None],
        only: int | None = None,
    ) -> None:
        """Fan one submission out to every channel; charging is deferred.

        Exactly one of ``charge(delivered)`` / ``journal_charge()`` fires
        once the submission's fate is known on all channels — the same
        callbacks the sequential fan-out invokes inline, so accounting is
        mode-independent.

        ``only`` routes the submission to a single channel (fan-out width
        1) — the erasure tier's per-fragment dispatch, where each coded
        fragment targets exactly the channel holding that stripe
        position.  Credit windows, DOWN isolation, and trace spans apply
        per channel exactly as for mirrored traffic.
        """
        if self._closed:
            raise ReplicationError("scheduler is closed")
        if only is not None and not 0 <= only < len(self.channels):
            raise ConfigurationError(
                f"targeted submit index {only} out of range "
                f"({len(self.channels)} channels)"
            )
        with self.telemetry.span(
            "sched.submit", seq=work.last_seq, batched=work.is_batch
        ):
            self._submit_counter.inc()
            targets = (
                self.channels if only is None else [self.channels[only]]
            )
            state = _WorkState(work, charge, journal_charge, len(targets))
            self._submitted += 1
            if not targets:
                self._finalize(state)
                return
            with self.resolve_lock:
                self._outstanding += 1
                # Dirty-mark before the work can reach any wire: a routed
                # read that observes the mark is serialized before the
                # write; one that doesn't is serialized after its ack.
                for channel in targets:
                    channel.mark_dirty(state.lbas)
            if self.config.execution == "threads":
                self._ensure_workers()
                for channel in targets:
                    channel.enqueue_threaded(state)
            else:
                for channel in targets:
                    channel.enqueue_sim(state)

    # -- resolution ----------------------------------------------------------

    def resolve(self, state: _WorkState, index: int, outcome: str) -> None:
        """One channel finished with ``state``; finalize when all have."""
        with self.resolve_lock:
            self.channels[index].clear_dirty(state.lbas)
            if outcome == "delivered":
                state.delivered += 1
                if self.accountant is not None and not self._guarded:
                    self.accountant.record_replica_ship(
                        state.work.wire_size, replica=index
                    )
            elif outcome == "journaled":
                state.journaled += 1
            state.remaining -= 1
            if state.remaining > 0:
                return
            self._finalize(state)
            self._outstanding -= 1
            self._resolved += 1
            if self._outstanding == 0:
                self._drained.notify_all()

    def _finalize(self, state: _WorkState) -> None:
        """Fire the submission's single charging callback; stash failures."""
        if state.failure is not None:
            state.charge(state.delivered)
            self._stashed_failures.append((state, state.failure))
            return
        if state.delivered == 0 and state.journaled > 0:
            state.journal_charge()
            return
        state.charge(state.delivered)

    # -- drain & shutdown ------------------------------------------------------

    def drain(self) -> None:
        """Resolve every in-flight submission; surface stashed failures.

        Sim mode runs the event loop to exhaustion (the returned clock is
        the pipelined makespan); thread mode waits on the resolve
        condition up to ``drain_timeout_s``.  The first strict-channel
        failure is re-raised as the sequential path would have raised it:
        a :class:`~repro.common.errors.PartialReplicationError` naming
        the failing link (ack-shape :class:`ReplicationError` mismatches
        included as its cause).
        """
        with self.telemetry.span(
            "sched.drain", outstanding=self._outstanding
        ):
            self._drain_counter.inc()
            if self.config.execution == "threads":
                with self._drained:
                    if not self._drained.wait_for(
                        lambda: self._outstanding == 0,
                        timeout=self.config.drain_timeout_s,
                    ):
                        raise ReplicationError(
                            f"scheduler drain timed out with "
                            f"{self._outstanding} submissions outstanding"
                        )
            else:
                self.sim.run_all()
                if self._outstanding:
                    raise ReplicationError(
                        f"simulation exhausted with {self._outstanding} "
                        "submissions outstanding (event starvation bug)"
                    )
            self._raise_stashed()

    def _raise_stashed(self) -> None:
        if not self._stashed_failures:
            return
        state, exc = self._stashed_failures[0]
        self._stashed_failures.clear()
        self.telemetry.fault(
            "partial_replication",
            lba=state.work.lba,
            seq=state.work.last_seq,
            failed_index=state.failed_index,
            succeeded=state.delivered,
            error=type(exc).__name__,
        )
        raise PartialReplicationError(
            lba=state.work.lba,
            seq=state.work.last_seq,
            succeeded=tuple(range(state.delivered)),
            failed_index=state.failed_index,
            total_links=len(self.channels),
            cause=exc,
        ) from exc

    def close(self) -> None:
        """Drain, then stop thread workers (idempotent)."""
        if self._closed:
            return
        try:
            self.drain()
        finally:
            self._closed = True
            if self._executor is not None:
                for channel in self.channels:
                    channel.stop_worker()
                self._executor.shutdown(wait=True)
                self._executor = None

    # -- clock / metrics -------------------------------------------------------

    @property
    def now(self) -> float:
        """Simulated makespan so far (sim mode clock)."""
        return self.sim.now

    @property
    def outstanding(self) -> int:
        """Submissions whose fate is not yet fully resolved."""
        return self._outstanding

    def lba_in_flight(self, lba: int, index: int) -> bool:
        """True when ``lba`` has unresolved work toward channel ``index``.

        The read router's conflict check: an in-flight (submitted but
        unacked) write makes the replica's image for that LBA
        indeterminate, so conflicted reads must fall back to the primary.
        Taken under the resolve lock so thread-mode marks/clears are
        never observed half-applied.
        """
        with self.resolve_lock:
            return self.channels[index].lba_in_flight(lba)

    def dirty_lbas(self, index: int) -> frozenset[int]:
        """Snapshot of channel ``index``'s dirty-LBA set (diagnostics)."""
        with self.resolve_lock:
            return frozenset(self.channels[index]._dirty)

    def update_inflight(self) -> None:
        """Refresh the ``sched.inflight`` gauge from channel windows."""
        self._inflight_gauge.set(
            sum(channel.inflight for channel in self.channels)
        )

    def record_queue_depth(self, depth: int) -> None:
        """Feed the ``sched.queue_depth`` histogram."""
        self._queue_histogram.record(depth)

    def record_stall(self, seconds: float) -> None:
        """Charge ``seconds`` of producer stall to ``sched.stall_ns``."""
        self._stall_counter.inc(int(seconds * 1e9))
        self.telemetry.event("scheduler.stall", seconds=seconds)

    def stall_until(self, predicate: Callable[[], bool]) -> None:
        """Sim-mode backpressure: run events until ``predicate`` holds."""
        started = self.sim.now
        while not predicate() and self.sim.events_pending:
            self.sim.step()
        waited = self.sim.now - started
        if waited > 0:
            self.record_stall(waited)

    def snapshot(self) -> dict:
        """JSON-safe scheduler state (per-channel windows and ack state)."""
        return {
            "workers": self.config.workers,
            "mode": self.config.execution,
            "window": self.config.window,
            "submitted": self._submitted,
            "resolved": self._resolved,
            "outstanding": self._outstanding,
            "sim_now": self.sim.now,
            "channels": [
                {
                    "index": channel.index,
                    "latency_s": channel.latency_s,
                    "inflight": channel.inflight,
                    "queue_depth": channel.queue_depth,
                    "acked_through": channel.acked_through,
                    "ooo_acks": channel.ooo_ack_count,
                    "dirty_lbas": channel.dirty_lba_count,
                    "sends": channel.stats.sends,
                    "acks": channel.stats.acks,
                    "journaled": channel.stats.journaled,
                    "failures": channel.stats.failures,
                    "stalls": channel.stats.stalls,
                    "max_inflight": channel.stats.max_inflight,
                    "max_ooo": channel.stats.max_ooo,
                }
                for channel in self.channels
            ],
        }
