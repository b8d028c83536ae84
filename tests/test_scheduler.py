"""Tests for the pipelined credit-window fan-out scheduler."""

from __future__ import annotations

import random
import time

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, PartialReplicationError
from repro.engine import (
    DirectLink,
    FanoutScheduler,
    LatencyLink,
    PrimaryEngine,
    ReplicaEngine,
    ResilienceConfig,
    SchedulerConfig,
    ShipWork,
    SimClock,
    make_strategy,
)
from repro.engine.links import ReplicaLink
from repro.obs.telemetry import Telemetry

BS = 512
N = 64


def _stack(
    replicas=3,
    strategy_name="prins",
    link_wrapper=None,
    **engine_kwargs,
):
    strategy = make_strategy(strategy_name)
    primary = MemoryBlockDevice(BS, N)
    replica_devices = [MemoryBlockDevice(BS, N) for _ in range(replicas)]
    links = []
    for index, device in enumerate(replica_devices):
        link = DirectLink(ReplicaEngine(device, strategy))
        if link_wrapper is not None:
            link = link_wrapper(index, link)
        links.append(link)
    engine = PrimaryEngine(primary, strategy, links, **engine_kwargs)
    return engine, primary, replica_devices


def _random_writes(engine, count=60, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        lba = rng.randrange(N)
        engine.write_block(lba, bytes(rng.randrange(256) for _ in range(BS)))


class TestSchedulerConfig:
    def test_defaults_validate(self):
        config = SchedulerConfig()
        assert config.workers == "inline"
        assert config.execution == "sim"
        assert config.window >= 1

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(workers="carrier-pigeon")

    def test_process_backend_validates(self):
        """Only inline and threads remain; the process-pool knobs are gone."""
        assert SchedulerConfig(workers="threads").execution == "threads"
        with pytest.raises(ConfigurationError):
            SchedulerConfig(workers="process")
        for removed in ("worker_count", "ring_slots", "mode"):
            with pytest.raises(TypeError):
                SchedulerConfig(**{removed: 2})

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(window=0)

    def test_per_link_latency_lookup(self):
        config = SchedulerConfig(
            link_latency_s=0.5, per_link_latency_s=(0.1, 0.2)
        )
        assert config.latency_for(0) == 0.1
        assert config.latency_for(1) == 0.2
        assert config.latency_for(2) == 0.5  # falls back to the global


class TestPipelinedSimEquivalence:
    """Pipelined fan-out must be byte- and byte-count-identical."""

    @pytest.mark.parametrize("strategy_name", ["traditional", "prins"])
    def test_images_and_bytes_match_sequential(self, strategy_name):
        seq_engine, seq_primary, seq_reps = _stack(strategy_name=strategy_name)
        _random_writes(seq_engine)
        pip_engine, pip_primary, pip_reps = _stack(
            strategy_name=strategy_name,
            fanout="pipelined",
            scheduler=SchedulerConfig(window=4, link_latency_s=0.01),
        )
        _random_writes(pip_engine)
        pip_engine.drain()
        assert (
            seq_engine.accountant.payload_bytes
            == pip_engine.accountant.payload_bytes
        )
        assert seq_primary.snapshot() == pip_primary.snapshot()
        for seq_dev, pip_dev in zip(seq_reps, pip_reps):
            assert seq_dev.snapshot() == pip_dev.snapshot()

    def test_scheduler_config_implies_pipelined(self):
        engine, _, _ = _stack(scheduler=SchedulerConfig(window=2))
        assert engine.fanout == "pipelined"
        assert engine.scheduler is not None

    def test_sequential_has_no_scheduler(self):
        engine, _, _ = _stack()
        assert engine.fanout == "sequential"
        assert engine.scheduler is None

    def test_unknown_fanout_rejected(self):
        with pytest.raises(ConfigurationError):
            _stack(fanout="broadcast")


class TestCreditWindow:
    def test_window_bounds_inflight(self):
        window = 3
        engine, _, _ = _stack(
            replicas=2,
            scheduler=SchedulerConfig(window=window, link_latency_s=0.01),
        )
        _random_writes(engine, count=40)
        engine.drain()
        for channel in engine.scheduler.channels:
            assert channel.stats.max_inflight <= window
            assert channel.inflight == 0  # fully drained

    def test_makespan_beats_sequential_metering(self):
        """window>1 overlaps ack latency; makespan ≈ N·L/window + L."""
        latency = 0.01
        writes = 32
        engine, _, _ = _stack(
            replicas=1,
            scheduler=SchedulerConfig(window=8, link_latency_s=latency),
        )
        _random_writes(engine, count=writes)
        engine.drain()
        sequential_time = writes * latency
        assert engine.scheduler.now < sequential_time / 2

    def test_queue_backpressure_is_deterministic(self):
        """max_queue=1 forces stalls; the run still completes and verifies."""
        engine, primary, reps = _stack(
            replicas=2,
            scheduler=SchedulerConfig(
                window=1, link_latency_s=0.005, max_queue=1
            ),
        )
        _random_writes(engine, count=30)
        engine.drain()
        assert any(c.stats.stalls > 0 for c in engine.scheduler.channels)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()


class TestOutOfOrderAcks:
    def test_jittered_acks_compact_to_cumulative_pointer(self):
        engine, primary, reps = _stack(
            replicas=2,
            scheduler=SchedulerConfig(
                window=6, link_latency_s=0.01, latency_jitter=0.8, seed=3
            ),
        )
        _random_writes(engine, count=50)
        engine.drain()
        for channel in engine.scheduler.channels:
            # every ticket acked, pointer fully compacted, no strays
            assert channel.acked_through == channel.stats.sends - 1
            assert channel.ooo_ack_count == 0
        # OOO reordering actually happened under jitter
        assert any(c.stats.max_ooo > 0 for c in engine.scheduler.channels)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()

    def test_fifo_apply_order_survives_reordering(self):
        """Same-LBA overwrites must land in sequence order at the replica."""
        engine, primary, reps = _stack(
            replicas=1,
            scheduler=SchedulerConfig(
                window=8, link_latency_s=0.01, latency_jitter=0.9, seed=5
            ),
        )
        for round_number in range(20):
            engine.write_block(0, bytes([round_number]) * BS)
        engine.drain()
        assert reps[0].read_block(0) == bytes([19]) * BS


class TestSlowReplicaIsolation:
    def test_fast_replicas_finish_ahead_of_slow(self):
        engine, primary, reps = _stack(
            replicas=3,
            scheduler=SchedulerConfig(
                window=4, per_link_latency_s=(0.001, 0.001, 0.05)
            ),
        )
        _random_writes(engine, count=20)
        engine.drain()
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()
        stats = [c.stats for c in engine.scheduler.channels]
        assert stats[2].acks == stats[0].acks  # all delivered everywhere

    def test_down_replica_does_not_stall_healthy(self):
        """A DOWN guard journals instantly: healthy channels keep their pace."""
        engine, primary, reps = _stack(
            replicas=3,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(window=4, link_latency_s=0.01),
        )
        _random_writes(engine, count=10, seed=1)
        engine.drain()
        healthy_only_start = engine.scheduler.now
        engine.fail_link(2)
        _random_writes(engine, count=10, seed=2)
        engine.drain()
        # the DOWN channel resolved every submission without consuming
        # wire latency: makespan grew only by the healthy channels' time
        makespan = engine.scheduler.now - healthy_only_start
        assert makespan <= 10 * 0.01 + 0.01
        engine.heal_link(2)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()
        engine.verify_traffic_conservation()


class TestStrictFailures:
    def test_strict_failure_surfaces_at_drain(self):
        class ExplodingLink(ReplicaLink):
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def _submit_record(self, lba, record):
                self.calls += 1
                if self.calls > 5:
                    raise ConnectionError("link died")
                return self._inner.submit(ShipWork.for_record(lba, record))

        engine, _, _ = _stack(
            replicas=2,
            link_wrapper=lambda i, link: ExplodingLink(link)
            if i == 1
            else link,
            scheduler=SchedulerConfig(window=2, link_latency_s=0.001),
        )
        with pytest.raises(PartialReplicationError):
            _random_writes(engine, count=20)
            engine.drain()


class TestThreadMode:
    def test_threaded_matches_sequential_bytes_and_images(self):
        seq_engine, seq_primary, seq_reps = _stack()
        _random_writes(seq_engine)
        engine, primary, reps = _stack(
            scheduler=SchedulerConfig(workers="threads", window=4),
        )
        _random_writes(engine)
        engine.drain()
        engine.close()
        assert (
            engine.accountant.payload_bytes
            == seq_engine.accountant.payload_bytes
        )
        for seq_dev, dev in zip(seq_reps, reps):
            assert dev.snapshot() == seq_dev.snapshot()

    def test_threaded_guarded_conserves_traffic(self):
        engine, primary, reps = _stack(
            replicas=2,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(workers="threads", window=4),
        )
        _random_writes(engine, count=30)
        engine.drain()
        engine.verify_traffic_conservation()
        engine.close()
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()

    def test_write_path_is_decoupled_from_the_link(self):
        """Sec. 2: a write returns before its replica acks; drain waits."""
        latency = 0.05
        wrapped = []

        def slow(_index, link):
            wrapped.append(LatencyLink(link, latency_s=latency))
            return wrapped[-1]

        engine, primary, reps = _stack(
            replicas=1,
            link_wrapper=slow,
            fanout="pipelined",
            scheduler=SchedulerConfig(workers="threads", window=4),
        )
        start = time.perf_counter()
        engine.write_block(3, b"w" * BS)
        write_s = time.perf_counter() - start
        engine.drain()
        drain_s = time.perf_counter() - start
        assert write_s < latency / 2
        assert drain_s >= latency
        assert wrapped[0].ships == 1
        assert engine.scheduler.snapshot()["outstanding"] == 0
        engine.close()
        assert reps[0].snapshot() == primary.snapshot()


class TestLatencyLink:
    def test_sim_clock_advances_instead_of_sleeping(self):
        strategy = make_strategy("prins")
        device = MemoryBlockDevice(BS, N)
        clock = SimClock()
        link = LatencyLink(
            DirectLink(ReplicaEngine(device, strategy)), 0.25, clock=clock
        )
        engine = PrimaryEngine(MemoryBlockDevice(BS, N), strategy, [link])
        engine.write_block(0, b"z" * BS)
        assert clock.now == pytest.approx(0.25)
        assert device.read_block(0) == b"z" * BS


class TestSchedulerTelemetry:
    def test_instruments_populate(self):
        telemetry = Telemetry()
        engine, _, _ = _stack(
            replicas=2,
            telemetry=telemetry,
            telemetry_name="sched-test",
            scheduler=SchedulerConfig(
                window=1, link_latency_s=0.002, max_queue=2
            ),
        )
        _random_writes(engine, count=25)
        engine.drain()
        snapshot = telemetry.snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters["sched.submits"] == 25
        assert "sched.queue_depth" in snapshot["metrics"]["histograms"]

    def test_engine_snapshot_includes_scheduler(self):
        engine, _, _ = _stack(scheduler=SchedulerConfig(window=2))
        _random_writes(engine, count=5)
        engine.drain()
        snap = engine.telemetry_snapshot()
        assert snap["scheduler"]["submitted"] == 5
        assert snap["scheduler"]["outstanding"] == 0
        assert len(snap["scheduler"]["channels"]) == 3


class TestChannelManagement:
    def test_channel_after_submit_rejected(self):
        engine, _, _ = _stack(replicas=1, scheduler=SchedulerConfig(window=2))
        engine.write_block(0, b"a" * BS)
        engine.drain()
        extra = DirectLink(
            ReplicaEngine(MemoryBlockDevice(BS, N), make_strategy("prins"))
        )
        with pytest.raises(ConfigurationError):
            engine.scheduler.add_channel(link=extra)

    def test_links_and_guards_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            FanoutScheduler(SchedulerConfig(), links=[], guards=[])
