"""Replay recorded block-I/O streams through the PRINS stack and time it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 20 --trace 0

A run generates its workload's stream from ``--seed`` (untimed), builds
the stack several times to time set-up, replays one untimed warm-up pass,
then replays whole passes of the stream over the live volume for
``--seconds`` as a closed loop with one caller: each block op is issued
after the previous one returns.  Every timing is calibrated against a
fixed pure-Python loop timed beside it, so that it reads in time at one
reference machine speed (README.md explains why).  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` times the untraced replay for half
of ``--seconds``, then replays a fixed number of whole passes on a fresh,
traced stack and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

from repro.engine.accounting import ConservationError  # noqa: E402
from repro.engine.strategy import make_strategy  # noqa: E402
from stacks import build_stack  # noqa: E402
from streams import BLOCK_SIZE, GENERATORS, Stream  # noqa: E402
from tracer import Tracer, install_layers  # noqa: E402

#: stack builds per run; setup_s is their median
SETUPS = 5

#: the timed replay runs at least this many whole passes
MIN_PASSES = 5

#: iterations of the calibration loop, about 10 ms on a 2-vCPU VM
CALIBRATION_ITERATIONS = 40_000

#: the calibration loop's time at the reference machine speed
CALIBRATION_REFERENCE_NS = 10_000_000

#: ops the traced replay issues at least, in whole passes, so that its
#: counts are exact for a seed
TRACE_OPS = 50_000


class Replayer:
    """Issues a stream's ops against an engine and checks every read.

    A shadow image model (the base image plus every write replayed so
    far) gives the bytes each read must return: after the first pass the
    live volume no longer matches the bytes recorded at generation.
    """

    def __init__(self, stream: Stream) -> None:
        self.ops = stream.ops
        self.shadow = {
            lba: stream.base_image[lba * BLOCK_SIZE : (lba + 1) * BLOCK_SIZE]
            for _, lba, _ in stream.ops
        }
        self.attempted = 0
        self.failed = 0

    def _fail(self, kind: str, lba: int) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"# FAILED {kind} lba={lba}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()

    def replay(
        self,
        engine,
        passes: int = 1,
        write_ns: list[int] | None = None,
        read_ns: list[int] | None = None,
    ) -> tuple[int, float]:
        """Replay ``passes`` whole passes of the stream from its start.

        Returns ``(ops, elapsed seconds)``.  Replication still in flight
        is left to :meth:`drain`.
        """
        ops = self.ops
        shadow = self.shadow
        write_ns = [] if write_ns is None else write_ns
        read_ns = [] if read_ns is None else read_ns
        clock = time.perf_counter_ns
        start = clock()
        for _ in range(passes):
            for is_write, lba, data in ops:
                before = clock()
                try:
                    if is_write:
                        engine.write_block(lba, data)
                        write_ns.append(clock() - before)
                        shadow[lba] = data
                    else:
                        got = engine.read_block(lba)
                        read_ns.append(clock() - before)
                        if got != shadow[lba]:
                            self._fail("read returned wrong bytes", lba)
                except Exception:  # a failed op counts; the run goes on
                    self._fail("write" if is_write else "read", lba)
        done = passes * len(ops)
        self.attempted += done
        return done, (clock() - start) / 1e9

    def drain(self, engine) -> float:
        """Resolve in-flight replication; returns the seconds it took."""
        start = time.perf_counter()
        try:
            engine.drain()
        except Exception:
            self._fail("drain", -1)
        return time.perf_counter() - start


def rss_mib() -> float:
    """This process's resident set size in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmRSS missing from /proc/self/status")


def quantile_us(samples_ns: list[int], q: float) -> float:
    """The ``q`` quantile (0..1) of nanosecond samples, in microseconds."""
    ordered = sorted(samples_ns)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value / 1000


def check_stack(stack, replayer: Replayer) -> list[str]:
    """End-of-run checks: replica images and the traffic ledger."""
    problems = []
    try:
        stack.engine.verify_traffic_conservation()
    except ConservationError as exc:
        problems.append(f"traffic conservation: {exc}")
    if not stack.verify():
        problems.append("replica image differs from the primary")
    if replayer.failed:
        problems.append(f"{replayer.failed} failed ops")
    return problems


def warm_up(stack, replayer: Replayer, writes: int) -> float:
    """One untimed pass from the base image; returns wire bytes per write.

    The pass is the recorded workload exactly, so its wire bytes are
    deterministic for a seed.  It also fills the A_old cache.
    """
    replayer.replay(stack.engine, passes=1)
    replayer.drain(stack.engine)
    return stack.engine.accountant.payload_bytes / writes


def calibration_ns() -> int:
    """Time one run of a fixed pure-Python loop, in nanoseconds.

    The loop does the same work on every run and commit, so its time
    tracks only how fast the machine runs Python at that moment.
    """
    start = time.perf_counter_ns()
    total = 0
    slots = {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i ^ (i >> 3)
        slots[i & 255] = total
    return time.perf_counter_ns() - start


def reference_scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns a time measured between two calibrations into
    time at the reference machine speed."""
    return 2 * CALIBRATION_REFERENCE_NS / (before_ns + after_ns)


def timed_passes(replayer: Replayer, engine, seconds: float) -> dict:
    """Replay whole passes for ``seconds``; report throughput and latency.

    Each pass is replayed and then drained, so it starts with nothing in
    flight and its time includes all the replication it caused.  The
    calibration loop runs before the first pass and after every pass, on
    an idle engine.  A pass's time and latency samples are scaled to the
    reference speed by the mean of the calibrations on either side of it.
    Each metric is the median over passes, so a burst of load from
    outside the benchmark moves a few passes, not the result.
    """
    per_pass = []
    raw = []
    writes = reads = 0
    calibration = [calibration_ns()]
    deadline = time.perf_counter() + seconds
    while len(per_pass) < MIN_PASSES or time.perf_counter() < deadline:
        write_ns: list[int] = []
        read_ns: list[int] = []
        ops, elapsed = replayer.replay(engine, write_ns=write_ns, read_ns=read_ns)
        elapsed += replayer.drain(engine)
        calibration.append(calibration_ns())
        if not write_ns or not read_ns:
            raise RuntimeError("a pass needs both read and write samples")
        writes += len(write_ns)
        reads += len(read_ns)
        quantiles = (
            quantile_us(write_ns, 0.50),
            quantile_us(write_ns, 0.99),
            quantile_us(read_ns, 0.50),
            quantile_us(read_ns, 0.99),
        )
        scale = reference_scale(calibration[-2], calibration[-1])
        raw.append((ops / elapsed, *quantiles))
        per_pass.append((ops / (elapsed * scale), *(q * scale for q in quantiles)))
    medians = [statistics.median(column) for column in zip(*per_pass)]
    return {
        "ops_per_s": medians[0],
        "write_p50_us": medians[1],
        "write_p99_us": medians[2],
        "read_p50_us": medians[3],
        "read_p99_us": medians[4],
        "raw": [statistics.median(column) for column in zip(*raw)],
        "passes": len(per_pass),
        "calibration_ms": statistics.median(calibration) / 1e6,
        "write_samples": writes,
        "read_samples": reads,
    }


def measure(args, stream: Stream) -> tuple[dict, list[str], Replayer]:
    """Set-up timing, then the untimed warm-up and the timed replay."""
    setup_s: list[float] = []
    stack = None
    rss_before = 0.0
    for _ in range(SETUPS):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        rss_before = rss_mib()
        before = calibration_ns()
        start = time.perf_counter()
        stack = build_stack(args.workload, stream.base_image)
        elapsed = time.perf_counter() - start
        setup_s.append(elapsed * reference_scale(before, calibration_ns()))
    assert stack is not None
    replayer = Replayer(stream)
    try:
        wire = warm_up(stack, replayer, stream.writes)
        seconds = args.seconds / 2 if args.trace else args.seconds
        result = timed_passes(replayer, stack.engine, seconds)
        rss_after = rss_mib()
        problems = check_stack(stack, replayer)
    finally:
        stack.close()
    result.update(
        setup_s=statistics.median(setup_s),
        setup_samples=setup_s,
        wire_bytes_per_write=wire,
        rss_mb=rss_after - rss_before,
    )
    return result, problems, replayer


def traced(args, stream: Stream, wire_untraced: float) -> tuple[dict, list[str], Replayer]:
    """A fresh stack replayed with every layer wrapped in spans."""
    tracer = Tracer()
    probe = make_strategy("prins")
    install_layers(tracer, type(probe), type(probe.codec))
    try:
        stack = build_stack(args.workload, stream.base_image)
        replayer = Replayer(stream)
        try:
            wire = warm_up(stack, replayer, stream.writes)
            tracer.reset()
            engine = stack.engine
            before = _engine_counters(engine)
            passes = -(-TRACE_OPS // len(stream.ops))
            ops, elapsed = replayer.replay(engine, passes=passes)
            elapsed += replayer.drain(engine)
            after = _engine_counters(engine)
            problems = check_stack(stack, replayer)
        finally:
            stack.close()
    finally:
        tracer.uninstall()
    if wire != wire_untraced:
        problems.append(f"wire bytes per write {wire} traced, {wire_untraced} untraced")
    tracer.dump(HERE / "out" / f"{args.workload}.spans.tsv")
    trace = {
        **tracer.summary(),
        "before": before,
        "after": after,
        "ops": ops,
        "elapsed_s": elapsed,
    }
    return trace, problems, replayer


def _engine_counters(engine) -> dict:
    """Counters read off the engine's public snapshots."""
    snapshot = engine.telemetry_snapshot()
    accountant = snapshot["accountant"]
    counters = {
        "writes_skipped": accountant["writes_skipped"],
        "payload_bytes": accountant["payload_bytes"],
        "pdus_shipped": accountant["pdus_shipped"],
    }
    cache = snapshot.get("old_block_cache")
    if cache is not None:
        counters.update(
            lru_hits=cache["hits"],
            lru_misses=cache["misses"],
            lru_evictions=cache["evictions"],
        )
    router = snapshot.get("router")
    if router is not None:
        counters.update(
            reads_primary=router["reads_primary"],
            reads_replica=router["reads_replica"],
            reads_conflict=router["reads_conflict"],
        )
    scheduler = snapshot.get("scheduler")
    if scheduler is not None:
        channels = scheduler["channels"]
        counters.update(
            max_inflight=max(c["max_inflight"] for c in channels),
            stalls=sum(c["stalls"] for c in channels),
            ooo_acks=sum(c["ooo_acks"] for c in channels),
        )
    return counters


def layer_metrics(trace: dict, untraced_ops_per_s: float) -> dict:
    """The per-layer metrics of one traced replay, with their units."""
    layers = trace["layers"]
    counters = trace["counters"]

    def field(name: str, key: str) -> int:
        return layers.get(name, {}).get(key, 0)

    before, after = trace["before"], trace["after"]

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "parity.encode",
        "parity.decode",
        "engine.primary.write_block",
        "engine.primary.read_block",
        "engine.links.submit",
        "engine.replica.receive",
        "engine.router.read",
        "block.read",
        "block.write",
    ):
        metrics[f"{name}.calls"] = (field(name, "calls"), "count")
        metrics[f"{name}.self_ms"] = (field(name, "self_ns") / 1e6, "ms")
    for name in (
        "engine.strategy.make_update",
        "engine.strategy.encode_update",
        "engine.strategy.apply_update_into",
        "engine.scheduler.submit",
    ):
        metrics[f"{name}.self_ms"] = (field(name, "self_ns") / 1e6, "ms")
    metrics["engine.links.submit.total_ms"] = (
        field("engine.links.submit", "total_ns") / 1e6,
        "ms",
    )
    metrics["engine.scheduler.drain.total_ms"] = (
        field("engine.scheduler.drain", "total_ns") / 1e6,
        "ms",
    )
    for key in ("bytes_in", "bytes_out"):
        metrics[f"parity.encode.{key}"] = (counters.get(f"parity.encode.{key}", 0), "B")
    writes = field("engine.primary.write_block", "calls")
    metrics["engine.primary.skip_ratio"] = (
        delta("writes_skipped") / writes if writes else 0.0,
        "ratio",
    )
    metrics["engine.scheduler.max_inflight"] = (after.get("max_inflight", 0), "count")
    metrics["engine.scheduler.stalls"] = (delta("stalls"), "count")
    metrics["engine.scheduler.ooo_acks"] = (delta("ooo_acks"), "count")
    routed = delta("reads_primary") + delta("reads_replica")
    metrics["engine.router.conflicts"] = (delta("reads_conflict"), "count")
    metrics["engine.router.replica_share"] = (
        delta("reads_replica") / routed if routed else 0.0,
        "ratio",
    )
    consults = delta("lru_hits") + delta("lru_misses")
    metrics["block.lru.hit_rate"] = (
        delta("lru_hits") / consults if consults else 0.0,
        "ratio",
    )
    metrics["block.lru.evictions"] = (delta("lru_evictions"), "count")
    metrics["iscsi.initiator.roundtrip_ms"] = (
        field("iscsi.initiator.send_replication_frame", "total_ns") / 1e6,
        "ms",
    )
    metrics["iscsi.transport.send.self_ms"] = (
        field("iscsi.transport.send", "self_ns") / 1e6,
        "ms",
    )
    metrics["iscsi.transport.receive.wait_ms"] = (
        field("iscsi.transport.receive", "total_ns") / 1e6,
        "ms",
    )
    metrics["iscsi.target.busy_ms"] = (
        field("iscsi.target.handle", "total_ns") / 1e6,
        "ms",
    )
    metrics["iscsi.pdus"] = (field("iscsi.transport.send", "calls"), "count")
    metrics["engine.accounting.payload_bytes"] = (delta("payload_bytes"), "B")
    metrics["engine.accounting.pdus_shipped"] = (delta("pdus_shipped"), "count")
    own = sum(entry["self_ns"] for entry in layers.values())
    metrics["trace.coverage"] = (own / (trace["elapsed_s"] * 1e9), "ratio")
    traced_ops_per_s = trace["ops"] / trace["elapsed_s"]
    metrics["trace.overhead"] = (untraced_ops_per_s / traced_ops_per_s, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    stream = GENERATORS[args.workload](args.seed)
    # The stream is the benchmark's input, not the program's heap: keep
    # its objects out of the collections the replay triggers.
    gc.collect()
    gc.freeze()
    print(f"# stream {args.workload} seed={args.seed} {json.dumps(stream.properties())}")
    result, problems, replayer = measure(args, stream)
    attempted, failed = replayer.attempted, replayer.failed
    print(
        f"# samples write={result['write_samples']} read={result['read_samples']} "
        f"passes={result['passes']} setup_s="
        + ",".join(f"{s:.4f}" for s in result["setup_samples"])
    )
    print(
        "# uncalibrated ops_per_s, write p50/p99, read p50/p99 (us) "
        + " ".join(f"{value:.2f}" for value in result["raw"])
        + f"; calibration loop {result['calibration_ms']:.3f} ms"
        f" (reference {CALIBRATION_REFERENCE_NS / 1e6:g} ms)"
    )
    if args.trace:
        trace, more, traced_replayer = traced(
            args, stream, result["wire_bytes_per_write"]
        )
        problems += more
        attempted += traced_replayer.attempted
        failed += traced_replayer.failed
        metrics = layer_metrics(trace, result["raw"][0])
    else:
        metrics = {
            name: (result[name], unit)
            for name, unit in (
                ("setup_s", "s"),
                ("ops_per_s", "ops/s"),
                ("write_p50_us", "us"),
                ("write_p99_us", "us"),
                ("read_p50_us", "us"),
                ("read_p99_us", "us"),
                ("wire_bytes_per_write", "B"),
                ("rss_mb", "MiB"),
            )
        }
    print(f"# error_rate {failed / attempted} ratio ({failed} of {attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    for problem in problems:
        print(f"# PROBLEM {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
