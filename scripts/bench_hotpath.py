#!/usr/bin/env python
"""Hot-path microbenchmark: xor / encode / decode / write / batched flush.

Measures the primary→replica fast path at several block sizes and
dirtiness levels and records ops/s and ns/op into ``BENCH_hotpath.json``
so every perf PR lands with before/after numbers.

The script is *feature-detecting*: it runs unmodified against older
revisions of the engine (no ``write_many``, no ``old_block_cache``), so
the same definition of each benchmark can capture a pre-optimization
baseline and a post-optimization current run into one file::

    # capture (or refresh) the slow-side numbers
    PYTHONPATH=src python scripts/bench_hotpath.py --role baseline

    # capture the optimized numbers and print the speedup table
    PYTHONPATH=src python scripts/bench_hotpath.py --role current

    # CI smoke: quick run, fail if > 3x slower than the checked-in numbers
    PYTHONPATH=src python scripts/bench_hotpath.py --smoke \
        --check BENCH_hotpath.json --max-regression 3

Benchmarks (each at block size 4 KiB / 8 KiB / 64 KiB and dirtiness
5 / 20 / 100 %):

* ``xor``          — one forward parity computation (Eq. 1).
* ``encode``       — zero-RLE encode of one parity delta.
* ``decode``       — zero-RLE decode of that payload.
* ``write``        — one full PrimaryEngine.write_block through a
                     DirectLink to a ReplicaEngine (PRINS strategy).
                     ``write/<bs>/0`` rewrites each block with its own
                     bytes: the Eq. 1 skip test, which ships nothing
                     (run at every block size, smoke included).
* ``batched_flush``— a 32-write window shipped as one batch PDU,
                     reported per logical write (uses
                     ``PrimaryEngine.write_many`` when available).

Only the standard library + the repo itself are required.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.block import MemoryBlockDevice  # noqa: E402
from repro.common.buffers import xor_bytes  # noqa: E402
from repro.common.rng import make_rng  # noqa: E402
from repro.engine import (  # noqa: E402
    BatchConfig,
    DirectLink,
    PrimaryEngine,
    ReplicaEngine,
    make_strategy,
)
from repro.parity import ZeroRleCodec  # noqa: E402
from repro.workloads.content import mutate_fraction  # noqa: E402

BLOCK_SIZES = (4096, 8192, 65536)
DIRTINESS = (0.05, 0.20, 1.00)
WINDOW = 32  # writes per batched flush
#: scattered edit spans per dirty block — clustered-but-plural, like the
#: paper's "5 to 20% of a block changes" under real edits
SPANS = 8

SMOKE_BLOCK_SIZES = (4096, 65536)
SMOKE_DIRTINESS = (0.20,)


def _key(bench: str, block_size: int, dirtiness: float) -> str:
    return f"{bench}/{block_size}/{int(dirtiness * 100)}"


def _make_blocks(block_size: int, dirtiness: float, count: int):
    """Deterministic (old, new) block pairs with scattered dirty spans."""
    rng = make_rng(7, f"hotpath-{block_size}-{dirtiness}")
    olds, news = [], []
    for _ in range(count):
        old = rng.integers(0, 256, block_size, dtype="u1").tobytes()
        new = mutate_fraction(old, dirtiness, rng, runs=SPANS)
        olds.append(old)
        news.append(new)
    return olds, news


def _time_per_op(fn, min_seconds: float) -> float:
    """Median ns/op over 3 calibrated repetitions of ``fn`` (one op each)."""
    # calibrate the loop count so one repetition takes >= min_seconds
    n = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter_ns() - t0
        if elapsed >= min_seconds * 1e9 or n >= 1 << 22:
            break
        growth = max(2, int((min_seconds * 1.2e9) / max(elapsed, 1)))
        n *= min(growth, 16)
    samples = [elapsed / n]
    for _ in range(2):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def _build_engine(block_size: int, num_blocks: int, batch: bool):
    strategy = make_strategy("prins")
    primary = MemoryBlockDevice(block_size, num_blocks)
    replica = MemoryBlockDevice(block_size, num_blocks)
    kwargs = {}
    if batch:
        kwargs["batch"] = BatchConfig(max_records=WINDOW, max_bytes=1 << 30)
    try:  # newer engines: bounded LRU serving A_old from memory
        engine = PrimaryEngine(
            primary,
            strategy,
            [DirectLink(ReplicaEngine(replica, strategy))],
            old_block_cache=num_blocks,
            **kwargs,
        )
    except TypeError:  # older engine: no cache knob
        engine = PrimaryEngine(
            primary,
            strategy,
            [DirectLink(ReplicaEngine(replica, strategy))],
            **kwargs,
        )
    return engine, primary, replica


def bench_all(
    block_sizes, dirtiness_levels, min_seconds: float
) -> dict[str, dict[str, float]]:
    """Run every benchmark; returns ``{key: {ns_per_op, ops_per_s}}``."""
    codec = ZeroRleCodec()
    results: dict[str, dict[str, float]] = {}

    def record(bench, bs, dirt, ns):
        key = _key(bench, bs, dirt)
        results[key] = {
            "ns_per_op": round(ns, 1),
            "ops_per_s": round(1e9 / ns, 1) if ns else 0.0,
        }
        print(f"  {key:28s} {ns:12.0f} ns/op  {1e9 / ns:12.0f} ops/s")

    for bs in block_sizes:
        # unchanged rewrite: every write is caught by the Eq. 1 skip test
        olds, _ = _make_blocks(bs, 0.0, WINDOW)
        engine, primary, replica = _build_engine(bs, WINDOW, batch=False)
        for lba, old in enumerate(olds):
            engine.write_block(lba, old)
        # one untimed pass of the skip path, so no timed rewrite is the
        # first rewrite of its block
        for lba, old in enumerate(olds):
            engine.write_block(lba, old)
        skipped = engine.accountant.writes_skipped
        cyc = {"i": 0}

        def one_rewrite():
            i = cyc["i"]
            engine.write_block(i % WINDOW, olds[i % WINDOW])
            cyc["i"] = i + 1

        record("write", bs, 0.0, _time_per_op(one_rewrite, min_seconds))
        if engine.accountant.writes_skipped - skipped != cyc["i"]:
            raise AssertionError(f"write/{bs}/0: an unchanged rewrite shipped")
        if replica.snapshot() != primary.snapshot():
            raise AssertionError(f"write/{bs}/0: replica diverged")
        engine.close()

        for dirt in dirtiness_levels:
            olds, news = _make_blocks(bs, dirt, WINDOW)
            old0, new0 = olds[0], news[0]
            delta0 = xor_bytes(new0, old0)
            payload0 = codec.encode(delta0)

            record("xor", bs, dirt, _time_per_op(
                lambda: xor_bytes(new0, old0), min_seconds))
            record("encode", bs, dirt, _time_per_op(
                lambda: codec.encode(delta0), min_seconds))
            record("decode", bs, dirt, _time_per_op(
                lambda: codec.decode(payload0, bs), min_seconds))

            # full write path: warm device, overwrite in a cycle
            engine, primary, replica = _build_engine(bs, WINDOW, batch=False)
            for lba, old in enumerate(olds):
                primary.write_block(lba, old)
                replica.write_block(lba, old)
            cyc = {"i": 0}

            def one_write():
                i = cyc["i"]
                blocks = news if (i // WINDOW) % 2 == 0 else olds
                engine.write_block(i % WINDOW, blocks[i % WINDOW])
                cyc["i"] = i + 1

            record("write", bs, dirt, _time_per_op(one_write, min_seconds))
            engine.close()

            # batched flush: a WINDOW of writes shipped as one PDU,
            # reported per logical write (encode+ship amortized)
            engine, primary, replica = _build_engine(bs, WINDOW, batch=True)
            for lba, old in enumerate(olds):
                primary.write_block(lba, old)
                replica.write_block(lba, old)
            flip = {"v": False}
            write_many = getattr(engine, "write_many", None)

            def one_window():
                blocks = olds if flip["v"] else news
                flip["v"] = not flip["v"]
                if write_many is not None:
                    write_many(list(enumerate(blocks)))
                else:
                    for lba, data in enumerate(blocks):
                        engine.write_block(lba, data)
                engine.flush_batch()

            ns_window = _time_per_op(one_window, min_seconds)
            record("batched_flush", bs, dirt, ns_window / WINDOW)
            engine.close()
    return results


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _speedups(baseline: dict, current: dict) -> dict[str, float]:
    out = {}
    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        if base and cur.get("ns_per_op"):
            out[key] = round(base["ns_per_op"] / cur["ns_per_op"], 2)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--role", choices=["baseline", "current"], default="current",
        help="which side of the before/after comparison this run records",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_hotpath.json"),
        help="JSON file to merge results into",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scale for CI: fewer configs, shorter timing windows",
    )
    parser.add_argument(
        "--check", metavar="PATH", default=None,
        help="compare this run against the 'current' numbers in PATH",
    )
    parser.add_argument(
        "--max-regression", type=float, default=3.0,
        help="with --check: fail if any ns/op exceeds recorded x this factor",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=None,
        help="per-sample timing window (default 0.2, smoke 0.05)",
    )
    args = parser.parse_args(argv)

    block_sizes = SMOKE_BLOCK_SIZES if args.smoke else BLOCK_SIZES
    dirtiness = SMOKE_DIRTINESS if args.smoke else DIRTINESS
    min_seconds = args.min_seconds or (0.05 if args.smoke else 0.2)

    print(f"hot-path microbenchmark (role={args.role}, smoke={args.smoke})")
    results = bench_all(block_sizes, dirtiness, min_seconds)

    if args.check:
        recorded = json.loads(Path(args.check).read_text())
        reference = recorded.get("current") or recorded.get("baseline") or {}
        failures = []
        for key, cur in sorted(results.items()):
            ref = reference.get(key)
            if not ref:
                print(f"  check {key:28s} no recorded reference   [FAIL]")
                failures.append(key)
                continue
            ratio = cur["ns_per_op"] / ref["ns_per_op"]
            marker = "FAIL" if ratio > args.max_regression else "ok"
            print(f"  check {key:28s} {ratio:6.2f}x recorded   [{marker}]")
            if ratio > args.max_regression:
                failures.append(key)
        if failures:
            print(
                f"REGRESSION: {len(failures)} benchmark(s) unrecorded or more "
                f"than {args.max_regression:.1f}x slower than {args.check}: "
                f"{', '.join(failures)}"
            )
            return 1
        print(f"all benchmarks within {args.max_regression:.1f}x of {args.check}")
        return 0

    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.setdefault("schema", 1)
    doc.setdefault("config", {
        "block_sizes": list(BLOCK_SIZES),
        "dirtiness": list(DIRTINESS),
        "window": WINDOW,
        "spans": SPANS,
        "codec": "zero-rle",
        "units": {"ns_per_op": "nanoseconds", "ops_per_s": "operations/s"},
    })
    doc[args.role] = results
    doc.setdefault("meta", {})[args.role] = {
        "git": _git_rev(),
        "python": sys.version.split()[0],
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": args.smoke,
    }
    if "baseline" in doc and "current" in doc:
        doc["speedup"] = _speedups(doc["baseline"], doc["current"])
        print("\nspeedup vs baseline (higher is better):")
        for key, ratio in doc["speedup"].items():
            print(f"  {key:28s} {ratio:6.2f}x")
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nresults merged into {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
