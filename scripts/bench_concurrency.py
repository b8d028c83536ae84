#!/usr/bin/env python
"""Networked-target benchmark: 64 concurrent sessions, exact wire bytes.

Drives 64 concurrent blocking initiator sessions (one thread each)
against the event-loop :class:`~repro.iscsi.aio.AsyncTargetServer` and
records:

* **identity** — per-session ``(bytes_sent, bytes_received, pdus_sent,
  pdus_received)`` tuples, collected in session order and hashed into
  ``wire_sha``, which ``--check`` gates exactly against the tracked
  artifact.  The hashes predate the removal of the thread-per-session
  target, so a match shows the one server still moves the same bytes;
* **timing** — ``wall_ms``, the wall clock of the whole concurrent run
  (informational only; it is not gated).

Usage::

    # refresh the tracked artifact (full sweep + smoke keys)
    PYTHONPATH=src python scripts/bench_concurrency.py --out BENCH_concurrency.json

    # CI smoke: wire-identity gate against the tracked artifact
    PYTHONPATH=src python scripts/bench_concurrency.py --smoke \
        --check BENCH_concurrency.json

Only the standard library + the repo itself are required.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.block import MemoryBlockDevice  # noqa: E402
from repro.iscsi import AsyncTargetServer, Initiator, TcpTransport  # noqa: E402

SESSIONS = 64
SESSION_OPS = {"full": 8, "smoke": 3}


def available_cores() -> int:
    """CPU cores usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _session_ops(index: int, session_ops: int):
    """The (lba, payload) writes session ``index`` issues, in order."""
    for op in range(session_ops):
        lba = (index * session_ops + op) % 256
        yield lba, bytes([(lba % 255) + 1]) * 512


def _counters(transport) -> tuple[int, int, int, int]:
    return (
        transport.bytes_sent,
        transport.bytes_received,
        transport.pdus_sent,
        transport.pdus_received,
    )


def drive_threaded(host: str, port: int, session_ops: int) -> list:
    """Run every session concurrently, one blocking initiator per thread.

    Returns the per-session counter tuples in session-index order, each
    sampled after the closing ping and before logout.
    """
    totals: list = [None] * SESSIONS
    errors: list[Exception] = []

    def one(index: int) -> None:
        try:
            initiator = Initiator(TcpTransport.connect(host, port), timeout=10)
            initiator.login()
            for lba, data in _session_ops(index, session_ops):
                initiator.write(lba, data)
                initiator.read(lba)
            initiator.ping(b"bench")
            totals[index] = _counters(initiator.transport)
            initiator.logout()
        except Exception as exc:  # re-raised in the caller after join
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(index,), daemon=True)
        for index in range(SESSIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        if thread.is_alive():
            raise TimeoutError("a threaded session did not finish in 60 s")
    if errors:
        raise errors[0]
    return totals


def bench_wire(session_ops: int) -> dict:
    """64 concurrent sessions against the target: hash their wire bytes."""
    server = AsyncTargetServer(MemoryBlockDevice(512, 256)).serve_background()
    try:
        host, port = server.address
        t0 = time.perf_counter()
        totals = drive_threaded(host, port, session_ops)
        wall_ms = (time.perf_counter() - t0) * 1e3
        served = server.snapshot()["sessions_served"]
    finally:
        server.stop_background()

    wire_sha = hashlib.sha256(repr(totals).encode()).hexdigest()
    print(
        f"  wire: {SESSIONS} concurrent sessions x {session_ops} ops, "
        f"{wall_ms:.0f} ms"
    )
    return {
        "sessions": SESSIONS,
        "session_ops": session_ops,
        "sessions_served_async": served,
        "wire_sha": wire_sha,
        "wall_ms": round(wall_ms, 2),
    }


def bench_all(scale: str) -> dict:
    print(f"networked target benchmark ({scale}, cores={available_cores()})")
    return {f"wire/{scale}": bench_wire(SESSION_OPS[scale])}


def _check(results: dict, recorded_path: str) -> int:
    """Gate a fresh run: every ``wire_sha`` must match the artifact."""
    recorded = json.loads(Path(recorded_path).read_text()).get("results", {})
    failures = []
    for key, fresh in sorted(results.items()):
        ref = recorded.get(key)
        if ref is None:
            failures.append(f"{key}: missing from {recorded_path}")
        elif fresh["wire_sha"] != ref.get("wire_sha"):
            failures.append(
                f"{key}: wire_sha {fresh['wire_sha']} != recorded "
                f"{ref.get('wire_sha')} (wire format change? refresh artifact)"
            )
    if failures:
        print("CONCURRENCY GATE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("concurrency gate passes: wire bytes identical to the artifact")
    return 0


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_concurrency.json"),
        help="JSON artifact to write (full runs also record smoke keys)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer ops per session, for CI",
    )
    parser.add_argument(
        "--check", metavar="PATH", default=None,
        help="gate this run against the artifact at PATH instead of writing",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = bench_all("smoke")
    else:
        results = bench_all("full")
        results.update(bench_all("smoke"))

    if args.check:
        return _check(results, args.check)

    doc = {
        "schema": 2,
        "config": {
            "sessions": SESSIONS,
            "session_ops": SESSION_OPS,
            "units": {
                "wire_sha": "sha256 of per-session (bytes/pdus sent/received)",
                "wall_ms": "wall-clock, all sessions concurrent, informational",
            },
            "key": "wire/<scale>",
        },
        "results": results,
        "meta": {
            "git": _git_rev(),
            "python": sys.version.split()[0],
            "cores": available_cores(),
            "captured_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "smoke": args.smoke,
        },
    }
    Path(args.out).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nresults written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
