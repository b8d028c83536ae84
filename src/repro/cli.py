"""Command-line interface: ``prins``.

Subcommands::

    prins list                       # available experiments
    prins testbed                    # the Fig. 2 environment inventory
    prins experiment fig4 [--scale]  # reproduce one figure (--json for machines)
    prins all [--scale]              # reproduce everything
    prins demo [--workload tpcc]     # PRINS-vs-traditional demo (--json snapshot)
    prins demo --fanout pipelined    # demo under the credit-window scheduler
    prins demo --redundancy erasure  # k-of-n striped fan-out instead of mirrors
    prins demo --config cfg.json     # demo from a pinned ReplicationConfig
    prins metrics [snapshot.json]    # render a telemetry snapshot (or live demo)
    prins trace report snapshot.json # render recent write-path span trees
    prins trace tree snap.json --id N   # render one causal write tree
    prins trace critical snap.json   # per-stage critical-path attribution
    prins trace chrome snap.json --out t.json  # Perfetto trace-event export
    prins flightrec dump snap.json   # extract the fault flight recording
    prins flightrec show dump.json   # render the recording as a timeline

The same experiment runners back the pytest benchmarks; the CLI exists so
a user can regenerate any paper figure without touching pytest.  Demo and
experiment runs are instrumented through :mod:`repro.obs`; ``--json``
emits the full telemetry snapshot (``-`` for stdout) for machine
consumption, renderable later with ``prins metrics`` / ``prins trace
report``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.testbed import testbed_table


def _emit_snapshot(snapshot: dict, dest: str | None, quiet_note: bool = False) -> None:
    """Write a telemetry snapshot to ``dest`` (``-`` = stdout)."""
    if dest is None:
        return
    from repro.obs import save_snapshot, to_json

    if dest == "-":
        print(to_json(snapshot))
    else:
        save_snapshot(snapshot, dest)
        if not quiet_note:
            print(f"telemetry snapshot written to {dest}")


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments (see DESIGN.md section 4):")
    for experiment_id, runner in sorted(EXPERIMENTS.items()):
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"  {experiment_id:10s} {doc}")
    return 0


def _cmd_testbed(_args: argparse.Namespace) -> int:
    print(testbed_table())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.json is None:
        result = run_experiment(args.id, scale=args.scale)
        print(result.render())
        print(f"\n({time.perf_counter() - start:.1f}s at scale={args.scale})")
        return 0 if all(c.within_tolerance for c in result.comparisons) else 1

    # --json: run under a live Telemetry so span timings and wire
    # histograms ride along with the figure data.
    from repro.obs import Telemetry, use_telemetry

    telemetry = Telemetry(detail=True)
    with use_telemetry(telemetry):
        result = run_experiment(args.id, scale=args.scale)
    payload = {"result": result.to_dict(), "telemetry": telemetry.snapshot()}
    if args.json != "-":
        print(result.render())
        print(f"\n({time.perf_counter() - start:.1f}s at scale={args.scale})")
    _emit_snapshot(payload, args.json)
    return 0 if all(c.within_tolerance for c in result.comparisons) else 1


def _cmd_all(args: argparse.Namespace) -> int:
    status = 0
    for experiment_id in sorted(EXPERIMENTS):
        start = time.perf_counter()
        result = run_experiment(experiment_id, scale=args.scale)
        print(result.render())
        print(f"({time.perf_counter() - start:.1f}s)\n")
        if not all(c.within_tolerance for c in result.comparisons):
            status = 1
    return status


def _run_demo_workload(
    workload: str,
    ops: int | None,
    emit,
    base_config=None,
) -> None:
    """Run the demo under the *current* telemetry handle.

    Everything is constructed through the :mod:`repro.api` front door:
    ``base_config`` is a :class:`~repro.api.ReplicationConfig` carrying
    the user's knobs (batch window, A_old cache, fan-out mode, replica
    count, …); the demo re-targets it per strategy with
    :func:`dataclasses.replace` and hands it to
    :func:`~repro.api.open_primary`.  Engines run with ``resilient=True``
    so the resilience counters show up in the snapshot, matching a
    production deployment.  ``emit`` is a ``print``-like callable (no-op
    when ``--json -`` owns stdout).
    """
    import dataclasses as _dc

    from repro.api import ReplicationConfig, open_primary
    from repro.common.units import format_bytes

    base = base_config or ReplicationConfig()

    def build_stack(name, block_size, num_blocks, image):
        config = _dc.replace(
            base,
            strategy=name,
            # traditional ships raw blocks; a pinned codec only applies to
            # the delta/compression strategies
            codec=base.codec if name != "traditional" else None,
            # networked replica links have no in-process resync path
            resilient=base.transport == "inline",
            block_size=block_size,
            num_blocks=num_blocks,
        )
        return open_primary(
            config, initial_image=image, telemetry_name=f"demo.{name}"
        )

    def emit_traffic(name, stack):
        stack.drain()
        accountant = stack.engine.accountant
        line = (
            f"  {name:12s} shipped {format_bytes(accountant.payload_bytes):>10s}  "
            f"({accountant.reduction_vs_data:5.1f}x less than the data written)"
        )
        if base.batch_records is not None:
            line += (
                f"  [{accountant.pdus_shipped} PDUs, "
                f"{accountant.writes_merged} writes merged]"
            )
        cache = stack.engine.old_block_cache
        if cache is not None:
            snap = cache.snapshot()
            line += f"  [A_old cache hit rate {snap['hit_rate']:.0%}]"
        emit(line)
        if stack.engine.stripe is not None:
            stripe = stack.engine.stripe
            emit(
                f"  {'':12s} erasure {stripe.k}-of-{stripe.n}: "
                f"{accountant.fragments_shipped} fragments shipped, "
                f"{accountant.fragments_elided} elided "
                f"(storage {stripe.storage_overhead:.2f}x vs "
                f"{stripe.m + 1}x for {stripe.m}-fault mirroring)"
            )

    if workload == "tpcc":
        from repro.experiments.figures import get_scale
        from repro.experiments.harness import capture_tpcc_trace
        from repro.workloads.trace import replay_trace

        scale = get_scale("small")
        capture = capture_tpcc_trace(
            8192,
            config=scale.tpcc_oracle,
            transactions=ops or scale.tpcc_transactions,
        )
        emit(
            f"TPC-C: {capture.trace.write_count} block writes "
            f"({format_bytes(capture.trace.bytes_written)} of data), "
            f"8192B blocks:\n"
        )
        for name in ("traditional", "compressed", "prins"):
            stack = build_stack(
                name,
                capture.trace.block_size,
                capture.trace.num_blocks,
                capture.base_image,
            )
            replay_trace(capture.trace, stack.engine)
            emit_traffic(name, stack)
            stack.close()
        return

    # synthetic: random 10%-mutation writes over a warm device
    from repro.block import MemoryBlockDevice
    from repro.common.rng import make_rng
    from repro.workloads.content import mutate_fraction

    block_size, blocks, writes = 8192, 256, ops or 500
    rng = make_rng(1, "demo")
    warm = MemoryBlockDevice(block_size, blocks)
    for lba in range(blocks):
        warm.write_block(
            lba, rng.integers(0, 256, block_size, dtype="u1").tobytes()
        )
    base_image = warm.snapshot()
    emit(f"{writes} writes, {block_size}B blocks, 10% of each block changed:\n")
    for name in ("traditional", "compressed", "prins"):
        stack = build_stack(name, block_size, blocks, base_image)
        engine = stack.engine
        write_rng = make_rng(2, "demo-writes")
        for _ in range(writes):
            lba = int(write_rng.integers(0, blocks))
            engine.write_block(
                lba, mutate_fraction(engine.read_block(lba), 0.10, write_rng)
            )
        emit_traffic(name, stack)
        stack.close()


def _demo_config(args: argparse.Namespace):
    """Fold the demo flags (and an optional ``--config`` JSON) into one config.

    ``--config PATH`` seeds a :class:`~repro.api.ReplicationConfig` from a
    :meth:`~repro.api.ReplicationConfig.to_dict`-shaped JSON file; explicit
    flags then override it, so a pinned experiment file and ad-hoc knobs
    compose.
    """
    import dataclasses as _dc
    import json

    from repro.api import ReplicationConfig

    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            base = ReplicationConfig.from_dict(json.load(handle))
    else:
        base = ReplicationConfig()
    overrides: dict = {}
    if args.batch_window is not None:
        overrides["batch_records"] = args.batch_window
    if args.old_block_cache is not None:
        overrides["old_block_cache"] = args.old_block_cache
    if args.fanout is not None:
        overrides["fanout"] = args.fanout
    if args.window is not None:
        overrides["window"] = args.window
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.resync is not None:
        overrides["resync"] = args.resync
    if args.redundancy is not None:
        overrides["redundancy"] = args.redundancy
    if args.k is not None:
        overrides["k"] = args.k
    if args.n is not None:
        overrides["n"] = args.n
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.read_policy is not None:
        overrides["read_policy"] = args.read_policy
    if args.transport is not None:
        overrides["transport"] = args.transport
    if args.workers is not None:
        overrides["workers"] = args.workers
    return _dc.replace(base, **overrides) if overrides else base


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry, use_telemetry

    quiet = args.json == "-"
    emit = (lambda *a, **k: None) if quiet else print
    telemetry = Telemetry(detail=True)
    with use_telemetry(telemetry):
        _run_demo_workload(
            args.workload,
            args.transactions,
            emit,
            base_config=_demo_config(args),
        )
    _emit_snapshot(telemetry.snapshot(), args.json, quiet_note=quiet)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render a telemetry snapshot (from a file, or from a live demo)."""
    from repro.obs import (
        Telemetry,
        load_snapshot,
        render_metrics_report,
        to_json,
        to_prometheus,
        use_telemetry,
    )

    if args.path:
        snapshot = load_snapshot(args.path)
        # accept both raw snapshots and `prins experiment --json` payloads
        snapshot = snapshot.get("telemetry", snapshot)
    else:
        telemetry = Telemetry(detail=True)
        with use_telemetry(telemetry):
            _run_demo_workload("synthetic", 200, lambda *a, **k: None)
        snapshot = telemetry.snapshot()
    if args.format == "prometheus":
        print(to_prometheus(snapshot))
    elif args.format == "json":
        print(to_json(snapshot))
    else:
        print(render_metrics_report(snapshot))
    return 0


def _load_telemetry_snapshot(path: str) -> dict:
    """Load a snapshot JSON, unwrapping ``prins experiment --json`` payloads."""
    from repro.obs import load_snapshot

    snapshot = load_snapshot(path)
    return snapshot.get("telemetry", snapshot)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Capture/replay a workload trace, or analyse spans from a snapshot."""
    if args.action == "report":
        from repro.obs import render_trace_report

        print(render_trace_report(_load_telemetry_snapshot(args.path)))
        return 0

    if args.action == "tree":
        from repro.obs import render_trace_report

        if args.id is None:
            print("prins trace tree requires --id TRACE_ID", file=sys.stderr)
            return 2
        trace_id = int(args.id, 0)
        print(
            render_trace_report(
                _load_telemetry_snapshot(args.path), trace_id=trace_id
            )
        )
        return 0

    if args.action == "critical":
        from repro.obs import CriticalPathAnalyzer

        analyzer = CriticalPathAnalyzer()
        analyzer.add_snapshot(_load_telemetry_snapshot(args.path))
        print(analyzer.render(top=args.top))
        return 0

    if args.action == "chrome":
        from repro.obs import to_chrome_trace

        rendered = to_chrome_trace(
            _load_telemetry_snapshot(args.path), indent=2
        )
        if args.out is None or args.out == "-":
            print(rendered)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"chrome trace written to {args.out} (load in Perfetto)")
        return 0

    from repro.common.units import format_bytes
    from repro.workloads.tracefile import load_trace, save_trace

    if args.action == "capture":
        from repro.experiments.figures import get_scale
        from repro.experiments.harness import (
            capture_fsmicro_trace,
            capture_tpcc_trace,
            capture_tpcw_trace,
        )

        scale = get_scale(args.scale)
        capture_fns = {
            "tpcc": lambda: capture_tpcc_trace(
                args.block_size, config=scale.tpcc_oracle,
                transactions=scale.tpcc_transactions,
            ),
            "tpcw": lambda: capture_tpcw_trace(
                args.block_size, config=scale.tpcw,
                interactions=scale.tpcw_interactions,
            ),
            "fsmicro": lambda: capture_fsmicro_trace(
                args.block_size, config=scale.fsmicro
            ),
        }
        capture = capture_fns[args.workload]()
        size = save_trace(capture.trace, args.path)
        print(
            f"captured {capture.trace.write_count} writes "
            f"({format_bytes(capture.trace.bytes_written)} of data) to "
            f"{args.path} ({format_bytes(size)} on disk)"
        )
        print(
            "note: replaying a saved trace against a fresh device measures "
            "first-write traffic; the figure benchmarks replay against the "
            "post-populate image instead"
        )
        return 0

    # replay
    from repro.api import ReplicationConfig, open_primary
    from repro.workloads.trace import replay_trace

    trace = load_trace(args.path)
    print(
        f"loaded {trace.write_count} writes, block size {trace.block_size}, "
        f"{format_bytes(trace.bytes_written)} of data"
    )
    for name in ("traditional", "compressed", "prins"):
        config = ReplicationConfig(
            strategy=name,
            block_size=trace.block_size,
            num_blocks=trace.num_blocks,
        )
        with open_primary(config) as stack:
            replay_trace(trace, stack.engine)
            print(
                f"  {name:12s} "
                f"{format_bytes(stack.engine.accountant.payload_bytes):>10} "
                f"on the wire"
            )
    return 0


def _load_flightrec_dump(path: str) -> dict:
    """Load a flight-recorder dump, unwrapping telemetry snapshots.

    Accepts three shapes: a raw :meth:`~repro.obs.FlightRecorder.dump`
    mapping, a full telemetry snapshot (its ``flightrec`` section), and a
    ``prins experiment --json`` payload (``telemetry.flightrec``).
    """
    from repro.obs import load_snapshot

    payload = load_snapshot(path)
    payload = payload.get("telemetry", payload)
    if "events" not in payload and "flightrec" in payload:
        return payload["flightrec"]
    return payload


def _cmd_flightrec(args: argparse.Namespace) -> int:
    """Extract (``dump``) or render (``show``) a fault flight recording."""
    import json

    dump = _load_flightrec_dump(args.path)
    if args.action == "dump":
        rendered = json.dumps(dump, indent=2, sort_keys=True)
        if args.out is None or args.out == "-":
            print(rendered)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"flight recording written to {args.out}")
        return 0

    from repro.obs import render_events

    print(render_events(dump, max_events=args.max_events))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="prins",
        description="PRINS (ICDCS 2006) reproduction: experiments and demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("testbed", help="print the Fig. 2 inventory").set_defaults(
        func=_cmd_testbed
    )
    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--scale", default="small", choices=["small", "paper"])
    p_exp.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit {result, telemetry} JSON to PATH ('-' or bare = stdout)",
    )
    p_exp.set_defaults(func=_cmd_experiment)
    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--scale", default="small", choices=["small", "paper"])
    p_all.set_defaults(func=_cmd_all)
    p_demo = sub.add_parser("demo", help="quick PRINS-vs-baselines demo")
    p_demo.add_argument(
        "--workload", default="synthetic", choices=["synthetic", "tpcc"]
    )
    p_demo.add_argument(
        "--batch-window",
        type=int,
        default=None,
        metavar="N",
        help="enable batched delta shipping with an N-record window",
    )
    p_demo.add_argument(
        "--old-block-cache",
        type=int,
        default=None,
        metavar="N",
        help="N-slot LRU for A_old reads (skips read-before-write on hits)",
    )
    p_demo.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="operation count override (synthetic writes / TPC-C transactions)",
    )
    p_demo.add_argument(
        "--fanout",
        default=None,
        choices=["sequential", "pipelined"],
        help="replica fan-out mode (pipelined = credit-window scheduler)",
    )
    p_demo.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="per-replica in-flight window for --fanout pipelined",
    )
    p_demo.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="number of mirror replicas per engine (default 1)",
    )
    p_demo.add_argument(
        "--redundancy",
        default=None,
        choices=["mirror", "erasure"],
        help="replica layout: whole-block mirrors (default) or k-of-n striping",
    )
    p_demo.add_argument(
        "--k",
        type=int,
        default=None,
        metavar="K",
        help="data fragments per stripe for --redundancy erasure (default 4)",
    )
    p_demo.add_argument(
        "--n",
        type=int,
        default=None,
        metavar="N",
        help="total fragments per stripe for --redundancy erasure (default 6)",
    )
    p_demo.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="LBA shards per engine (multi-primary when > 1; default 1)",
    )
    p_demo.add_argument(
        "--read-policy",
        default=None,
        choices=["primary", "replica", "least_loaded"],
        help=(
            "read routing: primary-only (default) or conflict-aware "
            "replica offload"
        ),
    )
    p_demo.add_argument(
        "--transport",
        default=None,
        choices=["inline", "asyncio"],
        help=(
            "replica transport tier: in-process links (default) or one "
            "iSCSI target per replica over TCP, every target multiplexed "
            "on one asyncio event loop (byte-identical on the wire)"
        ),
    )
    p_demo.add_argument(
        "--workers",
        default=None,
        choices=["inline", "threads"],
        help=(
            "pipelined fan-out execution: the caller's thread (default) "
            "or one worker thread per replica channel"
        ),
    )
    p_demo.add_argument(
        "--resync",
        default=None,
        choices=["reconcile", "digest"],
        help=(
            "overflow recovery tier: set-reconciliation (default) or "
            "straight digest sweep"
        ),
    )
    p_demo.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="ReplicationConfig JSON (repro.api to_dict shape); flags override",
    )
    p_demo.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the telemetry snapshot to PATH ('-' or bare = stdout)",
    )
    p_demo.set_defaults(func=_cmd_demo)
    p_metrics = sub.add_parser(
        "metrics", help="render a telemetry snapshot (default: live demo)"
    )
    p_metrics.add_argument(
        "path", nargs="?", default=None, help="snapshot JSON from --json"
    )
    p_metrics.add_argument(
        "--format", default="text", choices=["text", "prometheus", "json"]
    )
    p_metrics.set_defaults(func=_cmd_metrics)
    p_trace = sub.add_parser(
        "trace", help="capture/replay a write trace, or analyse snapshot spans"
    )
    p_trace.add_argument(
        "action",
        choices=["capture", "replay", "report", "tree", "critical", "chrome"],
    )
    p_trace.add_argument("path", help="trace file (.prtr) or snapshot JSON")
    p_trace.add_argument(
        "--workload", default="tpcc", choices=["tpcc", "tpcw", "fsmicro"]
    )
    p_trace.add_argument("--block-size", type=int, default=8192)
    p_trace.add_argument("--scale", default="small", choices=["small", "paper"])
    p_trace.add_argument(
        "--id",
        default=None,
        metavar="TRACE_ID",
        help="causal trace id for 'tree' (decimal or 0x-hex)",
    )
    p_trace.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="writes to list for 'critical' (slowest first)",
    )
    p_trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file for 'chrome' ('-' or omitted = stdout)",
    )
    p_trace.set_defaults(func=_cmd_trace)
    p_flightrec = sub.add_parser(
        "flightrec", help="extract or render a fault flight recording"
    )
    p_flightrec.add_argument("action", choices=["dump", "show"])
    p_flightrec.add_argument(
        "path", help="flight-recorder dump JSON or telemetry snapshot"
    )
    p_flightrec.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file for 'dump' ('-' or omitted = stdout)",
    )
    p_flightrec.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N events",
    )
    p_flightrec.set_defaults(func=_cmd_flightrec)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly like cat/grep
        # do, pointing stdout at devnull so interpreter teardown stays silent
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
