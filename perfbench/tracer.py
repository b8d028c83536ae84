"""Span tracing around the public entry points of each PRINS layer.

The benchmark wraps methods of the repo's classes from outside (nothing
under ``src/`` changes).  Every call to a wrapped method becomes a span:
name, start, end and the enclosing span on the same thread.  Each thread
keeps its own span stack, span list and per-layer aggregates, so threads
never share mutable state on the hot path; the aggregates are merged
under a lock only when read.  A layer's self time is its span's duration
minus the time its child spans cover.  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable
from pathlib import Path


class _ThreadState:
    """One thread's span stack, finished spans and aggregates."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        #: open spans: [span index, child ns, name id]
        self.stack: list[list[int]] = []
        #: finished spans: (name id, start ns, end ns, parent index or -1)
        self.spans: list[tuple[int, int, int, int] | None] = []
        #: name id -> [calls, total ns, self ns]
        self.agg: dict[int, list[int]] = {}
        #: free-form counters (bytes in/out of the codec)
        self.counters: dict[str, int] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.agg.clear()
        self.counters.clear()


class Tracer:
    """Installs span wrappers on class attributes and removes them again."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._names: list[str] = []
        self._patches: list[tuple[type, str, object | None]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        account: Callable[[_ThreadState, tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``.

        ``account(state, args, result)`` runs after the call for spans
        whose parent is not a span of the same name, so nested calls of
        one layer are counted once.
        """
        original = getattr(owner, attr)
        name_id = len(self._names)
        self._names.append(name)
        clock = time.perf_counter_ns
        get_state = self._state

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            spans = state.spans
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0, name_id]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                spans[index] = (name_id, start, end, parent[0] if parent else -1)
                agg = state.agg.get(name_id)
                if agg is None:
                    agg = state.agg[name_id] = [0, 0, 0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if account is not None and (parent is None or parent[2] != name_id):
                account(state, args, result)
            return result

        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def reset(self) -> None:
        """Forget spans and aggregates recorded so far (no span may be open)."""
        with self._lock:
            for state in self._threads:
                state.reset()

    def summary(self) -> dict:
        """Merged ``{layer: {calls, total_ns, self_ns}}`` plus counters."""
        layers: dict[str, dict[str, int]] = {}
        counters: dict[str, int] = {}
        with self._lock:
            for state in self._threads:
                for name_id, (calls, total, own) in state.agg.items():
                    entry = layers.setdefault(
                        self._names[name_id],
                        {"calls": 0, "total_ns": 0, "self_ns": 0},
                    )
                    entry["calls"] += calls
                    entry["total_ns"] += total
                    entry["self_ns"] += own
                for key, value in state.counters.items():
                    counters[key] = counters.get(key, 0) + value
        return {"layers": layers, "counters": counters}

    def dump(self, path: Path) -> None:
        """Write every finished span as TSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, path.open("w") as out:
            out.write("thread\tspan\tname\tstart_ns\tend_ns\tparent\n")
            for state in self._threads:
                for index, span in enumerate(state.spans):
                    if span is None:
                        continue
                    name_id, start, end, parent = span
                    out.write(
                        f"{state.thread_name}\t{index}\t{self._names[name_id]}"
                        f"\t{start}\t{end}\t{parent}\n"
                    )


def _count_encode(state: _ThreadState, args: tuple, result: object) -> None:
    """bytes_in/bytes_out of ``encode(data)`` or ``encode_many(datas)``."""
    data = args[1]
    if isinstance(result, list):
        bytes_in = sum(len(item) for item in data)
        bytes_out = sum(len(item) for item in result)
    else:
        bytes_in = len(data)
        bytes_out = len(result)  # type: ignore[arg-type]
    counters = state.counters
    counters["parity.encode.bytes_in"] = (
        counters.get("parity.encode.bytes_in", 0) + bytes_in
    )
    counters["parity.encode.bytes_out"] = (
        counters.get("parity.encode.bytes_out", 0) + bytes_out
    )


def install_layers(tracer: Tracer, strategy_cls: type, codec_cls: type) -> None:
    """Wrap each layer's public entry points."""
    from repro.block.memory import MemoryBlockDevice
    from repro.engine.links import ReplicaLink
    from repro.engine.primary import PrimaryEngine
    from repro.engine.replica import ReplicaEngine
    from repro.engine.router import ReadRouter
    from repro.engine.scheduler import FanoutScheduler
    from repro.iscsi.initiator import Initiator
    from repro.iscsi.target import Target
    from repro.iscsi.transport import Transport

    wrap = tracer.wrap
    wrap(codec_cls, "encode", "parity.encode", account=_count_encode)
    wrap(codec_cls, "encode_many", "parity.encode", account=_count_encode)
    wrap(codec_cls, "decode_xor_into", "parity.decode")
    wrap(codec_cls, "decode_into", "parity.decode")
    wrap(strategy_cls, "make_update", "engine.strategy.make_update")
    wrap(strategy_cls, "encode_update", "engine.strategy.encode_update")
    wrap(strategy_cls, "apply_update_into", "engine.strategy.apply_update_into")
    wrap(PrimaryEngine, "write_block", "engine.primary.write_block")
    wrap(PrimaryEngine, "read_block", "engine.primary.read_block")
    wrap(ReplicaLink, "submit", "engine.links.submit")
    wrap(ReplicaEngine, "receive", "engine.replica.receive")
    wrap(FanoutScheduler, "submit", "engine.scheduler.submit")
    wrap(FanoutScheduler, "drain", "engine.scheduler.drain")
    wrap(ReadRouter, "read", "engine.router.read")
    wrap(MemoryBlockDevice, "read_block", "block.read")
    wrap(MemoryBlockDevice, "read_block_into", "block.read")
    wrap(MemoryBlockDevice, "write_block", "block.write")
    wrap(MemoryBlockDevice, "write_block_from", "block.write")
    wrap(Initiator, "send_replication_frame", "iscsi.initiator.send_replication_frame")
    wrap(Transport, "send", "iscsi.transport.send")
    wrap(Transport, "receive", "iscsi.transport.receive")
    wrap(Target, "handle", "iscsi.target.handle")
