"""Seeded block-I/O streams recorded from the repo's own substrates.

Each workload runs its substrate (minidb TPC-C/TPC-W, the miniext ``tar``
micro-benchmark) once on a :class:`RecordingDevice`.  The device records
every block read with the bytes it returned and every block write, after
population, so a stream replays from the post-population base image.
Generation is input preparation and is never timed as a metric.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.block.device import BlockDevice
from repro.block.memory import MemoryBlockDevice
from repro.fs.filesystem import FileSystem
from repro.minidb.db import Database
from repro.workloads.fsmicro import FsMicroBenchmark, FsMicroConfig
from repro.workloads.tpcc import TpccConfig, TpccWorkload
from repro.workloads.tpcw import TpcwConfig, TpcwWorkload

#: volume geometry of repro.experiments.harness: 64 MiB of 8 KiB blocks
BLOCK_SIZE = 8192
NUM_BLOCKS = 64 * 1024 * 1024 // BLOCK_SIZE

#: (is_write, lba, data): data is what a write stored or a read returned
Op = tuple[bool, int, bytes]


class RecordingDevice(BlockDevice):
    """Pass-through device that records reads and writes once armed.

    For each recorded write it also notes whether the bytes were
    unchanged and, when not, the fraction of bytes that changed, which
    are the input properties PRINS' skip path and codec depend on.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner.block_size, inner.num_blocks)
        self._inner = inner
        self.recording = False
        self.ops: list[Op] = []
        self.unchanged_writes = 0
        self.changed_fractions: list[float] = []

    def _read(self, lba: int) -> bytes:
        data = self._inner.read_block(lba)
        if self.recording:
            self.ops.append((False, lba, data))
        return data

    def _write(self, lba: int, data: bytes) -> None:
        if self.recording:
            old = np.frombuffer(self._inner.read_block(lba), dtype=np.uint8)
            changed = np.count_nonzero(old != np.frombuffer(data, dtype=np.uint8))
            if changed:
                self.changed_fractions.append(changed / len(data))
            else:
                self.unchanged_writes += 1
            self.ops.append((True, lba, data))
        self._inner.write_block(lba, data)


@dataclass
class Stream:
    """One recorded stream plus the image it starts from."""

    base_image: bytes
    ops: list[Op]
    unchanged_writes: int
    changed_fractions: list[float]
    generation_s: float

    @property
    def writes(self) -> int:
        """Block writes in one pass."""
        return sum(1 for is_write, _, _ in self.ops if is_write)

    def properties(self) -> dict:
        """Input properties the layers' behaviour depends on (metadata)."""
        writes = self.writes
        return {
            "ops": len(self.ops),
            "read_share": round((len(self.ops) - writes) / len(self.ops), 4),
            "unique_lbas": len({lba for _, lba, _ in self.ops}),
            "unchanged_write_share": round(self.unchanged_writes / writes, 4),
            "median_changed_fraction": round(
                float(statistics.median(self.changed_fractions)), 4
            )
            if self.changed_fractions
            else 0.0,
            "generation_s": round(self.generation_s, 3),
        }


def _record(workload: str, seed: int, populate, run) -> Stream:
    """Populate on a fresh volume, snapshot it, then record ``run``."""
    start = time.perf_counter()
    inner = MemoryBlockDevice(BLOCK_SIZE, NUM_BLOCKS)
    device = RecordingDevice(inner)
    state = populate(device)
    base_image = inner.snapshot()
    device.recording = True
    run(state)
    device.recording = False
    if not device.ops:
        raise RuntimeError(f"{workload} seed {seed} recorded no block I/O")
    return Stream(
        base_image=base_image,
        ops=device.ops,
        unchanged_writes=device.unchanged_writes,
        changed_fractions=device.changed_fractions,
        generation_s=time.perf_counter() - start,
    )


def tpcc_stream(seed: int) -> Stream:
    """TPC-C, one warehouse, Oracle-style commit batching (16 tx/flush).

    A 32-page buffer pool is half the ~68 pages the mix touches, so page
    misses reach the volume as reads and evictions as early write-backs
    beside the commit flushes.  A pool at the edge of the working set
    (48 pages) made the read share swing from 38% to 52% across seeds.
    """

    def populate(device: BlockDevice) -> TpccWorkload:
        workload = TpccWorkload(
            Database(device, pool_capacity=32),
            TpccConfig(warehouses=1, seed=seed, commit_interval=16),
        )
        workload.populate()
        workload.db.commit()
        return workload

    return _record("tpcc", seed, populate, lambda workload: workload.run(600))


def tpcw_stream(seed: int) -> Stream:
    """TPC-W with a 32-page buffer pool, so most page touches are reads.

    2,000 items instead of the paper's 10,000 keep population near 4 s;
    the database is still many times larger than the pool.
    """

    def populate(device: BlockDevice) -> TpcwWorkload:
        workload = TpcwWorkload(
            Database(device, pool_capacity=32),
            TpcwConfig(items=2000, initial_customers=100, seed=seed),
        )
        workload.populate()
        workload.db.commit()
        return workload

    return _record("tpcw", seed, populate, lambda workload: workload.run(1200))


def tar_stream(seed: int) -> Stream:
    """The Fig. 7 tar micro-benchmark: ten edit + re-tar rounds."""

    def populate(device: BlockDevice) -> FsMicroBenchmark:
        benchmark = FsMicroBenchmark(
            FileSystem.format(device, inode_count=512),
            FsMicroConfig(rounds=10, seed=seed),
        )
        benchmark.populate()
        return benchmark

    return _record("tar-iscsi", seed, populate, lambda benchmark: benchmark.run())


GENERATORS = {
    "tpcc": tpcc_stream,
    "tpcw": tpcw_stream,
    "tar-iscsi": tar_stream,
}
