"""Micro-benchmarks for the checkpoint hot path.

Measures the layers of the checkpoint bytes path, so every change has a
perf trajectory to defend:

* **packing** — ``pack(obj, like=prev)``, the engine's steady-state pack, in
  GiB/s and in GiB/s on the reference host of
  ``perfbench/hostspeed.py`` (``pack_ref_gib_per_s``, gated by an absolute
  floor);
* **checksums** — Fletcher-32/64 and the 32-byte striped digest throughput,
  the digest gated against the seed's copying implementation;
* **campaigns** — multi-seed replay throughput, serial vs ``workers=N``;
* **durable tiers** — the level-2/3 persist path (over buffers the tier
  shares, hashing nothing), the verified restore that runs the SHA-256
  guard, its modeled atomic-vs-unsafe safety overhead, and the torn-write
  fallback guarantee;
* **SDC scan** — ``detect_sdc`` over two equal block-backed generations in
  full and checksum mode (informational, no gate).

All timings use best-of-``repeats`` ``perf_counter`` deltas; payload sizes
and speedups land in ``BENCH_checkpoint.json`` via :func:`run_all`.
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from perfbench.hostspeed import speed
from repro.harness.campaign import effective_workers, run_campaign
from repro.pup.checksum import checkpoint_checksum, fletcher32, fletcher64
from repro.pup.puper import PackedState, pack

MIB = float(1 << 20)


class MultiFieldState:
    """A pupable object with ``nfields`` float64 arrays totalling ~``total_bytes``."""

    def __init__(self, nfields: int, total_bytes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        per_field = max(1, total_bytes // nfields // 8)
        self.iteration = 0
        self.arrays = [rng.random(per_field) for _ in range(nfields)]

    def pup(self, p):
        self.iteration = p.pup_int("iteration", self.iteration)
        for i, arr in enumerate(self.arrays):
            self.arrays[i] = p.pup_array(f"field{i:02d}", arr)


def _best(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def host_speed(fn: Callable[[], float]) -> tuple[float, float]:
    """``(fn(), host speed)``: the speed is the mean of
    :func:`perfbench.hostspeed.speed` sampled just before and just after
    ``fn``, so a rate divided by it is a rate on the reference host."""
    before = speed()
    result = fn()
    return result, (before + speed()) / 2


def bench_pack(total_mib: float = 64.0, nfields: int = 16,
               repeats: int = 5) -> dict:
    """Steady-state ``pack(obj, like=prev)`` throughput, raw and
    host-normalised."""
    obj = MultiFieldState(nfields, int(total_mib * MIB))
    prev = pack(obj)
    t_pack, host = host_speed(lambda: _best(lambda: pack(obj, like=prev),
                                            repeats))
    gib_per_s = prev.nbytes / t_pack / (1 << 30)
    return {
        "payload_mib": prev.nbytes / MIB,
        "nfields": nfields,
        "pack_s": t_pack,
        "pack_gib_per_s": gib_per_s,
        "host_speed": host,
        "pack_ref_gib_per_s": gib_per_s / host,
    }


def _seed_striped_digest(data: np.ndarray) -> bytes:
    """The seed's striped digest, verbatim in structure: each stripe is
    gathered, pad-*concatenated*, and expanded to an ``astype(int64)`` copy
    before a kernel that re-``arange``-s its weight vector per block.  Kept as
    the reference the current gather + in-place kernel is gated against."""
    from repro.pup.checksum import _BLOCK, _M64

    out = bytearray()
    for stripe in range(4):
        raw = np.ascontiguousarray(data[stripe::4])
        rem = raw.nbytes % 4
        if rem:
            raw = np.concatenate([raw, np.zeros(4 - rem, dtype=np.uint8)])
        words = raw.view(np.dtype(np.uint32).newbyteorder("<")).astype(np.int64)
        s1 = np.int64(0)
        s2 = np.int64(0)
        for start in range(0, words.size, _BLOCK):
            chunk = words[start : start + _BLOCK]
            k = chunk.size
            weights = np.arange(k, 0, -1, dtype=np.int64)
            chunk_sum = np.int64(chunk.sum() % _M64)
            weighted = np.int64((weights * chunk).sum() % _M64)
            s2 = (s2 + (np.int64(k) % _M64) * s1 + weighted) % _M64
            s1 = (s1 + chunk_sum) % _M64
        out += ((int(s2) << 32) | int(s1)).to_bytes(8, "little")
    return bytes(out)


def bench_fletcher(total_mib: float = 64.0, repeats: int = 3) -> dict:
    """Raw Fletcher-32/64 and striped-digest throughput.

    ``striped_speedup_vs_seed`` gates the striped digest against the seed's
    copying implementation.  The striped digest intrinsically trails plain
    ``fletcher64`` (~0.4x on this path): the 4-byte-stride gathers touch
    every cache line four times over, and no numpy-only alternative beats
    them — byte extraction from a ``uint32`` view via shift/mask measured
    ~2x *slower* than the gather, and the gather-free weighted-column-sums
    variant loses too (integer matvec is scalar in numpy; see the module
    docstring of :mod:`repro.pup.checksum`).  So the digest is gated as a
    ratio to the seed reference, which shares the gather cost but adds the
    pad-concatenate and int64-expansion copies the current path eliminated.
    """
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=int(total_mib * MIB), dtype=np.uint8)
    assert checkpoint_checksum(data) == _seed_striped_digest(data), \
        "striped digest no longer bit-identical to the seed implementation"
    t32 = _best(lambda: fletcher32(data), repeats)
    t64 = _best(lambda: fletcher64(data), repeats)
    t_striped = _best(lambda: checkpoint_checksum(data), repeats)
    t_seed = _best(lambda: _seed_striped_digest(data), repeats)
    gib = data.nbytes / (1 << 30)
    return {
        "payload_mib": data.nbytes / MIB,
        "fletcher32_s": t32,
        "fletcher64_s": t64,
        "striped_digest_s": t_striped,
        "seed_striped_digest_s": t_seed,
        "fletcher32_gib_per_s": gib / t32,
        "fletcher64_gib_per_s": gib / t64,
        "striped_digest_gib_per_s": gib / t_striped,
        "striped_speedup_vs_seed": t_seed / t_striped,
    }


def bench_tiered_persist(total_mib: float = 64.0, nshards: int = 8,
                         repeats: int = 3) -> dict:
    """Durable-tier group write and verified restore: real cost of the
    modeled tier path.

    A persist hashes nothing (the tier shares the generation's read-only
    buffers), so ``persist_atomic_s`` times bookkeeping only.  The SHA-256
    guard runs on restore: a first restore of a copy hashes each shard as
    staged (the recorded digest, read for the first time) and as stored
    (the fresh recompute), so ``sha_share_of_restore`` — two SHA-256 passes
    over the payload against ``restore_s`` — shows where that wall time
    goes.  Two dimensionless gates ride along: ``sim_safety_overhead`` (the
    modeled atomic-vs-unsafe write-time ratio, pure cost-model arithmetic,
    must stay >= 1) and ``restore_fallback_correct`` (a torn group write
    must never be served back by :meth:`DurableHierarchy.restore`).
    """
    from repro.core.checkpoint import CheckpointGeneration
    from repro.storage.hierarchy import DurableHierarchy, _digest
    from repro.storage.tiers import NODE_LOCAL_TIER, WriteProtocol

    rng = np.random.default_rng(7)
    per_shard = max(1, int(total_mib * MIB) // nshards)

    def make_gen(iteration: int) -> CheckpointGeneration:
        return CheckpointGeneration(
            iteration=iteration,
            shards={r: PackedState(rng.integers(0, 256, size=per_shard,
                                                dtype=np.uint8))
                    for r in range(nshards)})

    gen = make_gen(10)
    nbytes = sum(s.nbytes for s in gen.shards.values())

    def persisted(protocol: WriteProtocol) -> DurableHierarchy:
        hier = DurableHierarchy(
            [NODE_LOCAL_TIER.with_protocol(protocol)], nshards)
        hier.persist_now(gen, 0.0)
        return hier

    t_atomic = _best(lambda: persisted(WriteProtocol.ATOMIC_DIRSYNC),
                     repeats)
    t_unsafe = _best(lambda: persisted(WriteProtocol.UNSAFE), repeats)
    t_restore = float("inf")
    for _ in range(repeats):                # a fresh copy: no digest read yet
        hier = persisted(WriteProtocol.ATOMIC_DIRSYNC)
        t0 = time.perf_counter()
        restored = hier.restore(1.0)
        t_restore = min(t_restore, time.perf_counter() - t0)
        assert restored is not None and not restored.fellback
    t_sha = _best(lambda: [_digest(s.buffer) for s in gen.shards.values()],
                  repeats)

    hier = persisted(WriteProtocol.UNSAFE)
    hier.stage(2, make_gen(20), 1.0)
    hier.abort_inflight(1.0, fault_point=nshards // 2)
    restored = hier.restore(2.0)
    fallback_correct = (restored is not None
                        and restored.generation.iteration == 10
                        and restored.fellback)
    return {
        "payload_mib": nbytes / MIB,
        "nshards": nshards,
        "persist_atomic_s": t_atomic,
        "persist_unsafe_s": t_unsafe,
        "restore_s": t_restore,
        "sha256_s": t_sha,
        "restore_gib_per_s": nbytes / t_restore / (1 << 30),
        "sha_share_of_restore": 2.0 * t_sha / t_restore,
        "sim_safety_overhead": NODE_LOCAL_TIER.safety_overhead(nbytes,
                                                               nshards),
        "restore_fallback_correct": bool(fallback_correct),
    }


class SplitRows:
    """A replica of one ``pup_split`` byte array, one row per rank."""

    def __init__(self, nranks: int, row_bytes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.rows = rng.integers(0, 256, size=(nranks, row_bytes),
                                 dtype=np.uint8)

    def pup(self, p):
        p.pup_split("rows", self.rows)


def bench_sdc_scan(total_mib: float = 64.0, row_kib: int = 64,
                   repeats: int = 3) -> dict:
    """``detect_sdc`` over two equal block-backed generations.

    The scan compares bytes first, one pair of blocks at a time, so on equal
    generations neither mode digests or compares a field: both rates are the
    row-wise byte comparison's.  Informational only.
    """
    from repro.core.checkpoint import CheckpointGeneration
    from repro.core.sdc import detect_sdc

    nranks = max(1, int(total_mib * MIB) // (row_kib << 10))
    replica = SplitRows(nranks, row_kib << 10)
    local, remote = CheckpointGeneration(1), CheckpointGeneration(1)
    local.pack(replica, nranks)
    remote.pack(replica, nranks, like=local)
    t_full = _best(lambda: detect_sdc(local, remote), repeats)
    t_checksum = _best(lambda: detect_sdc(local, remote, use_checksum=True),
                       repeats)
    return {
        "payload_mib": local.nbytes / MIB,
        "nranks": nranks,
        "blocks": len(local.blocks),
        "full_s": t_full,
        "checksum_s": t_checksum,
        "full_gib_per_s": local.nbytes / t_full / (1 << 30),
        "checksum_gib_per_s": local.nbytes / t_checksum / (1 << 30),
    }


def bench_campaign(seeds: int = 8, workers: int = 4,
                   total_iterations: int = 400) -> dict:
    """Multi-seed campaign throughput, serial vs process-parallel.

    The speedup tracks the machine's core count: worker requests are clamped
    to ``os.cpu_count()`` (``workers_effective`` records the clamp), so on a
    single-core box both paths run serially and the ratio is ~1.0 instead of
    the misleading sub-1.0 fork/IPC overhead the unclamped pool used to show.
    The bitwise-identity check holds everywhere.
    """
    kwargs = dict(nodes_per_replica=2, total_iterations=total_iterations,
                  checkpoint_interval=2.0, hard_mtbf=20.0, horizon=20_000.0)
    t0 = time.perf_counter()
    serial = run_campaign("synthetic", seeds=range(seeds), **kwargs)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_campaign("synthetic", seeds=range(seeds), workers=workers,
                            **kwargs)
    t_parallel = time.perf_counter() - t0
    return {
        "seeds": seeds,
        "workers": workers,
        "workers_effective": effective_workers(workers, seeds),
        "cpu_count": os.cpu_count(),
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "parallel_speedup": t_serial / t_parallel,
        "summaries_identical": serial.summary == parallel.summary,
        "serial_seeds_per_s": seeds / t_serial,
        "parallel_seeds_per_s": seeds / t_parallel,
    }


def run_all(*, quick: bool = False, total_mib: float = 64.0,
            repeats: int = 5) -> dict:
    """Run every micro-benchmark; ``quick`` shrinks sizes for smoke testing."""
    if quick:
        total_mib, repeats = 1.0, 1
        campaign_kwargs = dict(seeds=2, workers=2, total_iterations=20)
    else:
        campaign_kwargs = dict(seeds=8, workers=4)
    return {
        "pack": bench_pack(total_mib=total_mib, repeats=repeats),
        "fletcher": bench_fletcher(total_mib=total_mib,
                                   repeats=max(2, repeats - 2)),
        "tiered_persist": bench_tiered_persist(
            total_mib=total_mib, repeats=max(2, repeats - 2)),
        "sdc_scan": bench_sdc_scan(total_mib=total_mib,
                                   repeats=max(2, repeats - 2)),
        "campaign": bench_campaign(**campaign_kwargs),
    }
