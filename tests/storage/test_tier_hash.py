"""One SHA-256 per shard per group write, however many tiers are due."""

import hashlib

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointGeneration
from repro.pup.puper import PackedState
from repro.storage import hierarchy
from repro.storage.hierarchy import DurableHierarchy, _digest
from repro.storage.tiers import NODE_LOCAL_TIER, SHARED_FS_TIER, WriteProtocol

NRANKS = 4


def _gen(iteration, nbytes=256):
    rng = np.random.default_rng(iteration)
    shards = {r: PackedState(rng.integers(1, 256, size=nbytes, dtype=np.uint8))
              for r in range(NRANKS)}
    return CheckpointGeneration(iteration=iteration, shards=shards,
                                wallclock=float(iteration))


def _hier(protocol=WriteProtocol.UNSAFE):
    return DurableHierarchy([NODE_LOCAL_TIER.with_protocol(protocol),
                             SHARED_FS_TIER.with_protocol(protocol)], NRANKS)


@pytest.fixture
def sha_calls(monkeypatch):
    calls = []
    real = hashlib.sha256

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy.hashlib, "sha256", counting)
    return calls


def test_digest_is_the_sha256_of_the_bytes():
    buf = _gen(1).shards[0].buffer
    assert _digest(buf) == hashlib.sha256(buf.tobytes()).hexdigest()
    assert _digest(buf[:0]) == hashlib.sha256(b"").hexdigest()


def test_two_due_tiers_hash_each_shard_once(sha_calls):
    hier = _hier()
    sha_calls.clear()                       # the hierarchy's RNG seeding
    gen = _gen(10)
    hier.stage(2, gen, now=0.0)
    hier.stage(3, gen, now=0.0)
    assert len(sha_calls) == NRANKS
    hier.complete_inflight(0.0)
    assert len(sha_calls) == NRANKS

    stored = {level: hier.tiers[level].generations[-1] for level in (2, 3)}
    for rank, source in gen.shards.items():
        expected = hashlib.sha256(source.buffer.tobytes()).hexdigest()
        copies = [stored[level].shards[rank] for level in (2, 3)]
        for shard in copies:
            assert shard.digest == expected
            assert shard.state.buffer.tobytes() == source.buffer.tobytes()
            assert not np.shares_memory(shard.state.buffer, source.buffer)
        assert not np.shares_memory(copies[0].state.buffer,
                                    copies[1].state.buffer)


def test_each_group_write_hashes_anew(sha_calls):
    hier = _hier()
    sha_calls.clear()
    gen = _gen(10)
    hier.persist_now(gen, now=0.0)
    hier.persist_now(gen, now=5.0)          # same generation, new group write
    hier.persist_now(_gen(20), now=9.0)
    assert len(sha_calls) == 3 * NRANKS
    # A generation changed between group writes is stored as it is now.
    gen.put(0, PackedState(np.full(256, 7, dtype=np.uint8)))
    hier.persist_now(gen, now=12.0)
    newest = hier.tiers[3].generations[-1].shards[0]
    assert newest.digest == hashlib.sha256(bytes([7]) * 256).hexdigest()


def test_distinct_generations_in_one_group_write_hash_separately(sha_calls):
    hier = _hier()
    sha_calls.clear()
    hier.stage(2, _gen(10), now=0.0)
    hier.stage(3, _gen(20), now=0.0)
    assert len(sha_calls) == 2 * NRANKS
    hier.complete_inflight(0.0)
    assert hier.verify_generation(hier.tiers[2].generations[-1]) is None
    assert hier.verify_generation(hier.tiers[3].generations[-1]) is None


def test_torn_copy_is_rejected_and_the_other_tier_serves():
    hier = _hier()
    gen = _gen(10)
    hier.arm_torn_write(2)
    hier.persist_now(gen, now=0.0)          # level 2 lands torn, level 3 ok
    assert hier.tiers[2].counters["torn_writes"] == 1
    assert hier.verify_generation(hier.tiers[2].generations[-1]) is not None
    result = hier.restore(now=1.0)
    assert result is not None and result.level == 3 and result.fellback
    assert all(result.generation.shards[r].buffer.tobytes()
               == gen.shards[r].buffer.tobytes() for r in gen.shards)


def test_rotted_copy_is_rejected_on_restore():
    hier = _hier()
    gen = _gen(10)
    hier.persist_now(gen, now=0.0)
    assert hier.inject_bit_rot(2, now=1.0)
    result = hier.restore(now=2.0)
    assert result is not None and result.level == 3 and result.fellback
    assert hier.tiers[2].counters["rejected_rot"] == 1
    # Rot on the last intact copy leaves nothing to serve.
    assert hier.inject_bit_rot(3, now=3.0)
    assert hier.restore(now=4.0) is None
