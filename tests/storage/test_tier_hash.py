"""Tier digests: the SHA-256 of each shard as staged, computed when first
read and at most once per group write, however many tiers are due."""

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


def _sha(buf):
    """The reference digest, which ``sha_calls`` does not count."""
    return hashlib.new("sha256", bytes(buf)).hexdigest()


def test_two_due_tiers_hash_each_shard_once(sha_calls):
    hier = _hier()
    sha_calls.clear()                       # the hierarchy's RNG seeding
    gen = _gen(10)
    hier.stage(2, gen, now=0.0)
    hier.stage(3, gen, now=0.0)
    hier.complete_inflight(0.0)
    assert sha_calls == []                  # staging and landing hash nothing

    stored = [hier.tiers[level].generations[-1] for level in (2, 3)]
    assert stored[0].digests is stored[1].digests
    for rank, source in enumerate(gen.buffers):
        # Read through either tier first: the shard is hashed once.
        for copy in (stored[rank % 2], stored[1 - rank % 2]):
            assert copy.digests[rank] == _sha(source)
            # Shared, not copied: the tier holds the read-only source buffer.
            assert copy.gen.buffers[rank] is source
            assert not source.flags.writeable
        assert len(sha_calls) == rank + 1
        assert sha_calls[-1][0] is source
    # Each tier's generation is its own object with lists of its own.
    assert len({id(gen), id(stored[0].gen), id(stored[1].gen)}) == 3
    assert stored[0].gen.buffers is not stored[1].gen.buffers


def _bytes(gen):
    return [bytes(b) for b in gen.buffers]


@pytest.mark.parametrize("fault", ["rot", "armed tear", "crash"])
def test_a_fault_on_one_tier_reaches_no_other_copy(fault):
    hier = _hier()
    gen = _gen(10)
    before = _bytes(gen)
    hier.persist_now(gen, now=0.0)
    restored = hier.restore(now=1.0).generation
    if fault == "rot":
        assert hier.inject_bit_rot(2, now=2.0)
    elif fault == "armed tear":
        hier.arm_torn_write(2)
        hier.persist_now(gen, now=2.0)      # level 2 lands torn, level 3 ok
    else:
        hier.stage(2, gen, now=2.0)
        hier.abort_inflight(2.0, fault_point=1)
    damaged = hier.tiers[2].generations[-1]
    assert hier.verify_generation(damaged) is not None
    # Copy on write: the one buffer the fault corrupted was replaced by a
    # read-only copy in that tier's own list.
    replaced = [r for r in damaged.gen.ranks
                if damaged.gen.buffers[r] is not gen.buffers[r]]
    assert len(replaced) == 1
    assert not damaged.gen.buffers[replaced[0]].flags.writeable
    assert _bytes(gen) == before
    assert _bytes(restored) == before
    assert all(_bytes(stored.gen) == before
               for stored in hier.tiers[3].generations)


def test_each_group_write_hashes_anew(sha_calls):
    hier = _hier()
    sha_calls.clear()
    gen = _gen(10)
    # The same generation twice, then another: one hash per shard each.
    for writes, source in enumerate((gen, gen, _gen(20))):
        hier.persist_now(source, now=5.0 * writes)
        assert len(sha_calls) == writes * NRANKS    # persisting hashes nothing
        for level in (2, 3):
            stored = hier.tiers[level].generations[-1]
            for rank in range(NRANKS):
                assert stored.digests[rank] == _sha(source.buffers[rank])
    assert len(sha_calls) == 3 * NRANKS
    # A generation changed between group writes is stored as it is now.
    gen.put(0, PackedState(np.full(256, 7, dtype=np.uint8)))
    hier.persist_now(gen, now=12.0)
    newest = hier.tiers[3].generations[-1]
    assert newest.digests[0] == hashlib.sha256(bytes([7]) * 256).hexdigest()


def test_distinct_generations_in_one_group_write_hash_separately(sha_calls):
    hier = _hier()
    sha_calls.clear()
    hier.stage(2, _gen(10), now=0.0)
    hier.stage(3, _gen(20), now=0.0)
    hier.complete_inflight(0.0)
    assert sha_calls == []
    low, high = (hier.tiers[level].generations[-1] for level in (2, 3))
    assert low.digests is not high.digests
    assert [low.digests[r] for r in range(NRANKS)] != [
        high.digests[r] for r in range(NRANKS)]
    assert len(sha_calls) == 2 * NRANKS
    assert hier.verify_generation(low) is None
    assert hier.verify_generation(high) is None


def test_an_aborted_group_write_hashes_nothing(sha_calls):
    hier = _hier()
    sha_calls.clear()
    gen = _gen(10)
    hier.stage(2, gen, now=0.0)
    hier.stage(3, gen, now=0.0)
    hier.abort_inflight(0.0, fault_point=1)
    hier.stage(2, gen, now=1.0)
    hier.discard_inflight()
    assert sha_calls == []


def _fault(kind, hier, gen):
    zeros = PackedState(np.zeros(256, dtype=np.uint8))
    if kind == "rot":
        assert hier.inject_bit_rot(2, now=1.0)
    elif kind == "tear":
        hier.arm_torn_write(2)
        hier.persist_now(gen, now=1.0)      # level 2 lands torn, level 3 ok
    elif kind == "crash":
        hier.stage(2, gen, now=1.0)
        hier.abort_inflight(1.0, fault_point=1)
    elif kind == "put on the copy":
        hier.tiers[2].generations[-1].gen.put(1, zeros)
    else:
        gen.put(1, zeros)


@pytest.mark.parametrize("kind", ["rot", "tear", "crash", "put on the copy",
                                  "put on the source"])
def test_a_digest_first_read_after_a_fault_is_the_staged_one(kind):
    hier = _hier()
    gen = _gen(10)
    staged = _bytes(gen)
    hier.persist_now(gen, now=0.0)          # no digest read before the fault
    _fault(kind, hier, gen)
    newest = hier.tiers[2].generations[-1]
    assert [newest.digests[r] for r in range(NRANKS)] == [
        hashlib.sha256(b).hexdigest() for b in staged]
    result = hier.restore(now=2.0)
    assert result is not None
    assert _bytes(result.generation) == staged
    if kind == "put on the source":         # the stored copies are intact
        assert result.level == 2 and not result.fellback
        assert _bytes(gen) != staged
    else:
        assert result.fellback
        assert hier.verify_generation(newest) is not None


def test_restore_hashes_the_stored_bytes_of_every_shard_it_verifies(
        sha_calls):
    hier = _hier()
    gen = _gen(10)
    hier.persist_now(gen, now=0.0)
    stored = hier.tiers[2].generations[-1]
    for rank in range(NRANKS):              # memoise every staged digest
        stored.digests[rank]
    sha_calls.clear()
    result = hier.restore(now=1.0)
    assert result.level == 2
    # One fresh hash per shard, of the stored buffer, though it is the
    # buffer staged and its digest is already known.
    assert [call[0] for call in sha_calls] == stored.gen.buffers
    assert all(call[0] is buf for call, buf in zip(sha_calls,
                                                   stored.gen.buffers))

    # A rotted copy is rehashed up to the shard that fails, then every
    # shard of the copy that serves; level 3 shares level 2's digests.
    assert hier.inject_bit_rot(2, now=2.0)
    rotted = next(r for r in range(NRANKS)
                  if stored.gen.buffers[r] is not gen.buffers[r])
    sha_calls.clear()
    result = hier.restore(now=3.0)
    assert result.level == 3 and result.fellback
    level3 = hier.tiers[3].generations[-1].gen.buffers
    assert [call[0] for call in sha_calls] == (
        stored.gen.buffers[:rotted + 1] + level3)


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
