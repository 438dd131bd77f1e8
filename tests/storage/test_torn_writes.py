"""Kill-point harness: interrupt the group write at every fault point.

The core recovery guarantee under test: :meth:`DurableHierarchy.restore`
never hands back a torn or rotted generation — the SHA-256 guard rejects
it and the scan falls back to the next intact copy (older generation,
deeper tier) or reports a miss.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointGeneration
from repro.pup.puper import PackedState
from repro.storage.hierarchy import DurableHierarchy
from repro.storage.tiers import (
    NODE_LOCAL_TIER,
    SHARED_FS_TIER,
    WriteProtocol,
)

NRANKS = 4


def _gen(iteration, nranks=NRANKS, nbytes=64):
    """One complete generation with non-zero, per-rank-distinct payloads
    (a tear zeroes a buffer tail, so payloads must not already be zero)."""
    shards = {}
    for rank in range(nranks):
        buf = (np.arange(nbytes, dtype=np.uint8) % 200) + 1 + rank
        shards[rank] = PackedState(buf)
    return CheckpointGeneration(iteration=iteration, shards=shards,
                                wallclock=float(iteration))


def _payloads(gen):
    return {r: bytes(s.buffer) for r, s in sorted(gen.shards.items())}


@pytest.mark.storage_smoke
class TestKillPointMatrix:
    """Crash the group write at shard k, for every k and both protocols."""

    @pytest.mark.parametrize("fault_point", range(NRANKS))
    @pytest.mark.parametrize(
        "protocol", [WriteProtocol.UNSAFE, WriteProtocol.ATOMIC_DIRSYNC])
    def test_restore_never_serves_the_interrupted_write(
            self, protocol, fault_point):
        hier = DurableHierarchy(
            [NODE_LOCAL_TIER.with_protocol(protocol)], NRANKS)
        intact = _gen(10)
        hier.persist_now(intact, now=0.0)
        hier.stage(2, _gen(20), now=5.0)
        hier.abort_inflight(5.0, fault_point=fault_point)

        result = hier.restore(now=6.0)
        assert result is not None
        assert result.generation.iteration == 10
        assert _payloads(result.generation) == _payloads(intact)

        tier = hier.tiers[2]
        if protocol is WriteProtocol.UNSAFE:
            # The torn landing is present but rejected by the guard.
            assert tier.counters["torn_writes"] == 1
            assert tier.counters["rejected_torn"] >= 1
            assert result.fellback
        else:
            # Atomic protocol: nothing landed, the old copy is the newest.
            assert tier.counters["aborted_writes"] == 1
            assert len(tier.generations) == 1
            assert not result.fellback

    def test_crash_with_no_prior_generation_is_a_miss(self):
        hier = DurableHierarchy(
            [NODE_LOCAL_TIER.with_protocol(WriteProtocol.UNSAFE)], NRANKS)
        hier.stage(2, _gen(10), now=0.0)
        hier.abort_inflight(0.0, fault_point=1)
        assert hier.restore(now=1.0) is None
        assert hier.restore_misses == 1


class TestArmedTornWrites:
    """The chaos injector arms a tear; the *next* persist consumes it."""

    def test_unsafe_lands_torn_and_falls_back(self):
        hier = DurableHierarchy(
            [NODE_LOCAL_TIER.with_protocol(WriteProtocol.UNSAFE)], NRANKS)
        hier.persist_now(_gen(10), now=0.0)
        hier.arm_torn_write(2)
        hier.persist_now(_gen(20), now=5.0)
        result = hier.restore(now=6.0)
        assert result is not None
        assert result.generation.iteration == 10
        assert result.fellback
        assert hier.tiers[2].counters["torn_writes"] == 1

    def test_atomic_aborts_cleanly(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)
        hier.persist_now(_gen(10), now=0.0)
        hier.arm_torn_write(2)
        hier.persist_now(_gen(20), now=5.0)
        tier = hier.tiers[2]
        assert tier.counters["aborted_writes"] == 1
        assert [g.iteration for g in tier.generations] == [10]
        # The fault is consumed: the write after it lands fine.
        hier.persist_now(_gen(30), now=9.0)
        assert hier.restore(now=10.0).generation.iteration == 30


class TestBitRot:
    def test_rot_falls_back_to_older_generation(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)
        hier.persist_now(_gen(10), now=0.0)
        hier.persist_now(_gen(20), now=5.0)
        assert hier.inject_bit_rot(2, now=6.0)
        result = hier.restore(now=7.0)
        assert result.generation.iteration == 10
        assert result.fellback
        assert hier.tiers[2].counters["rejected_rot"] == 1

    def test_rot_falls_back_to_deeper_tier(self):
        hier = DurableHierarchy(
            [NODE_LOCAL_TIER.with_protocol(WriteProtocol.UNSAFE),
             SHARED_FS_TIER],
            NRANKS)
        hier.persist_now(_gen(10), now=0.0)  # lands on both levels
        # Fill level 2's retention window (keep_generations=2) with torn
        # landings, then verify the scan walks down to the intact level-3
        # copy of the original generation.
        for iteration, t in [(20, 5.0), (30, 9.0)]:
            hier.stage(2, _gen(iteration), now=t)
            hier.abort_inflight(t, fault_point=0)
        assert hier.inject_bit_rot(2, now=10.0)
        result = hier.restore(now=11.0)
        assert result.level == 3
        assert result.generation.iteration == 10
        assert result.fellback
        assert hier.fallbacks == 1

    def test_rot_on_empty_tier_is_a_noop(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)
        assert not hier.inject_bit_rot(2, now=0.0)
        assert hier.tiers[2].counters["rot_injected"] == 0


class TestWriteSpikes:
    def test_spike_multiplies_one_write_only(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)
        base = hier.stage(2, _gen(10), now=0.0)
        hier.complete_inflight(0.0)
        hier.arm_write_spike(2, factor=8.0)
        spiked = hier.stage(2, _gen(20), now=5.0)
        hier.complete_inflight(5.0)
        assert spiked == pytest.approx(8.0 * base)
        again = hier.stage(2, _gen(30), now=9.0)
        hier.complete_inflight(9.0)
        assert again == pytest.approx(base)
        assert hier.tiers[2].counters["write_spikes"] == 1


class TestRetention:
    def test_keep_generations_trims_oldest(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)  # keeps 2
        for i, t in [(10, 0.0), (20, 5.0), (30, 9.0)]:
            hier.persist_now(_gen(i), now=t)
        assert [g.iteration for g in hier.tiers[2].generations] == [20, 30]

    def test_counters_are_flat_and_prefixed(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER, SHARED_FS_TIER], NRANKS)
        hier.persist_now(_gen(10), now=0.0)
        counters = hier.counters()
        assert counters["tier2.persists"] == 1.0
        assert counters["tier3.persists"] == 1.0
        assert counters["restore_misses"] == 0.0
        assert counters["fallbacks"] == 0.0

    def test_restored_state_is_a_copy(self):
        hier = DurableHierarchy([NODE_LOCAL_TIER], NRANKS)
        hier.persist_now(_gen(10), now=0.0)
        first = hier.restore(now=1.0).generation
        before = _payloads(first)
        with pytest.raises(ValueError, match="read-only"):
            first.shards[0].buffer[:] = 0
        # Rot on the stored copy does not reach the restored generation.
        hier.tiers[2].generations[-1].shards[0].state.buffer[:] = 0
        assert _payloads(first) == before
