"""Checkpoint-store (double in-memory generations) tests."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointGeneration, CheckpointStore
from repro.pup.puper import PackedState
from repro.util.errors import SimulationError


def shard(value=1.0, n=8):
    return PackedState(np.full(n, value, dtype=np.uint8))


def full_generation(iteration=5, nodes=4, value=1):
    gen = CheckpointGeneration(iteration=iteration)
    for r in range(nodes):
        gen.shards[r] = shard(value)
    return gen


class TestCandidateLifecycle:
    def test_commit_promotes_candidate_to_safe(self):
        store = CheckpointStore(2)
        store.begin_candidate(0, iteration=3, wallclock=1.0)
        store.put_shard(0, 0, shard())
        store.put_shard(0, 1, shard())
        gen = store.commit(0)
        assert store.safe(0) is gen
        assert store.safe_iteration(0) == 3
        assert store.commits == 1

    def test_commit_requires_all_shards(self):
        store = CheckpointStore(3)
        store.begin_candidate(0, 1, 0.0)
        store.put_shard(0, 0, shard())
        with pytest.raises(SimulationError, match="1 of 3"):
            store.commit(0)

    def test_discard_keeps_previous_safe(self):
        store = CheckpointStore(1)
        store.install_safe(0, full_generation(iteration=2, nodes=1))
        store.begin_candidate(0, 7, 0.0)
        store.put_shard(0, 0, shard(9))
        store.discard(0)
        assert store.safe_iteration(0) == 2
        assert store.discards == 1

    def test_lineage_stamped_and_carried_by_clone(self):
        store = CheckpointStore(1)
        store.begin_candidate(0, 4, 0.0, lineage=7)
        store.put_shard(0, 0, shard())
        gen = store.commit(0)
        assert gen.lineage == 7
        assert store.clone_generation(gen).lineage == 7
        assert full_generation().lineage is None

    def test_put_without_begin_rejected(self):
        store = CheckpointStore(1)
        with pytest.raises(SimulationError):
            store.put_shard(0, 0, shard())

    def test_commit_without_candidate_rejected(self):
        store = CheckpointStore(1)
        with pytest.raises(SimulationError):
            store.commit(0)

    def test_replicas_independent(self):
        store = CheckpointStore(1)
        store.begin_candidate(0, 1, 0.0)
        store.put_shard(0, 0, shard())
        store.begin_candidate(1, 1, 0.0)
        store.put_shard(1, 0, shard())
        store.commit(0)
        assert store.candidate(1) is not None
        assert store.safe(1) is None


class TestSafeGenerations:
    def test_install_safe_validates_completeness(self):
        store = CheckpointStore(4)
        with pytest.raises(SimulationError):
            store.install_safe(0, full_generation(nodes=2))

    def test_clone_is_deep(self):
        store = CheckpointStore(2)
        gen = full_generation(nodes=2, value=5)
        clone = store.clone_generation(gen)
        clone.shards[0].buffer[:] = 0
        assert (gen.shards[0].buffer == 5).all()

    def test_nbytes_sums_shards(self):
        gen = full_generation(nodes=4)
        assert gen.nbytes == 4 * 8

    def test_missing_safe_is_none(self):
        store = CheckpointStore(1)
        assert store.safe(0) is None
        assert store.safe_iteration(1) is None


class TestMemoryAccounting:
    def test_memory_counts_safe_and_candidate(self):
        store = CheckpointStore(2)
        store.install_safe(0, full_generation(nodes=2, value=1))
        assert store.memory_bytes() == 16
        store.begin_candidate(0, 9, 0.0)
        store.put_shard(0, 0, shard())
        store.put_shard(0, 1, shard())
        assert store.memory_bytes() == 32  # double-buffered high-water mark
        store.commit(0)
        assert store.memory_bytes() == 16  # old safe generation released

    def test_framework_reports_peak_memory(self):
        from repro.core import ACR, ACRConfig

        acr = ACR("synthetic", nodes_per_replica=2,
                  config=ACRConfig(checkpoint_interval=2.0,
                                   total_iterations=150, tasks_per_node=1,
                                   app_scale=1e-4, seed=1))
        report = acr.run(until=1000.0)
        assert report.completed
        # Peak >= two replicas' worth of safe+candidate data.
        single = acr.store.safe(0).nbytes
        assert report.peak_checkpoint_memory >= 3 * single


class TestRunningByteTotal:
    """``memory_bytes`` is a running total; it must always equal the sum
    over every held generation, and the high-water mark must be the one the
    old re-summing store recorded at the same sampling points."""

    @staticmethod
    def recomputed(store):
        return sum(gen.nbytes for r in (0, 1)
                   for gen in (store.safe(r), store.candidate(r))
                   if gen is not None)

    def test_total_tracks_every_operation(self):
        store = CheckpointStore(2)
        peak = 0

        def check(sampled=False):
            nonlocal peak
            assert store.memory_bytes() == self.recomputed(store)
            if sampled:  # commit / install / last-rank put
                peak = max(peak, self.recomputed(store))
            assert store.high_water_bytes == peak

        # A generation whose shards were filled before install_safe.
        gen = CheckpointGeneration(iteration=0)
        gen.shards[0] = shard(n=8)
        gen.shards[1] = shard(n=24)
        store.install_safe(0, gen)
        check(sampled=True)
        store.install_safe(1, store.clone_generation(gen))
        check(sampled=True)
        store.begin_candidate(0, 3, 0.0)
        check()
        store.put_shard(0, 0, shard(n=40))
        check()
        store.put_shard(0, 0, shard(n=4))  # a rank re-put replaces its bytes
        check()
        store.put_shard(0, 1, shard(n=16))
        check(sampled=True)
        store.begin_candidate(1, 3, 0.0)
        store.put_shard(1, 0, shard(n=64))
        check()
        store.discard(1)
        check()
        store.discard(1)  # nothing open: no-op
        check()
        store.commit(0)  # replaces the installed safe generation
        check(sampled=True)
        store.begin_candidate(0, 5, 0.0)
        store.put_shard(0, 0, shard(n=100))
        check()
        store.begin_candidate(0, 6, 0.0)  # reopening drops the old candidate
        check()
        store.put_shard(0, 0, shard(n=2))
        store.put_shard(0, 1, shard(n=2))
        check(sampled=True)
        store.install_safe(1, full_generation(nodes=2))  # over a safe one
        check(sampled=True)
        store.commit(0)
        check(sampled=True)
        assert store.memory_bytes() == 4 + 16
