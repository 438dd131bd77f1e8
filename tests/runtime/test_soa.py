"""Struct-of-arrays backing: private vs shared-memory arena equivalence.

The contract of :mod:`repro.runtime.soa` is that the arena only changes
*where the bytes live* — a :class:`NodeStateArrays` or
:class:`TaskProgressArray` constructed over :class:`ShmArena` views must
behave exactly like one over private numpy allocations, and the arena's
create/attach/close/unlink lifecycle must be safe to drive from tests
without leaking segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.soa import NodeStateArrays, ShmArena, TaskProgressArray


@pytest.fixture
def arena():
    a = ShmArena.create(4096)
    yield a
    a.close()
    a.unlink()


class TestShmArena:
    def test_create_zero_fills_and_views_share_bytes(self, arena):
        v1 = arena.view(0, 8, np.int64)
        assert (v1 == 0).all()
        v1[3] = 42
        v2 = arena.view(0, 8, np.int64)
        assert v2[3] == 42
        del v1, v2

    def test_views_at_offsets_do_not_overlap(self, arena):
        a = arena.view(0, 4, np.int64)
        b = arena.view(32, 4, np.float64)
        a[:] = 7
        b[:] = 1.5
        assert (a == 7).all() and (b == 1.5).all()
        del a, b

    def test_attach_by_name_sees_creator_writes(self, arena):
        v = arena.view(0, 4, np.int64)
        v[:] = [1, 2, 3, 4]
        other = ShmArena.attach(arena.name)
        try:
            w = other.view(0, 4, np.int64)
            assert w.tolist() == [1, 2, 3, 4]
            assert other.owner is False
            del w
        finally:
            other.close()
        del v

    def test_attacher_unlink_is_a_noop(self, arena):
        other = ShmArena.attach(arena.name)
        other.unlink()  # non-owner: must not remove the segment
        other.close()
        again = ShmArena.attach(arena.name)
        again.close()

    def test_close_with_live_views_does_not_raise(self):
        # Teardown ordering bugs (a view outliving its arena) must degrade
        # to a swallowed BufferError, never an exception out of close().
        a = ShmArena.create(64)
        v = a.view(0, 8, np.int64)
        a.close()
        del v
        a.close()
        a.unlink()

    def test_unlink_idempotent(self):
        a = ShmArena.create(64)
        a.close()
        a.unlink()
        a.unlink()


class TestBufferBackedNodeState:
    def _buffers(self, arena, n):
        return (arena.view(0, n, np.bool_),
                arena.view(64, n, np.float64),
                arena.view(256, n, np.int64))

    def test_matches_private_backing(self, arena):
        ids = [10, 11, 20, 21]
        private = NodeStateArrays(ids)
        shared = NodeStateArrays(ids, buffers=self._buffers(arena, len(ids)))
        assert shared.slot_of == private.slot_of
        for soa in (private, shared):
            soa.set_dead(1)
            soa.set_alive(1, failures_survived=3)
            soa.set_dead(2)
            soa.last_seen[0] = 4.5
        assert shared.alive.tolist() == private.alive.tolist()
        assert shared.last_seen.tolist() == private.last_seen.tolist()
        assert (shared.failures_survived.tolist()
                == private.failures_survived.tolist())

    def test_buffers_reinitialised_on_construction(self, arena):
        bufs = self._buffers(arena, 3)
        bufs[0][:] = False
        bufs[1][:] = 9.0
        bufs[2][:] = 5
        soa = NodeStateArrays([1, 2, 3], buffers=bufs)
        assert soa.alive.all()
        assert (soa.last_seen == 0.0).all()
        assert (soa.failures_survived == 0).all()

    def test_length_mismatch_rejected(self, arena):
        with pytest.raises(ValueError):
            NodeStateArrays([1, 2, 3], buffers=self._buffers(arena, 2))


class TestBufferBackedTaskProgress:
    def test_matches_private_backing(self, arena):
        buf = arena.view(0, 4, np.int64)
        buf[:] = 99  # stale content must be wiped
        private = TaskProgressArray(4)
        shared = TaskProgressArray(4, progress_buffer=buf)
        for soa in (private, shared):
            soa.set_cap(5)
            soa.stamp(0, 0, 5)
            soa.stamp(1, 0, 3)
            soa.stamp(1, 3, 5)
            soa.stamp(0, 5, 2)  # rollback re-raises below_cap
        assert shared.progress.tolist() == private.progress.tolist()
        assert shared.below_cap == private.below_cap
        assert shared.all_at_cap == private.all_at_cap
        assert shared.min_progress() == private.min_progress()
        del buf

    def test_length_mismatch_rejected(self, arena):
        with pytest.raises(ValueError):
            TaskProgressArray(8, progress_buffer=arena.view(0, 4, np.int64))


class TestTaskProgressAssign:
    def test_assign_equals_a_run_of_stamps(self):
        stamped, assigned = TaskProgressArray(6), TaskProgressArray(6)
        for soa in (stamped, assigned):
            soa.set_cap(5)
        steps = [(1, [5, 5, 2]), (1, [5, 1, 2]), (3, [5, 5, 5]), (0, [0] * 6)]
        for start, values in steps:
            for i, v in enumerate(values):
                old = int(stamped.progress[start + i])
                stamped.stamp(start + i, old, v)
            assigned.assign(start, np.array(values, dtype=np.int64))
            assert assigned.progress.tolist() == stamped.progress.tolist()
            assert assigned.below_cap == stamped.below_cap
