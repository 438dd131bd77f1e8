"""Struct-of-arrays node and task state (:mod:`repro.runtime.soa`).

The single-writer transitions must leave exactly the state the heartbeat
sweeps and the at-cap test read: ``set_dead``/``set_alive`` on node slots,
and an exact ``below_cap`` count across forward stamps *and* rollbacks.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.soa import NodeStateArrays, TaskProgressArray


class TestNodeStateArrays:
    def test_transitions_update_only_their_slot(self):
        soa = NodeStateArrays([10, 11, 20, 21])
        assert soa.slot_of == {10: 0, 11: 1, 20: 2, 21: 3}
        assert soa.alive.all()
        assert (soa.last_seen == 0.0).all()
        assert (soa.failures_survived == 0).all()
        soa.set_dead(1)
        soa.set_alive(1, failures_survived=3)
        soa.set_dead(2)
        soa.last_seen[0] = 4.5
        assert soa.alive.tolist() == [True, True, False, True]
        assert soa.last_seen.tolist() == [4.5, 0.0, 0.0, 0.0]
        assert soa.failures_survived.tolist() == [0, 3, 0, 0]


class TestTaskProgressStamp:
    def test_below_cap_counts_across_rollbacks(self):
        soa = TaskProgressArray(4)
        soa.set_cap(5)
        assert soa.below_cap == 4
        soa.stamp(0, 0, 5)
        soa.stamp(1, 0, 3)
        soa.stamp(1, 3, 5)
        assert soa.below_cap == 2
        soa.stamp(0, 5, 2)  # rollback re-raises below_cap
        assert soa.progress.tolist() == [2, 5, 0, 0]
        assert soa.below_cap == 3
        assert not soa.all_at_cap
        assert soa.min_progress() == 0


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
