"""Struct-of-arrays task progress (:mod:`repro.runtime.soa`).

Stamps must leave exactly the state the at-cap test reads: an exact
``below_cap`` count across forward stamps *and* rollbacks.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.soa import TaskProgressArray


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
