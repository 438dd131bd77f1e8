"""The task table's progress column (:mod:`repro.runtime.soa`).

Progress writes must leave exactly the state the at-cap test reads: an
exact ``below_cap`` count across forward progress *and* rollbacks.  The
table's hosting of nodes is tested in ``test_node.py``.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.des import Simulator
from repro.runtime.messages import Transport
from repro.runtime.soa import TaskTable


def table(n_tasks: int) -> TaskTable:
    sim = Simulator()
    return TaskTable(sim, Transport(sim), n_tasks,
                     iteration_time=lambda *_: 1.0)


class TestTaskProgressStamp:
    def test_below_cap_counts_across_rollbacks(self):
        soa = table(4)
        soa.set_cap(5)
        assert soa.below_cap == 4
        soa.set_progress(0, 5)
        soa.set_progress(1, 3)
        soa.set_progress(1, 5)
        assert soa.below_cap == 2
        soa.set_progress(0, 2)  # rollback re-raises below_cap
        assert soa.progress.tolist() == [2, 5, 0, 0]
        assert soa.below_cap == 3
        assert not soa.all_at_cap
        assert soa.min_progress() == 0


class TestTaskProgressAssign:
    def test_assign_equals_a_run_of_stamps(self):
        stamped, assigned = table(6), table(6)
        for soa in (stamped, assigned):
            soa.set_cap(5)
        steps = [(1, [5, 5, 2]), (1, [5, 1, 2]), (3, [5, 5, 5]), (0, [0] * 6)]
        for start, values in steps:
            for i, v in enumerate(values):
                stamped.set_progress(start + i, v)
            assigned.assign(start, np.array(values, dtype=np.int64))
            assert assigned.progress.tolist() == stamped.progress.tolist()
            assert assigned.below_cap == stamped.below_cap
