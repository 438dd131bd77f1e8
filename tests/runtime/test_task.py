"""Task execution-engine tests: dependencies, pausing, rollback epochs."""

import pytest

from repro.runtime.des import Simulator
from repro.runtime.messages import Transport
from repro.runtime.soa import TaskTable
from repro.runtime.task import TaskState


def build_ring(n_tasks=4, iteration_seconds=0.1, tasks_per_node=1,
               iteration_time=None, cap=None):
    """n tasks in a dependency ring, one node each by default."""
    sim = Simulator()
    transport = Transport(sim)
    table = TaskTable(
        sim, transport, n_tasks // tasks_per_node,
        tasks_per_node=tasks_per_node,
        iteration_time=iteration_time or (lambda task_id, it: iteration_seconds))
    table.set_cap(cap)
    return sim, table, table.tasks(0)


def start(table):
    for row in table.ring_rows(0):
        table.start(row)


class TestForwardProgress:
    def test_tasks_advance_through_iterations(self):
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=2.0)
        assert all(t.progress >= 10 for t in tasks)

    def test_dependency_gating_bounds_skew(self):
        # A task can be at most ~1 iteration ahead of its ring neighbours.
        def jittered(task_id, it):
            return 0.1 * (1.0 + 0.3 * ((task_id * 7 + it) % 5) / 5)

        sim, table, tasks = build_ring(iteration_time=jittered)
        start(table)
        sim.run(until=5.0)
        progresses = [t.progress for t in tasks]
        assert max(progresses) - min(progresses) <= 2


class TestPauseResume:
    def test_pause_at_iteration(self):
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=0.35)
        for t in tasks:
            t.request_pause_at(5)
        sim.run(until=5.0)
        assert all(t.progress == 5 for t in tasks)
        assert all(t.state is TaskState.PAUSED for t in tasks)

    def test_resume_continues(self):
        sim, table, tasks = build_ring()
        start(table)
        for t in tasks:
            t.request_pause_at(3)
        sim.run(until=2.0)
        for t in tasks:
            t.resume()
        sim.run(until=4.0)
        assert all(t.progress > 10 for t in tasks)

    def test_iteration_cap_is_hard(self):
        sim, table, tasks = build_ring(cap=7)
        start(table)
        sim.run(until=10.0)
        assert all(t.progress == 7 for t in tasks)
        # resume() must not override the cap.
        for t in tasks:
            t.resume()
        sim.run(until=12.0)
        assert all(t.progress == 7 for t in tasks)

    def test_all_tasks_ready_callback(self):
        sim, table, tasks = build_ring(n_tasks=4, tasks_per_node=2)
        ready_nodes = []
        table.on_all_tasks_ready = ready_nodes.append
        start(table)
        for t in tasks:
            t.request_pause_at(2)
        sim.run(until=2.0)
        assert set(ready_nodes) >= {0, 1}


class TestRollback:
    def test_restore_resets_progress_and_resumes(self):
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=1.05)
        assert all(t.progress >= 10 for t in tasks)
        for t in tasks:
            t.restore(3)
        sim.run(until=1.6)
        assert all(t.progress > 3 for t in tasks)

    def test_stale_messages_discarded_after_restore(self):
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=1.05)
        old_epoch = tasks[0].epoch
        for t in tasks:
            t.restore(2)
        assert all(t.epoch == old_epoch + 1 for t in tasks)
        # Pre-restore stamps must not unblock post-restore iterations:
        tasks[0].on_dep_message(from_task=1, stamp=50, epoch=old_epoch)
        assert tasks[0].dep_stamps[1] < 50

    def test_in_flight_compute_cancelled_by_restore(self):
        sim, table, tasks = build_ring(iteration_seconds=1.0)
        start(table)
        sim.run(until=0.5)  # everyone mid-iteration-1
        for t in tasks:
            t.restore(0)
        sim.run(until=0.9)
        # The old completion (due at t=1.0) must not double-fire.
        assert all(t.progress == 0 for t in tasks)
        sim.run(until=2.0)
        assert all(t.progress >= 1 for t in tasks)


class TestStaleCompletions:
    """Completions are never cancelled; the epoch and DEAD checks drop the
    ones a kill or a restore left behind."""

    def test_kill_revive_restore_drops_stale_completion(self):
        sim, table, tasks = build_ring(iteration_seconds=1.0)
        start(table)
        sim.run(until=0.5)  # everyone mid-iteration-1, completions due at 1.0
        victim = tasks[1]
        assert victim.state is TaskState.COMPUTING
        assert 1.0 <= victim.busy_until < 1.2
        table.kill(1)
        table.transport.set_alive(1, True)  # a spare takes node 1 over
        for t in tasks:  # the rollback restores every task
            t.restore(0)
        processed = sim.events_processed
        sim.run(until=1.2)
        # The four stale completions fired at 1.0 and changed nothing.
        assert sim.events_processed - processed >= len(tasks)
        for t in tasks:
            assert t.progress == 0 and t.iterations_executed == 0
            assert t.state is TaskState.COMPUTING
            assert t.busy_until > 1.2
        sim.run(until=max(t.busy_until for t in tasks))
        assert all(t.progress == 1 for t in tasks)
        assert all(t.iterations_executed == 1 for t in tasks)


class TestDeath:
    def test_killed_task_stops(self):
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=0.55)
        table.kill(1)
        frozen = tasks[1].progress
        sim.run(until=2.0)
        assert tasks[1].progress == frozen
        assert tasks[1].state is TaskState.DEAD

    def test_ring_starves_without_dead_neighbour(self):
        # Neighbours of a dead task stall within a couple of iterations -
        # the natural stall of the crashed replica in the weak scheme.
        sim, table, tasks = build_ring()
        start(table)
        sim.run(until=0.55)
        table.kill(1)
        sim.run(until=5.0)
        alive = [t for i, t in enumerate(tasks) if i != 1]
        assert max(t.progress for t in alive) <= tasks[1].progress + 2
