"""The max-plus ring engine against the event engine, on bare rings.

A ring here is what ``ACR`` builds for one replica: ``n`` tasks over
``n / tpn`` nodes, each task gated by its left and right neighbour.  The
event engine runs it with one heap event per completion and per stamp
fan-out; :class:`RingFastForward` evaluates the same schedule as a
recurrence.  Every completion instant and every stamp arrival must be
``==``, not approximately equal.
"""

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.runtime.des import Simulator
from repro.runtime.messages import Transport
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.runtime.task import Task, TaskState

ITERATIONS = 40
APPS = ("jacobi3d-charm", "lulesh", "synthetic")
#: (tasks in the ring, tasks per node)
RINGS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (16, 1), (16, 2), (15, 3)]
#: Rings of one, two and three tasks: with one or two, the left and the
#: right neighbour are the same task.
TINY = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)]


#: Each :class:`Ring` by its simulator, for the loggers of ``log_ring``.
OWNERS: dict = {}


@pytest.fixture(autouse=True)
def log_ring(monkeypatch):
    """Log every task completion and stamp arrival into the :class:`Ring`
    that holds the task.  ``TaskTable`` and ``Task`` have ``__slots__``, so
    the loggers wrap the class methods rather than per-instance
    attributes."""
    completion = TaskTable._on_iteration_done
    arrival = Task.on_dep_message

    def on_iteration_done(table, row, epoch):
        executed = table.iterations_executed[row]
        completion(table, row, epoch)
        if table.iterations_executed[row] != executed:  # not a stale one
            sim = table.sim
            OWNERS[sim].completions[table.task_id(row),
                                    table.progress.item(row)] = sim.now

    def on_dep_message(task, from_task, stamp, epoch):
        sim = task.table.sim
        OWNERS[sim].arrivals[from_task, task.task_id, stamp] = sim.now
        arrival(task, from_task, stamp, epoch)

    monkeypatch.setattr(TaskTable, "_on_iteration_done", on_iteration_done)
    monkeypatch.setattr(Task, "on_dep_message", on_dep_message)
    yield
    OWNERS.clear()


class Ring:
    """One replica's ring on a fresh simulator, with every completion and
    stamp delivery logged (by ``log_ring``)."""

    def __init__(self, app_name: str, n_tasks: int, tpn: int, *, seed=5):
        self.sim = Simulator()
        self.transport = Transport(self.sim)
        n_nodes = n_tasks // tpn
        self.app = make_app(app_name, n_nodes, scale=1e-4, seed=seed)
        self.table = TaskTable(self.sim, self.transport, n_nodes,
                               tasks_per_node=tpn,
                               iteration_time=self.app.iteration_time)
        self.table.set_cap(ITERATIONS)
        self.tasks = self.table.tasks(0)
        self.completions = {}
        self.arrivals = {}
        OWNERS[self.sim] = self

    def engine(self) -> RingFastForward:
        ids = np.arange(len(self.tasks))
        return RingFastForward(
            self.table, 0, sim=self.sim, transport=self.transport,
            row_times=lambda first, count: self.app.iteration_times(
                first, count, ids))

    def start(self) -> None:
        """Start every task in the event engine."""
        for row in self.table.ring_rows(0):
            self.table.start(row)

    def run_events(self) -> None:
        self.start()
        self.sim.run()


@pytest.mark.parametrize("n_tasks,tpn", RINGS)
@pytest.mark.parametrize("app", APPS)
def test_completions_and_stamps_are_bit_identical(app, n_tasks, tpn):
    events = Ring(app, n_tasks, tpn)
    events.run_events()
    assert len(events.completions) == n_tasks * ITERATIONS

    fast = Ring(app, n_tasks, tpn)
    ring = fast.engine()
    assert ring.open_start()
    done, arrive = ring.times_through(ITERATIONS)
    assert done.shape == arrive.shape == (ITERATIONS, n_tasks)
    for (tid, k), t in events.completions.items():
        assert done[k - 1, tid] == t, (tid, k)
    for (sender, _receiver, stamp), t in events.arrivals.items():
        if stamp == 0:
            assert t == fast.transport.small_delay(1024)
        else:
            assert arrive[stamp - 1, sender] == t, (sender, stamp)


@pytest.mark.parametrize("app", APPS)
def test_vectorised_iteration_times_equal_the_scalar_model(app):
    model = make_app(app, 4, scale=1e-4, seed=123)
    ids = np.arange(24)
    block = model.iteration_times(1, 300, ids)
    for k in range(1, 301):
        for tid in ids.tolist():
            assert block[k - 1, tid] == model.iteration_time(tid, k)


@pytest.mark.parametrize("n_tasks,tpn", [(1, 1), (6, 2), (15, 3)])
def test_each_task_knows_its_nodes_offset(n_tasks, tpn):
    bare = Ring("synthetic", n_tasks, tpn)
    ring = bare.engine()
    assert ring.node_ids == [t.node for t in bare.tasks][::tpn]
    assert ring.node_ids == list(range(n_tasks // tpn))
    assert ring.task_node_pos.tolist() == [i // tpn for i in range(n_tasks)]


@pytest.mark.parametrize("n_tasks,tpn", TINY + [(16, 2)])
def test_close_hands_an_exact_ring_back_to_the_event_engine(n_tasks, tpn):
    events = Ring("jacobi3d-charm", n_tasks, tpn)
    events.run_events()

    fast = Ring("jacobi3d-charm", n_tasks, tpn)
    ring = fast.engine()
    assert ring.open_start()
    fast.sim.run(until=0.4)
    ring.close()
    assert not ring.open and ring.syncs == 1 and ring.ties == 0
    assert fast.table.windows == [None]
    fast.sim.run()
    # Completions after the sync are real events again, at the same instants.
    later = {key: t for key, t in events.completions.items() if t > 0.4}
    assert later and all(fast.completions[key] == t
                         for key, t in later.items())
    for a, b in zip(events.tasks, fast.tasks):
        assert (a.progress, a.state, a.dep_stamps, a.busy_until,
                a.iterations_executed) == (b.progress, b.state, b.dep_stamps,
                                           b.busy_until, b.iterations_executed)
    assert a.state is TaskState.PAUSED
    assert events.table.progress.tolist() == fast.table.progress.tolist()
    for attr in ("messages_sent", "messages_delivered", "messages_dropped",
                 "batched_messages", "batch_events"):
        assert getattr(events.transport, attr) == getattr(fast.transport, attr)
    assert events.transport.bytes_by_kind == fast.transport.bytes_by_kind
    assert ring.iterations == sum(
        1 for t in events.completions.values() if t <= 0.4)


def test_long_window_keeps_a_bounded_row_buffer():
    events = Ring("synthetic", 6, 2)
    fast = Ring("synthetic", 6, 2)
    for ring in (events, fast):
        ring.table.set_cap(None)
    events.start()
    events.sim.run(until=400.0)

    ring = fast.engine()
    assert ring.open_start()
    fast.sim.run(until=300.0)
    ring.refresh()  # a bare ring has no return hook installed
    progress = min(t.progress for t in fast.tasks)
    assert progress > 1000
    # Rows every task has completed were dropped along the way: the buffer
    # holds about two chunks, not the whole window.
    assert ring._r0 > 0 and len(ring._C) <= 4 * 256 + 8
    ring.close()
    fast.sim.run(until=400.0)
    for a, b in zip(events.tasks, fast.tasks):
        assert (a.progress, a.state, a.dep_stamps, a.busy_until,
                a.iterations_executed) == (b.progress, b.state, b.dep_stamps,
                                           b.busy_until, b.iterations_executed)
    later = {key: t for key, t in events.completions.items() if t > 300.0}
    assert later and all(fast.completions[key] == t
                         for key, t in later.items())


def _task_fields(ring: "Ring") -> list:
    return [(t.progress, t.state, t.dep_stamps, t.busy_until,
             t.iterations_executed, t.epoch) for t in ring.tasks]


def _counters(ring: "Ring") -> tuple:
    tr = ring.transport
    return (tr.messages_sent, tr.messages_delivered, tr.batched_messages,
            tr.batch_events, dict(tr.bytes_by_kind))


@pytest.mark.parametrize("n_tasks,tpn", TINY + [(16, 2), (15, 3)])
@pytest.mark.parametrize("after", [3, 11, 27])
def test_adopt_takes_over_an_event_mode_ring_mid_flight(n_tasks, tpn, after):
    # Adopt half a stamp delay after the first completion of iteration
    # ``after``: that task is a row ahead of the others and its stamp is
    # still in flight.
    events = Ring("jacobi3d-charm", n_tasks, tpn)
    events.run_events()
    d = events.transport.small_delay(1024)
    adopt_at = min(events.completions[tid, after]
                   for tid in range(n_tasks)) + d / 2
    read_at = adopt_at + 0.0317

    ref = Ring("jacobi3d-charm", n_tasks, tpn)
    ref.start()
    ref.sim.run(until=read_at)

    fast = Ring("jacobi3d-charm", n_tasks, tpn)
    fast.start()
    fast.sim.run(until=adopt_at)
    ring = fast.engine()
    assert ring.adopt() and ring.adoptions == 1
    # Its completions and stamps left the queue (the window's wake-up is
    # the one event it keeps there).
    assert len(list(fast.sim.queued())) == 1
    assert len({t.progress for t in fast.tasks}) == min(n_tasks, 2)
    fast.sim.run(until=read_at)
    ring.refresh()  # a bare ring has no return hook installed
    assert _task_fields(fast) == _task_fields(ref)
    assert fast.table.progress.tolist() == ref.table.progress.tolist()
    assert _counters(fast) == _counters(ref)
    # Closing re-posts what is in flight; the rest runs as real events, at
    # the event engine's instants, to the same end state.
    ring.close()
    assert ring.ties == 0
    fast.sim.run()
    later = {key: t for key, t in events.completions.items() if t > read_at}
    assert later and all(fast.completions[key] == t
                         for key, t in later.items())
    assert _task_fields(fast) == _task_fields(events)
    assert _counters(fast) == _counters(events)


@pytest.mark.parametrize("event", ["completion", "stamp"])
def test_adopt_declines_at_the_instant_of_a_ring_event(event):
    # An adoption scheduled for the very instant of a ring event runs in the
    # same batch as that event, before it: the engine cannot place the
    # event, so it leaves the ring to the event engine.
    events = Ring("jacobi3d-charm", 16, 2)
    events.run_events()
    done_at = events.completions[5, 7]
    at = (done_at if event == "completion"
          else done_at + events.transport.small_delay(1024))
    fast = Ring("jacobi3d-charm", 16, 2)
    ring = fast.engine()
    adopted = []
    fast.sim.schedule_at(at, lambda: adopted.append(ring.adopt()))
    fast.start()
    fast.sim.run()
    assert adopted == [False] and not ring.open
    assert _task_fields(fast) == _task_fields(events)
    assert fast.completions == events.completions
    assert _counters(fast) == _counters(events)
