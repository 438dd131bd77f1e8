"""Fast-forwarded task rings against the event-only engine.

Every scenario runs twice: as is, and under the ``event_only`` fixture, which
patches ``RingFastForward.eligible`` so that no window ever opens and every
task iteration and stamp is a heap event.  The two executions must agree on
everything observable: the report (timeline, digests, accounting), every
metric outside the ``sim.*`` family and every sampled series column.  Only
the engine's own counters (``sim.events_processed``, cohorts, queue depth)
may differ.  Docs: docs/protocols.md §7.
"""

import contextlib

import pytest

from repro.apps.registry import DESCRIPTORS
from repro.chaos.fuzzer import fuzz_schedule
from repro.chaos.runner import run_schedule
from repro.core import ACR, ACRConfig
from repro.core.consensus import ConsensusController
from repro.core.prediction import Alarm, PredictionTrace
from repro.faults import FaultEvent, FaultKind, InjectionPlan, poisson_plan
from repro.model import ResilienceScheme
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.runtime.task import Task, TaskState
from repro.storage.tiers import default_tiers
from repro.store.serialization import report_to_dict
from repro.util.hashing import canonical_digest
from repro.util.rng import RngStream


@pytest.fixture
def event_only(monkeypatch):
    """A context in which no fast-forward window opens."""

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as m:
            m.setattr(RingFastForward, "eligible", lambda self: False)
            yield

    return scope


def _without_sim(columns: dict) -> dict:
    return {k: v for k, v in columns.items() if not k.startswith("sim.")}


def task_fields(acr: ACR) -> list[tuple]:
    """Every field of every task, as the run left it (read through the
    task views)."""
    return [(t.task_id, t.progress, t.state, t.epoch, dict(t.dep_stamps),
             t.pause_at, t.busy_until, t.iterations_executed, t.iteration_cap)
            for r in (0, 1) for t in acr.tasks[r]]


def observe(acr: ACR, report) -> dict:
    """Everything a run shows, with the ``sim.*`` family set aside."""
    payload = report_to_dict(report)
    snapshot = payload.pop("metrics_snapshot")
    series = payload.pop("series")
    seen = {
        "report_digest": canonical_digest(payload),
        "tasks": task_fields(acr),
        "metrics": {family: _without_sim(values)
                    for family, values in snapshot.items()},
        "counters": dict(snapshot["counters"]),
    }
    if series is not None:
        seen["series"] = {
            "times": series["times"],
            "counters": _without_sim(series["counters"]),
            "gauges": _without_sim(series["gauges"]),
        }
    return seen


def run_cell(app="jacobi3d-charm", *, plan=None, prediction=None,
             nodes=4, until=5000.0, **overrides) -> dict:
    config = dict(total_iterations=60, checkpoint_interval=1.0, seed=3,
                  app_scale=1e-4, spare_nodes=50)
    config.update(overrides)
    acr = ACR(app, nodes_per_replica=nodes, config=ACRConfig(**config),
              injection_plan=plan or InjectionPlan(),
              prediction_trace=prediction, metrics=MetricsRegistry(),
              series=TimeSeriesRecorder(interval=0.5))
    return observe(acr, acr.run(until=until))


def assert_same(fast: dict, slow: dict) -> None:
    assert fast["report_digest"] == slow["report_digest"]
    assert fast["tasks"] == slow["tasks"]
    assert fast["metrics"] == slow["metrics"]
    assert fast.get("series") == slow.get("series")
    counters = fast["counters"]
    assert counters["sim.fast_forward.ties"] == 0
    assert counters["sim.fast_forward.windows_opened"] >= 1
    assert counters["sim.fast_forward.iterations"] > 0
    assert slow["counters"]["sim.fast_forward.windows_opened"] == 0


def both(event_only, **kwargs) -> dict:
    fast = run_cell(**kwargs)
    with event_only():
        slow = run_cell(**kwargs)
    assert_same(fast, slow)
    return fast["counters"]


FAULTS = InjectionPlan([
    FaultEvent(1.3, FaultKind.HARD, replica=0, node_id=1),
    FaultEvent(2.1, FaultKind.SDC, replica=1, node_id=2),
])


@pytest.mark.parametrize("scheme", list(ResilienceScheme),
                         ids=lambda s: s.value)
@pytest.mark.parametrize("app", sorted(DESCRIPTORS))
def test_apps_and_schemes_with_a_hard_fault_and_an_sdc(event_only, app, scheme):
    both(event_only, app=app, plan=FAULTS, scheme=scheme, tasks_per_node=2)


@pytest.mark.parametrize("scheme", list(ResilienceScheme),
                         ids=lambda s: s.value)
def test_async_checkpointing(event_only, scheme):
    both(event_only, plan=FAULTS, scheme=scheme, async_checkpointing=True)


def test_storage_tiers_with_a_tier_restore(event_only):
    # Both halves of a buddy pair die inside one detection window: recovery
    # resumes from the durable tier.
    plan = InjectionPlan([
        FaultEvent(time=2.5, kind=FaultKind.HARD, replica=0, node_id=0),
        FaultEvent(time=2.51, kind=FaultKind.HARD, replica=1, node_id=0),
    ])
    kwargs = dict(plan=plan, scheme=ResilienceScheme.WEAK,
                  storage_tiers=default_tiers(tier2_interval=1.0,
                                              tier3_interval=2.0))
    fast = run_cell(**kwargs)
    with event_only():
        slow = run_cell(**kwargs)
    assert_same(fast, slow)
    assert fast["counters"]["acr.recoveries{scheme=tier-restore}"] >= 1


def test_prediction_alarms(event_only):
    prediction = PredictionTrace(alarms=[
        Alarm(time=0.7, true_positive=True, fault_time=1.3),
        Alarm(time=2.45, true_positive=False),
    ])
    both(event_only, plan=FAULTS, prediction=prediction)


#: (nodes per replica, tasks per node) for rings of one, two and three
#: tasks: with one or two, a task's left and right neighbour are the same.
TINY_RINGS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]


@pytest.mark.parametrize("nodes,tpn", TINY_RINGS)
def test_tiny_rings(event_only, nodes, tpn):
    plan = InjectionPlan([
        FaultEvent(1.3, FaultKind.HARD, replica=0, node_id=nodes - 1),
        FaultEvent(2.1, FaultKind.SDC, replica=1, node_id=0),
    ])
    both(event_only, plan=plan, nodes=nodes, tasks_per_node=tpn,
         scheme=ResilienceScheme.STRONG)


@pytest.mark.parametrize("seed", range(24))
def test_chaos_schedule_matrix(event_only, seed):
    # Seeds 0..23 cover the fuzzer's 12-cell configuration cycle with and
    # without durable tiers.
    schedule = fuzz_schedule(seed)
    fast = run_schedule(schedule)
    with event_only():
        slow = run_schedule(schedule)
    assert fast.ok and slow.ok
    assert fast.fingerprint == slow.fingerprint
    assert ({f: _without_sim(v) for f, v in fast.metrics.items()}
            == {f: _without_sim(v) for f, v in slow.metrics.items()})
    assert fast.metrics["counters"]["sim.fast_forward.ties"] == 0
    assert fast.metrics["counters"]["sim.fast_forward.windows_opened"] >= 1


# -- observing a run in the middle of an open window --------------------------------------
def _state(acr: ACR) -> dict:
    tr = acr.transport
    return {
        "tasks": task_fields(acr),
        "soa": acr.task_table.progress.tolist(),
        "below_cap": acr.task_table.below_cap,
        "transport": (tr.messages_sent, tr.messages_delivered,
                      tr.messages_dropped, dict(tr.sent_by_kind),
                      dict(tr.bytes_by_kind), tr.batched_messages,
                      tr.batch_events),
    }


def _build(series=None) -> ACR:
    plan = InjectionPlan([FaultEvent(4.1, FaultKind.SDC, replica=0, node_id=1)])
    return ACR("jacobi3d-charm", nodes_per_replica=4,
               config=ACRConfig(total_iterations=150, checkpoint_interval=2.0,
                                tasks_per_node=2, app_scale=1e-4, seed=11),
               injection_plan=plan, series=series)


#: Instants inside open windows: after start, after a checkpoint resume,
#: during the rework after the SDC rollback.
MID_WINDOW = (0.7311, 3.1234, 5.4321)


def test_mid_window_reads_see_the_event_engine_state(event_only):
    fast = _build()
    fast.start()
    seen = []
    for t in MID_WINDOW:
        fast.sim.run(until=t)
        assert any(ring.open for ring in fast._rings.values()), t
        seen.append(_state(fast))
    with event_only():
        slow = _build()
        slow.start()
        for t, state in zip(MID_WINDOW, seen):
            slow.sim.run(until=t)
            assert _state(slow) == state, t
        slow_digest = canonical_digest(report_to_dict(slow.run()))
    # Reading did not close anything, and both runs still end identically.
    assert fast._rings[0].ties == fast._rings[1].ties == 0
    assert canonical_digest(report_to_dict(fast.run())) == slow_digest


def test_series_ticks_do_not_close_a_window():
    series = TimeSeriesRecorder(interval=0.25)
    acr = _build(series=series)
    acr.start()
    acr.sim.run(until=1.9)  # the first checkpoint is at t = 2.0
    assert len(series) >= 7
    for ring in acr._rings.values():
        assert ring.open
        assert ring.windows_opened == 1
        assert ring.syncs == 0


# -- adoption: the engine takes back the rings the event engine runs -------------------
def hard(t, replica, rank):
    return FaultEvent(t, FaultKind.HARD, replica=replica, node_id=rank)


def test_a_round_after_an_abort(event_only):
    # The death lands inside a round the engine evaluates: the round falls
    # back to the message path, and its abort at the detection hands the
    # healthy ring back to the engine, which evaluates the next rounds whole.
    counters = both(event_only, plan=InjectionPlan([hard(1.02, 0, 1)]),
                    scheme=ResilienceScheme.STRONG)
    assert counters["sim.fast_forward.adoptions"] >= 1
    assert counters["sim.fast_forward.round_fallbacks"] >= 1


def test_a_round_with_a_dead_node_in_the_other_replica(event_only):
    # The round at t = 2 starts with an undetected dead node in replica 0:
    # it runs on the message path, which closes the healthy ring; the abort
    # at the detection adopts that ring as the round left it.
    counters = both(event_only, plan=InjectionPlan([hard(1.3, 0, 1)]),
                    scheme=ResilienceScheme.STRONG)
    assert counters["sim.fast_forward.adoptions"] >= 1


@pytest.fixture
def engine_aborts(monkeypatch):
    """Instants of the aborts that found an evaluated round live."""
    seen = []
    abort = ConsensusController.abort_round

    def spy(self):
        if self.active and self.engine.live:
            seen.append(self._sim.now)
        abort(self)

    monkeypatch.setattr(ConsensusController, "abort_round", spy)
    return seen


#: Heartbeats every 5 ms: a death is detected within ~25 ms, inside the
#: round that the first detection starts.
FAST_DETECTION = {"heartbeat_interval": 0.005}


@pytest.mark.parametrize("scheme, second", [
    (ResilienceScheme.MEDIUM, 0.335),  # inside the healthy replica's round
    (ResilienceScheme.WEAK, 1.31),     # inside its solo checkpoint's round
], ids=["medium", "weak"])
def test_recovery_with_a_healthy_buddy(event_only, engine_aborts, scheme,
                                       second):
    # A second death in the crashed replica is detected while the engine
    # evaluates a round over the healthy one: the abort releases the healthy
    # ring where it is parked and keeps it fast-forwarded.
    plan = InjectionPlan([hard(0.3, 0, 1), hard(second, 0, 2)])
    fast = run_cell(plan=plan, scheme=scheme, **FAST_DETECTION)
    assert engine_aborts
    with event_only():
        slow = run_cell(plan=plan, scheme=scheme, **FAST_DETECTION)
    assert_same(fast, slow)


#: Instants at which the rings are handed back to the event engine by hand:
#: in a free-running window (adopted at the next round start), while a
#: checkpoint keeps the rings parked (adopted when it resumes them), and
#: during the rework after the SDC rollback.
CLOSE_AT = (0.7311, 2.0004, 5.4321)


@pytest.mark.parametrize("at", CLOSE_AT)
def test_a_ring_closed_by_hand_is_adopted_again(event_only, at):
    fast = _build()
    fast.start()
    fast.sim.run(until=at)
    rings = fast._rings.values()
    for ring in rings:
        ring.close()
    fast_digest = canonical_digest(report_to_dict(fast.run()))
    with event_only():
        slow_digest = canonical_digest(report_to_dict(_build().run()))
    assert fast_digest == slow_digest
    assert all(ring.adoptions >= 1 and ring.ties == 0 for ring in rings)


# -- a resume at the cap keeps the window --------------------------------------------
@pytest.mark.parametrize("tpn", [1, 2, 3])
@pytest.mark.parametrize("scheme", list(ResilienceScheme),
                         ids=lambda s: s.value)
def test_failure_free_runs_end_at_the_cap(event_only, monkeypatch, scheme,
                                          tpn):
    # The last checkpoint decides the cap: its resume finds every task
    # parked there and leaves the window open until the job ends, so no
    # task is resumed one by one.  With three tasks per node, three tasks
    # share their node's scope position.
    resumed = []
    resume = Task.resume
    monkeypatch.setattr(Task, "resume",
                        lambda task: resumed.append(task) or resume(task))
    fast = run_cell(scheme=scheme, tasks_per_node=tpn)
    assert not resumed
    assert fast["counters"]["sim.fast_forward.round_fallbacks"] == 0
    with event_only():
        slow = run_cell(scheme=scheme, tasks_per_node=tpn)
    assert_same(fast, slow)


@pytest.fixture
def parked_at_cap(monkeypatch):
    """Instants of the solo (weak-pending) checkpoints whose resume left
    the healthy ring open, every task parked at the cap."""
    seen = []
    resume = ACR._resume_replica

    def spy(self, replica):
        resume(self, replica)
        ring = self._rings[replica]
        if (self._weak_pending is not None and ring.open
                and ring.reached(self.config.total_iterations)):
            seen.append(self.sim.now)

    monkeypatch.setattr(ACR, "_resume_replica", spy)
    return seen


@pytest.mark.parametrize("second", [None, 4.5],
                         ids=["closed-at-job-end", "closed-by-a-death"])
def test_a_solo_checkpoint_at_the_cap(event_only, parked_at_cap, second):
    # Replica 0 crashes after the checkpoint at iteration 40; replica 1 runs
    # on to the cap, and its solo checkpoint decides the cap at t = 3.825.
    # Its resume keeps the ring parked there while the weak recovery ships
    # the checkpoint, until the job ends or a death in replica 1 closes it.
    faults = [hard(2.8, 0, 1)] + ([hard(second, 1, 2)] if second else [])
    kwargs = dict(plan=InjectionPlan(faults), scheme=ResilienceScheme.WEAK,
                  **FAST_DETECTION)
    fast = run_cell(**kwargs)
    assert parked_at_cap
    with event_only():
        slow = run_cell(**kwargs)
    assert_same(fast, slow)


# -- how many iterations still run event by event -------------------------------------
def _fault_mix_shaped(index: int, scheme: ResilienceScheme) -> ACR:
    """A cell shaped like perfbench's fault_mix: 16 nodes per replica, two
    hard faults and one SDC drawn from Poisson processes."""
    schedule = poisson_plan(hard_mtbf=3.0, sdc_mtbf=4.0, horizon=200.0,
                            nodes_per_replica=16,
                            rng=RngStream(index, "fault-mix-shaped"))
    plan = InjectionPlan(schedule.hard_events()[:2]
                         + schedule.sdc_events()[:1])
    config = ACRConfig(scheme=scheme, checkpoint_interval=2.0,
                       use_checksum=bool(index % 2), total_iterations=200,
                       app_scale=1e-4, spare_nodes=1000, seed=100 + index)
    return ACR("jacobi3d-charm", nodes_per_replica=16, config=config,
               injection_plan=plan)


#: Event-mode iterations on replicas whose every node was alive, summed over
#: the six cells, when windows opened only at a start, a whole-replica
#: resume or a restore.
EVENT_MODE_ALIVE_BEFORE_ADOPTION = 1472


def test_healthy_rings_rarely_run_event_by_event(monkeypatch):
    counted = {"alive": 0}
    done = TaskTable._on_iteration_done

    def counting(table, row, epoch):
        if epoch == table.epoch[row] and table.state[row] is not TaskState.DEAD:
            ring = row // table.size
            nodes = table.size // table.tasks_per_node
            if table.transport.liveness()[ring * nodes:(ring + 1) * nodes].all():
                counted["alive"] += 1
        done(table, row, epoch)

    monkeypatch.setattr(TaskTable, "_on_iteration_done", counting)
    schemes = [scheme for scheme in ResilienceScheme for _ in (0, 1)]
    for index, scheme in enumerate(schemes):
        acr = _fault_mix_shaped(index, scheme)
        report = acr.run()
        assert report.completed and report.result_correct
        assert all(ring.ties == 0 for ring in acr._rings.values())
    assert counted["alive"] < EVENT_MODE_ALIVE_BEFORE_ADOPTION / 5
