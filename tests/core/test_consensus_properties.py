"""Property-based consensus tests: safety under arbitrary skew and timing.

For any task-speed profile, decomposition, and request time, a completed
round must satisfy:

* **agreement** — every task in scope is paused at the decided iteration;
* **validity** — the decision is at least every task's progress at request
  time (nothing is rolled back) and at most request-max + 1 (only an
  in-flight iteration may complete beyond the snapshot);
* **stability** — nothing advances past the decision until resumed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.consensus import ConsensusController
from repro.runtime.des import Simulator
from repro.runtime.messages import Transport
from repro.runtime.soa import TaskTable
from repro.runtime.task import TaskState


def build_system(n_nodes, tasks_per_node, speed_seed):
    sim = Simulator()
    transport = Transport(sim)

    def iteration_time(task_id, iteration):
        # Deterministic pseudo-random speeds in [0.05, 0.2] per (task, iter).
        h = (task_id * 2654435761 + iteration * 40503 + speed_seed) % 1000
        return 0.05 + 0.15 * h / 1000.0

    table = TaskTable(sim, transport, n_nodes, tasks_per_node=tasks_per_node,
                      iteration_time=iteration_time)
    controller = ConsensusController(table)
    return sim, list(range(n_nodes)), table.tasks(0), controller


def start(controller):
    """Start every task in the event engine."""
    table = controller.table
    for row in table.ring_rows(0):
        table.start(row)


class TestConsensusProperties:
    @given(
        n_nodes=st.integers(2, 6),
        tasks_per_node=st.integers(1, 3),
        speed_seed=st.integers(0, 10_000),
        request_at=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_agreement_validity_stability(self, n_nodes, tasks_per_node,
                                          speed_seed, request_at):
        sim, nodes, tasks, controller = build_system(
            n_nodes, tasks_per_node, speed_seed)
        start(controller)
        sim.run(until=request_at)
        progress_at_request = [t.progress for t in tasks]

        decisions = []
        controller.start_round(nodes,
                               lambda rid, it: decisions.append(it))
        sim.run(until=request_at + 60.0)

        assert len(decisions) == 1, "round must complete exactly once"
        decided = decisions[0]
        # Validity: no rollback, at most one in-flight iteration beyond max.
        assert decided >= max(progress_at_request)
        assert decided <= max(progress_at_request) + 1
        # Agreement: every task paused exactly at the decision.
        assert all(t.progress == decided for t in tasks)
        assert all(t.state is TaskState.PAUSED for t in tasks)
        # Stability: nothing moves until resumed.
        sim.run(until=request_at + 90.0)
        assert all(t.progress == decided for t in tasks)

    @given(
        n_nodes=st.integers(2, 5),
        speed_seed=st.integers(0, 10_000),
        rounds=st.integers(2, 4),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_repeated_rounds_monotone_decisions(self, n_nodes, speed_seed,
                                                rounds):
        sim, nodes, tasks, controller = build_system(n_nodes, 2, speed_seed)
        start(controller)
        decisions = []
        deadline = 0.0
        for _ in range(rounds):
            deadline += 30.0
            controller.start_round(
                nodes,
                lambda rid, it: decisions.append(it))
            sim.run(until=deadline)
            for t in tasks:
                t.resume()
            sim.run(until=deadline + 2.0)
        assert len(decisions) == rounds
        assert decisions == sorted(decisions)
