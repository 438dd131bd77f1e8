#!/usr/bin/env python
"""The 4-phase checkpoint consensus, step by step (paper §2.2, Fig. 3).

Eight tasks on four nodes progress at deliberately different speeds with no
global synchronization.  We request a checkpoint mid-flight and watch the
protocol: progress tracking, the asynchronous max reduction with tentative
pauses, the decision broadcast, and the final all-ready barrier — after which
every task sits at exactly the same iteration, so the coordinated checkpoint
is consistent and no in-flight message is lost.

Run:  python examples/consensus_walkthrough.py
"""

from repro.core.consensus import ConsensusController
from repro.runtime import Simulator, TaskTable, Transport


def main() -> None:
    sim = Simulator()
    transport = Transport(sim)
    nodes = list(range(4))  # a node is its id

    # Task speeds differ by up to 40%: the skew the protocol exists for.
    def iteration_time(task_id, iteration):
        return 0.1 * (1.0 + 0.4 * ((task_id * 13 + iteration * 7) % 10) / 10)

    # One ring of eight tasks, two per node, each gated by its neighbours.
    table = TaskTable(sim, transport, len(nodes), tasks_per_node=2,
                      iteration_time=iteration_time)
    tasks = table.tasks(0)

    controller = ConsensusController(table)
    for row in table.ring_rows(0):
        table.start(row)

    sim.run(until=2.0)
    snapshot = [t.progress for t in tasks]
    print(f"t={sim.now:.2f}s  task progress before the request: {snapshot}")
    print(f"          (skew of {max(snapshot) - min(snapshot)} iterations, "
          "no barrier anywhere)")

    decisions = []
    controller.start_round(nodes,
                           lambda rid, it: decisions.append((sim.now, it)))
    print("\nPhase 1: checkpoint requested; nodes snapshot their local max")
    print("Phase 2: async tree reduction finds the global max; tasks reaching")
    print("         their local max pause tentatively")
    sim.run(until=6.0)

    when, decided = decisions[0]
    print(f"Phase 3: decision broadcast -> checkpoint iteration = {decided}")
    print("Phase 4: tasks run exactly up to it, then report ready")
    print(f"\nt={when:.2f}s  consensus complete")
    print(f"          task progress now: {[t.progress for t in tasks]}")
    assert all(t.progress == decided for t in tasks)
    print(f"          every task paused at iteration {decided}: the checkpoint")
    print("          cut is consistent (the paper's hang scenario is impossible).")

    for t in tasks:
        t.resume()
    sim.run(until=8.0)
    print(f"\nt={sim.now:.2f}s  resumed; progress: {[t.progress for t in tasks]}")


if __name__ == "__main__":
    main()
