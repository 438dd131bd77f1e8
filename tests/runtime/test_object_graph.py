"""The per-node object graph of an ``ACR`` build stays small.

Every container the garbage collector tracks is work for each full
collection, and at paper scale an ``ACR`` builds hundreds of thousands of
nodes.  A node is an id and its tasks are rows of one task table, so a
build tracks a constant few hundred containers however many nodes it has:
no object, bound method or hook per node or task (the table is the
transport receiver of every node, and each hook is one table attribute),
and a failure-free run must add a handful of objects, not some per node.
"""

import gc
from collections import Counter

import pytest

from repro.apps.synthetic import synthetic_descriptor
from repro.core.config import ACRConfig
from repro.core.framework import ACR

#: Tracked containers one node (with its one task) may add to a build: the
#: constant part of a build, spread over 2×1024 nodes, is about 0.06.
PER_NODE = 0.1


def build(n: int) -> ACR:
    """A failure-free synthetic job, ``scale_fwd``'s configuration."""
    config = ACRConfig(checkpoint_interval=20.0, total_iterations=4,
                       app_scale=1e-4, spare_nodes=0, seed=11)
    return ACR("synthetic", nodes_per_replica=n, config=config,
               app_kwargs={"descriptor":
                           synthetic_descriptor(iteration_seconds=10.0)})


def tracked() -> Counter:
    """Tracked objects by type name.  Two collections: a tuple of tuples is
    untracked only once its members are."""
    gc.collect()
    gc.collect()
    return Counter(type(o).__name__ for o in gc.get_objects())


def growth(before: Counter, after: Counter) -> tuple[int, Counter]:
    """Net new tracked objects, and the types that grew."""
    return (sum(after.values()) - sum(before.values()),
            Counter({k: after[k] - before[k] for k in after
                     if after[k] > before[k]}))


def measure(n: int) -> tuple[int, Counter, int]:
    """(build growth, build types grown, run growth) for ``build(n)``."""
    before = tracked()
    acr = build(n)
    built = tracked()
    report = acr.run()
    ran = tracked()
    assert report.completed and report.result_correct
    made, types = growth(before, built)
    return made, types, growth(built, ran)[0]


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Imports and first-use caches belong to no build."""
    build(4).run()


def check_build(n_per_replica: int, made: int, types: Counter) -> None:
    nodes = 2 * n_per_replica
    assert made <= PER_NODE * nodes, (made / nodes, types.most_common(5))
    # Bound methods: a constant few (the sweeps, the hooks), none per node.
    assert types["method"] < nodes / 100, types["method"]


def test_build_and_run_at_two_by_1024_nodes():
    made, types, run_small = measure(1024)
    check_build(1024, made, types)
    # A run's own state (timeline events, generations, rings, timers) is a
    # constant few dozen objects; what it adds must not grow with n.
    _, _, run_large = measure(4 * 1024)
    assert run_large - run_small < 2 * 3 * 1024 / 100, (run_small, run_large)


@pytest.mark.scale_smoke
def test_build_and_run_at_two_by_8ki_nodes():
    n = 8 * 1024
    made, types, run = measure(n)
    check_build(n, made, types)
    assert run < 2 * n / 100, run
