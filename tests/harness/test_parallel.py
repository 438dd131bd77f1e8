"""Determinism contract of the space-partitioned parallel DES mode.

The entire value of :mod:`repro.harness.parallel` is one promise: the merged
canonical trace is *byte-identical* across every decomposition — 1 partition,
N partitions in-process, N partitions across forked workers — for the same
:class:`ParallelScenario`.  These tests assert that promise for both recovery
schemes (strong and coordinated) with mid-run hard faults, plus the worker-clamp accounting that
mirrors the campaign runner (requested vs effective vs cpu_count).
"""

from __future__ import annotations

import os
import signal

import pytest

import repro.harness.parallel as parallel_mod
from repro.harness.parallel import (
    ParallelScenario,
    ParallelWorkerError,
    fault_plan,
    run_parallel,
)
from repro.harness.pool import effective_workers
from repro.util.errors import ConfigurationError

pytestmark = pytest.mark.scale_smoke


def _scenario(scheme: str, **overrides) -> ParallelScenario:
    kwargs = dict(
        nodes_per_replica=64,
        total_iterations=6,
        iteration_seconds=0.5,
        heartbeat_interval=1.0,
        scheme=scheme,
        snapshot_interval=2.0,
        n_faults=2,
        fault_window=(0.1, 0.4),
        spare_boot_time=2.0,
        horizon=18.0,
        seed=5,
    )
    kwargs.update(overrides)
    return ParallelScenario(**kwargs)


class TestTraceDeterminism:
    @pytest.mark.parametrize("scheme", ["strong"])
    def test_trace_identical_across_partition_counts(self, scheme):
        scenario = _scenario(scheme)
        reports = {p: run_parallel(scenario, partitions=p, workers=1,
                                   trace=True)
                   for p in (1, 4, 8)}
        baseline = reports[1]
        assert baseline.completed
        assert baseline.trace, "trace collection returned nothing"
        for p, report in reports.items():
            assert report.completed, f"partitions={p} did not complete"
            assert report.trace == baseline.trace, f"partitions={p} diverged"
            assert report.trace_digest == baseline.trace_digest
        # Partitioned runs really did window-step rather than free-run.
        assert reports[4].windows > 1
        assert reports[8].windows >= reports[4].windows

        # The scenario exercised what the contract claims: deaths detected,
        # spares booted, tasks restored, and forward progress resumed.
        kinds = {line.split()[1] for line in baseline.trace}
        assert {"iter", "kill", "detect", "revive", "restore"} <= kinds

    def test_fault_free_decomposition_also_identical(self):
        scenario = _scenario("strong", n_faults=0, horizon=10.0)
        single = run_parallel(scenario, partitions=1, trace=True)
        split = run_parallel(scenario, partitions=4, trace=True)
        assert single.completed and split.completed
        assert single.trace_digest == split.trace_digest

    def test_forked_workers_match_inprocess(self):
        """The fork machinery itself, exercised via ``force_processes``
        so 1-CPU runners cover it too (the CPU clamp would otherwise fall
        back in-process and leave the workers untested)."""
        scenario = _scenario("strong", nodes_per_replica=32, horizon=14.0)
        inproc = run_parallel(scenario, partitions=4, workers=1, trace=True)
        forked = run_parallel(scenario, partitions=4, workers=2, trace=True,
                              force_processes=True)
        assert forked.completed
        assert forked.effective_workers == 2
        assert forked.trace_digest == inproc.trace_digest

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs >1 CPU for a real parallel run")
    def test_multiprocess_trace_identical_on_multicore(self):
        scenario = _scenario("strong")
        single = run_parallel(scenario, partitions=1, trace=True)
        multi = run_parallel(scenario, partitions=4, workers=4, trace=True)
        assert multi.effective_workers > 1
        assert multi.trace_digest == single.trace_digest


class TestPartitionMetrics:
    """Decomposition invariance of per-partition metric snapshots: the
    merged snapshot must equal the single-partition one for every partition
    count and for forked workers (the counters exported by
    ``_Partition.metrics_snapshot`` are chosen to be decomposition-invariant
    — see the module for what is deliberately excluded)."""

    def test_merged_snapshot_equals_single_partition(self):
        scenario = _scenario("strong")
        single = run_parallel(scenario, partitions=1, collect_metrics=True)
        assert single.metrics is not None
        assert single.metrics["counters"], "snapshot exported no counters"
        for p in (2, 4, 8):
            split = run_parallel(scenario, partitions=p,
                                 collect_metrics=True)
            assert split.partition_metrics is not None
            assert len(split.partition_metrics) == p
            assert split.metrics == single.metrics, f"partitions={p} diverged"

    def test_forked_workers_merge_identically(self):
        scenario = _scenario("strong", nodes_per_replica=32, horizon=14.0)
        inproc = run_parallel(scenario, partitions=4, collect_metrics=True)
        forked = run_parallel(scenario, partitions=4, workers=2,
                              collect_metrics=True, force_processes=True)
        assert forked.metrics == inproc.metrics

    def test_series_sampling_keeps_trace_identical(self):
        """Arming per-partition series sampling adds heap events but must
        not perturb the canonical trace, and the merged series covers the
        run's counters."""
        scenario = _scenario("strong", n_faults=0, horizon=10.0)
        plain = run_parallel(scenario, partitions=4, trace=True)
        sampled = run_parallel(scenario, partitions=4, trace=True,
                               collect_metrics=True, series_interval=2.0)
        assert sampled.trace_digest == plain.trace_digest
        assert sampled.series is not None
        assert sampled.series["times"], "no samples recorded"
        assert any(k.startswith("tasks.") for k in sampled.series["counters"])


class TestWorkerAccounting:
    def test_clamp_mirrors_campaign_rule(self):
        cpus = os.cpu_count() or 1
        assert effective_workers(None, 8) == 1
        assert effective_workers(4, 2) == min(4, 2, cpus)
        assert effective_workers(64, 64) == min(64, cpus)

    def test_report_records_requested_vs_effective(self):
        scenario = _scenario("strong", n_faults=0, nodes_per_replica=8,
                             horizon=6.0)
        report = run_parallel(scenario, partitions=4, workers=8)
        assert report.requested_workers == 8
        assert report.effective_workers == min(8, 4, os.cpu_count() or 1)
        assert report.cpu_count == (os.cpu_count() or 1)
        assert report.partitions == 4
        assert len(report.per_partition_events) == 4
        assert sum(report.per_partition_events) == report.events_processed

    def test_more_partitions_than_ranks_rejected(self):
        scenario = _scenario("strong", nodes_per_replica=4, n_faults=2)
        with pytest.raises(ConfigurationError):
            run_parallel(scenario, partitions=8)

    def test_no_fork_platform_runs_inprocess(self, monkeypatch):
        """Without the ``fork`` start method even a forced multi-worker
        request runs in-process, with the single-partition trace."""
        scenario = _scenario("strong", nodes_per_replica=32, horizon=14.0)
        ref = run_parallel(scenario, partitions=1, trace=True)
        monkeypatch.setattr(parallel_mod, "_fork_available", lambda: False)
        report = run_parallel(scenario, partitions=4, workers=2, trace=True,
                              force_processes=True)
        assert report.data_plane == "inprocess"
        assert report.effective_workers == 1
        assert report.requested_workers == 2
        assert report.trace_digest == ref.trace_digest


class TestSharedMemoryPlane:
    """Every run is backed by the shared arena and its record rings; the
    arena must be a pure representation change — the same trace as the
    single-partition run, in-process and forked."""

    def test_inprocess_shm_trace_identical(self):
        scenario = _scenario("strong")
        single = run_parallel(scenario, partitions=1, trace=True)
        split = run_parallel(scenario, partitions=4, trace=True)
        assert split.data_plane == "inprocess"
        assert split.trace_digest == single.trace_digest

    def test_forked_planes_trace_identical(self):
        """Forked workers, forced on so 1-CPU runners fork too, against
        the single-partition reference — with mid-run faults."""
        scenario = _scenario("strong", nodes_per_replica=32, horizon=14.0)
        ref = run_parallel(scenario, partitions=1, trace=True)
        shm = run_parallel(scenario, partitions=4, workers=2, trace=True,
                           force_processes=True)
        assert shm.data_plane == "shm"
        assert shm.trace_digest == ref.trace_digest
        # The shm report carries the barrier/RSS breakdowns.
        assert shm.barrier_wait_s is not None and len(shm.barrier_wait_s) == 2
        assert shm.window_barrier_s is not None
        assert len(shm.window_barrier_s) == shm.windows
        assert shm.worker_peak_rss_mib is not None
        assert all(r > 0 for r in shm.worker_peak_rss_mib)

    def test_wall_s_populated_once_by_run_parallel(self):
        scenario = _scenario("strong", n_faults=0, nodes_per_replica=8,
                             horizon=6.0)
        report = run_parallel(scenario, partitions=2)
        assert report.wall_s > 0.0
        assert report.loop_wall_s > 0.0
        assert report.wall_s >= report.loop_wall_s

    def test_ring_overflow_raises_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_RING_SLOTS", "1")
        scenario = _scenario("strong", n_faults=0, horizon=8.0)
        with pytest.raises(ParallelWorkerError, match="RING_SLOTS"):
            run_parallel(scenario, partitions=4)


class TestWorkerCrash:
    """A worker dying mid-window must surface a clean error naming its
    partitions — with or without trace collection — instead of hanging the
    barrier."""

    @pytest.mark.parametrize("trace", [False, True])
    def test_crash_names_partitions(self, monkeypatch, trace):
        monkeypatch.setattr(parallel_mod, "_TEST_CRASH", (1, 2))
        scenario = _scenario("strong", n_faults=0, nodes_per_replica=16,
                             horizon=10.0)
        with pytest.raises(ParallelWorkerError) as err:
            run_parallel(scenario, partitions=4, workers=2,
                         force_processes=True, trace=trace)
        # Worker 1 owns the contiguous group [2, 3].
        assert err.value.partitions == [2, 3]
        assert "partition" in str(err.value)

    def test_repeated_crashes_never_hang(self, monkeypatch):
        """The shm controller once aborted the barrier after terminating the
        workers; a worker killed while it held the barrier's lock made that
        call block forever, about one crash in thirty.  Loop the crash path
        under a wall-clock alarm, which interrupts a blocked lock wait."""
        monkeypatch.setattr(parallel_mod, "_TEST_CRASH", (1, 2))
        scenario = _scenario("strong", n_faults=0, nodes_per_replica=16,
                             horizon=10.0)

        class Hung(Exception):
            pass

        def on_alarm(signum, frame):
            raise Hung

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            for _ in range(30):
                with pytest.raises(ParallelWorkerError):
                    run_parallel(scenario, partitions=4, workers=2,
                                 force_processes=True)
        except Hung:
            pytest.fail("worker-crash teardown hung")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestCoordinatedConsensus:
    """The partitioned checkpoint-consensus protocol: byte-identical traces
    across decompositions in-process and forked, invariant round counts,
    and restores that honor the globally decided line."""

    def _coord(self, **overrides) -> ParallelScenario:
        # Pauses stall ~17% of compute time and coordinated restores roll
        # further back than strong snapshots, so give the run more headroom
        # than the strong-scheme scenarios.
        overrides.setdefault("horizon", 30.0)
        overrides.setdefault("coordinated_interval", 1.5)
        overrides.setdefault("coordinated_pause", 0.25)
        return _scenario("coordinated", **overrides)

    def test_trace_identical_across_partition_counts(self):
        scenario = self._coord()
        reports = {p: run_parallel(scenario, partitions=p, trace=True)
                   for p in (1, 4, 8)}
        baseline = reports[1]
        assert baseline.completed
        assert baseline.consensus_rounds > 0
        for p, report in reports.items():
            assert report.trace_digest == baseline.trace_digest, \
                f"partitions={p} diverged"
            assert report.consensus_rounds == baseline.consensus_rounds
        kinds = {line.split()[1] for line in baseline.trace}
        assert {"iter", "kill", "detect", "revive", "restore", "ckpt"} \
            <= kinds

    def test_forked_planes_match_inprocess(self):
        scenario = self._coord(nodes_per_replica=32, horizon=14.0)
        ref = run_parallel(scenario, partitions=1, trace=True)
        forked = run_parallel(scenario, partitions=4, workers=2, trace=True,
                              force_processes=True)
        assert forked.data_plane == "shm"
        assert forked.consensus_rounds > 0
        assert forked.trace_digest == ref.trace_digest
        assert forked.consensus_rounds == ref.consensus_rounds

    def test_restores_use_decided_checkpoint_line(self):
        """Every coordinated restore target must be a previously decided
        global checkpoint line (never a partition-local snapshot)."""
        report = run_parallel(self._coord(), partitions=4, trace=True)
        decided: set[int] = set()
        restores = 0
        for line in report.trace:
            parts = line.split()
            kind, value = parts[1], int(parts[5][1:])
            if kind == "ckpt":
                decided.add(value)
            elif kind == "restore":
                restores += 1
                assert value in decided | {0}, \
                    f"restore to {value}, decided lines {sorted(decided)}"
        assert restores > 0

    def test_checkpoint_metrics_invariant(self):
        scenario = self._coord()
        single = run_parallel(scenario, partitions=1, collect_metrics=True)
        key = "consensus.task_checkpoints"
        assert single.metrics["counters"][key] > 0
        for p in (4, 8):
            split = run_parallel(scenario, partitions=p,
                                 collect_metrics=True)
            assert split.metrics == single.metrics

    def test_pause_does_not_break_determinism(self):
        with_pause = self._coord(n_faults=0, horizon=10.0)
        no_pause = self._coord(n_faults=0, horizon=10.0,
                               coordinated_pause=0.0)
        a1 = run_parallel(with_pause, partitions=1, trace=True)
        a4 = run_parallel(with_pause, partitions=4, trace=True)
        assert a1.trace_digest == a4.trace_digest
        b1 = run_parallel(no_pause, partitions=1, trace=True)
        assert b1.trace_digest != a1.trace_digest or not a1.completed, \
            "pause had no observable effect — scenario too short?"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _scenario("weak")  # no partitioned analogue of the weak scheme
        with pytest.raises(ConfigurationError):
            _scenario("coordinated")  # no interval
        with pytest.raises(ConfigurationError):
            _scenario("strong", coordinated_interval=-1.0)
        with pytest.raises(ConfigurationError):
            _scenario("coordinated", coordinated_interval=1.0,
                      coordinated_pause=1.0)  # pause >= interval
        with pytest.raises(ConfigurationError):
            _scenario("strong", coordinated_interval=1.0,
                      coordinated_pause=-0.1)


class TestFaultPlan:
    def test_seeded_plan_is_deterministic_and_distinct(self):
        scenario = _scenario("strong", n_faults=2)
        plan = fault_plan(scenario)
        assert plan == fault_plan(scenario)
        assert len(plan) == 2
        ranks = [rank for _, _, rank in plan]
        assert len(set(ranks)) == len(ranks)
        lo, hi = scenario.fault_window
        for t, replica, rank in plan:
            assert lo * scenario.horizon <= t <= hi * scenario.horizon
            assert replica in (0, 1)
            assert 0 <= rank < scenario.nodes_per_replica

    def test_different_seed_different_plan(self):
        a = fault_plan(_scenario("strong", seed=1))
        b = fault_plan(_scenario("strong", seed=2))
        assert a != b
