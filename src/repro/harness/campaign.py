"""Multi-seed experiment campaigns: aggregate statistics, resumable sweeps.

One seed is an anecdote; claims like "ACR recovers with low overhead" need
distributions.  A campaign replays the same experiment across seeds (fault
schedules and victim choices re-drawn each time) and aggregates outcomes.

Campaigns practice what ACR simulates: pass ``cache_dir=`` (or a
:class:`~repro.store.ResultStore`) and every completed cell is persisted the
moment it finishes — a re-run loads cached cells instead of recomputing, and
an interrupted sweep resumes from its last completed shard with an aggregate
bitwise-identical to an uninterrupted run.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.framework import RunReport
from repro.harness.experiment import run_experiment_report
from repro.harness.pool import WorkerPool, effective_workers
from repro.obs.metrics import merge_snapshots
from repro.obs.progress import ProgressTracker
from repro.obs.series import merge_series
from repro.store import (
    ResultStore,
    experiment_cell_material,
    report_from_dict,
    report_to_dict,
)


@dataclass
class CampaignSummary:
    """Aggregate statistics over a campaign's runs."""

    runs: int
    completed_runs: int
    correct_runs: int
    aborted_runs: int
    mean_overhead: float
    std_overhead: float
    mean_checkpoints: float
    mean_rework_iterations: float
    total_hard_faults: int
    total_sdc: int
    total_recoveries: dict[str, int] = field(default_factory=dict)
    #: Summed per-phase protocol time across all runs (same keys as
    #: :attr:`RunReport.phase_times`).
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Merged metrics snapshot across workers (None when no run collected
    #: metrics); see :func:`repro.obs.metrics.merge_snapshots`.
    metrics: dict | None = None
    #: Merged time series across cells (None when no run sampled a series);
    #: see :func:`repro.obs.series.merge_series`.
    series: dict | None = None

    @property
    def completion_rate(self) -> float:
        return self.completed_runs / self.runs if self.runs else 0.0

    @property
    def correctness_rate(self) -> float:
        """Fraction of *completed* runs whose result was bit-correct."""
        return self.correct_runs / self.completed_runs if self.completed_runs else 0.0


@dataclass
class CampaignResult:
    reports: list[RunReport]
    seeds: list[int]
    summary: CampaignSummary
    #: Cells loaded from the result store instead of simulated.
    cache_hits: int = 0
    #: Cells actually simulated this invocation.
    cache_misses: int = 0


class FanOutError(RuntimeError):
    """A campaign worker failed on one specific argument tuple.

    Wraps the worker's original exception (as ``__cause__``) and names the
    failing call, so a sweep that dies on seed 17 of 500 says so instead of
    surfacing a bare pool traceback.
    """

    def __init__(self, fn_name: str, args: tuple, cause: BaseException):
        self.fn_name = fn_name
        self.args_tuple = tuple(args)
        super().__init__(
            f"{fn_name}{self.args_tuple!r} failed: "
            f"{type(cause).__name__}: {cause}"
        )


def summarize(reports: Sequence[RunReport]) -> CampaignSummary:
    """Aggregate a set of run reports."""
    completed = [r for r in reports if r.completed]
    overheads = (
        np.asarray([r.overhead_fraction for r in completed])
        if completed
        else np.zeros(0)
    )
    recoveries: dict[str, int] = {}
    phase_times: dict[str, float] = {}
    for r in reports:
        for key, count in r.recoveries.items():
            recoveries[key] = recoveries.get(key, 0) + count
        for phase, t in r.phase_times.items():
            phase_times[phase] = phase_times.get(phase, 0.0) + t
    snapshots = [r.metrics_snapshot for r in reports if r.metrics_snapshot]
    series_list = [r.series for r in reports if r.series]
    return CampaignSummary(
        runs=len(reports),
        completed_runs=len(completed),
        correct_runs=sum(1 for r in completed if r.result_correct),
        aborted_runs=sum(1 for r in reports if r.aborted_reason),
        mean_overhead=float(overheads.mean()) if overheads.size else 0.0,
        std_overhead=float(overheads.std()) if overheads.size else 0.0,
        mean_checkpoints=(
            float(np.mean([r.checkpoints_completed for r in reports]))
            if reports
            else 0.0
        ),
        mean_rework_iterations=(
            float(np.mean([r.rework_iterations for r in reports]))
            if reports
            else 0.0
        ),
        total_hard_faults=sum(r.hard_detected for r in reports),
        total_sdc=sum(r.sdc_detected for r in reports),
        total_recoveries=recoveries,
        phase_times=phase_times,
        metrics=merge_snapshots(snapshots) if snapshots else None,
        series=merge_series(series_list) if series_list else None,
    )


def fan_out(
    fn: Callable,
    arg_tuples: Sequence[tuple],
    workers: int,
    *,
    on_result: Callable[[int, object], None] | None = None,
) -> list | None:
    """Map ``fn(*args)`` over ``arg_tuples`` on a :class:`WorkerPool`.

    Results come back in input order, and every worker re-derives its
    randomness from its own arguments, so the aggregate is bitwise-identical
    to a serial loop.  ``on_result(position, result)`` fires in the parent as
    each call completes, which is what lets campaigns persist finished cells
    while their siblings still run.

    Returns ``None`` ("run it serially") only when the environment fails:
    :meth:`WorkerPool.try_submit` refuses a call, or a worker dies.  Any
    exception raised by a call raises :class:`FanOutError` naming its
    argument tuple, with the original exception chained as its cause.
    """
    pool = WorkerPool(workers)
    try:
        futures = []
        for args in arg_tuples:
            future = pool.try_submit(fn, *args)
            if future is None:
                return None
            futures.append(future)
        position = {f: i for i, f in enumerate(futures)}
        results: list = [None] * len(futures)
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            failed: tuple[int, BaseException] | None = None
            for f in sorted(done, key=position.__getitem__):
                i, err = position[f], f.exception()
                if err is None:
                    # Commit every success in this batch before raising:
                    # an interrupted sweep keeps everything already done.
                    results[i] = f.result()
                    if on_result is not None:
                        on_result(i, results[i])
                elif failed is None:
                    failed = (i, err)
            if failed is not None:
                i, err = failed
                if isinstance(err, BrokenProcessPool):
                    return None
                raise FanOutError(
                    getattr(fn, "__name__", repr(fn)), arg_tuples[i], err
                ) from err
        return results
    finally:
        pool.shutdown(wait=True)


def open_store(
    cache: ResultStore | None, cache_dir: str | None
) -> ResultStore | None:
    """The result store a sweep's ``cache`` / ``cache_dir`` pair selects."""
    if cache is None and cache_dir is not None:
        return ResultStore(cache_dir)
    return cache


def cached_sweep(
    fn: Callable,
    arg_tuples: Sequence[tuple],
    *,
    material: Callable[..., dict],
    encode: Callable[[object], dict],
    decode: Callable[[dict], object],
    store: ResultStore | None,
    workers: int | None,
    resume: bool = True,
    progress: ProgressTracker | None = None,
    failed: Callable[[object], bool] | None = None,
) -> tuple[list, int]:
    """Run ``fn(*args)`` once per cell through the result store.

    The loop every campaign shares.  With a ``store``, a cell is addressed
    by ``material(*args)``; under ``resume`` a stored cell is decoded instead
    of run, and each computed cell is encoded and stored the moment it lands
    (under its material's ``"kind"``).  The rest fan out over ``workers``
    processes; whatever they did not compute then runs serially, in order.
    ``progress`` ticks once per cell: cached, or completed / failed as
    ``failed(result)`` says.  Returns ``(results, cache_hits)``.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results: list = [None] * len(arg_tuples)
    materials: dict[int, dict] = {}
    hits = 0
    pending: list[int] = []
    for pos, args in enumerate(arg_tuples):
        if store is not None:
            materials[pos] = material(*args)
            payload = store.get(materials[pos]) if resume else None
            if payload is not None:
                results[pos] = decode(payload)
                hits += 1
                if progress is not None:
                    progress.cell_cached()
                continue
        pending.append(pos)

    def commit(pos: int, result: object) -> None:
        results[pos] = result
        if store is not None:
            store.put(materials[pos], encode(result),
                      kind=materials[pos]["kind"])
        if progress is not None:
            if failed is not None and failed(result):
                progress.cell_failed()
            else:
                progress.cell_completed()

    nworkers = effective_workers(workers, len(pending))
    if nworkers > 1:
        fan_out(fn, [arg_tuples[pos] for pos in pending], nworkers,
                on_result=lambda j, result: commit(pending[j], result))
    for pos in pending:
        if results[pos] is None:  # not computed by a worker
            commit(pos, fn(*arg_tuples[pos]))

    if progress is not None:
        progress.finish()
    assert all(r is not None for r in results)
    return results, hits


def run_campaign(
    app: str = "jacobi3d-charm",
    *,
    seeds: Sequence[int] = range(5),
    workers: int | None = None,
    cache: ResultStore | None = None,
    cache_dir: str | None = None,
    resume: bool = True,
    progress: ProgressTracker | None = None,
    **experiment_kwargs,
) -> CampaignResult:
    """Run :func:`run_acr_experiment` once per seed and aggregate.

    ``workers`` > 1 replays seeds concurrently on a
    :class:`~repro.harness.pool.WorkerPool` (each seed is an independent
    simulation — campaigns are embarrassingly parallel).  The result is
    bitwise-identical to the serial path: reports are ordered by seed and
    every worker derives its randomness from the seed alone.  The request is
    clamped to ``os.cpu_count()`` (see :func:`effective_workers`) — extra
    processes beyond the core count only add fork/IPC overhead.  Where
    process pools are unavailable the runner silently degrades to serial
    execution (see :func:`cached_sweep`).

    ``cache`` (a :class:`~repro.store.ResultStore`) or ``cache_dir`` turns
    the sweep into a resumable work-queue: with ``resume`` (the default),
    cells already in the store are loaded instead of simulated, and every
    freshly computed cell is persisted the moment its worker finishes.
    ``resume=False`` recomputes everything but still writes the store.

    ``progress`` (a :class:`~repro.obs.progress.ProgressTracker`) receives a
    per-cell tick as each cell is served from cache or committed — the live
    ``repro campaign --progress`` view and the machine-readable progress
    file both hang off it.
    """
    seed_list = [int(s) for s in seeds]
    reports, hits = cached_sweep(
        run_experiment_report,
        [(app, seed, experiment_kwargs) for seed in seed_list],
        material=experiment_cell_material,
        encode=report_to_dict,
        decode=report_from_dict,
        store=open_store(cache, cache_dir),
        workers=workers,
        resume=resume,
        progress=progress,
    )
    return CampaignResult(
        reports=reports,
        seeds=seed_list,
        summary=summarize(reports),
        cache_hits=hits,
        cache_misses=len(seed_list) - hits,
    )
