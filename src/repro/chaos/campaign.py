"""Chaos campaigns: fuzz many seeds, in parallel, and aggregate verdicts.

``run_chaos_campaign(seeds, workers=N)`` drives one monitored chaos run per
seed through the same cached sweep loop the experiment campaigns use (each
seed re-derives everything from itself, so parallel results are
bitwise-identical to serial), then shrinks every failing schedule to a
minimal replayable repro plan.

Like experiment campaigns, chaos sweeps are resumable: with ``cache_dir=``
(or a :class:`~repro.store.ResultStore`) every verdict is persisted as it
lands, keyed by (seed, app, code fingerprint) — a schedule is a pure
function of its seed, so those pin the outcome completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.chaos.runner import ChaosOutcome, run_chaos_seed
from repro.chaos.shrinker import ShrinkResult, shrink_schedule
from repro.chaos.fuzzer import ChaosSchedule
from repro.harness.campaign import cached_sweep, open_store
from repro.obs.metrics import merge_snapshots
from repro.obs.progress import ProgressTracker
from repro.store import (
    ResultStore,
    chaos_cell_material,
    outcome_from_dict,
    outcome_to_dict,
)


@dataclass
class ChaosCampaignResult:
    """Verdicts of one chaos campaign."""

    seeds: list[int]
    outcomes: list[ChaosOutcome]
    shrunk: list[ShrinkResult] = field(default_factory=list)
    #: Verdicts loaded from the result store instead of re-run.
    cache_hits: int = 0
    #: Verdicts actually executed this invocation.
    cache_misses: int = 0

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_checks(self) -> int:
        return sum(o.checks_performed for o in self.outcomes)

    def merged_metrics(self) -> dict:
        """Campaign-wide metrics snapshot (counters add, gauges last-writer
        by worker index, histograms merge bucket-wise across every
        schedule's run)."""
        return merge_snapshots([o.metrics for o in self.outcomes])

    def coverage(self) -> dict[str, int]:
        """Schedules per (scheme, mode) cell — the fuzzer's coverage matrix."""
        cells: dict[str, int] = {}
        for o in self.outcomes:
            sched = o.schedule
            key = "{}/{}/{}".format(
                sched.get("scheme", "?"),
                "async" if sched.get("async_checkpointing") else "blocking",
                "checksum" if sched.get("use_checksum") else "full-compare",
            )
            cells[key] = cells.get(key, 0) + 1
        return cells


def run_chaos_campaign(
    seeds: Sequence[int] | int,
    *,
    workers: int | None = None,
    app: str = "jacobi3d-charm",
    shrink: bool = True,
    shrink_max_runs: int = 200,
    cache: ResultStore | None = None,
    cache_dir: str | None = None,
    resume: bool = True,
    flight_dir: str | None = None,
    progress: ProgressTracker | None = None,
) -> ChaosCampaignResult:
    """Fuzz + run + verify one schedule per seed; shrink any failures.

    ``seeds`` is a sequence of seeds or a count (meaning ``range(count)``).
    ``workers`` > 1 fans the runs out over a process pool (clamped to
    ``os.cpu_count()``); results are ordered by seed and bitwise-identical
    to the serial path.  ``cache`` /
    ``cache_dir`` persist each verdict as it completes and — with ``resume``
    (the default) — load cached verdicts instead of re-running them.

    ``flight_dir`` arms a flight recorder on every run: failing seeds dump
    their recent-event tail plus the replayable schedule there (see
    :func:`repro.chaos.runner.run_schedule`).  When a result store is
    configured and no explicit ``flight_dir`` is given, dumps land in the
    store's ``quarantine/`` directory — forensic artifacts live next to the
    other objects the store had to set aside.  ``progress`` receives a tick
    per verdict (cached, passed, or failed).
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    seed_list = [int(s) for s in seeds]
    store = open_store(cache, cache_dir)
    if flight_dir is None and store is not None:
        flight_dir = str(store.quarantine_dir)
    outcomes, hits = cached_sweep(
        run_chaos_seed,
        [(seed, app, flight_dir) for seed in seed_list],
        material=lambda seed, *_: chaos_cell_material(seed, app),
        encode=outcome_to_dict,
        decode=outcome_from_dict,
        store=store,
        workers=workers,
        resume=resume,
        progress=progress,
        failed=lambda outcome: not outcome.ok,
    )
    result = ChaosCampaignResult(
        seeds=seed_list,
        outcomes=outcomes,
        cache_hits=hits,
        cache_misses=len(seed_list) - hits,
    )
    if shrink:
        for failure in result.failures:
            schedule = ChaosSchedule.from_dict(failure.schedule)
            try:
                result.shrunk.append(
                    shrink_schedule(schedule, max_runs=shrink_max_runs))
            except ValueError:
                # The failure did not reproduce on replay — report it
                # unshrunk rather than dropping it on the floor.
                continue
    return result
