"""Scheduling core of the campaign server: jobs, cells, dedup, quotas.

This module is deliberately synchronous and transport-free — the asyncio
HTTP layer (:mod:`repro.serve.server`) calls into it from one event loop, so
no locking is needed, and the unit tests drive it directly.

The unit of work is the same *cell* the content-addressed store caches: one
``(config, app, seed)`` simulation addressed by
:func:`~repro.store.keys.material_key`.  Because the address is canonical,
two tenants submitting overlapping sweeps resolve to the *same* cell keys,
and the state machine dedupes in all three phases of a cell's life:

* **completed** — the cell is in the store: served as a cache hit, no work;
* **in flight** — queued or running for some earlier job: the new job
  *attaches* to it (one computation, every waiter ticks on completion);
* **unknown** — enqueued once, guarded by per-tenant quotas and the global
  queue bound (the HTTP layer maps rejections to 429 + Retry-After).

Durability follows ACR's own rule — completed work must survive the death of
the component that did it.  Jobs with outstanding cells are journaled
through the store's job journal (:class:`~repro.store.leases.JobJournal`)
and their in-flight cells leave lease records
(:class:`~repro.store.leases.LeaseRegistry`); a restarted server re-reads
both, counts every cell already in the store as *saved work* (shelf-style
validation-on-resume), and re-enqueues only the rest.  Submissions served
entirely from cache complete within the request and skip the fsync.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.obs.metrics import merge_snapshots
from repro.obs.progress import ProgressTracker
from repro.obs.series import merge_series
from repro.store import (
    JOB_ACTIVE_STATES,
    KIND_RUN_REPORT,
    JobJournal,
    LeaseRegistry,
    ResultStore,
    experiment_cell_material,
    material_key,
    report_from_dict,
)
from repro.util.hashing import canonical_digest, to_jsonable

#: Bound on cells waiting in the queue across all tenants (backpressure).
DEFAULT_QUEUE_LIMIT = 1024

#: Bound on one tenant's outstanding (queued + running) cells.
DEFAULT_TENANT_QUOTA = 256

#: Default job priority; lower values run sooner.
DEFAULT_PRIORITY = 10


class ServeRejection(Exception):
    """A submission the server refuses right now (HTTP 429).

    ``retry_after`` is the server's backoff hint in seconds, derived from
    queue depth over worker width.
    """

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = int(retry_after)


class QueueFull(ServeRejection):
    """The global work queue is at its bound."""


class QuotaExceeded(ServeRejection):
    """The tenant's outstanding-cell quota is exhausted."""


class UnknownJob(KeyError):
    """No job with this id (HTTP 404)."""


@dataclass
class Cell:
    """One in-flight unit of work and the jobs waiting on it."""

    key: str
    material: dict
    app: str
    seed: int
    config: dict
    priority: int
    status: str = "queued"  # queued | running
    jobs: set[str] = field(default_factory=set)
    tenants: set[str] = field(default_factory=set)


@dataclass
class Job:
    """One submitted sweep: its cells, lifecycle state, and progress."""

    job_id: str
    tenant: str
    app: str
    seeds: list[int]
    config: dict
    priority: int
    created: float
    status: str = "queued"  # queued | running | done | failed | cancelled
    #: (seed, key) in submission order — the full expansion.
    cells: list[tuple[int, str]] = field(default_factory=list)
    #: Keys still owed to this job.
    pending: set[str] = field(default_factory=set)
    #: Submit-time classification counts.
    cached_at_submit: int = 0
    attached_at_submit: int = 0
    queued_at_submit: int = 0
    #: Cells found already in the store when a restarted server resumed us.
    saved_on_resume: int = 0
    resumed: bool = False
    error: str | None = None
    finished: float | None = None
    progress: ProgressTracker | None = None

    def to_record(self) -> dict:
        """The durable job record (everything needed to resume)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.app,
            "seeds": list(self.seeds),
            "config": dict(self.config),
            "priority": self.priority,
            "created": self.created,
            "status": self.status,
            "cells": {key: seed for seed, key in self.cells},
            "error": self.error,
        }

    def status_payload(self) -> dict:
        """The job as the HTTP API reports it."""
        done = len(self.cells) - len(self.pending)
        payload = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.app,
            "status": self.status,
            "priority": self.priority,
            "created": self.created,
            "seeds": list(self.seeds),
            "cells_total": len(self.cells),
            "cells_done": done,
            "cells_pending": len(self.pending),
            "cached_at_submit": self.cached_at_submit,
            "attached_at_submit": self.attached_at_submit,
            "queued_at_submit": self.queued_at_submit,
            "saved_on_resume": self.saved_on_resume,
            "resumed": self.resumed,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.finished is not None:
            payload["finished"] = self.finished
        if self.progress is not None:
            payload["progress"] = self.progress.snapshot()
        return payload


class ServeState:
    """The server's authoritative in-memory state plus its durable mirror."""

    def __init__(
        self,
        store: ResultStore,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        workers_hint: int = 1,
        clock=time.time,
    ) -> None:
        self.store = store
        self.journal = JobJournal(store.root)
        self.leases = LeaseRegistry(store.root)
        self.queue_limit = int(queue_limit)
        self.tenant_quota = int(tenant_quota)
        self.workers_hint = max(1, int(workers_hint))
        self.clock = clock
        self.jobs: dict[str, Job] = {}
        self.cells: dict[str, Cell] = {}
        #: Keys confirmed present in the store (memo over ``store.has``).
        self.known: set[str] = set()
        self.queued_cells = 0
        self.running_cells = 0
        self._outstanding: dict[str, int] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        self._job_seq = 0
        self.resume_stats = {"jobs": 0, "saved_cells": 0,
                             "requeued_cells": 0, "stale_leases": 0,
                             "key_mismatches": 0, "orphaned_tmp": 0}
        self._resume()

    # -- submission -----------------------------------------------------------
    def submit(self, *, tenant: str, app: str, seeds: list[int],
               config: dict, priority: int = DEFAULT_PRIORITY) -> Job:
        """Expand a sweep to cells, dedupe, enforce quotas, enqueue misses.

        Returns the new :class:`Job`; raises :class:`QuotaExceeded` /
        :class:`QueueFull` without side effects when limits would be
        breached.
        """
        unique_seeds: list[int] = []
        seen: set[int] = set()
        for seed in seeds:
            seed = int(seed)
            if seed not in seen:
                seen.add(seed)
                unique_seeds.append(seed)
        expansion: list[tuple[int, str, dict]] = []
        hits: list[str] = []
        attach: list[str] = []
        fresh: list[tuple[int, str, dict]] = []
        for seed in unique_seeds:
            material = experiment_cell_material(app, seed, config)
            key = material_key(material)
            expansion.append((seed, key, material))
            if self._is_cached(key, material):
                hits.append(key)
            elif key in self.cells:
                attach.append(key)
            else:
                fresh.append((seed, key, material))

        newly_outstanding = len(fresh) + sum(
            1 for key in attach if tenant not in self.cells[key].tenants)
        if (self.tenant_quota and
                self._outstanding.get(tenant, 0) + newly_outstanding
                > self.tenant_quota):
            raise QuotaExceeded(
                f"tenant {tenant!r} has {self._outstanding.get(tenant, 0)} "
                f"outstanding cell(s); +{newly_outstanding} would exceed the "
                f"quota of {self.tenant_quota}",
                self._retry_after(),
            )
        if self.queue_limit and self.queued_cells + len(fresh) > self.queue_limit:
            raise QueueFull(
                f"work queue holds {self.queued_cells} cell(s); +{len(fresh)} "
                f"would exceed the bound of {self.queue_limit}",
                self._retry_after(),
            )

        job = Job(
            job_id=f"job-{self._job_seq:06d}",
            tenant=tenant,
            app=app,
            seeds=unique_seeds,
            config=dict(config),
            priority=int(priority),
            created=self.clock(),
            cells=[(seed, key) for seed, key, _ in expansion],
            pending={key for _, key, _ in expansion if key not in hits},
            cached_at_submit=len(hits),
            attached_at_submit=len(attach),
            queued_at_submit=len(fresh),
        )
        self._job_seq += 1
        job.progress = ProgressTracker(len(job.cells), label=job.job_id)
        if hits:
            job.progress.cell_cached(len(hits))
        self.jobs[job.job_id] = job

        for key in attach:
            cell = self.cells[key]
            cell.jobs.add(job.job_id)
            if tenant not in cell.tenants:
                cell.tenants.add(tenant)
                self._outstanding[tenant] = \
                    self._outstanding.get(tenant, 0) + 1
            if job.priority < cell.priority and cell.status == "queued":
                cell.priority = job.priority
                self._push(cell)
        for seed, key, material in fresh:
            cell = Cell(key=key, material=material, app=app, seed=seed,
                        config=job.config, priority=job.priority,
                        jobs={job.job_id}, tenants={tenant})
            self.cells[key] = cell
            self.queued_cells += 1
            self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
            self._push(cell)

        if not job.pending:
            # Served entirely from cache: done within the request, no fsync.
            job.status = "done"
            job.finished = self.clock()
            job.progress.finish()
            self.journal.append_event(
                {"event": "done", "job": job.job_id, "t": job.finished,
                 "cached": job.cached_at_submit}, durable=False)
        else:
            job.status = "running"
            self.journal.write_job(job.to_record(), durable=True)
            self.journal.append_event(
                {"event": "submitted", "job": job.job_id, "t": job.created,
                 "tenant": tenant, "cells": len(job.cells),
                 "queued": job.queued_at_submit}, durable=True)
        return job

    def _is_cached(self, key: str, material: dict) -> bool:
        if key in self.known:
            return True
        if self.store.has(material):
            self.known.add(key)
            return True
        return False

    def _retry_after(self) -> int:
        backlog = self.queued_cells + self.running_cells
        return max(1, min(60, backlog // self.workers_hint))

    def _push(self, cell: Cell) -> None:
        heapq.heappush(self._heap, (cell.priority, self._seq, cell.key))
        self._seq += 1

    # -- the work queue -------------------------------------------------------
    def next_cell(self) -> Cell | None:
        """Claim the highest-priority queued cell (marks it running)."""
        while self._heap:
            _, _, key = heapq.heappop(self._heap)
            cell = self.cells.get(key)
            # Stale heap entries: cancelled cells and duplicate pushes from
            # priority boosts resolve to non-queued (or gone) cells.
            if cell is None or cell.status != "queued":
                continue
            cell.status = "running"
            self.queued_cells -= 1
            self.running_cells += 1
            self.leases.acquire(key, jobs=sorted(cell.jobs),
                                tenant=",".join(sorted(cell.tenants)))
            return cell
        return None

    def complete_cell(self, key: str, payload: dict) -> list[Job]:
        """Persist a finished cell and tick every attached job.

        Returns the jobs that *finished* because of this cell.
        """
        cell = self.cells.pop(key, None)
        if cell is None:
            return []
        self.store.put(cell.material, payload, kind=KIND_RUN_REPORT)
        self.known.add(key)
        self.leases.release(key)
        self._account_cell_gone(cell)
        finished = []
        for job_id in sorted(cell.jobs):
            job = self.jobs.get(job_id)
            if job is None or key not in job.pending:
                continue
            job.pending.discard(key)
            if job.progress is not None:
                job.progress.cell_completed()
            if not job.pending and job.status in JOB_ACTIVE_STATES:
                self._finish_job(job, "done")
                finished.append(job)
        return finished

    def fail_cell(self, key: str, error: str) -> list[Job]:
        """A cell's computation raised: fail every job waiting on it."""
        cell = self.cells.pop(key, None)
        if cell is None:
            return []
        self.leases.release(key)
        self._account_cell_gone(cell)
        failed = []
        for job_id in sorted(cell.jobs):
            job = self.jobs.get(job_id)
            if job is None or job.status not in JOB_ACTIVE_STATES:
                continue
            job.error = f"cell seed={cell.seed}: {error}"
            if job.progress is not None:
                job.progress.cell_failed()
            self._finish_job(job, "failed")
            failed.append(job)
        return failed

    def _account_cell_gone(self, cell: Cell) -> None:
        if cell.status == "queued":
            self.queued_cells -= 1
        else:
            self.running_cells -= 1
        for tenant in cell.tenants:
            remaining = self._outstanding.get(tenant, 1) - 1
            if remaining > 0:
                self._outstanding[tenant] = remaining
            else:
                self._outstanding.pop(tenant, None)

    def _finish_job(self, job: Job, status: str) -> None:
        job.status = status
        job.finished = self.clock()
        if job.progress is not None:
            job.progress.finish()
        self.journal.write_job(job.to_record(), durable=True)
        self.journal.append_event(
            {"event": status, "job": job.job_id, "t": job.finished},
            durable=True)

    # -- cancellation ---------------------------------------------------------
    def cancel_job(self, job_id: str) -> Job:
        """Cancel a job; queued cells nobody else wants are dropped.

        Cells already running are left to finish — their results land in the
        store either way, so the work is never wasted.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        if job.status not in JOB_ACTIVE_STATES:
            return job
        for key in sorted(job.pending):
            cell = self.cells.get(key)
            if cell is None:
                continue
            cell.jobs.discard(job_id)
            still_wanted = {self.jobs[j].tenant for j in cell.jobs
                            if j in self.jobs}
            dropped_tenants = cell.tenants - still_wanted
            cell.tenants = still_wanted
            for tenant in dropped_tenants:
                remaining = self._outstanding.get(tenant, 1) - 1
                if remaining > 0:
                    self._outstanding[tenant] = remaining
                else:
                    self._outstanding.pop(tenant, None)
            if not cell.jobs and cell.status == "queued":
                del self.cells[key]
                self.queued_cells -= 1
        job.pending.clear()
        self._finish_job(job, "cancelled")
        return job

    # -- resume ---------------------------------------------------------------
    def _resume(self) -> None:
        """Rebuild from the job journal after a restart (or a kill -9).

        Every recorded cell already present in the store is *saved work*;
        only the rest are re-enqueued.  Recorded cell keys are validated
        against a fresh expansion — a changed source tree re-derives
        different keys, in which case the recorded ones are stale and the
        re-derived cells are computed instead.
        """
        stale = self.leases.sweep()
        self.resume_stats["stale_leases"] = len(stale)
        # A kill between a cell's temp-file write and its rename leaves the
        # temp file behind; its writer is gone, so nothing will rename it.
        self.resume_stats["orphaned_tmp"] = self.store.sweep_dead_writers()
        for job_id, record in sorted(self.journal.load_jobs().items()):
            try:
                seq = int(job_id.rsplit("-", 1)[1]) + 1
            except (IndexError, ValueError):
                seq = 0
            self._job_seq = max(self._job_seq, seq)
            job = Job(
                job_id=job_id,
                tenant=str(record.get("tenant", "default")),
                app=str(record.get("app", "")),
                seeds=[int(s) for s in record.get("seeds", [])],
                config=dict(record.get("config", {})),
                priority=int(record.get("priority", DEFAULT_PRIORITY)),
                created=float(record.get("created", 0.0)),
                status=str(record.get("status", "queued")),
                error=record.get("error"),
            )
            if job.status not in JOB_ACTIVE_STATES:
                # Terminal: kept for listings, nothing to do.
                job.cells = [(int(seed), key) for key, seed
                             in sorted(record.get("cells", {}).items(),
                                       key=lambda kv: kv[1])]
                self.jobs[job.job_id] = job
                continue
            job.resumed = True
            recorded = set(record.get("cells", {}))
            saved = requeued = 0
            for seed in job.seeds:
                material = experiment_cell_material(job.app, seed, job.config)
                key = material_key(material)
                job.cells.append((seed, key))
                if key not in recorded:
                    self.resume_stats["key_mismatches"] += 1
                if self._is_cached(key, material):
                    saved += 1
                    continue
                job.pending.add(key)
                requeued += 1
                cell = self.cells.get(key)
                if cell is not None:
                    cell.jobs.add(job.job_id)
                    if job.tenant not in cell.tenants:
                        cell.tenants.add(job.tenant)
                        self._outstanding[job.tenant] = \
                            self._outstanding.get(job.tenant, 0) + 1
                    continue
                cell = Cell(key=key, material=material, app=job.app,
                            seed=seed, config=job.config,
                            priority=job.priority, jobs={job.job_id},
                            tenants={job.tenant})
                self.cells[key] = cell
                self.queued_cells += 1
                self._outstanding[job.tenant] = \
                    self._outstanding.get(job.tenant, 0) + 1
                self._push(cell)
            job.saved_on_resume = saved
            job.progress = ProgressTracker(len(job.cells), label=job.job_id)
            if saved:
                job.progress.cell_cached(saved)
            self.jobs[job.job_id] = job
            self.resume_stats["jobs"] += 1
            self.resume_stats["saved_cells"] += saved
            self.resume_stats["requeued_cells"] += requeued
            if not job.pending:
                self._finish_job(job, "done")
            else:
                job.status = "running"
                self.journal.write_job(job.to_record(), durable=True)
        if self.resume_stats["jobs"]:
            self.journal.append_event(
                {"event": "resumed", "t": self.clock(),
                 **{k: v for k, v in self.resume_stats.items()}},
                durable=True)

    # -- results --------------------------------------------------------------
    def _job_reports(self, job: Job, *, only_done: bool = False):
        """Load a job's cell reports back from the store, in seed order."""
        reports = []
        missing = []
        for seed, key in job.cells:
            if only_done and key in job.pending:
                continue
            material = experiment_cell_material(job.app, seed, job.config)
            payload = self.store.get(material)
            if payload is None:
                missing.append(seed)
                continue
            reports.append(report_from_dict(payload))
        return reports, missing

    def job_result(self, job_id: str) -> dict:
        """The finished job's aggregate: a campaign summary plus its digest.

        The summary is computed purely from store-loaded cells, so it is
        bitwise-identical no matter how the cells got there — one server,
        two overlapping tenants, or a kill -9 and a resume.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        if job.status != "done":
            raise ValueError(f"job {job_id} is {job.status}, not done")
        reports, missing = self._job_reports(job)
        if missing:
            raise ValueError(
                f"job {job_id}: {len(missing)} cell(s) missing from the "
                f"store (seeds {missing[:5]}...) — was the cache gc'd?")
        from repro.harness.campaign import summarize

        summary = to_jsonable(summarize(reports))
        return {
            "job_id": job.job_id,
            "app": job.app,
            "seeds": list(job.seeds),
            "summary": summary,
            "summary_digest": canonical_digest(summary),
        }

    def job_observability(self, job_id: str) -> dict:
        """Live merged metrics/series over the job's completed cells."""
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        reports, _ = self._job_reports(job, only_done=True)
        snapshots = [r.metrics_snapshot for r in reports if r.metrics_snapshot]
        series_list = [r.series for r in reports if r.series]
        return {
            "job_id": job.job_id,
            "cells_merged": len(reports),
            "metrics": merge_snapshots(snapshots) if snapshots else None,
            "series": merge_series(series_list) if series_list else None,
        }

    # -- introspection --------------------------------------------------------
    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": by_status,
            "queued_cells": self.queued_cells,
            "running_cells": self.running_cells,
            "known_cells": len(self.known),
            "queue_limit": self.queue_limit,
            "tenant_quota": self.tenant_quota,
            "outstanding_by_tenant": dict(sorted(self._outstanding.items())),
            "resume": dict(self.resume_stats),
        }
