"""Crash-resume matrix: a ServeState rebuilt over an abandoned store.

A kill -9 is simulated the honest way — the first ``ServeState`` is simply
abandoned mid-job (no shutdown hook runs, exactly like SIGKILL), and a
second one is constructed over the same cache root.  The matrix walks the
kill point across the job (0 cells done, some done, all done), asserting
the resume invariants each time:

* cells already in the store are *saved* (never recomputed),
* the rest are re-enqueued and the job completes,
* the finished summary digest is bitwise-identical to an uninterrupted run,
* stale leases from the dead process are swept, and so are the temp files
  it left between a write and its rename.
"""

import os
import subprocess
import sys

import pytest

from repro.harness.experiment import run_experiment_report
from repro.serve import ServeState
from repro.store import ResultStore, report_to_dict

CFG = {"total_iterations": 6, "checkpoint_interval": 2.0, "horizon": 50.0}
SEEDS = [0, 1, 2, 3]


def compute(cell) -> dict:
    return report_to_dict(
        run_experiment_report(cell.app, cell.seed, cell.config))


def run_to_completion(state):
    while True:
        cell = state.next_cell()
        if cell is None:
            return
        state.complete_cell(cell.key, compute(cell))


def clean_digest(tmp_path):
    """The oracle: the same sweep computed with no interruption."""
    state = ServeState(ResultStore(tmp_path / "oracle"))
    job = state.submit(tenant="oracle", app="jacobi3d-charm", seeds=SEEDS,
                       config=CFG)
    run_to_completion(state)
    return state.job_result(job.job_id)["summary_digest"]


@pytest.mark.parametrize("cells_before_kill", [0, 1, 2, len(SEEDS) - 1])
def test_kill_point_matrix(tmp_path, cells_before_kill):
    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    job = first.submit(tenant="a", app="jacobi3d-charm", seeds=SEEDS,
                       config=CFG)
    for _ in range(cells_before_kill):
        cell = first.next_cell()
        first.complete_cell(cell.key, compute(cell))
    # One cell mid-computation at kill time: it has a lease on disk but
    # will never complete.
    interrupted = first.next_cell()
    assert interrupted is not None
    del first  # the kill -9: no shutdown path runs

    second = ServeState(ResultStore(store_root))
    stats = second.resume_stats
    job2 = second.jobs[job.job_id]
    assert job2.status == "running"
    assert job2.resumed
    assert job2.saved_on_resume == cells_before_kill
    assert stats["requeued_cells"] == len(SEEDS) - cells_before_kill
    assert stats["stale_leases"] == 1
    run_to_completion(second)
    assert second.jobs[job.job_id].status == "done"
    assert second.job_result(job.job_id)["summary_digest"] == \
        clean_digest(tmp_path)


def test_killed_after_last_store_put_resumes_to_done(tmp_path):
    """Kill between the final cell landing in the store and the job record
    flipping to done: resume must find every cell saved and finish the job
    without enqueuing anything."""
    from repro.store import KIND_RUN_REPORT

    store_root = tmp_path / "cache"
    store = ResultStore(store_root)
    first = ServeState(store)
    job = first.submit(tenant="a", app="jacobi3d-charm", seeds=SEEDS,
                       config=CFG)
    # Land every cell in the store directly — complete_cell never runs, so
    # the job record on disk still says "running" (the kill point).
    for cell in list(first.cells.values()):
        store.put(cell.material, compute(cell), kind=KIND_RUN_REPORT)
    del first

    second = ServeState(ResultStore(store_root))
    job2 = second.jobs[job.job_id]
    assert job2.status == "done"
    assert job2.saved_on_resume == len(SEEDS)
    assert second.queued_cells == 0
    assert second.job_result(job.job_id)["summary_digest"] == \
        clean_digest(tmp_path)


def test_double_crash_converges(tmp_path):
    """Crash, resume, crash again mid-resume, resume again."""
    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    job = first.submit(tenant="a", app="jacobi3d-charm", seeds=SEEDS,
                       config=CFG)
    cell = first.next_cell()
    first.complete_cell(cell.key, compute(cell))
    del first

    second = ServeState(ResultStore(store_root))
    cell = second.next_cell()
    second.complete_cell(cell.key, compute(cell))
    del second

    third = ServeState(ResultStore(store_root))
    assert third.jobs[job.job_id].saved_on_resume == 2
    run_to_completion(third)
    assert third.jobs[job.job_id].status == "done"
    assert third.job_result(job.job_id)["summary_digest"] == \
        clean_digest(tmp_path)


def test_resume_revalidates_recorded_keys(tmp_path):
    """Stale recorded cell keys (changed code fingerprint) are recomputed.

    The job record on disk names content addresses derived from the source
    tree at submit time.  If they no longer match a fresh expansion, resume
    must trust the *fresh* keys — the store would miss on the stale ones —
    and count the mismatches.
    """
    import json

    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    job = first.submit(tenant="a", app="jacobi3d-charm", seeds=[0, 1],
                       config=CFG)
    del first

    from repro.store import JobJournal

    record_path = JobJournal(store_root).path(job.job_id)
    record = json.loads(record_path.read_text())
    record["cells"] = {f"stale-{i}": seed
                       for i, seed in enumerate(sorted(
                           record["cells"].values()))}
    record_path.write_text(json.dumps(record))

    resumed = ServeState(ResultStore(store_root))
    assert resumed.resume_stats["key_mismatches"] == 2
    assert resumed.queued_cells == 2  # fresh keys enqueued, stale ignored
    run_to_completion(resumed)
    assert resumed.jobs[job.job_id].status == "done"


def test_resume_is_idempotent_when_nothing_outstanding(tmp_path):
    """A server over a quiescent store resumes nothing."""
    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    first.submit(tenant="a", app="jacobi3d-charm", seeds=[0], config=CFG)
    run_to_completion(first)
    del first

    second = ServeState(ResultStore(store_root))
    assert second.resume_stats["jobs"] == 0
    assert second.queued_cells == 0
    # Terminal jobs are still listed for `repro jobs`.
    assert [j.status for j in second.jobs.values()] == ["done"]


def test_terminal_jobs_survive_restart_with_results(tmp_path):
    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    job = first.submit(tenant="a", app="jacobi3d-charm", seeds=SEEDS,
                       config=CFG)
    run_to_completion(first)
    digest = first.job_result(job.job_id)["summary_digest"]
    del first

    second = ServeState(ResultStore(store_root))
    assert second.job_result(job.job_id)["summary_digest"] == digest


def test_resume_sweeps_temp_files_of_dead_writers(tmp_path):
    """A kill between a cell's temp-file write and its rename leaves the
    temp file behind: the restart removes it.  A live process's temp file
    may still be renamed into place, so it stays."""
    store_root = tmp_path / "cache"
    first = ServeState(ResultStore(store_root))
    first.submit(tenant="a", app="jacobi3d-charm", seeds=[0], config=CFG)
    run_to_completion(first)
    del first

    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()  # reaped: no process has this id any more
    objects = ResultStore(store_root).objects_dir
    dead = objects / "ab" / f"abcdef.tmp.{gone.pid}"
    live = objects / "cd" / f"cdef01.tmp.{os.getpid()}"
    for path in (dead, live):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("partial write")

    store = ResultStore(store_root)
    second = ServeState(store)
    assert second.resume_stats["orphaned_tmp"] == 1
    assert not dead.exists()
    assert live.exists()
    # Once the live writer finishes (here: drops its file), nothing the dead
    # one left is in the way.
    live.unlink()
    assert store.verify() == []
