"""Tests for the long-lived worker pool and its worker clamp."""

import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.harness import WorkerPool
from repro.harness.pool import effective_workers


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerPool:
    def test_width_clamped_to_cores(self):
        pool = WorkerPool(workers=10_000)
        assert pool.width == (os.cpu_count() or 1)
        assert pool.mode == "unstarted"

    def test_submit_and_shutdown(self):
        pool = WorkerPool(workers=1)
        try:
            assert pool.submit(abs, -3).result(timeout=60) == 3
            assert pool.mode in ("processes", "threads")
        finally:
            pool.shutdown()
        assert pool.mode == "shutdown"

    def test_fall_back_to_threads_is_one_way(self):
        pool = WorkerPool(workers=1)
        try:
            pool.fall_back_to_threads()
            assert pool.mode == "threads"
            assert pool.submit(abs, -5).result(timeout=60) == 5
            assert pool.mode == "threads"
        finally:
            pool.shutdown()


class TestWorkerAccounting:
    def test_clamp_mirrors_campaign_rule(self):
        cpus = os.cpu_count() or 1
        assert effective_workers(None, 8) == 1
        assert effective_workers(4, 2) == min(4, 2, cpus)
        assert effective_workers(64, 64) == min(64, cpus)


class TestOrphanWatchdog:
    """A SIGKILLed pool owner must not leave workers behind.

    The server's durability contract is "kill -9 me and restart", and a
    batch sweep can be OOM-killed mid-fan-out; the orphan watchdog is what
    keeps every such kill from stranding ProcessPoolExecutor workers blocked
    on the call queue (or still computing) forever.
    """

    def _assert_workers_die_with_parent(self, script):
        """Run ``script`` (prints ``WORKER <pid>...`` once its workers are
        busy or idle in the pool), SIGKILL it, and wait for its workers."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen([sys.executable, "-u", "-c",
                                 textwrap.dedent(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stdout.readline()
            assert line.startswith("WORKER "), line
            worker_pids = [int(pid) for pid in line.split()[1:]]
            if worker_pids == [-1]:
                return  # thread fallback on this platform: nothing to test
            assert worker_pids and all(_alive(pid) for pid in worker_pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and any(_alive(pid) for pid in worker_pids)):
                time.sleep(0.2)
            assert not any(_alive(pid) for pid in worker_pids), \
                "orphaned pool worker survived its parent's SIGKILL"
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_workers_exit_when_parent_is_sigkilled(self):
        self._assert_workers_die_with_parent("""
            import os, sys, time
            from repro.harness import WorkerPool

            pool = WorkerPool(workers=1)
            pool.submit(abs, -1).result(timeout=60)
            if pool.mode != "processes":
                print("WORKER -1", flush=True)  # no processes to orphan
                sys.exit(0)
            worker_pid = next(iter(pool.executor._processes))
            print(f"WORKER {worker_pid}", flush=True)
            time.sleep(300)
        """)

    def test_batch_fan_out_workers_exit_when_parent_is_sigkilled(self):
        """Killed mid-``fan_out`` with ``workers=2``: one worker is still
        inside a cell, the other idle; both must go."""
        self._assert_workers_die_with_parent("""
            import multiprocessing, time
            from repro.harness import fan_out

            def report(position, result):
                pids = sorted(p.pid for p in multiprocessing.active_children())
                print("WORKER", *(pids or [-1]), flush=True)

            fan_out(time.sleep, [(0,), (300,)], 2, on_result=report)
            print("WORKER -1", flush=True)  # no worker processes here
        """)
