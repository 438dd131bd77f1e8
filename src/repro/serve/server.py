"""The asyncio campaign server: HTTP/1.1 front end + worker loop.

Zero new runtime dependencies: the HTTP layer is a small hand-rolled
HTTP/1.1 implementation over ``asyncio.start_server`` streams (keep-alive,
Content-Length bodies — exactly what the JSON API needs, and what lets the
cache-hit path sustain thousands of requests per second over one
connection).  Simulation work runs off-loop on the shared
:class:`~repro.harness.pool.WorkerPool`.

API (all bodies JSON)::

    GET  /healthz                  server + scheduler stats, resume report
    GET  /metrics                  Prometheus/OpenMetrics text exposition
    POST /v1/jobs                  submit a sweep  {tenant, app, seeds|count,
                                   config, priority} -> job status (202/200)
    GET  /v1/jobs[?tenant=t]       list jobs
    GET  /v1/jobs/<id>             one job's status + live progress
    GET  /v1/jobs/<id>/result      finished job's campaign summary + digest
    GET  /v1/jobs/<id>/metrics     merged obs metrics/series over done cells
    POST /v1/jobs/<id>/cancel      cancel

Backpressure surfaces as ``429`` with a ``Retry-After`` header; everything
else follows plain REST conventions (400 bad request, such as a ``config``
key ``run_acr_experiment`` cannot take; 404 unknown job; 409
result-not-ready).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures.process import BrokenProcessPool
from urllib.parse import parse_qs, urlsplit

from repro.harness.experiment import (
    EXPERIMENT_CONFIG_KEYS,
    run_experiment_report,
)
from repro.harness.pool import WorkerPool
from repro.obs.export import snapshot_to_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.serve.state import (
    DEFAULT_PRIORITY,
    ServeRejection,
    ServeState,
    UnknownJob,
)
from repro.store import report_to_dict

#: Upper bound on request-body size (a sweep submission is a few KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers=None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _compute_cell(app: str, seed: int, config: dict) -> dict:
    """Process-pool worker: one cell -> its serialized report payload."""
    return report_to_dict(run_experiment_report(app, seed, config))


class CampaignServer:
    """One server process: scheduler state, HTTP listener, worker tasks."""

    def __init__(
        self,
        state: ServeState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        executor=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self._executor = executor  # test seam: async (cell) -> payload dict
        self.pool = WorkerPool(workers) if executor is None else None
        self.workers = self.pool.width if self.pool is not None else \
            max(1, int(workers or 1))
        state.workers_hint = self.workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        #: Every connection's handler task and its stream writer, registered
        #: when the connection is accepted, before the task's first step.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._worker_tasks: list[asyncio.Task] = []
        self._wake: asyncio.Event | None = None
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(i))
            for i in range(self.workers)
        ]
        if self.state.queued_cells:
            self._wake.set()

    async def shutdown(self) -> None:
        """Stop accepting, end every connection and worker, then close.

        The listener closes first, so no connection arrives after the ones
        ended here.  Each connection's transport is closed and its task
        cancelled, whether or not the task has taken its first step; the
        tasks are this server's own (see :meth:`_accept`), so a cancelled
        one is never reported as an unhandled exception.
        """
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            writer.close()
        tasks = list(self._worker_tasks) + list(self._connections)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._worker_tasks = []
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.pool is not None:
            self.pool.shutdown()

    def start_background(self) -> "CampaignServer":
        """Run the server on a daemon thread (tests and benchmarks)."""
        import threading

        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True,
                                  name="repro-serve")
        thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("campaign server failed to start")
        self._thread, self._loop = thread, loop
        return self

    def stop_background(self) -> None:
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.shutdown(),
                                         self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self._thread is None or not self._thread.is_alive():
            self._loop.close()
        self._loop, self._thread = None, None

    # -- worker loop ----------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        assert self._wake is not None
        while True:
            cell = self.state.next_cell()
            if cell is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            self._set_queue_gauges()
            try:
                payload = await self._execute(cell)
            except asyncio.CancelledError:
                raise
            except Exception as err:  # noqa: BLE001 — job-level failure
                failed = self.state.fail_cell(
                    cell.key, f"{type(err).__name__}: {err}")
                self.metrics.counter("serve.cells_failed").inc()
                self.metrics.counter("serve.jobs_failed").inc(len(failed))
            else:
                finished = self.state.complete_cell(cell.key, payload)
                self.metrics.counter("serve.cells_computed").inc()
                self.metrics.counter("serve.jobs_completed").inc(
                    len(finished))
            self._set_queue_gauges()

    async def _execute(self, cell) -> dict:
        if self._executor is not None:
            return await self._executor(cell)
        assert self.pool is not None
        args = (cell.app, cell.seed, cell.config)
        try:
            return await asyncio.wrap_future(
                self.pool.submit(_compute_cell, *args))
        except BrokenProcessPool:
            # A worker died mid-cell (e.g. OOM-killed): one retry, which the
            # now-broken pool routes to threads.
            return await asyncio.wrap_future(
                self.pool.submit(_compute_cell, *args))

    def _set_queue_gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(self.state.queued_cells)
        self.metrics.gauge("serve.cells_running").set(
            self.state.running_cells)

    # -- HTTP layer -----------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """``start_server``'s callback: run the connection as a task of this
        server's own, registered before its first step.  (A coroutine
        callback would make ``asyncio.streams`` create the task and report
        its cancellation as an unhandled exception.)"""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._connections[task] = writer
        task.add_done_callback(self._forget_connection)

    def _forget_connection(self, task: asyncio.Task) -> None:
        self._connections.pop(task, None)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, version, headers, body = request
                status, payload, extra, content_type = self._dispatch(
                    method, target, body)
                keep_alive = (version == "HTTP/1.1" and
                              headers.get("connection", "").lower() != "close")
                self._write_response(writer, status, payload, extra,
                                     content_type, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ConnectionError(f"malformed request line {line!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            raise ConnectionError(f"body of {length} bytes refused")
        body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        payload, extra_headers: dict, content_type: str,
                        keep_alive: bool) -> None:
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload
        self.metrics.counter("serve.responses", code=str(status)).inc()
        head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        head.extend(f"{k}: {v}" for k, v in extra_headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    def _dispatch(self, method: str, target: str, body: bytes):
        """Route one request; returns (status, payload, headers, ctype)."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        try:
            return self._route(method, path, query, body)
        except _HttpError as err:
            return (err.status, {"error": str(err)}, err.headers,
                    "application/json")
        except ServeRejection as err:
            self.metrics.counter("serve.rejected").inc()
            return (429, {"error": str(err),
                          "retry_after_s": err.retry_after},
                    {"Retry-After": str(err.retry_after)},
                    "application/json")
        except UnknownJob as err:
            return (404, {"error": f"unknown job {err.args[0]!r}"}, {},
                    "application/json")
        except Exception as err:  # noqa: BLE001 — never kill the connection
            return (500, {"error": f"{type(err).__name__}: {err}"}, {},
                    "application/json")

    def _route(self, method: str, path: str, query: dict, body: bytes):
        self.metrics.counter("serve.requests", route=f"{method} {path}"
                             if not path.startswith("/v1/jobs/")
                             else f"{method} /v1/jobs/*").inc()
        if path == "/healthz" and method == "GET":
            payload = {"ok": True, "workers": self.workers,
                       "pool": self.pool.mode if self.pool else "external"}
            payload.update(self.state.stats())
            return 200, payload, {}, "application/json"
        if path == "/metrics" and method == "GET":
            return (200, snapshot_to_openmetrics(self.metrics.snapshot()),
                    {}, "application/openmetrics-text; charset=utf-8")
        if path == "/v1/jobs" and method == "POST":
            return self._route_submit(body)
        if path == "/v1/jobs" and method == "GET":
            tenant = query.get("tenant")
            jobs = [job.status_payload()
                    for job_id, job in sorted(self.state.jobs.items())
                    if tenant is None or job.tenant == tenant]
            return 200, {"jobs": jobs}, {}, "application/json"
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, action = rest.partition("/")
            return self._route_job(method, job_id, action)
        raise _HttpError(404, f"no route for {method} {path}")

    def _route_submit(self, body: bytes):
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as err:
            raise _HttpError(400, f"request body is not JSON: {err}")
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        from repro.apps.registry import MINIAPP_NAMES

        app = request.get("app", "jacobi3d-charm")
        if app not in MINIAPP_NAMES:
            raise _HttpError(400, f"unknown app {app!r} "
                                  f"(one of {sorted(MINIAPP_NAMES)})")
        seeds = request.get("seeds")
        if seeds is None:
            start = int(request.get("seed_start", 0))
            count = int(request.get("count", 1))
            seeds = list(range(start, start + count))
        if (not isinstance(seeds, list) or not seeds or
                not all(isinstance(s, int) for s in seeds)):
            raise _HttpError(400, "seeds must be a non-empty integer list")
        config = request.get("config") or {}
        if not isinstance(config, dict):
            raise _HttpError(400, "config must be a JSON object")
        unknown = sorted(set(config) - EXPERIMENT_CONFIG_KEYS)
        if unknown:
            raise _HttpError(400, f"unknown config key {unknown[0]!r} "
                                  f"(one of {sorted(EXPERIMENT_CONFIG_KEYS)})")
        tenant = str(request.get("tenant", "default"))
        priority = int(request.get("priority", DEFAULT_PRIORITY))
        job = self.state.submit(tenant=tenant, app=app, seeds=seeds,
                                config=config, priority=priority)
        self.metrics.counter("serve.jobs_submitted", tenant=tenant).inc()
        self.metrics.counter("serve.cells_cache_hits").inc(
            job.cached_at_submit)
        self.metrics.counter("serve.cells_attached").inc(
            job.attached_at_submit)
        self.metrics.counter("serve.cells_queued").inc(job.queued_at_submit)
        self._set_queue_gauges()
        if job.queued_at_submit and self._wake is not None:
            self._wake.set()
        status = 200 if job.status == "done" else 202
        return status, job.status_payload(), {}, "application/json"

    def _route_job(self, method: str, job_id: str, action: str):
        if action == "" and method == "GET":
            job = self.state.jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            return 200, job.status_payload(), {}, "application/json"
        if action == "result" and method == "GET":
            job = self.state.jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            if job.status != "done":
                raise _HttpError(
                    409, f"job {job_id} is {job.status}, not done")
            return 200, self.state.job_result(job_id), {}, "application/json"
        if action == "metrics" and method == "GET":
            return (200, self.state.job_observability(job_id), {},
                    "application/json")
        if action == "cancel" and method == "POST":
            job = self.state.cancel_job(job_id)
            self.metrics.counter("serve.jobs_cancelled").inc()
            self._set_queue_gauges()
            return 200, job.status_payload(), {}, "application/json"
        raise _HttpError(405 if action in ("", "result", "metrics", "cancel")
                         else 404,
                         f"no route for {method} /v1/jobs/{job_id}/{action}")


async def _serve_main(server: CampaignServer, banner=print) -> None:
    import signal

    await server.start()
    state = server.state
    banner(f"repro-serve listening on {server.host}:{server.port} "
           f"(store {state.store.root}, {server.workers} worker(s), "
           f"queue limit {state.queue_limit}, "
           f"tenant quota {state.tenant_quota})", flush=True)
    rs = state.resume_stats
    if rs["jobs"]:
        banner(f"resumed {rs['jobs']} job(s): {rs['saved_cells']} cell(s) "
               f"already in store (saved), {rs['requeued_cells']} "
               f"re-enqueued, {rs['stale_leases']} stale lease(s) swept",
               flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    await stop.wait()
    banner("repro-serve shutting down", flush=True)
    await server.shutdown()


def serve_forever(server: CampaignServer) -> int:
    """Blocking entry point behind ``repro serve``."""
    try:
        asyncio.run(_serve_main(server))
    except KeyboardInterrupt:
        pass
    return 0
