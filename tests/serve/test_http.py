"""The HTTP layer end to end: routes, dedup across clients, 429s, metrics.

Each test boots a real ``CampaignServer`` on an ephemeral port (background
thread, in-process) and talks to it over real sockets with ``ServeClient``.
Simulation cells are tiny (6 iterations, ~ms each); tests that need to
observe *in-flight* sharing inject a gated executor instead.
"""

import threading

import pytest

from repro.serve import CampaignServer, ServeClient, ServeError, ServeState
from repro.store import ResultStore

CFG = {"total_iterations": 6, "checkpoint_interval": 2.0, "horizon": 50.0}


@pytest.fixture
def served(tmp_path):
    """A running server + connected client; tears both down."""
    state = ServeState(ResultStore(tmp_path / "cache"))
    server = CampaignServer(state, workers=1).start_background()
    client = ServeClient(f"127.0.0.1:{server.port}", timeout=60)
    yield server, client
    client.close()
    server.stop_background()


def test_healthz_and_404(served):
    _, client = served
    health = client.health()
    assert health["ok"] is True
    assert health["queued_cells"] == 0
    with pytest.raises(ServeError) as exc:
        client.job("job-999999")
    assert exc.value.status == 404


def test_submit_runs_to_done_with_result(served):
    _, client = served
    job = client.submit(tenant="a", seeds=[0, 1], config=CFG)
    assert job["status"] in ("running", "done")
    status = client.wait(job["job_id"], timeout=60)
    assert status["status"] == "done"
    assert status["cells_done"] == 2
    result = client.result(job["job_id"])
    assert result["summary"]["runs"] == 2
    assert len(result["summary_digest"]) == 64


def test_result_of_unfinished_job_is_409(served):
    server, client = served
    # Gate the worker so the job stays running while we poke at it.
    gate = threading.Event()
    orig_next = server.state.next_cell

    def held_next():
        if not gate.is_set():
            return None  # worker finds no work until the gate opens
        return orig_next()

    server.state.next_cell = held_next
    try:
        job = client.submit(tenant="a", seeds=[7], config=CFG)
        assert job["status"] == "running"
        with pytest.raises(ServeError) as exc:
            client.result(job["job_id"])
        assert exc.value.status == 409
    finally:
        server.state.next_cell = orig_next
        gate.set()
        # The worker went to sleep on an empty queue; wake it back up.
        server._loop.call_soon_threadsafe(server._wake.set)
    client.wait(job["job_id"], timeout=60)


def test_two_tenants_share_cached_cells(served):
    _, client_a = served
    server = served[0]
    client_b = ServeClient(f"127.0.0.1:{server.port}", timeout=60)
    try:
        job_a = client_a.submit(tenant="alice", seeds=[0, 1, 2], config=CFG)
        client_a.wait(job_a["job_id"], timeout=60)
        job_b = client_b.submit(tenant="bob", seeds=[1, 2, 3], config=CFG)
        assert job_b["cached_at_submit"] == 2
        assert job_b["queued_at_submit"] == 1
        client_b.wait(job_b["job_id"], timeout=60)
        # Full-overlap resubmit completes within the request: zero new work.
        job_c = client_b.submit(tenant="carol", seeds=[0, 1, 2, 3],
                                config=CFG)
        assert job_c["status"] == "done"
        assert job_c["cached_at_submit"] == 4
    finally:
        client_b.close()


def test_in_flight_dedup_between_tenants(tmp_path):
    """While tenant a's cell is mid-computation, tenant b attaches to it."""
    release = threading.Event()
    started = threading.Event()

    async def gated_executor(cell):
        import asyncio

        from repro.harness.experiment import run_experiment_report
        from repro.store import report_to_dict

        started.set()
        while not release.is_set():
            await asyncio.sleep(0.005)
        return report_to_dict(
            run_experiment_report(cell.app, cell.seed, cell.config))

    state = ServeState(ResultStore(tmp_path / "cache"))
    server = CampaignServer(state, workers=1,
                            executor=gated_executor).start_background()
    client = ServeClient(f"127.0.0.1:{server.port}", timeout=60)
    try:
        job_a = client.submit(tenant="a", seeds=[5], config=CFG)
        assert started.wait(timeout=30)  # a's cell is now running
        job_b = client.submit(tenant="b", seeds=[5], config=CFG)
        assert job_b["attached_at_submit"] == 1
        assert job_b["queued_at_submit"] == 0
        release.set()
        sa = client.wait(job_a["job_id"], timeout=60)
        sb = client.wait(job_b["job_id"], timeout=60)
        assert sa["status"] == sb["status"] == "done"
        # One computation: the shared cell ticked both jobs.
        assert client.health()["known_cells"] == 1
    finally:
        client.close()
        server.stop_background()


def test_quota_surfaces_as_429_with_retry_after(tmp_path):
    state = ServeState(ResultStore(tmp_path / "cache"), tenant_quota=2)
    server = CampaignServer(state, workers=1).start_background()
    client = ServeClient(f"127.0.0.1:{server.port}", timeout=60)
    try:
        client.submit(tenant="a", seeds=[0, 1], config=CFG)
        with pytest.raises(ServeError) as exc:
            client.submit(tenant="a", seeds=[2, 3], config=CFG)
        assert exc.value.status == 429
        assert exc.value.retry_after >= 1
    finally:
        client.close()
        server.stop_background()


def test_bad_requests_are_400(served):
    _, client = served
    with pytest.raises(ServeError) as exc:
        client.submit(tenant="a", app="not-a-real-app", seeds=[0])
    assert exc.value.status == 400
    with pytest.raises(ServeError) as exc:
        client._request("POST", "/v1/jobs", {"seeds": "nope"})
    assert exc.value.status == 400


def test_unknown_config_key_is_400_naming_it(served):
    server, client = served
    with pytest.raises(ServeError) as exc:
        client.submit(tenant="a", seeds=[0], config=dict(CFG, bogus=1))
    assert exc.value.status == 400
    assert "'bogus'" in exc.value.payload["error"]
    assert server.state.jobs == {}  # nothing queued or journaled
    # A key only run_experiment_report consumes is accepted.
    job = client.submit(tenant="a", seeds=[0],
                        config=dict(CFG, collect_metrics=True))
    assert client.wait(job["job_id"], timeout=60)["status"] == "done"


def test_cancel_via_http(served):
    server, client = served
    orig_next = server.state.next_cell
    server.state.next_cell = lambda: None  # hold the queue
    try:
        job = client.submit(tenant="a", seeds=[0, 1], config=CFG)
        cancelled = client.cancel(job["job_id"])
        assert cancelled["status"] == "cancelled"
        assert client.health()["queued_cells"] == 0
    finally:
        server.state.next_cell = orig_next


def test_jobs_listing_filters_by_tenant(served):
    _, client = served
    ja = client.submit(tenant="a", seeds=[0], config=CFG)
    jb = client.submit(tenant="b", seeds=[1], config=CFG)
    client.wait(ja["job_id"], timeout=60)
    client.wait(jb["job_id"], timeout=60)
    assert {j["tenant"] for j in client.jobs()} == {"a", "b"}
    assert [j["job_id"] for j in client.jobs(tenant="b")] == [jb["job_id"]]


def test_prometheus_metrics_endpoint(served):
    _, client = served
    job = client.submit(tenant="a", seeds=[0], config=CFG)
    client.wait(job["job_id"], timeout=60)
    client.submit(tenant="b", seeds=[0], config=CFG)  # cache hit
    text = client.metrics_text()
    assert text.endswith("# EOF\n")
    assert "# TYPE serve_jobs_submitted_total counter" in text
    assert "serve_cells_computed_total 1" in text
    assert "serve_cells_cache_hits_total 1" in text
    assert 'serve_responses_total{code="200"}' in text


def test_job_metrics_merge_observability(tmp_path):
    """Cells run with collect_metrics on; the job endpoint merges them."""
    state = ServeState(ResultStore(tmp_path / "cache"))
    server = CampaignServer(state, workers=1).start_background()
    client = ServeClient(f"127.0.0.1:{server.port}", timeout=60)
    try:
        cfg = dict(CFG, collect_metrics=True)
        job = client.submit(tenant="a", seeds=[0, 1], config=cfg)
        client.wait(job["job_id"], timeout=60)
        obs = client.job_metrics(job["job_id"])
        assert obs["cells_merged"] == 2
        assert obs["metrics"] is not None
        assert "counters" in obs["metrics"]
    finally:
        client.close()
        server.stop_background()
