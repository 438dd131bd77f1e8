"""A server stop is quiet: no connection, started or not, is reported as an
unhandled exception, and every connection task and transport is closed.

These tests drive ``CampaignServer`` on an event loop of their own, so the
moment ``shutdown`` runs relative to a connection's first step is fixed
rather than left to thread timing.
"""

import asyncio
import gc
import socket

import pytest

from repro.serve import CampaignServer, ServeState
from repro.store import ResultStore


async def _never_runs(cell):  # pragma: no cover - no job is submitted
    raise AssertionError("no cell should run")


def _run_quietly(tmp_path, scenario):
    """Run ``scenario(server)`` on a fresh loop; return every context the
    loop's exception handler received, through a final GC pass."""
    reported = []
    loop = asyncio.new_event_loop()
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    state = ServeState(ResultStore(tmp_path / "cache"))
    server = CampaignServer(state, executor=_never_runs, workers=1)
    try:
        loop.run_until_complete(server.start())
        loop.run_until_complete(scenario(server))
    finally:
        loop.close()
    gc.collect()  # a task destroyed while pending is reported here
    return reported


def test_stop_before_a_connection_task_starts_is_quiet(tmp_path):
    seen = {}

    async def scenario(server):
        server_end, client_end = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=server_end)
        # Accept the connection as start_server's callback does, and stop
        # before the loop gives its task a first step.
        server._accept(reader, writer)
        (task,) = server._connections
        assert not task.done()
        seen["task"], seen["writer"] = task, writer
        await server.shutdown()
        client_end.close()

    reported = _run_quietly(tmp_path, scenario)
    assert reported == []
    assert seen["task"].cancelled()
    assert seen["writer"].is_closing()


def test_stop_with_an_idle_keep_alive_connection_is_quiet(tmp_path):
    seen = {}

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        status = await reader.readline()
        assert b" 200 " in status
        (task,) = server._connections
        seen["task"] = task
        await server.shutdown()
        assert await reader.read() is not None  # the server side closed
        writer.close()

    reported = _run_quietly(tmp_path, scenario)
    assert reported == []
    assert seen["task"].done()


@pytest.mark.parametrize("steps", range(12))
def test_stop_right_after_the_client_hangs_up_is_quiet(tmp_path, steps):
    """The client reads its answer and hangs up; the stop comes ``steps``
    loop steps later.  Some of those steps find the handler closing its
    side of the connection, where a cancel used to escape it."""

    async def scenario(server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        sock.setblocking(False)
        answer = b""
        while b"\r\n\r\n" not in answer:
            await asyncio.sleep(0.001)
            try:
                answer += sock.recv(65536)
            except BlockingIOError:
                pass
        (task,) = server._connections
        sock.close()
        for _ in range(steps):
            await asyncio.sleep(0)
        await server.shutdown()
        assert task.done()

    assert _run_quietly(tmp_path, scenario) == []
