"""Graceful drain of the front end: finish in-flight work, then stop.

The SIGTERM contract (docs/serving.md): on drain the server stops
accepting new work, every request already inside a route body runs to
completion within the grace period, and only then does the process move
on to flushing journals and telemetry.  A request that cannot finish in
time is *not* killed — drain reports False (and counts a timeout) so the
operator knows the grace period was too short.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.serving.aserve import AsyncFrontEnd

from .conftest import LOG_SQL


class _SlowService:
    """Delegating proxy whose ``record_query`` dawdles before ingesting.

    Everything else passes straight through to the real service, so the
    front end sees its normal API — only the route under test is slow.
    """

    def __init__(self, service, delay_s: float) -> None:
        self._service = service
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._service, name)

    def record_query(self, sql: str) -> None:
        time.sleep(self._delay_s)
        self._service.record_query(sql)


def _raw_record_request() -> bytes:
    body = json.dumps({"sql": LOG_SQL}).encode("utf-8")
    head = (
        "POST /record HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


async def _wait_until_async(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


def test_async_drain_finishes_inflight_then_refuses_new(make_service):
    async def scenario() -> None:
        frontend = AsyncFrontEnd(_SlowService(make_service(), delay_s=0.25))
        await frontend.start()
        host, port = frontend.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_raw_record_request())
            await writer.drain()
            await _wait_until_async(lambda: frontend.gate.inflight > 0)

            assert await frontend.drain(grace_s=5.0) is True
            assert frontend.gate.inflight == 0
            assert frontend.gate.waiting == 0

            # The in-flight request got its answer before the drain ended.
            response = await asyncio.wait_for(reader.read(), timeout=5)
            assert b" 200 " in response.split(b"\r\n", 1)[0]
            writer.close()

            # The listener is gone: new connections are refused, so a load
            # balancer stops routing here while the process finishes up.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
        finally:
            await frontend.close()

    asyncio.run(scenario())


def test_async_drain_times_out_on_a_stuck_request(make_service, perf_on):
    async def scenario() -> None:
        frontend = AsyncFrontEnd(_SlowService(make_service(), delay_s=1.0))
        await frontend.start()
        host, port = frontend.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_raw_record_request())
            await writer.drain()
            await _wait_until_async(lambda: frontend.gate.inflight > 0)

            assert await frontend.drain(grace_s=0.05) is False
            assert perf_on.counters["aserve.drain_timeouts"] == 1
            # Still not killed: the stuck request completes eventually.
            response = await asyncio.wait_for(reader.read(), timeout=5)
            assert b" 200 " in response.split(b"\r\n", 1)[0]
            writer.close()
        finally:
            await frontend.close()

    asyncio.run(scenario())


def test_async_drain_of_an_idle_frontend_is_immediate(make_service):
    async def scenario() -> None:
        frontend = AsyncFrontEnd(make_service())
        await frontend.start()
        try:
            started = time.monotonic()
            assert await frontend.drain(grace_s=5.0) is True
            assert time.monotonic() - started < 1.0
        finally:
            await frontend.close()

    asyncio.run(scenario())
