"""Fuzz the HTTP request parser: any byte stream ending in EOF yields a
request, a clean ``None``, or a framing 400 (``_BadRequest``) — never
another exception, and never a hang.

Streams come from three sources: raw bytes; HTTP fragments glued
together with no separator, so request lines, header colons and line
endings collide; and well-framed requests whose header lines and body
are fuzzed, so ``Content-Length`` handling is reached on most examples.

Seeded parser mutations this test catches: dropping the ``ValueError``
guard on ``int(Content-Length)``, on an over-long header line, or on an
over-long request line; dropping the negative-length check; letting a
short body's ``IncompleteReadError`` escape; and an off-by-one body cap
(the last one only through its explicit example).
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving.aserve import AsyncFrontEnd, HttpRequest, _BadRequest
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService

FRAGMENTS = [
    b"GET", b"POST", b"get", b" ", b"  ", b"\t", b"/categorize", b"/healthz",
    b"/?table=x", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/", b"\r\n", b"\n", b"\r",
    b":", b"Host: t", b"Content-Length:", b"content-length: ", b"Connection: ",
    b"close", b"keep-alive", b"Transfer-Encoding: chunked", b"-1", b"0",
    b"7", b"64", b"banana", b"{}", b'{"sql": "SELECT"}', b"\x00", b"\xff",
    b"\xc3\xa9",
]

LENGTHS = [b"-1", b"0", b"7", b"64", b"65", b"banana", b" 3 ", b"1_0", b"+5", b""]

glued = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=8)), max_size=40
).map(b"".join)

header_line = st.one_of(
    st.builds(
        lambda value: b"Content-Length: " + value,
        st.one_of(st.sampled_from(LENGTHS), st.binary(max_size=6)),
    ),
    st.sampled_from(
        [b"Connection: close", b"Transfer-Encoding: chunked", b"Host: t", b"x",
         b"X-Long: " + b"a" * 300]
    ),
    st.binary(max_size=20),
)

framed = st.builds(
    lambda method, path, headers, eol, body: (
        method + b" " + path + b" HTTP/1.1" + eol
        + b"".join(line + eol for line in headers) + eol + body
    ),
    st.sampled_from([b"GET", b"POST"]),
    st.sampled_from([b"/categorize", b"/healthz?table=x", b"*", b"/" + b"a" * 300]),
    st.lists(header_line, max_size=4),
    st.sampled_from([b"\r\n", b"\n"]),
    st.binary(max_size=80),
)

#: Small stream limit so over-long lines are cheap to reach (the server
#: runs with asyncio's 64 KiB default; the parser handles both the same).
STREAM_LIMIT = 256
MAX_BODY = 64


@pytest.fixture(scope="module")
def frontend(homes_table, statistics):
    service = CategorizationService(Relation(homes_table, statistics.copy()))
    frontend = AsyncFrontEnd(service, max_body_bytes=MAX_BODY)
    yield frontend
    frontend._executor.shutdown()


def _parse(frontend, data: bytes):
    async def scenario():
        reader = asyncio.StreamReader(limit=STREAM_LIMIT)
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(frontend._read_request(reader), 5.0)

    return asyncio.run(scenario())


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(st.binary(max_size=600), glued, framed))
@example(data=b"")
@example(data=b"POST /record HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
@example(data=b"POST /record HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
@example(data=b"POST /record HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
@example(data=b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n" + b"b" * 65)
@example(data=b"GET / HTTP/1.1\r\n" + b"x: y\r\n" * 101 + b"\r\n")
@example(data=b"GET / HTTP/1.1\r\nx: " + b"a" * 1000 + b"\r\n\r\n")
@example(data=b"GET /" + b"a" * 1000 + b" HTTP/1.1\r\n\r\n")
def test_any_stream_parses_or_is_a_framing_error(frontend, data):
    try:
        request = _parse(frontend, data)
    except _BadRequest:
        return
    if request is None:
        return
    assert isinstance(request, HttpRequest)
    assert request.version.startswith("HTTP/")
    assert request.method and request.path
    assert len(request.body) <= MAX_BODY
    assert len(request.body) == int(request.headers.get("content-length", "0"))
