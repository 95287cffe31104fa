"""The HTTP server: an asyncio front end that routes requests by cost.

:class:`AsyncSynthesisServer` serves the endpoints of
:class:`~repro.service.http.ServiceApi` over an ``asyncio.start_server``
event loop, with a minimal HTTP/1.1 implementation: request line +
headers, Content-Length bodies (chunked ones on ``POST /fill/stream``),
``Expect: 100-continue``, keep-alive.  The asyncio loop itself never
runs service code: each request is classified into a *lane* and handed
to that lane's thread pool via ``run_in_executor``:

* **cheap lane** -- fills, cache hits, catalog CRUD, stats: pure dict
  and index lookups answered in-process with no worker hop, on a small
  thread pool that keeps tail latency flat while thousands of sockets
  stay parked on the event loop;
* **learn lane** -- ``POST /learn``: may pay CPU-bound synthesis, so it
  gets its own pool sized to the worker-process pool.  With a pool
  attached (``repro serve --workers N``), learn-lane threads spend
  their time blocked on a worker pipe with the GIL released -- true
  multi-core synthesis; without one they run synthesis in-process.

The two lanes mirror the Polynesia-style split (cheap read path vs.
heavy analytical path, each with its own execution resources) at the
process level.

The listening socket is bound in ``__init__`` (so ``port=0`` callers
can read and print the real port *before* the event loop -- or any
worker fork -- starts).  The lifecycle follows the stdlib
``socketserver`` contract: ``serve_forever()`` blocks running the loop,
``shutdown()`` from another thread returns once it has stopped, and
``server_close()`` releases the socket.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import __version__
from repro.exceptions import ChangefeedRangeError, ServiceError
from repro.service.http import (
    LANE_CHEAP,
    LANE_LEARN,
    MAX_BODY_BYTES,
    SSE_KEEPALIVE_SECONDS,
    STREAM_PATH,
    BadRequest,
    ServiceApi,
    changes_catalog,
    map_exception,
    parse_changes_query,
    parse_stream_header,
    wants_sse,
)
from repro.service.service import SynthesisService

#: Per-read timeout: a client stalling mid-request must not park a
#: connection handler forever.
READ_TIMEOUT = 60.0

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

#: Thread-pool size of the cheap lane.
CHEAP_LANE_THREADS = 8

#: Thread-pool size of the learn lane without a worker pool; with one
#: attached, the lane gets the pool's worker count plus a queue's worth.
LEARN_LANE_THREADS = 4

#: How often long-polls and SSE streams look at the in-memory changefeed.
FEED_POLL_SECONDS = 0.05

#: The interim reply to ``Expect: 100-continue``, sent right before an
#: accepted body is read.
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: Control characters are escaped in access-log lines.
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


class AsyncSynthesisServer:
    """The HTTP server over one :class:`SynthesisService`.

    Args:
        service: the service to serve (attach its worker pool before
            :meth:`serve_forever`; the learn lane is sized from it).
        host/port: bind address; ``port=0`` binds an ephemeral port,
            readable from :attr:`server_address` immediately.
        quiet: ``False`` writes one access line per request to stderr,
            in the common-log shape of the stdlib request handler.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 8765,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.api = ServiceApi(service)
        self.quiet = quiet
        self._sock = socket.create_server(
            (host, port), family=socket.AF_INET, backlog=128
        )
        self._executors: Dict[str, ThreadPoolExecutor] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stop_requested = False
        self._lock = threading.Lock()
        # Set whenever serve_forever is not running: shutdown() waits on it.
        self._stopped = threading.Event()
        self._stopped.set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._busy_requests = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def server_address(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        with self._lock:
            if self._stop_requested:
                return
            self._stopped.clear()
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop serving; block until :meth:`serve_forever` has returned.

        By then the listener is closed, in-flight requests have drained
        and both lane pools are shut down, so ``server_close()`` may
        follow at once.  Returns at once when the server never started.
        Call it from a thread other than the serving one.
        """
        with self._lock:
            self._stop_requested = True
            if self._loop is not None:
                # Still running: _serve clears _loop under this lock.
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._stopped.wait()

    def server_close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    async def _serve(self) -> None:
        pool = self.service.pool
        learn_threads = pool.size + 2 if pool is not None else LEARN_LANE_THREADS
        self._executors = {
            LANE_CHEAP: ThreadPoolExecutor(
                CHEAP_LANE_THREADS, thread_name_prefix="repro-cheap-lane"
            ),
            LANE_LEARN: ThreadPoolExecutor(
                learn_threads, thread_name_prefix="repro-learn-lane"
            ),
        }
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        server = None
        try:
            server = await asyncio.start_server(
                self._handle_client, sock=self._sock
            )
            with self._lock:
                self._loop, self._stop_event = loop, stop
                if self._stop_requested:
                    stop.set()
            await stop.wait()
        finally:
            with self._lock:
                self._loop = self._stop_event = None
            if server is not None:
                server.close()
                # Drain: let requests already executing finish (bounded),
                # then drop lingering keep-alive connections.  (Not
                # server.wait_closed(): since 3.12 it also waits for
                # idle keep-alive clients to hang up.)
                deadline = loop.time() + 10.0
                while self._busy_requests and loop.time() < deadline:
                    await asyncio.sleep(0.05)
                for task in list(self._conn_tasks):
                    task.cancel()
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            for executor in self._executors.values():
                executor.shutdown(wait=True)

    # -- connections ---------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while await self._handle_one(reader, writer):
                pass
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            OSError,
        ):
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            blob: Optional[bytes] = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT
            )
        except asyncio.LimitOverrunError:
            blob = None
        if blob is None or len(blob) > MAX_HEADER_BYTES:
            await self._respond(
                writer, "", 431, {"error": "request headers too large"}, False
            )
            return False
        line = blob.split(b"\r\n", 1)[0].decode("latin-1")
        try:
            method, target, version, headers = _parse_head(blob)
        except ValueError as error:
            await self._respond(writer, line, 400, {"error": str(error)}, False)
            return False
        path, query = ServiceApi.split_target(target)
        expects_continue = (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        )
        if method == "POST" and path == STREAM_PATH:
            await self._handle_fill_stream(
                reader, writer, line, headers, expects_continue
            )
            return False  # one stream per connection (chunked both ways)
        keep_alive = _wants_keep_alive(version, headers)
        changes_name = changes_catalog(path) if method == "GET" else None
        if changes_name is not None:
            if wants_sse(query, headers.get("accept")):
                await self._stream_changes(writer, line, changes_name, query)
                return False
            await self._await_changes(changes_name, query)

        # Settle the body's framing before answering: read it, or refuse
        # it and close -- unread bytes would be parsed as the next request.
        body = b""
        read_error: Optional[BadRequest] = None
        try:
            length = _body_length(headers, required=method in ("POST", "PUT"))
        except BadRequest as error:
            read_error, keep_alive = error, False
        else:
            if length:
                if expects_continue:
                    writer.write(_CONTINUE)
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=READ_TIMEOUT
                )

        def read_body() -> bytes:
            if read_error is not None:
                raise read_error
            return body

        status, payload = await self._run(
            self.api.classify(method, path),
            self.api.route,
            method,
            path,
            query,
            headers.get("content-type"),
            read_body,
        )
        await self._respond(writer, line, status, payload, keep_alive)
        return keep_alive

    async def _run(self, lane: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` on ``lane``'s thread pool, counted as in flight."""
        self._busy_requests += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executors[lane], fn, *args
            )
        finally:
            self._busy_requests -= 1

    # -- streaming fill ------------------------------------------------
    async def _handle_fill_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        line: str,
        headers: Dict[str, str],
        expects_continue: bool,
    ) -> None:
        """``POST /fill/stream``: rows in, NDJSON out, bounded memory.

        The program is resolved (and its plan compiled) *before* the
        status line commits, so bad references / stale programs /
        missing tables still get their proper HTTP status.  After the
        200 commits, a failure (ragged row, undecodable line) ends the
        stream with one JSON-object error line; an early client
        disconnect just abandons the fill.

        Row *decoding* happens on the loop (cheap, incremental); each
        decoded chunk's *fill* runs on the cheap lane so row execution
        never blocks other connections; each response chunk is written
        and drained before the next fill, so peak memory is one chunk
        regardless of row count.
        """
        from repro.service.streamfill import (
            encode_outputs,
            error_line,
            make_reader,
        )

        try:
            length = _body_length(headers, required=True, stream=True)
            if expects_continue:
                writer.write(_CONTINUE)
            chunks = _body_chunks(reader, length)
            buffered = b""
            async for data in chunks:
                buffered += data
                if b"\n" in buffered:
                    break
            header_line, _, remainder = buffered.partition(b"\n")
            spec = parse_stream_header(header_line)
            row_reader = make_reader(spec.format)
            session = await self._run(
                LANE_CHEAP,
                lambda: self.service.fill_session(
                    spec.program, catalog=spec.catalog, matchers=spec.matchers
                ),
            )
        except Exception as error:  # noqa: BLE001 -- mapped, never fatal
            status, payload = map_exception(error)
            await self._respond(writer, line, status, payload, False)
            return

        rows: list = []
        start = 1

        async def write_chunk(data: bytes) -> None:
            if not data:
                return  # a zero-size chunk would terminate the response
            writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
            await writer.drain()

        async def drain_rows(final: bool = False) -> None:
            nonlocal rows, start
            while len(rows) >= spec.chunk_rows or (final and rows):
                batch = rows[: spec.chunk_rows]
                rows = rows[spec.chunk_rows :]
                outputs = await self._run(
                    LANE_CHEAP, session.fill_chunk, batch, start
                )
                await write_chunk(encode_outputs(outputs))
                start += len(batch)

        self._busy_requests += 1
        try:
            await self._send_head(
                writer,
                line,
                200,
                [
                    ("Content-Type", "application/x-ndjson; charset=utf-8"),
                    ("Transfer-Encoding", "chunked"),
                    ("Connection", "close"),
                ],
            )
            try:
                if remainder:
                    rows.extend(row_reader.feed(remainder))
                    await drain_rows()
                async for data in chunks:
                    rows.extend(row_reader.feed(data))
                    await drain_rows()
                rows.extend(row_reader.finish())
                await drain_rows(final=True)
            except (ValueError, ServiceError) as error:
                await write_chunk(error_line(str(error)))
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            OSError,
        ):
            return  # client went away mid-stream; abandon the fill
        finally:
            self._busy_requests -= 1

    # -- changefeed ----------------------------------------------------
    async def _await_changes(self, name: str, query: Dict[str, str]) -> None:
        """The ``wait`` of a long-poll: park until catalog ``name`` has
        events past ``since`` or ``wait`` seconds pass.

        Waiting polls the in-memory feed on the event loop, never on a
        lane thread, so thousands of watchers can park without starving
        fills.  The reply is then the plain poll's
        (:meth:`ServiceApi.catalog_changes`), which also reports any
        error in the request; an error here just ends the wait.
        """
        registry = self.service.registry
        try:
            spec = parse_changes_query(query)
            if spec.wait <= 0:
                return
            # Unknown catalog -> no wait, the 404 follows; loading a
            # lazy catalog seeds its feed before ``since`` is judged.
            await self._run(LANE_CHEAP, registry.get, name)
        except Exception:  # noqa: BLE001 -- the plain poll reports it
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + spec.wait
        while loop.time() < deadline:
            try:
                if registry.feed.events_since(name, spec.since)[1]:
                    return
            except ChangefeedRangeError:
                return
            await asyncio.sleep(FEED_POLL_SECONDS)

    async def _stream_changes(
        self,
        writer: asyncio.StreamWriter,
        line: str,
        name: str,
        query: Dict[str, str],
    ) -> None:
        """``GET /catalogs/<name>/changes`` as an SSE stream.

        Validation errors (unknown catalog, bad/over-head ``since``)
        still map to their JSON statuses -- the event stream only
        starts once the subscription is known good.  Each event goes
        out as ``id: <seq>`` + ``event: change`` + one ``data:`` line;
        idle periods emit comment keepalives.  ``limit=N`` closes the
        stream after N events (handy for scripted consumers and tests);
        otherwise the stream runs until the client disconnects.  The
        stream is close-delimited (no Content-Length, no chunking).
        """
        from repro.service.streamfill import sse_event

        registry = self.service.registry

        def subscribe():
            registry.get(name)  # unknown catalog -> 404, as in the plain poll
            spec = parse_changes_query(query)
            return spec, registry.feed.events_since(name, spec.since)[1]

        try:
            spec, events = await self._run(LANE_CHEAP, subscribe)
        except Exception as error:  # noqa: BLE001 -- mapped, never fatal
            status, payload = map_exception(error)
            await self._respond(writer, line, status, payload, False)
            return
        loop = asyncio.get_running_loop()
        try:
            await self._send_head(
                writer,
                line,
                200,
                [
                    ("Content-Type", "text/event-stream; charset=utf-8"),
                    ("Cache-Control", "no-cache"),
                    ("Connection", "close"),
                ],
            )
            last = spec.since
            sent = 0
            next_keepalive = loop.time() + SSE_KEEPALIVE_SECONDS
            while True:
                for item in events:
                    writer.write(
                        sse_event(item, event="change", id=item["seq"])
                    )
                    last = max(last, int(item["seq"]))
                    sent += 1
                    if spec.limit is not None and sent >= spec.limit:
                        await writer.drain()
                        return
                if events:
                    await writer.drain()
                    next_keepalive = loop.time() + SSE_KEEPALIVE_SECONDS
                elif loop.time() >= next_keepalive:
                    # Keepalive comment: detects dead clients and keeps
                    # intermediaries from timing the stream out.
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    next_keepalive = loop.time() + SSE_KEEPALIVE_SECONDS
                await asyncio.sleep(FEED_POLL_SECONDS)
                _, events = registry.feed.events_since(name, last)
        except (ConnectionError, OSError):
            return  # client went away mid-stream

    # -- responses -----------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        line: str,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        await self._send_head(
            writer,
            line,
            status,
            [
                ("Content-Type", "application/json; charset=utf-8"),
                ("Content-Length", str(len(body))),
                ("Connection", "keep-alive" if keep_alive else "close"),
            ],
            body,
        )

    async def _send_head(
        self,
        writer: asyncio.StreamWriter,
        line: str,
        status: int,
        headers: List[Tuple[str, str]],
        body: bytes = b"",
    ) -> None:
        """Write a status line + ``headers`` (+ ``body``); log the request."""
        if not self.quiet:
            peer = writer.get_extra_info("peername") or ("-",)
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            request = line.translate(_LOG_ESCAPES)
            sys.stderr.write(f'{peer[0]} - - [{stamp}] "{request}" {status} -\n')
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Server: repro-serve/{__version__}",
        ]
        head.extend(f"{name}: {value}" for name, value in headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def _parse_head(
    blob: bytes,
) -> Tuple[str, str, str, Dict[str, str]]:
    """``b"GET /x HTTP/1.1\\r\\nH: v\\r\\n\\r\\n"`` -> parts (or ValueError)."""
    lines = blob.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise ValueError(f"malformed HTTP version: {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


def _wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def _body_length(
    headers: Dict[str, str], required: bool, stream: bool = False
) -> Optional[int]:
    """The request body's framing: its byte length (0 = no body), or
    ``None`` when it arrives chunked, which only the ``stream`` route
    reads.

    Raises :class:`BadRequest` for a body the server will not read: a
    chunked one off the stream route, a bad Content-Length, one over
    :data:`MAX_BODY_BYTES` (stream bodies are unbounded), or none at
    all when ``required``.
    """
    if "chunked" in headers.get("transfer-encoding", "").lower():
        if stream:
            return None
        raise BadRequest(
            f"chunked request bodies are only read by POST {STREAM_PATH}; "
            "send a Content-Length"
        )
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise BadRequest("Content-Length header must be a non-negative integer")
    if length > MAX_BODY_BYTES and not stream:
        raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
    if required and length == 0:
        raise BadRequest("request needs a body (Content-Length missing)")
    return length


async def _body_chunks(reader: asyncio.StreamReader, length: Optional[int]):
    """Raw body chunks: ``length`` bytes, or chunked framing when None."""
    if length is not None:
        remaining = length
        while remaining:
            data = await asyncio.wait_for(
                reader.read(min(remaining, 65536)), timeout=READ_TIMEOUT
            )
            if not data:
                raise BadRequest("request body ended early")
            remaining -= len(data)
            yield data
        return
    while True:
        size_line = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT)
        try:
            size = int(size_line.split(b";")[0].strip() or b"", 16)
        except ValueError:
            raise BadRequest(f"malformed chunk-size line {size_line!r}") from None
        if size == 0:
            # Consume optional trailers up to the blank line.
            while await reader.readline() not in (b"\r\n", b"\n", b""):
                pass
            return
        remaining = size
        while remaining:
            data = await asyncio.wait_for(
                reader.read(min(remaining, 65536)), timeout=READ_TIMEOUT
            )
            if not data:
                raise BadRequest("request body ended mid-chunk")
            remaining -= len(data)
            yield data
        await reader.readexactly(2)  # the CRLF closing this chunk


def create_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = True,
) -> AsyncSynthesisServer:
    """Bind (but do not start) the service's HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]`` right away.  ``serve_forever()`` blocks
    running the event loop (in this thread or a daemon thread);
    ``shutdown()`` from another thread returns once it has stopped, and
    ``server_close()`` releases the socket.  ``quiet=False`` logs one
    access line per request to stderr.
    """
    return AsyncSynthesisServer(service, host=host, port=port, quiet=quiet)
