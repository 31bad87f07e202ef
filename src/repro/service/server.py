"""Stdlib-only async HTTP server around :class:`~repro.service.app.ServiceApp`.

An ``asyncio.start_server`` loop runs on a dedicated thread; each
connection serves one HTTP/1.1 request (``Connection: close``
semantics -- simple, and exactly what the polling/streaming protocol
needs).  Application handlers are blocking by design (they sit on
condition variables and run traversals), so every ``app.handle`` call --
and every pull on a streaming response iterator -- is shipped to the
loop's own pool of :data:`MAX_HANDLER_THREADS` threads, keeping the
event loop free to accept and serve other clients concurrently.  Sized
responses go out with ``Content-Length``; streams go out with
``Transfer-Encoding: chunked``, one chunk per JSON line, flushed as the
session produces events.  A request the shell cannot parse is answered
``400``, or ``413``/``431`` when its body/head is over the cap below.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterator
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import Response, ServiceApp, _error

#: Hard cap on request head + body sizes: this is an ops/debugging
#: service, not a general proxy target.
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Threads for ``app.handle`` calls and stream pulls.  A long-poll or a
#: stream on an unfinished session holds its thread while it waits, so
#: the loop's default executor (``min(32, cpu_count + 4)`` threads) would
#: let a few parked clients starve every other request.  Threads start
#: on demand; past this many parked clients, requests queue.
MAX_HANDLER_THREADS = 64

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Sentinel returned by the executor-side iterator pull at exhaustion.
_STREAM_DONE = object()


class ServiceServer:
    """Serve one :class:`ServiceApp` over HTTP on a background loop.

    ``port=0`` binds an ephemeral port; the bound address is available
    as :attr:`host`/:attr:`port` after :meth:`start` returns.  The
    server owns only the socket/loop -- shutting down the
    :class:`~repro.service.manager.SessionManager` (draining sessions,
    final trace events) is the caller's job, in that order: stop the
    listener first so no new sessions race the drain.
    """

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Bind and serve on a background thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to bind {self.host}:{self.port}"
            ) from self._startup_error

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        # loop.close() shuts the pool down, as it would the default one.
        loop.set_default_executor(
            ThreadPoolExecutor(MAX_HANDLER_THREADS, "repro-serve-handler")
        )
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection, self.host, self.port
                    )
                )
            except OSError as error:
                self._startup_error = error
                return
            self._server = server
            sockets = server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
            self._started.set()
            loop.run_forever()
            # stop() closed the listener; let in-flight handlers finish.
            loop.run_until_complete(server.wait_closed())
        finally:
            self._started.set()
            asyncio.set_event_loop(None)
            loop.close()

    def stop(self) -> None:
        """Close the listener and join the loop thread (idempotent)."""
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None or not thread.is_alive():
            return

        def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            assert loop is not None
            loop.stop()

        loop.call_soon_threadsafe(_shutdown)
        thread.join()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------- serving
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            if isinstance(request, Response):
                response = request
            else:
                loop = asyncio.get_running_loop()
                try:
                    response = await loop.run_in_executor(
                        None, self.app.handle, *request
                    )
                except Exception as error:  # defensive: app.handle maps its own
                    response = _error(500, type(error).__name__)
            await self._write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | Response | None:
        """Parse one HTTP/1.1 request head + sized body.

        Returns a 4xx :class:`Response` for a request that cannot be
        served, ``None`` when the client left before sending a head.
        """
        head: bytes | None
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            head = None
        if head is None or len(head) > MAX_HEAD_BYTES:
            return _error(431, f"request head exceeds {MAX_HEAD_BYTES} bytes")
        lines = head.decode("latin-1").split("\r\n")
        request_line = lines[0].split(" ")
        if len(request_line) != 3:
            return _error(400, "malformed request line")
        method, target, _version = request_line
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            return _error(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            return _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        params = dict(parse_qsl(split.query))
        return method.upper(), split.path, params, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            "Connection: close",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        if response.stream is None:
            head.append(f"Content-Length: {len(response.body)}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
            )
            writer.write(response.body)
            await writer.drain()
            return
        head.append("Transfer-Encoding: chunked")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        loop = asyncio.get_running_loop()
        stream = response.stream
        while True:
            chunk = await loop.run_in_executor(None, _next_chunk, stream)
            if chunk is _STREAM_DONE:
                break
            assert isinstance(chunk, bytes)
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
            writer.write(chunk)
            writer.write(b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def _next_chunk(stream: Iterator[bytes]) -> Any:
    """Blocking pull of one chunk (runs on the executor thread)."""
    try:
        return next(stream)
    except StopIteration:
        return _STREAM_DONE
