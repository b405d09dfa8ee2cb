"""A line-delimited JSON TCP front end for the sensing service.

One request per line, one JSON reply per line — the simplest wire
format that a shell script, ``nc``, or any language's socket library
can drive.  Each connection is handled independently, so concurrent
clients naturally exercise the scheduler's request coalescing.

Operations (``op`` field of the request object):

``open``
    ``{"op": "open"}`` → ``{"ok": true, "session": "s1"}``; an
    optional ``"session"`` names the id explicitly.
``ingest``
    ``{"op": "ingest", "session": "s1", "samples": [re, im, ...]}`` —
    samples travel as interleaved real/imag float pairs; replies with
    the session progress (``blocks``, ``ready``).
``detect``
    ``{"op": "detect", "session": "s1"}`` with optional ``"deadline"``
    (seconds) and ``"threshold"`` (bool, default true) → the detection
    result (``statistic``, ``threshold``, ``detected``, plus
    ``serve_path`` — ``"spectra"`` when the decision reused the
    session's resident block spectra, ``"engine"`` on the sample path).
``stats``
    ``{"op": "stats"}`` → the full metrics snapshot.
``health``
    ``{"op": "health"}`` → liveness/degradation probe (``status``,
    circuit state, engine health).  Never queued, so it answers even
    while a batch is wedged or the breaker is open.
``close``
    ``{"op": "close", "session": "s1"}`` → closes the session.

Failures reply ``{"ok": false, "error": "<exception class>",
"message": "..."}`` and keep the connection open: backpressure
(``ServiceOverloadedError``), circuit fast-fails and deadline sheds
are ordinary replies a client backs off on, not connection teardowns.
Malformed JSON and invalid UTF-8 get the same typed-error treatment,
and so does an unexpected exception inside a request: the client gets
a typed reply, the traceback goes to this module's logger, and the
connection stays open.
Only two conditions end a connection from the server side: a line
longer than ``max_line_bytes`` (one ``RequestTooLargeError`` reply,
then a clean close — the framing is unrecoverable past an overrun)
and a client that disconnects mid-line (the partial line is
discarded, never parsed).
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np

from .._util import require_positive_int
from ..errors import ConfigurationError, ReproError, RequestTooLargeError
from .service import SensingService

logger = logging.getLogger(__name__)


def decode_samples(pairs) -> np.ndarray:
    """Interleaved ``[re, im, re, im, ...]`` floats → complex128 array."""
    flat = np.asarray(pairs, dtype=np.float64)
    if flat.ndim != 1 or flat.size % 2:
        raise ConfigurationError(
            "samples must be a flat list of interleaved re/im float "
            f"pairs, got shape {flat.shape}"
        )
    return flat[0::2] + 1j * flat[1::2]


def encode_samples(samples: np.ndarray) -> list[float]:
    """Complex array → interleaved ``[re, im, ...]`` floats."""
    samples = np.asarray(samples, dtype=np.complex128)
    flat = np.empty(2 * samples.size, dtype=np.float64)
    flat[0::2] = samples.real
    flat[1::2] = samples.imag
    return flat.tolist()


class SensingServer:
    """Serve a :class:`SensingService` over line-delimited JSON TCP."""

    def __init__(
        self,
        service: SensingService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = 1 << 20,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_line_bytes = require_positive_int(
            max_line_bytes, "max_line_bytes"
        )
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listening socket and start the service scheduler."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle,
            host=self.host,
            port=self.port,
            limit=self.max_line_bytes,
        )

    async def close(self) -> None:
        """Stop accepting connections and shut the service down.

        Live connection handlers are woken (their transports closed)
        and awaited, so shutdown never leaves a task parked in
        ``readline`` for the loop teardown to cancel noisily.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self.service.close()

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # graceful shutdown: close() cancelled this handler
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Line overran the stream limit (``max_line_bytes``).
                # Framing past an overrun is unrecoverable — reply
                # typed, then close this connection cleanly.
                await self._try_reply(
                    writer,
                    {
                        "ok": False,
                        "error": RequestTooLargeError.__name__,
                        "message": (
                            f"request line exceeds {self.max_line_bytes}"
                            f" bytes; closing connection"
                        ),
                    },
                )
                break
            except (ConnectionError, OSError):
                break  # client vanished mid-read
            if not line:
                break
            if not line.endswith(b"\n"):
                # EOF mid-line: the client died before finishing the
                # request — never parse the fragment.
                break
            reply = await self._dispatch_line(line)
            if not await self._try_reply(writer, reply):
                break

    @staticmethod
    async def _try_reply(writer: asyncio.StreamWriter, reply: dict) -> bool:
        """Write one reply line; False when the client is already gone."""
        try:
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ConfigurationError("request must be a JSON object")
            return await self._dispatch(request)
        except Exception as error:
            expected = (ReproError, ValueError, KeyError, TypeError)
            if not isinstance(error, expected):
                # A bug or an unexpected backend failure: the client
                # still gets a typed reply on a live connection, and
                # the traceback is kept for the operator.
                logger.exception("unexpected error serving a request")
            return {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        service = self.service
        if op == "open":
            session_id = service.open_session(
                session_id=request.get("session")
            )
            return {"ok": True, "session": session_id}
        if op == "ingest":
            info = service.ingest(
                request["session"], decode_samples(request["samples"])
            )
            return {"ok": True, **info}
        if op == "detect":
            result = await service.detect(
                request["session"],
                deadline_seconds=request.get("deadline"),
                with_threshold=bool(request.get("threshold", True)),
            )
            return {"ok": True, **result}
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "health":
            return {"ok": True, **service.health()}
        if op == "close":
            service.close_session(request["session"])
            return {"ok": True, "session": request["session"]}
        raise ConfigurationError(
            f"unknown op {op!r}; expected one of open, ingest, detect, "
            f"stats, health, close"
        )
