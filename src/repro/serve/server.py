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
    ``{"op": "ingest", "session": "s1", "samples": "<base64>"}`` —
    ``samples`` is one string: standard padded base64 of the chunk's
    little-endian complex128 bytes (``"<c16"``, 16 bytes a sample; see
    :func:`encode_samples`).  It is the only sample format and it is
    bit-exact.  At about 21 bytes a sample, a 1 MiB ``max_line_bytes``
    line carries about 49k samples (a JSON float list carried about
    25k).  Replies with the session progress (``blocks``, ``ready``).
    A chunk holding NaN or ±inf replies ``NonFiniteInputError`` and
    leaves the session unchanged.

    Lines of at least :data:`VECTOR_DECODE_MIN_CHARS` characters are
    decoded in numpy (see :func:`decode_samples`), about 2.4x faster
    than :func:`base64.b64decode` on a 175 kB line; shorter lines, and
    every payload that fails validation, go through
    ``base64.b64decode(payload, validate=True)``, so every error reply
    carries exactly the message the stdlib gives.

    An ingest line of at least :data:`VECTOR_DECODE_MIN_CHARS` bytes
    also skips the JSON scan of its payload (:func:`parse_request`):
    the one ``"samples"`` value is decoded straight from the line's
    bytes and only the rest of the line goes to :func:`json.loads`,
    which about halves the parse of a 175 kB line.  A line the shortcut is
    not sure of (a second ``"samples"``, an escape, a separator other
    than ``":"`` or ``": "``, a payload the decoder refuses, a request
    that is not an ingest object) takes the full ``json.loads`` path,
    so accepted requests, decoded bits and every reply, error replies
    included, are unchanged.
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
import base64
import json
import logging

import numpy as np

from .._util import require_positive_int
from ..errors import ConfigurationError, ReproError, RequestTooLargeError
from .service import SensingService

logger = logging.getLogger(__name__)

_SAMPLE_DTYPE = np.dtype("<c16")
_SAMPLE_BYTES = _SAMPLE_DTYPE.itemsize

#: Shortest payload (characters) decoded in numpy.  Below it the fixed
#: cost of a dozen numpy calls outweighs ``binascii``'s per-byte loop:
#: the two paths cross at 8-10k characters (about 30 us each).
VECTOR_DECODE_MIN_CHARS = 1 << 13

_B64_ALPHABET = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)
#: Byte -> sextet (0..63); every byte outside the standard alphabet,
#: ``=`` included, maps to the 0x40 sentinel.
_SEXTETS = bytes(
    _B64_ALPHABET.index(byte) if byte in _B64_ALPHABET else 0x40
    for byte in range(256)
)


def _vector_b64decode(payload) -> np.ndarray | None:
    """Strict base64 decode in numpy, or ``None`` to defer to binascii.

    *payload* is a ``str`` or any bytes-like object (the server passes
    a memoryview of the request line).  All but the last 4-character
    quantum must be alphabet characters; the last quantum, which
    carries any padding, is decoded by :func:`base64.b64decode` itself.
    Anything else (non-ASCII, a length that is not a multiple of 4, a
    non-alphabet byte) returns ``None`` without raising.  The bytes
    come back read-only.
    """
    if len(payload) % 4:
        return None
    if isinstance(payload, str):
        if not payload.isascii():
            return None
        text = bytearray(payload, "ascii")
    else:
        text = bytearray(payload)  # non-ASCII bytes map to the sentinel
    sextets = text.translate(_SEXTETS)
    del text  # one line-sized temporary at a time
    # One little-endian lane per quantum: s0 | s1 << 8 | s2 << 16 | s3 << 24.
    lanes = np.frombuffer(sextets, dtype="<u4", count=len(payload) // 4 - 1)
    if np.bitwise_or.reduce(lanes) & 0x40404040:
        return None
    try:
        tail = base64.b64decode(payload[-4:], validate=True)
    except ValueError:
        return None
    odd = np.right_shift(lanes, 8)
    odd &= 0x003F003F  # s1 | s3 << 16
    lanes &= 0x003F003F  # s0 | s2 << 16
    lanes <<= 6
    lanes |= odd  # (s0 << 6 | s1) | (s2 << 6 | s3) << 16
    np.right_shift(lanes, 16, out=odd)
    lanes <<= 12
    lanes |= odd  # the 24 decoded bits in bytes 0..2, last byte first
    del odd  # one line-sized temporary at a time
    quads = lanes.view(np.uint8).reshape(-1, 4)
    raw = np.empty(3 * len(quads) + len(tail), dtype=np.uint8)
    triples = raw[: 3 * len(quads)].reshape(-1, 3)
    triples[:, 0] = quads[:, 2]
    triples[:, 1] = quads[:, 1]
    triples[:, 2] = quads[:, 0]
    raw[3 * len(quads) :] = np.frombuffer(tail, dtype=np.uint8)
    raw.flags.writeable = False
    return raw


def _excess_padding(payload) -> bool:
    """Whether *payload* (``str`` or ``bytes``) ends in more ``=`` than
    its final quantum needs: any ``=`` after a complete quantum, or
    ``"AAA=="``.  Which of these the stdlib accepts depends on the
    Python version (3.10 takes ``"AAAA=="``, 3.11 and 3.12
    ``"AAAA===="``), so both decode paths apply this rule first, with
    Python 3.13's wording."""
    data = len(payload.rstrip("=" if isinstance(payload, str) else b"="))
    return len(payload) - data > -data % 4


def decode_samples(payload) -> np.ndarray:
    """Base64 little-endian complex128 bytes → read-only complex128 array.

    A payload of at least :data:`VECTOR_DECODE_MIN_CHARS` characters is
    decoded in numpy: ``bytearray.translate`` maps the text to 6-bit
    sextets in one C pass (non-alphabet bytes to a 0x40 sentinel), one
    ``bitwise_or`` reduction over the ``<u4`` lanes validates the body,
    eight in-place ``uint32`` operations pack each 4-character lane
    into 24 bits, and three column copies drop the spare byte.  Every
    shorter payload, and every one that fails that validation, is
    decoded by ``base64.b64decode(payload, validate=True)``, so the
    accepted payloads, the decoded bytes and each error message are
    exactly those of the stdlib call, with one exception applied first:
    a trailing run of ``=`` longer than the final quantum needs (any
    ``=`` after a complete quantum, or ``"AAA=="``) is rejected with
    the same message on every Python version, where the stdlib call
    accepts a version-dependent subset of them.  The session copies on
    ingest, so no second copy is made here.
    """
    if not isinstance(payload, str):
        raise ConfigurationError(
            "samples must be a base64 string of little-endian complex128 "
            f"bytes, got {type(payload).__name__}"
        )
    if _excess_padding(payload):
        raise ConfigurationError(
            "samples is not valid base64: Excess padding not allowed"
        )
    raw = None
    if len(payload) >= VECTOR_DECODE_MIN_CHARS:
        raw = _vector_b64decode(payload)
    if raw is None:
        try:
            raw = base64.b64decode(payload, validate=True)
        except ValueError as error:  # binascii.Error, or a non-ASCII str
            raise ConfigurationError(
                f"samples is not valid base64: {error}"
            ) from None
    if len(raw) % _SAMPLE_BYTES:
        raise ConfigurationError(
            f"samples decode to {len(raw)} bytes, not a multiple of the "
            f"{_SAMPLE_BYTES}-byte complex128 sample"
        )
    return np.frombuffer(raw, dtype=_SAMPLE_DTYPE)


def encode_samples(samples: np.ndarray) -> str:
    """Complex array → base64 of its little-endian complex128 bytes."""
    raw = np.asarray(samples, dtype=_SAMPLE_DTYPE).tobytes()
    return base64.b64encode(raw).decode("ascii")


_SAMPLES_KEY = b'"samples"'


def _parse_ingest_line(line: bytes) -> dict | None:
    """The ingest request of *line* with its payload decoded from the
    line's bytes, or ``None`` when :func:`parse_request` must take the
    full ``json.loads`` path.

    The request is only returned when it is certainly the one
    ``json.loads(line)`` gives (with ``samples`` decoded as
    :func:`decode_samples` would): the line is UTF-8; ``"samples"``
    occurs once and no backslash occurs outside its value, so no
    escaped key can repeat it; the value follows ``":"`` or ``": "``
    and holds only alphabet characters and final-quantum padding (the
    decoder validates every byte, so a backslash or control character
    in it defers); and the line with ``""`` in place of the value
    parses to an ``ingest`` object whose ``samples`` is ``""``.  An
    error anywhere defers too, because ``json.loads``'s messages carry
    offsets into the whole line.
    """
    if json.detect_encoding(line) not in ("utf-8", "utf-8-sig"):
        return None
    key = line.find(_SAMPLES_KEY)
    if key < 0:
        return None
    start = key + len(_SAMPLES_KEY)
    if line.startswith(b':"', start):
        start += 2
    elif line.startswith(b': "', start):
        start += 3
    else:
        return None
    end = line.find(b'"', start)
    if (
        end < 0
        or line.find(_SAMPLES_KEY, end) >= 0
        or line.find(b"\\", 0, start) >= 0
        or line.find(b"\\", end) >= 0
        or _excess_padding(line[max(start, end - 4) : end])
    ):
        return None
    try:
        request = json.loads(line[:start] + line[end:])
    except (ValueError, RecursionError):
        return None
    if (
        not isinstance(request, dict)
        or request.get("op") != "ingest"
        or request.get("samples") != ""
    ):
        return None
    raw = _vector_b64decode(memoryview(line)[start:end])
    if raw is None or len(raw) % _SAMPLE_BYTES:
        return None
    request["samples"] = np.frombuffer(raw, dtype=_SAMPLE_DTYPE)
    return request


def parse_request(line: bytes) -> dict:
    """One request line (the bytes the server read) → its request object.

    Equal to ``json.loads(line)`` (a non-object raises
    :class:`~repro.errors.ConfigurationError`), with one difference: an
    ``ingest`` line of at least :data:`VECTOR_DECODE_MIN_CHARS` bytes
    whose payload decodes comes back with ``samples`` already decoded
    to the read-only complex128 array :func:`decode_samples` returns,
    without ``json.loads`` scanning the payload.  Every other line,
    and every line the shortcut is not sure of, is parsed by
    ``json.loads`` alone, so its ``samples`` is still the raw JSON
    value and the errors are exactly ``json.loads``'s.
    """
    if isinstance(line, bytes) and len(line) >= VECTOR_DECODE_MIN_CHARS:
        request = _parse_ingest_line(line)
        if request is not None:
            return request
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ConfigurationError("request must be a JSON object")
    return request


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
            return await self._dispatch(parse_request(line))
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
            session_id = request["session"]
            samples = request["samples"]
            if not isinstance(samples, np.ndarray):  # not decoded by the parse
                samples = decode_samples(samples)
            return {"ok": True, **service.ingest(session_id, samples)}
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
