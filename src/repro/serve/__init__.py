"""Detection-as-a-service: the async streaming sensing server.

This package turns the repository's offline detection stack into a
long-running service (paper §1's "continuous monitoring of the radio
spectrum", lifted from a batch experiment to an always-on facility):

``session``
    Per-client chunked ingestion over the ``(fft_size, hop)`` block
    lattice into a ring of the last N block spectra, and bitwise
    checkpoint/restore.
``scheduler``
    Request coalescing into engine trial batches, bounded-queue
    backpressure, and per-request deadlines.
``service``
    The :class:`SensingService` facade tying engine, sessions,
    scheduler, thresholds, and metrics together.
``server``
    A line-delimited JSON TCP front end.
``metrics``
    The latency/throughput/coalescing metrics surface.

The load-bearing guarantee across all of it: a statistic served
through a coalesced batch is **bitwise identical** to the same window
run through the offline :class:`~repro.pipeline.DetectionPipeline`.
"""

from .breaker import CircuitBreaker
from .metrics import LatencyReservoir, ServiceMetrics
from .scheduler import CoalescingScheduler, DetectionRequest
from .server import (
    SensingServer,
    decode_samples,
    encode_samples,
    parse_request,
)
from .service import SensingService
from .session import (
    SensingSession,
    require_serve_capable,
    serve_backends,
    session_capable,
)

__all__ = [
    "CircuitBreaker",
    "CoalescingScheduler",
    "DetectionRequest",
    "LatencyReservoir",
    "SensingServer",
    "SensingService",
    "SensingSession",
    "ServiceMetrics",
    "decode_samples",
    "encode_samples",
    "parse_request",
    "require_serve_capable",
    "serve_backends",
    "session_capable",
]
