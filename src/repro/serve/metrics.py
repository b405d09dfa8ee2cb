"""The serving metrics surface: counters + latency histogram.

Everything the load generator and the ``stats`` request report comes
from one :class:`ServiceMetrics` instance owned by the
:class:`~repro.serve.SensingService`:

* **offered vs served load** — every *accepted* submission increments
  ``offered``; completions, deadline sheds and failures partition it
  (``offered == served + shed_deadline + failed`` once the queue
  drains), while ``shed_overload`` counts the submissions backpressure
  rejected before they ever entered the queue;
* **latency** — per-request submit-to-completion seconds recorded into
  a bounded reservoir, quantiled for p50/p99 (exact over the most
  recent ``capacity`` requests; the closed-loop benchmark keeps every
  sample itself);
* **per-path accounting** — served completions split by detection
  route (``served_spectra`` for the session-resident spectra fast
  path, ``served_engine`` for the sample-domain batch path), each with
  its own latency reservoir, so the fast-path hit rate and its latency
  win stay observable in production;
* **coalescing** — how many engine batches were executed and how many
  requests rode in them; ``coalescing_factor`` is the mean batch size,
  the direct measure of the request-coalescing win;
* **queue depth** — high-water mark of the scheduler's bounded queue.

The snapshot is deliberately plain data (``dict`` of numbers) so it
serialises over the wire protocol and into ``BENCH_serve.json``
unchanged.
"""

from __future__ import annotations

import numpy as np

from .._util import require_positive_int
from ..core.detection import linear_quantile


class LatencyReservoir:
    """Bounded reservoir of the most recent request latencies.

    A fixed-size ring: quantiles are exact over the last ``capacity``
    recorded values, O(capacity) memory for an unbounded stream.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._capacity = require_positive_int(capacity, "capacity")
        self._ring = np.zeros(self._capacity, dtype=np.float64)
        self._count = 0

    @property
    def count(self) -> int:
        """Latencies ever recorded (not capped at capacity)."""
        return self._count

    def record(self, seconds: float) -> None:
        """Record one request latency."""
        self._ring[self._count % self._capacity] = float(seconds)
        self._count += 1

    def quantile(self, q: float) -> float | None:
        """The *q* quantile over the retained window (None when empty)."""
        retained = min(self._count, self._capacity)
        if retained == 0:
            return None
        return float(linear_quantile(self._ring[:retained], q))

    def snapshot(self) -> dict:
        """p50/p99/max plus the sample count, as plain numbers."""
        return {
            "count": self._count,
            "p50_latency_seconds": self.quantile(0.50),
            "p99_latency_seconds": self.quantile(0.99),
            "max_latency_seconds": self.quantile(1.0),
        }


class ServiceMetrics:
    """Counters and histograms of one running sensing service."""

    def __init__(self, latency_capacity: int = 4096) -> None:
        self.latency = LatencyReservoir(latency_capacity)
        # Per-path views of the served stream: the overall reservoir
        # keeps the service-level quantiles, these keep the detection
        # route attributable (spectra fast path vs engine batch).
        self.latency_spectra = LatencyReservoir(latency_capacity)
        self.latency_engine = LatencyReservoir(latency_capacity)
        self.offered = 0
        self.served = 0
        self.served_spectra = 0
        self.served_engine = 0
        self.shed_overload = 0
        self.shed_deadline = 0
        self.shed_deadline_in_flight = 0
        self.shed_circuit = 0
        self.retried = 0
        self.failed = 0
        self.degraded_batches = 0
        self.batches = 0
        self.coalesced_requests = 0
        self.max_batch_size = 0
        self.max_queue_depth = 0
        self.ingested_samples = 0
        self.ingested_chunks = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_offered(self, queue_depth: int) -> None:
        """One request entered the queue (depth measured after the put)."""
        self.offered += 1
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth

    def record_shed_overload(self) -> None:
        """One request rejected by backpressure (queue full / shutdown)."""
        self.shed_overload += 1

    def record_shed_deadline(self, in_flight: bool = False) -> None:
        """One request expired before (or, *in_flight*, during) its batch.

        In-flight sheds still partition into ``shed_deadline`` — the
        request is neither served nor failed — and are additionally
        counted in ``shed_deadline_in_flight`` because they represent
        wasted engine work, not just queueing delay.
        """
        self.shed_deadline += 1
        if in_flight:
            self.shed_deadline_in_flight += 1

    def record_shed_circuit(self) -> None:
        """One submission fast-failed because the circuit breaker is open.

        Like ``shed_overload``, these never enter the queue, so they
        are *not* part of ``offered``.
        """
        self.shed_circuit += 1

    def record_retried(self) -> None:
        """One request re-queued after its batch failed (retry budget)."""
        self.retried += 1

    def record_degraded_batch(self) -> None:
        """One batch completed only via the engine's degraded-serial path."""
        self.degraded_batches += 1

    def record_batch(self, size: int) -> None:
        """One coalesced engine batch of *size* requests executed."""
        self.batches += 1
        self.coalesced_requests += size
        if size > self.max_batch_size:
            self.max_batch_size = size

    def record_served(
        self, latency_seconds: float, path: str = "engine"
    ) -> None:
        """One request completed successfully via *path*.

        ``path`` is ``"spectra"`` (the session-resident fast path) or
        ``"engine"`` (the sample-domain batch path, the default so
        pre-fast-path callers keep their meaning).
        """
        self.served += 1
        self.latency.record(latency_seconds)
        if path == "spectra":
            self.served_spectra += 1
            self.latency_spectra.record(latency_seconds)
        else:
            self.served_engine += 1
            self.latency_engine.record(latency_seconds)

    def record_failed(self) -> None:
        """One request failed with an execution error."""
        self.failed += 1

    def record_ingest(self, samples: int) -> None:
        """One ingest chunk of *samples* samples arrived."""
        self.ingested_chunks += 1
        self.ingested_samples += samples

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def coalescing_factor(self) -> float | None:
        """Mean requests per executed engine batch (None before any)."""
        if self.batches == 0:
            return None
        return self.coalesced_requests / self.batches

    def snapshot(self) -> dict:
        """The whole surface as plain JSON-serialisable numbers."""
        return {
            "offered": self.offered,
            "served": self.served,
            "served_spectra": self.served_spectra,
            "served_engine": self.served_engine,
            "shed_overload": self.shed_overload,
            "shed_deadline": self.shed_deadline,
            "shed_deadline_in_flight": self.shed_deadline_in_flight,
            "shed_circuit": self.shed_circuit,
            "retried": self.retried,
            "failed": self.failed,
            "degraded_batches": self.degraded_batches,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "coalescing_factor": self.coalescing_factor,
            "max_batch_size": self.max_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "ingested_chunks": self.ingested_chunks,
            "ingested_samples": self.ingested_samples,
            "latency": self.latency.snapshot(),
            "latency_spectra": self.latency_spectra.snapshot(),
            "latency_engine": self.latency_engine.snapshot(),
        }
