"""Request coalescing, backpressure, and deadlines for the service.

The scheduler is the concurrency heart of detection-as-a-service.  It
owns one bounded :class:`asyncio.Queue` of pending detection requests
and one worker task that drains it:

* **coalescing** — the worker pulls as many queued requests as are
  immediately available (up to ``max_batch``), groups them by engine
  plan key *and request domain*, stacks each group's payloads into one
  trial batch, and runs a single engine call per group —
  :meth:`Engine.statistics <repro.engine.Engine.statistics>` for raw
  sample windows, :meth:`Engine.spectra_statistics
  <repro.engine.Engine.spectra_statistics>` for spectra-domain fast-
  path requests (many sessions' reconciled ring spectra stacked into
  one Gram call).  The batched plans guarantee per-trial slices are
  bitwise identical to singleton runs, so coalescing changes *when*
  work happens, never *what* is computed — and amortises the FFT and
  scoring-kernel setup the same way the offline batch path does;
* **backpressure** — :meth:`CoalescingScheduler.submit` never blocks
  the producer: when the queue is at ``max_queue_depth`` the request
  is shed immediately with
  :class:`~repro.errors.ServiceOverloadedError`.  The server stays
  live; the client backs off;
* **deadlines** — a request may carry a relative deadline.  Expiry is
  checked when the worker dequeues it — an expired request fails with
  :class:`~repro.errors.DeadlineExceededError` instead of wasting a
  batch slot — and again when its batch *completes*: a result that
  arrives after the deadline is discarded, never delivered stale;
* **retries** — a batch that fails with an engine error re-queues its
  requests up to ``retry_budget`` times apiece (the engine has its own
  shard-level recovery underneath; this budget covers whole-batch
  failures that escape it) before the error is surfaced;
* **circuit breaking** — repeated batch failures trip the optional
  :class:`~repro.serve.breaker.CircuitBreaker`: new submissions then
  fast-fail with :class:`~repro.errors.CircuitOpenError` until the
  cooldown elapses, while already-queued work still executes.

Each domain has one route.  **Spectra** groups run
:meth:`Engine.spectra_statistics
<repro.engine.Engine.spectra_statistics>` directly on the event loop:
that call is always in-process, bounded CPU work (one Gram score per
request, no pool, no shared memory), so a thread hop would only add
its own latency to every decision.  While it runs the loop does
nothing else; a full ``max_batch`` spectra batch holds it for about
``max_batch`` scores (roughly 25 ms at the paper's K = 256, N = 32
point).  **Sample** groups run :meth:`Engine.statistics
<repro.engine.Engine.statistics>` in :func:`asyncio.to_thread`: that
route may shard to worker processes, rebuild a pool or wait on shared
memory, so the loop keeps accepting ingests, submissions and
``health`` probes while it computes, which is how the queue builds up
the next coalesced batch.  The ``serve.batch`` fault site fires off
the loop on both routes (see :meth:`CoalescingScheduler._score`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from .._util import require_non_negative_int, require_positive_int
from ..engine import Engine
from ..engine.cache import plan_key
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
)
from ..pipeline.config import PipelineConfig
from .breaker import CircuitBreaker
from .metrics import ServiceMetrics


@dataclass
class DetectionRequest:
    """One pending detection: its payload plus bookkeeping.

    ``samples`` holds the raw detection window (``domain="samples"``)
    or its already-transformed ``(N, K)`` block spectra in the batch
    phase convention (``domain="spectra"``, the session-resident fast
    path).  The grouping ``key`` includes the domain, so one coalesced
    batch never mixes payload kinds even when both routes share a
    plan.
    """

    samples: np.ndarray
    config: PipelineConfig
    future: asyncio.Future
    submitted: float
    deadline: float | None = None
    retries: int = 0
    domain: str = "samples"
    key: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.key = (plan_key(self.config), self.domain)


class CoalescingScheduler:
    """Bounded-queue batching scheduler over one :class:`Engine`.

    Parameters
    ----------
    engine:
        The execution engine every coalesced batch runs on.
    metrics:
        The service's :class:`~repro.serve.metrics.ServiceMetrics`
        (offered/served/shed counters, batch sizes, queue depth).
    max_queue_depth:
        Backpressure limit: submissions beyond this many pending
        requests are shed with ``ServiceOverloadedError``.
    max_batch:
        Most requests one drained batch may contain (an engine batch
        per plan-key group within it).
    retry_budget:
        How many times one request may be re-queued after a failed
        batch before the error is surfaced to the caller.
    breaker:
        Optional :class:`~repro.serve.breaker.CircuitBreaker` gating
        new submissions while the engine is failing repeatedly.
    """

    def __init__(
        self,
        engine: Engine,
        metrics: ServiceMetrics,
        max_queue_depth: int = 64,
        max_batch: int = 32,
        retry_budget: int = 1,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self._engine = engine
        self._metrics = metrics
        self.max_queue_depth = require_positive_int(
            max_queue_depth, "max_queue_depth"
        )
        self.max_batch = require_positive_int(max_batch, "max_batch")
        self.retry_budget = require_non_negative_int(
            retry_budget, "retry_budget"
        )
        self.breaker = breaker
        # One injector serves the whole stack: the scheduler fires its
        # serve-side site on the engine's injector (None in production).
        self._injector = engine.fault_injector
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue_depth)
        self._worker: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the worker task is draining the queue."""
        return self._worker is not None and not self._worker.done()

    @property
    def queue_depth(self) -> int:
        """Requests currently pending (for stats/backpressure probes)."""
        return self._queue.qsize()

    async def start(self) -> None:
        """Start the worker task (idempotent)."""
        if self.running:
            return
        self._closed = False
        self._worker = asyncio.create_task(
            self._run(), name="repro-serve-scheduler"
        )

    async def close(self, drain: bool = True) -> None:
        """Stop the scheduler.

        With ``drain=True`` (default) every already-queued request is
        still executed before the worker exits; new submissions are
        shed immediately.  With ``drain=False`` queued requests fail
        with ``ServiceOverloadedError``.
        """
        self._closed = True
        if self._worker is None:
            self._shed_queue()
            return
        if drain:
            await self._queue.put(None)  # sentinel after the backlog
            await self._worker
            # A failed batch may have re-queued retries *behind* the
            # sentinel; they must not be orphaned with a pending future.
            self._shed_queue()
        else:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._shed_queue()
        self._worker = None

    def _shed_queue(self) -> None:
        while True:
            try:
                request = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if request is None:
                continue
            self._metrics.record_shed_overload()
            if not request.future.done():
                request.future.set_exception(
                    ServiceOverloadedError(
                        "service shut down before the request executed"
                    )
                )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        samples: np.ndarray,
        config: PipelineConfig,
        deadline_seconds: float | None = None,
        domain: str = "samples",
    ) -> float:
        """Queue one detection payload and await its statistic.

        *samples* is a raw detection window (``domain="samples"``) or
        its centered ``(N, K)`` block spectra in the batch phase
        convention (``domain="spectra"`` — the session-resident fast
        path, routed through
        :meth:`Engine.spectra_statistics
        <repro.engine.Engine.spectra_statistics>`).  Spectra-domain
        requests from many sessions sharing a plan key coalesce into
        one stacked Gram call exactly like sample windows do.

        Sheds immediately (``ServiceOverloadedError``) when the queue
        is full or the scheduler is closed, and fast-fails
        (``CircuitOpenError``) while the circuit breaker is open;
        fails with ``DeadlineExceededError`` when *deadline_seconds*
        elapses before the batch runs — or before it completes.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        request = DetectionRequest(
            samples=samples,
            config=config,
            future=loop.create_future(),
            submitted=now,
            deadline=None if deadline_seconds is None else now + deadline_seconds,
            domain=domain,
        )
        if self._closed or not self.running:
            self._metrics.record_shed_overload()
            raise ServiceOverloadedError(
                "the scheduler is not accepting requests (closed)"
            )
        if self.breaker is not None and not self.breaker.allow(now):
            self._metrics.record_shed_circuit()
            raise CircuitOpenError(
                f"circuit breaker is open after repeated engine failures; "
                f"retry after the cooldown "
                f"({self.breaker.cooldown_seconds:.1f}s)"
            )
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self._metrics.record_shed_overload()
            raise ServiceOverloadedError(
                f"detection queue is full ({self.max_queue_depth} pending); "
                f"back off and retry"
            ) from None
        self._metrics.record_offered(self._queue.qsize())
        return await request.future

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            request = await self._queue.get()
            if request is None:
                return
            batch = [request]
            stop_after = False
            # Everything already waiting rides in this batch: the
            # coalescing window is exactly the time the previous batch
            # spent computing.
            while len(batch) < self.max_batch:
                try:
                    more = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if more is None:
                    stop_after = True
                    break
                batch.append(more)
            await self._execute(loop, batch)
            if stop_after:
                return

    async def _execute(self, loop, batch: list[DetectionRequest]) -> None:
        now = loop.time()
        live: list[DetectionRequest] = []
        for request in batch:
            if request.future.done():
                continue  # caller gave up (cancellation)
            if request.deadline is not None and now > request.deadline:
                self._metrics.record_shed_deadline()
                request.future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired {now - request.deadline:.3f}s "
                        f"before the batch executed"
                    )
                )
                continue
            live.append(request)
        if not live:
            return
        # One engine batch per plan-key group; grouping preserves FIFO
        # order within each group.
        groups: dict[tuple, list[DetectionRequest]] = {}
        for request in live:
            groups.setdefault(request.key, []).append(request)
        for group in groups.values():
            first = group[0]
            # A lone request needs no stacking copy: a leading axis on
            # its own payload is the one-trial batch.
            stacked = (
                first.samples[None]
                if len(group) == 1
                else np.stack([request.samples for request in group])
            )
            degraded_before = self._engine.health.degraded_shards
            path = "spectra" if first.domain == "spectra" else "engine"
            try:
                statistics = await self._score(
                    stacked, first.config, first.domain
                )
            except Exception as error:
                if self.breaker is not None:
                    self.breaker.record_failure(loop.time())
                for request in group:
                    self._fail_or_retry(request, error)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            if self._engine.health.degraded_shards > degraded_before:
                self._metrics.record_degraded_batch()
            self._metrics.record_batch(len(group))
            done = loop.time()
            for request, statistic in zip(group, statistics):
                if request.future.done():
                    continue
                if request.deadline is not None and done > request.deadline:
                    # The batch outlived the deadline: the caller has
                    # (or should have) moved on — a stale statistic is
                    # worse than a typed failure.
                    self._metrics.record_shed_deadline(in_flight=True)
                    request.future.set_exception(
                        DeadlineExceededError(
                            f"deadline expired "
                            f"{done - request.deadline:.3f}s into the "
                            f"batch; stale result discarded"
                        )
                    )
                    continue
                self._metrics.record_served(
                    done - request.submitted, path=path
                )
                request.future.set_result(float(statistic))

    async def _score(
        self, stacked: np.ndarray, config: PipelineConfig, domain: str
    ) -> np.ndarray:
        """One engine batch on its domain's route.

        Spectra-domain groups run :meth:`Engine.spectra_statistics
        <repro.engine.Engine.spectra_statistics>` inline on the event
        loop; sample-domain groups run :meth:`_score_samples` in a
        worker thread.  The ``serve.batch`` fault site fires off the
        loop on both routes, so its ``hang``/``slow`` faults stall only
        this batch: ``health`` probes and submissions keep being
        answered throughout.  Without an injector the inline route
        pays one ``None`` check.
        """
        if domain == "samples":
            return await asyncio.to_thread(self._score_samples, stacked, config)
        if self._injector is not None:
            await asyncio.to_thread(self._injector.fire, "serve.batch")
        return self._engine.spectra_statistics(stacked, config=config)

    def _score_samples(
        self, stacked: np.ndarray, config: PipelineConfig
    ) -> np.ndarray:
        """One sample-domain engine batch (runs in a worker thread)."""
        if self._injector is not None:
            self._injector.fire("serve.batch")
        return self._engine.statistics(stacked, config=config)

    def _fail_or_retry(self, request: DetectionRequest, error: Exception) -> None:
        """Re-queue *request* if budget remains, else surface *error*."""
        if request.future.done():
            return
        if request.retries < self.retry_budget and not self._closed:
            request.retries += 1
            try:
                self._queue.put_nowait(request)
            except asyncio.QueueFull:
                pass  # no room to retry: fall through to failure
            else:
                self._metrics.record_retried()
                return
        self._metrics.record_failed()
        request.future.set_exception(error)
