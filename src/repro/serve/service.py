"""The sensing service: sessions + coalescing scheduler + metrics.

:class:`SensingService` is the in-process facade that ``repro-cfd
serve`` (and any embedding application) runs.  It ties the serving
subsystem together:

* it owns one :class:`~repro.engine.Engine` (shared plan cache, shared-
  memory transport, optional worker processes) on which every
  coalesced detection batch and every threshold calibration runs;
* it tracks :class:`~repro.serve.session.SensingSession` objects by id
  — open, ingest, checkpoint, restore, close;
* it routes detection requests through the
  :class:`~repro.serve.scheduler.CoalescingScheduler`, so concurrent
  clients are batched into single engine calls while staying bitwise
  identical to offline :class:`~repro.pipeline.DetectionPipeline`
  runs;
* session detects on configurations the spectra-route rule admits
  take the **spectra-reuse fast path** automatically
  (``serve_path="auto"``): the session's reconciled ring spectra feed
  the plan layer's spectra-domain entry point, skipping re-blocking
  and the N-block FFT sweep while producing bit-for-bit the engine
  path's statistic — see :meth:`SensingService.resolve_serve_path`.
  Each session's route is resolved once, when it opens or is
  restored.  Spectra batches are scored on the event loop (bounded,
  in-process work: a full ``max_batch`` batch holds the loop for
  about ``max_batch`` scores, roughly 25 ms at K = 256, N = 32);
  sample-domain batches (``detect_samples`` and the engine route) run
  in a worker thread, because they may shard to worker processes —
  see :class:`~repro.serve.scheduler.CoalescingScheduler`;
* it calibrates detection thresholds on first use per operating point
  and caches them (the Monte-Carlo calibration is deterministic given
  the config, so the cache is exact, not approximate);
* it exposes the whole metrics surface through :meth:`stats` —
  latency quantiles, offered vs served load, coalescing factor, queue
  depth, plan-cache hits.

Use it as an async context manager::

    async with SensingService(config) as service:
        sid = service.open_session()
        service.ingest(sid, chunk)
        result = await service.detect(sid)
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..engine import Engine
from ..engine.cache import plan_key
from ..engine.plans import spectra_refusal
from ..errors import ConfigurationError, SessionStateError
from ..pipeline.config import PipelineConfig
from .breaker import CircuitBreaker
from .metrics import ServiceMetrics
from .scheduler import CoalescingScheduler
from .session import SensingSession, require_serve_capable


class SensingService:
    """A long-running detection-as-a-service facade.

    Parameters
    ----------
    config:
        The default operating point for sessions that do not bring
        their own.  Must be serve-capable.
    engine:
        An existing :class:`~repro.engine.Engine` to run on; the
        service builds its own (``Engine(jobs=jobs)``) when omitted and
        then also owns its shutdown.
    jobs:
        Worker processes for the owned engine (ignored when *engine*
        is given).
    max_queue_depth / max_batch:
        Scheduler backpressure limit and coalescing cap — see
        :class:`~repro.serve.scheduler.CoalescingScheduler`.
    latency_capacity:
        Size of the latency reservoir backing p50/p99.
    retry_budget:
        Per-request re-queue budget after failed batches — see
        :class:`~repro.serve.scheduler.CoalescingScheduler`.
    breaker:
        The :class:`~repro.serve.breaker.CircuitBreaker` gating
        submissions under repeated engine failure; a default one is
        built when omitted (pass an instance to tune thresholds).
    """

    def __init__(
        self,
        config: PipelineConfig,
        engine: Engine | None = None,
        jobs: int = 1,
        max_queue_depth: int = 64,
        max_batch: int = 32,
        latency_capacity: int = 4096,
        retry_budget: int = 1,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        require_serve_capable(config)
        self.config = config
        # Fail fast on an impossible route (serve_path="spectra" on a
        # configuration the spectra rule refuses) instead of at the
        # first detect.
        self.resolve_serve_path(config)
        self._owns_engine = engine is None
        self._engine = Engine(jobs=jobs) if engine is None else engine
        self.metrics = ServiceMetrics(latency_capacity=latency_capacity)
        self.breaker = CircuitBreaker() if breaker is None else breaker
        self.scheduler = CoalescingScheduler(
            self._engine,
            self.metrics,
            max_queue_depth=max_queue_depth,
            max_batch=max_batch,
            retry_budget=retry_budget,
            breaker=self.breaker,
        )
        self._sessions: dict[str, SensingSession] = {}
        # Each session's detect route, resolved once when it opens: a
        # session's config never changes, so neither does its route.
        self._routes: dict[str, str] = {}
        self._thresholds: dict[tuple, float] = {}
        self._threshold_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        """The execution engine every batch runs on."""
        return self._engine

    async def start(self) -> None:
        """Start the scheduler worker (idempotent)."""
        await self.scheduler.start()

    async def close(self, drain: bool = True) -> None:
        """Stop the scheduler and (if owned) shut the engine down."""
        await self.scheduler.close(drain=drain)
        for session in self._sessions.values():
            session.close()
        if self._owns_engine:
            self._engine.close()

    async def __aenter__(self) -> "SensingService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def resolve_serve_path(
        self, config: PipelineConfig | None = None
    ) -> str:
        """The detection route session detects at *config* will take.

        ``"spectra"`` — the session-resident fast path: the statistic
        is computed straight from the session's reconciled ring spectra
        (no re-blocking, no N-block FFT sweep), whenever
        :func:`~repro.engine.plans.spectra_refusal` admits *config* for
        serving.  ``"engine"`` — the raw window re-runs the full
        block-FFT front-end: the fallback for everything the rule
        refuses, and the parity oracle for the fast path.

        Both routes produce bitwise-identical statistics; ``auto``
        simply prefers the one that recomputes less.  Requesting
        ``serve_path="spectra"`` on a refused configuration raises
        :class:`~repro.errors.ConfigurationError` (this runs eagerly at
        service construction, session open and restore, not at first
        detect).
        """
        config = self.config if config is None else config
        if config.serve_path == "engine":
            return "engine"
        refusal = spectra_refusal(config, serving=True)
        if refusal is None:
            return "spectra"
        if config.serve_path == "spectra":
            raise ConfigurationError(
                f"serve_path='spectra' is unavailable: {refusal}; use "
                f"serve_path='auto' or 'engine'"
            )
        return "engine"

    def open_session(
        self,
        config: PipelineConfig | None = None,
        session_id: str | None = None,
    ) -> str:
        """Open a new ingestion session; returns its id."""
        config = self.config if config is None else config
        route = self.resolve_serve_path(config)  # eager route validation
        return self._add_session(
            SensingSession(config, session_id=session_id), route
        )

    def _add_session(self, session: SensingSession, route: str) -> str:
        if session.session_id in self._sessions:
            raise SessionStateError(
                f"session id {session.session_id!r} is already open"
            )
        self._sessions[session.session_id] = session
        self._routes[session.session_id] = route
        return session.session_id

    def _session(self, session_id: str) -> SensingSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionStateError(
                f"unknown session id {session_id!r}"
            ) from None

    def ingest(self, session_id: str, samples: np.ndarray) -> dict:
        """Feed one chunk into a session; returns its progress summary."""
        info = self._session(session_id).ingest(samples)
        self.metrics.record_ingest(int(np.asarray(samples).size))
        return info

    def checkpoint_session(self, session_id: str) -> dict:
        """A bitwise-exact checkpoint of one session's state."""
        return self._session(session_id).state()

    def restore_session(
        self, state: dict, config: PipelineConfig | None = None
    ) -> str:
        """Re-open a session from a checkpoint; returns its id."""
        config = self.config if config is None else config
        route = self.resolve_serve_path(config)  # eager route validation
        return self._add_session(SensingSession.from_state(config, state), route)

    def close_session(self, session_id: str) -> None:
        """Close and forget a session."""
        self._session(session_id).close()
        del self._sessions[session_id]
        del self._routes[session_id]

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    async def threshold(self, config: PipelineConfig | None = None) -> float:
        """The calibrated detection threshold for *config*.

        First use per operating point runs the engine's Monte-Carlo
        calibration (off the event loop); later uses hit the cache.
        The calibration is deterministic in the config, so cached
        values are exact.
        """
        config = self.config if config is None else config
        # The full calibration policy keys the cache: plan_key
        # deliberately excludes calibration fields (plans don't consume
        # them), so without `calibration` here an analytic and a
        # Monte-Carlo config at the same geometry would collide on one
        # cached threshold.
        key = (
            plan_key(config),
            config.pfa,
            config.calibration,
            config.calibration_trials,
            config.calibration_seed,
        )
        cached = self._thresholds.get(key)
        if cached is not None:
            return cached
        async with self._threshold_lock:
            cached = self._thresholds.get(key)
            if cached is None:
                cached = float(
                    await asyncio.to_thread(
                        self._engine.calibrate_threshold, config
                    )
                )
                self._thresholds[key] = cached
        return cached

    async def _submit_detection(
        self,
        payload: np.ndarray,
        config: PipelineConfig,
        deadline_seconds: float | None,
        with_threshold: bool,
        domain: str,
    ) -> dict:
        """Threshold + scheduler round trip shared by both routes."""
        threshold = (await self.threshold(config)) if with_threshold else None
        statistic = await self.scheduler.submit(
            payload,
            config,
            deadline_seconds=deadline_seconds,
            domain=domain,
        )
        result = {
            "statistic": statistic,
            "threshold": threshold,
            "backend": config.backend,
            "serve_path": "spectra" if domain == "spectra" else "engine",
        }
        if threshold is not None:
            result["detected"] = bool(statistic > threshold)
        return result

    async def detect_samples(
        self,
        samples: np.ndarray,
        config: PipelineConfig | None = None,
        deadline_seconds: float | None = None,
        with_threshold: bool = True,
    ) -> dict:
        """One-shot detection on a caller-supplied window.

        The window is queued through the coalescing scheduler, so
        concurrent calls share engine batches; the returned statistic
        is bitwise identical to the offline pipeline on the same
        samples.  Caller-supplied raw windows have no session-resident
        spectra to reuse, so this is always the engine path
        (``result["serve_path"] == "engine"``).
        """
        config = self.config if config is None else config
        return await self._submit_detection(
            np.asarray(samples, dtype=np.complex128),
            config,
            deadline_seconds,
            with_threshold,
            "samples",
        )

    async def detect(
        self,
        session_id: str,
        deadline_seconds: float | None = None,
        with_threshold: bool = True,
    ) -> dict:
        """Detect on a session's current window (the last N blocks).

        Routing follows :meth:`resolve_serve_path`, resolved once when
        the session opened: on the spectra fast path the session's
        reconciled ring spectra are submitted directly (no re-blocking,
        no FFT sweep, scored on the event loop); otherwise the raw
        window goes through the engine sample path.  The statistic —
        and therefore the decision — is bitwise identical either way;
        ``result["serve_path"]`` reports the route taken.
        """
        session = self._session(session_id)
        config = session.config
        if self._routes[session_id] == "spectra":
            payload = session.window_spectra()  # raises until ready
            result = await self._submit_detection(
                payload,
                config,
                deadline_seconds,
                with_threshold,
                "spectra",
            )
        else:
            window = session.window_samples()  # raises until ready
            result = await self.detect_samples(
                window,
                config=config,
                deadline_seconds=deadline_seconds,
                with_threshold=with_threshold,
            )
        result["session"] = session_id
        result["blocks"] = session.blocks_ingested
        result["total_samples"] = session.total_samples
        return result

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The full metrics surface as plain JSON-serialisable data."""
        cache_stats = self._engine.cache.stats
        snapshot = self.metrics.snapshot()
        snapshot.update(
            {
                "sessions": len(self._sessions),
                "queue_depth": self.scheduler.queue_depth,
                "max_queue_limit": self.scheduler.max_queue_depth,
                "max_batch_limit": self.scheduler.max_batch,
                "retry_budget": self.scheduler.retry_budget,
                "plan_cache": {
                    "hits": cache_stats.hits,
                    "misses": cache_stats.misses,
                    "evictions": cache_stats.evictions,
                    "size": cache_stats.size,
                    "hit_rate": cache_stats.hit_rate,
                },
                "engine_jobs": self._engine.jobs,
                "circuit": self.breaker.snapshot(),
                "engine_health": self._engine.health.snapshot(),
            }
        )
        return snapshot

    def health(self) -> dict:
        """A cheap liveness/degradation probe for the ``health`` op.

        Always answerable — it touches no queue and runs no engine
        work, so it responds even while a batch is wedged or the
        breaker is open.  ``status`` is ``"ok"`` unless the breaker is
        open or the engine has already degraded shards to serial.
        """
        engine_health = self._engine.health.snapshot()
        degraded = bool(
            self.breaker.state == "open" or engine_health["degraded"]
        )
        return {
            "status": "degraded" if degraded else "ok",
            "scheduler_running": self.scheduler.running,
            "queue_depth": self.scheduler.queue_depth,
            "circuit": self.breaker.snapshot(),
            "engine_health": engine_health,
            "sessions": len(self._sessions),
        }
