"""The execution engine: plans + cache + (optionally sharded) scheduling.

:class:`Engine` is the single front-end through which every
Monte-Carlo workload in the package runs: threshold calibration,
ROC/Pd-vs-SNR sweeps (:meth:`Engine.map_operating_points`), band-scan
statistics.  It resolves each request to an
:class:`~repro.engine.plans.ExecutionPlan` through the shared
:class:`~repro.engine.cache.PlanCache`, then executes trial batches
either in-process (``jobs=1``, the default) or sharded across a
persistent ``multiprocessing`` worker pool (``jobs=N``).

Sharding contract
-----------------
Results are **shard-count invariant and bitwise equal to the serial
path** for every plan built by :func:`~repro.engine.plans.build_plan`:

* trials are seeded per *trial index* (see
  :func:`repro._util.spawn_substreams`), never per shard, so the
  signals entering the computation are independent of ``jobs``;
* signals are realised once in the parent and split into contiguous
  shards, and every plan computes each trial independently of its
  batch-mates, so concatenating shard results reproduces the serial
  statistics bit for bit (pinned by the ``jobs in {1, 2, 4}`` battery
  in ``tests/test_engine.py`` across dscf, fam, ssca and soc-compiled
  backends);
* workers receive only ``(PipelineConfig, descriptor, bounds)`` — the
  trial block is published once via ``multiprocessing.shared_memory``
  (see :mod:`repro.engine.shm`) and each worker attaches a read-only
  view of its contiguous rows, so per-shard pickled payload is
  O(config) bytes and no trial array ever crosses the pipe; plans are
  rebuilt from the configuration inside each worker through its own
  shared cache, staying warm across shards and sweep points.

Wall-clock scaling requires actual cores: ``benchmarks/bench_engine.py``
records the measured ``jobs=1`` vs ``jobs=N`` scaling (and the
plan-cache hit speedup) in ``BENCH_engine.json`` alongside the CPU
count it was measured on.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .._util import require_non_negative_int, require_positive_int
from ..core.detection import calibration_quantile, validate_pfa
from ..errors import ConfigurationError
from ..faults import FaultInjector, fire_worker
from .cache import PlanCache, shared_plan_cache
from .plans import build_plan, default_noise_factory
from .shm import SharedArraySegment, attach_segment, segment_view


def _worker_statistics(
    config,
    descriptor,
    start: int,
    stop: int,
    use_cache: bool = True,
    fault_plan=None,
    fault_tickets=None,
) -> np.ndarray:
    """One shard's statistics read zero-copy from shared memory.

    The worker attaches the published trial block, slices its
    contiguous ``[start:stop]`` rows as a read-only view (no copy of
    the trial data is ever made on this side of the pipe) and computes
    through the worker's own plan resolution.  Importing :mod:`repro`
    registers every backend (needed under the ``spawn`` start method;
    a no-op under ``fork``).  With *use_cache* the worker's shared plan
    cache keeps the plan warm across shards and calls; without it (the
    engine was built with plan caching disabled, e.g. ``--no-cache``)
    every shard builds its plan afresh, mirroring the parent's
    cold-path semantics.  *fault_plan* and *fault_tickets* are the
    fault-injection surface (None in production): the parent-issued
    tickets keep worker-side firing deterministic (see
    :mod:`repro.faults`).  Views are dropped before the mapping closes
    — a live export of the segment buffer would raise ``BufferError``
    — and the close runs in a ``finally`` so a raising plan cannot leak
    the worker's mapping; the parent owns (and always unlinks) the
    segment itself.
    """
    import repro  # noqa: F401  — registers all estimator backends

    tickets = fault_tickets or {}
    if fault_plan is not None:
        fire_worker(fault_plan, "worker.attach", tickets.get("worker.attach"))
    shard = None
    shm = attach_segment(descriptor)
    try:
        if fault_plan is not None:
            fire_worker(fault_plan, "worker.start", tickets.get("worker.start"))
        shard = segment_view(descriptor, shm)[start:stop]
        if use_cache:
            plan = shared_plan_cache().get(config)
        else:
            plan = build_plan(config)
        result = plan.statistics(shard)
        # Plans allocate fresh outputs, so nothing below retains the
        # segment buffer once the view is dropped.
        return np.asarray(result)
    finally:
        shard = None
        shm.close()


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Backoff between shard retry attempts is capped here regardless of
#: how many attempts the engine is configured for.
MAX_RETRY_BACKOFF_SECONDS = 1.0


@dataclass
class EngineHealth:
    """Recovery counters of one :class:`Engine` (monotonic).

    ``shard_failures`` counts every shard execution that raised or
    timed out; ``shard_retries`` the re-submissions the retry loop
    issued; ``watchdog_timeouts`` the failures that were hung shards
    (also counted in ``shard_failures``); ``pool_rebuilds`` how often
    the worker pool was torn down and restarted (worker death, hang
    abandonment); ``degraded_shards`` the shards that exhausted their
    retries and fell back to in-process serial execution.  All
    recovery paths are bitwise identical to the fault-free run, so
    non-zero counters mean *survived* faults, never changed results.
    """

    shard_failures: int = 0
    shard_retries: int = 0
    watchdog_timeouts: int = 0
    pool_rebuilds: int = 0
    degraded_shards: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any shard ever fell back to serial execution."""
        return self.degraded_shards > 0

    @property
    def recovered_faults(self) -> int:
        """Total fault events this engine absorbed."""
        return self.shard_failures + self.pool_rebuilds

    def snapshot(self) -> dict:
        """Plain-data form for metrics/health endpoints."""
        data = asdict(self)
        data["degraded"] = self.degraded
        data["recovered_faults"] = self.recovered_faults
        return data


class Engine:
    """Plan-cached, optionally multi-process trial executor.

    Parameters
    ----------
    jobs:
        Worker processes for sharded execution.  ``1`` (default) runs
        in-process with zero multiprocessing overhead; ``N > 1`` lazily
        starts a persistent pool of N workers that is reused across
        calls (one pool per engine — enter the engine as a context
        manager, or call :meth:`close`, to reap it deterministically).
    cache:
        The :class:`~repro.engine.cache.PlanCache` plans are drawn
        from; defaults to the process-wide shared cache.  Pass
        ``PlanCache(maxsize=0)`` to disable plan reuse (the CLI's
        ``--no-cache``).
    mp_context:
        Optional ``multiprocessing`` context; defaults to ``fork``
        where available (cheap, inherits the loaded package) and the
        platform default elsewhere.
    watchdog_seconds:
        Per-shard watchdog: a sharded result not delivered within this
        many seconds counts as a hung worker — the shard is failed,
        the pool abandoned and rebuilt, and the shard retried.  None
        (default) disables the watchdog.
    max_shard_retries:
        How many recovery attempts a failed shard gets (capped
        exponential backoff between attempts) before the engine
        degrades it to in-process serial execution.  Every recovery
        path replays the exact same trial rows through the same plan,
        so results stay bitwise identical to the fault-free run.
    retry_backoff_seconds:
        Base backoff before retry attempt *n* (doubled per attempt,
        capped at :data:`MAX_RETRY_BACKOFF_SECONDS`).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` driving the
        deterministic chaos hooks.  None (default) keeps every
        instrumented site at a single attribute check.

    >>> from repro.engine import Engine
    >>> from repro.pipeline import PipelineConfig
    >>> engine = Engine()
    >>> config = PipelineConfig(fft_size=32, num_blocks=8)
    >>> threshold = engine.calibrate_threshold(config, trials=20)
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: PlanCache | None = None,
        mp_context=None,
        watchdog_seconds: float | None = None,
        max_shard_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.jobs = require_positive_int(jobs, "jobs")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ConfigurationError(
                f"watchdog_seconds must be positive or None, got "
                f"{watchdog_seconds}"
            )
        self.watchdog_seconds = watchdog_seconds
        self.max_shard_retries = require_non_negative_int(
            max_shard_retries, "max_shard_retries"
        )
        if retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry_backoff_seconds must be non-negative, got "
                f"{retry_backoff_seconds}"
            )
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self.fault_injector = fault_injector
        #: Transport of the most recent statistics() call:
        #: "in-process", "shared" — or "degraded-serial"
        #: when every shard of the call fell back to in-process
        #: execution after exhausting retries (None before any call).
        self.last_transport: str | None = None
        #: Monotonic recovery counters (see :class:`EngineHealth`).
        self.health = EngineHealth()
        self._cache = cache if cache is not None else shared_plan_cache()
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._segments: set[SharedArraySegment] = set()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def cache(self) -> PlanCache:
        """The plan cache this engine resolves configurations through."""
        return self._cache

    def plan(self, config):
        """The (cached) :class:`~repro.engine.plans.ExecutionPlan` for
        *config*."""
        return self._cache.get(config)

    def close(self) -> None:
        """Shut down the worker pool and unlink any live shared-memory
        segments (normally already reaped per call; this is the
        engine-shutdown guarantee)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while self._segments:
            self._segments.pop().destroy()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = self._mp_context
            if context is None:
                methods = mp.get_all_start_methods()
                context = mp.get_context(
                    "fork" if "fork" in methods else None
                )
            # Start the resource tracker before any worker forks: the
            # children then share the parent's tracker, so worker-side
            # shared-memory attaches dedupe into it instead of each
            # worker spinning up a private tracker that would try to
            # unlink parent-owned segments (see repro.engine.shm).
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker API drift
                pass
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._pool

    def _rebuild_pool(self) -> None:
        """Tear the worker pool down after a worker death or hang.

        ``wait=False`` so a still-hung worker cannot block recovery:
        the abandoned pool drains in the background (a sleeping worker
        exits when its current item completes) while the next
        :meth:`_ensure_pool` call starts a fresh one.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.health.pool_rebuilds += 1
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may throw
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def statistics(self, signals: np.ndarray, config) -> np.ndarray:
        """Per-trial detection statistics of a ``(trials, samples)``
        batch.

        *config* resolves the plan through the cache.  With
        ``jobs > 1`` the batch is split into contiguous shards across
        the worker pool — bitwise equal to the serial path.
        """
        signals = np.asarray(signals)
        if signals.ndim == 1:
            signals = signals[None, :]
        if signals.ndim != 2:
            raise ConfigurationError(
                f"signals must be a (trials, samples) array, got shape "
                f"{signals.shape}"
            )
        if self.fault_injector is not None:
            self.fault_injector.fire("engine.batch")
        jobs = min(self.jobs, signals.shape[0])
        if jobs > 1:
            return self._sharded_statistics(config, signals, jobs)
        self.last_transport = "in-process"
        return np.asarray(self.plan(config).statistics(signals))

    def spectra_statistics(self, spectra: np.ndarray, config) -> np.ndarray:
        """Per-trial statistics of a ``(trials, N, K)`` block-spectra
        batch.

        The spectra-domain twin of :meth:`statistics` for plans exposing
        ``statistics_from_spectra`` (the Gram-path DSCF and the
        spectra-accepting sequential backends): re-blocking and the
        N-block FFT sweep are skipped because the caller already holds
        the centered block spectra in the batch phase convention — the
        serve layer's session-resident fast path.  Statistics are
        bitwise identical to :meth:`statistics` on the raw windows the
        spectra came from.  Always runs in-process: the fast path
        exists to avoid recomputation and data movement, and a
        ``(trials, N, K)`` batch is the largest object in the request —
        sharding it would ship more bytes than the FFTs it saves.
        """
        spectra = np.asarray(spectra)
        if spectra.ndim == 2:
            spectra = spectra[None, :, :]
        if spectra.ndim != 3:
            raise ConfigurationError(
                f"spectra must be a (trials, num_blocks, fft_size) array "
                f"of centered block spectra, got shape {spectra.shape}"
            )
        if self.fault_injector is not None:
            self.fault_injector.fire("engine.batch")
        plan = self.plan(config)
        entry = getattr(plan, "statistics_from_spectra", None)
        if entry is None:
            raise ConfigurationError(
                f"the plan for backend "
                f"{getattr(plan, 'backend_name', '?')!r} has no "
                f"spectra-domain entry point (statistics_from_spectra)"
            )
        self.last_transport = "in-process"
        return np.asarray(entry(spectra))

    def _sharded_statistics(
        self, config, signals: np.ndarray, jobs: int
    ) -> np.ndarray:
        """Sharded execution with self-healing recovery.

        Shard boundaries are exactly ``np.array_split``'s, so results
        stay bitwise equal to the serial path.  Each attempt submits
        every still-pending shard; shards that raise, arrive after the
        watchdog, or die with their worker are retried with capped
        exponential backoff (the parent retains the authoritative
        trial block, so a retry replays the exact same rows through
        the same plan — bitwise identical by construction).  Worker
        death and hangs additionally rebuild the pool.  Shards still
        failing after ``max_shard_retries`` attempts degrade to
        in-process serial execution — the service answers slower, but
        it answers, and with the same bits.
        """
        # Workers resolve plans through their own per-process cache;
        # an engine whose cache retains nothing (maxsize=0, the
        # --no-cache path) propagates that choice so sharded timings
        # stay comparable to the serial cold path.
        use_cache = self._cache.maxsize > 0
        self.last_transport = "shared"
        splits = np.array_split(np.arange(signals.shape[0]), jobs)
        shards = [
            (int(rows[0]), int(rows[-1]) + 1) for rows in splits if rows.size
        ]
        results: dict[int, np.ndarray] = {}
        pending = list(range(len(shards)))
        for attempt in range(self.max_shard_retries + 1):
            if not pending:
                break
            if attempt:
                self.health.shard_retries += len(pending)
                time.sleep(
                    min(
                        self.retry_backoff_seconds * (2 ** (attempt - 1)),
                        MAX_RETRY_BACKOFF_SECONDS,
                    )
                )
            pending = self._attempt_shards(
                config, signals, shards, pending, results, use_cache
            )
        if pending:
            # Graceful degradation: the worker path is broken beyond
            # retry — replay the failed shards in-process through the
            # same plan.  Identical rows, identical plan, identical
            # bits; only the wall clock changes.
            self.health.degraded_shards += len(pending)
            plan = self.plan(config)
            for index in pending:
                start, stop = shards[index]
                results[index] = np.asarray(
                    plan.statistics(signals[start:stop])
                )
            if len(pending) == len(shards):
                self.last_transport = "degraded-serial"
        return np.concatenate(
            [results[index] for index in range(len(shards))]
        )

    def _attempt_shards(
        self,
        config,
        signals: np.ndarray,
        shards: list[tuple[int, int]],
        pending: list[int],
        results: dict[int, np.ndarray],
        use_cache: bool,
    ) -> list[int]:
        """One submission round; returns the shard indices that failed.

        The shared-memory segment is published per attempt (the first
        attempt is the fault-free fast path, so this changes nothing
        when healthy) and always destroyed before returning — a
        vanished or corrupted segment is therefore healed by the next
        attempt's fresh publish.
        """
        injector = self.fault_injector
        fault_plan = injector.plan if injector is not None else None
        segment: SharedArraySegment | None = None
        failed: list[int] = []
        broken = False
        try:
            futures: dict[int, object] = {}
            try:
                pool = self._ensure_pool()
                segment = SharedArraySegment(signals)
                self._segments.add(segment)
                if injector is not None:
                    injector.fire("shm.publish", segment=segment)
                for index in pending:
                    start, stop = shards[index]
                    tickets = (
                        injector.worker_tickets()
                        if injector is not None
                        else None
                    )
                    futures[index] = pool.submit(
                        _worker_statistics,
                        config,
                        segment.descriptor,
                        start,
                        stop,
                        use_cache,
                        fault_plan,
                        tickets,
                    )
            except (BrokenProcessPool, OSError, RuntimeError):
                # The pool died before (or while) this round was
                # submitted — e.g. a worker killed in an earlier batch.
                # Everything not yet in flight fails this attempt; the
                # rebuilt pool takes the retry.
                broken = True
                submitted = set(futures)
                for index in pending:
                    if index not in submitted:
                        self.health.shard_failures += 1
                        failed.append(index)
            for index, future in futures.items():
                try:
                    results[index] = np.asarray(
                        future.result(timeout=self.watchdog_seconds)
                    )
                except FuturesTimeoutError:
                    # A hung shard: the worker holds its pool slot
                    # indefinitely, so the pool itself is condemned.
                    self.health.shard_failures += 1
                    self.health.watchdog_timeouts += 1
                    failed.append(index)
                    broken = True
                except BrokenProcessPool:
                    self.health.shard_failures += 1
                    failed.append(index)
                    broken = True
                except Exception:
                    # Typed shard faults (ShardTransportError,
                    # InjectedFaultError) and any backend exception:
                    # the worker survived, only the shard failed.
                    self.health.shard_failures += 1
                    failed.append(index)
        finally:
            if segment is not None:
                # Unlink even when a worker raised: the kernel
                # reclaims the segment as soon as survivors detach.
                self._segments.discard(segment)
                segment.destroy()
            if broken:
                self._rebuild_pool()
        return failed

    def monte_carlo_statistics(
        self,
        signal_factory: Callable[[int], np.ndarray],
        trials: int,
        config=None,
        plan=None,
    ) -> np.ndarray:
        """Statistics over *trials* fresh realisations.

        ``signal_factory(trial_index)`` returns one observation.
        Exactly one execution source applies.  With *config* all
        realisations are drawn in the parent — per trial index, so the
        input set is independent of ``jobs`` — then executed through
        :meth:`statistics`.  With *plan* (a
        :class:`~repro.engine.plans.CallableStatisticPlan`) the engine
        instead streams one realisation at a time through
        ``plan.statistic``: constant memory, and the factory may return
        variable-length or non-ndarray observations.
        """
        trials = require_positive_int(trials, "trials")
        if (config is None) == (plan is None):
            raise ConfigurationError(
                "monte_carlo_statistics needs exactly one of config or plan"
            )
        if plan is not None:
            # One scalar per realisation, each observation handed to
            # the plan untouched — a 2-D capture stays ONE trial here.
            return np.array(
                [
                    plan.statistic(signal_factory(trial))
                    for trial in range(trials)
                ]
            )
        signals = np.stack(
            [np.asarray(signal_factory(trial)) for trial in range(trials)]
        )
        return self.statistics(signals, config=config)

    def calibrate_threshold(
        self,
        config,
        noise_factory: Callable[[int], np.ndarray] | None = None,
        pfa: float | None = None,
        trials: int | None = None,
    ) -> float:
        """Threshold at the configured (or given) Pfa, by policy.

        The one calibration entry point of the package.
        ``calibration="monte-carlo"``: the ``(1 - pfa)`` quantile
        (:func:`~repro.core.detection.calibration_quantile`) of
        noise-only statistics, sharded when ``jobs > 1`` and bitwise
        equal to the serial calibration.

        ``calibration="analytic"``: the closed-form CFAR threshold
        (:func:`repro.core.cfar.analytic_threshold`) — zero noise
        trials; *noise_factory* and *trials* are ignored.  Lattice
        backends read their geometry from this engine's own plan.
        """
        pfa = config.pfa if pfa is None else pfa
        if config.calibration == "analytic":
            return self._analytic_threshold(config, pfa)
        trials = config.calibration_trials if trials is None else trials
        if noise_factory is None:
            noise_factory = default_noise_factory(config)
        statistics = self.monte_carlo_statistics(
            noise_factory, trials, config=config
        )
        return calibration_quantile(statistics, pfa)

    def _analytic_threshold(self, config, pfa: float) -> float:
        from ..core.cfar import analytic_threshold

        return analytic_threshold(config, pfa=pfa, plan=self.plan(config))

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def map_operating_points(
        self,
        h0_factory: Callable[[int], np.ndarray],
        h1_factory: Callable[[float, int], np.ndarray],
        snrs_db,
        config=None,
        plan=None,
        pfa: float = 0.1,
        trials: int = 40,
        detector_name: str | None = None,
    ):
        """Monte-Carlo Pd-vs-SNR sweep at a fixed Pfa.

        One noise-only pass calibrates the threshold, then every SNR
        point's H1 trials run through the same (cached) plan, sharded
        when ``jobs > 1``.

        Parameters
        ----------
        h0_factory:
            ``trial -> samples`` noise-only observations (threshold
            calibration).
        h1_factory:
            ``(snr_db, trial) -> samples`` occupied-band observations.
        snrs_db:
            The SNR axis.
        config / plan:
            Execution source, as for :meth:`monte_carlo_statistics`:
            a configuration, or a
            :class:`~repro.engine.plans.CallableStatisticPlan` wrapping
            an ad-hoc detector (energy detector, matched filter).
        pfa, trials:
            False-alarm target and Monte-Carlo depth per point.
        detector_name:
            Label on the returned sweep; defaults to
            ``cyclostationary/<backend>`` when a configuration is
            given.

        Returns
        -------
        :class:`repro.analysis.sweeps.DetectionSweep`
        """
        # Deferred: analysis imports the engine for its public API.
        from ..analysis.roc import detection_probability
        from ..analysis.sweeps import DetectionSweep, SweepPoint

        pfa = validate_pfa(pfa)
        trials = require_positive_int(trials, "trials")
        if detector_name is None:
            detector_name = (
                f"cyclostationary/{config.backend}"
                if config is not None
                else "detector"
            )

        def collect(factory: Callable[[int], np.ndarray]) -> np.ndarray:
            return self.monte_carlo_statistics(
                factory, trials, config=config, plan=plan
            )

        if config is not None and config.calibration == "analytic":
            # Closed-form threshold: the sweep skips the whole
            # noise-only collection pass — the setup-cost win that
            # motivates the analytic policy (see repro.core.cfar).
            threshold = self._analytic_threshold(config, pfa)
        else:
            threshold = calibration_quantile(collect(h0_factory), pfa)
        points = []
        for snr_db in snrs_db:
            h1_statistics = collect(
                lambda trial, snr=float(snr_db): h1_factory(snr, trial)
            )
            points.append(
                SweepPoint(
                    snr_db=float(snr_db),
                    pd=detection_probability(h1_statistics, threshold),
                    threshold=threshold,
                )
            )
        return DetectionSweep(
            detector_name=detector_name, pfa=pfa, points=tuple(points)
        )
