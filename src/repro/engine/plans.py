"""Execution plans: the prepared, reusable form of one operating point.

An *execution plan* is everything a backend computes once per
configuration and reuses across every trial: the DSCF window taper,
block gather indices and the expression-2 phase table; a full-plane
estimator's channelizer bank; the compiled SoC trace.  Plans are built
by :func:`build_plan`, cached by :class:`~repro.engine.cache.PlanCache`,
and executed by :class:`~repro.engine.Engine` — in-process or sharded
across a worker pool.

Two plan classes cover every registered backend:

* :class:`BatchExecutionPlan` — the vectorised multi-trial path.  It
  carries the Gram-matrix DSCF mathematics and dispatches to a
  backend-provided *executor*
  (:class:`~repro.estimators.fam.BatchedFAM`,
  :class:`~repro.estimators.ssca.BatchedSSCA`,
  :class:`~repro.soc.compiled.CompiledSoCPlan`) when the backend's
  uncached ``batch_plan`` factory returns one.
* :class:`LoopExecutionPlan` — the per-trial fallback for inherently
  sequential substrates (the literal reference loop, the interpreted
  cycle-level SoC).  Statistics match the
  :class:`~repro.pipeline.DetectionPipeline` per-trial path bit for
  bit, so the engine can run — and shard — *any* registered backend.

:func:`build_plan` is the one place that decides which flavour a
configuration gets (and builds its executor, exactly once per plan);
:func:`spectra_refusal` is the one rule deciding whether a
configuration can be scored straight from block spectra.  The plan
cache holds the only copy of each plan and executor, so a disabled
cache (``PlanCache(maxsize=0)``) is genuinely cold.

Both plans are **stateless after construction** (the Gram path's
per-thread scoring scratch is overwritten in full on every use) and
**deterministic per trial**: a trial's statistic does not depend on
which other trials share its batch or shard.  That property is what
makes sharded execution bitwise equal to the serial path (asserted by
the engine test battery for ``jobs in {1, 2, 4}``).

:class:`CallableStatisticPlan` adapts an arbitrary
``statistic(samples) -> float`` callable (e.g. an energy detector) to
the engine's per-trial Monte-Carlo driver, so ad-hoc detectors (the
energy detector, matched filters) run through the same sweeps.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..core.detection import searched_columns
from ..core.fourier import block_gather, framed_spectra, phase_table
from ..core.scf import (
    DSCFResult,
    GramKernel,
    spectral_coherence,
)
from ..errors import ConfigurationError
from .._compute import complex_dtype, real_dtype, tile_trials
from .._util import spawn_substreams

#: Highest worker count the bitwise-equality battery pins (see
#: ``tests/test_engine.py``); ``repro-cfd backends`` reports it.
MAX_TESTED_JOBS = 4


class BatchExecutionPlan:
    """The vectorised multi-trial plan of one operating point.

    Holds every constant reused across trials — built exactly once,
    ideally via the shared :class:`~repro.engine.cache.PlanCache` —
    and amortises the per-trial cost of the DSCF:

    * **bulk FFTs per slab** — a batch is taken one slab of
      :attr:`slab_trials` trials at a time, and every block of the
      slab goes through one FFT call on a ``(slab, N, K)`` tensor;
    * **cached constants** — window taper, expression-2 phase table
      and searched columns are built once per configuration;
    * **Gram-matrix DSCF** — per trial, ``S_f^a`` is read from the
      ``(4M+1) x (4M+1)`` Gram matrix ``G[u, v] = sum_n X[n, c+u]
      conj(X[n, c+v])`` computed by one BLAS matmul (``u = f+a``,
      ``v = f-a``), instead of gathering an ``(N, 2M+1, 2M+1)`` tensor;
      the ``(f, a)`` grid is a strided view of ``G``;
    * **per-trial, cache-resident scoring** — one loop (:meth:`_score`)
      takes each trial from its block spectra through the Gram
      product, ``|S|``, coherence normalisation and peak while its
      planes sit in L2, inside one :class:`~repro.core.scf.GramKernel`
      per thread (1.9 MB at the paper point): no per-trial allocation,
      no index-array gather, and the statistic paths never materialise
      a ``(trials, 2M+1, 2M+1)`` tensor.

    As on the Montium tiles, the working set is sized to the local
    memory, independently of the trial count: each slab goes from the
    front end (:func:`~repro.core.fourier.framed_spectra`) through the
    scoring loop — or the executor — into its rows of the caller-sized
    output, so no ``(trials, N, K)`` tensor is built for a whole batch.
    The slab is the :func:`~repro._compute.tile_trials` share of
    :data:`~repro._compute.TILE_BUDGET_BYTES` that the front end's
    three ``(N, K)`` tensors per trial take.

    Every per-trial slice of a batched result is bit-for-bit identical
    to running that trial alone, and independent of batch order and
    shard boundaries.

    *executor* is the backend-provided vectorised executor
    :func:`build_plan` obtained from the backend's ``batch_plan``
    factory, or ``None`` for the Gram path.  Two flavours exist: the
    full-plane estimators bin peak magnitudes onto the ``(f, a)`` grid
    (``magnitudes``/``surfaces``), while the compiled SoC executor
    marks itself ``dscf_exact`` and produces exact complex expression-3
    ``values``, so this plan's coherence normalisation applies
    unchanged.
    """

    def __init__(self, config, executor=None) -> None:
        from ..core.windows import get_window

        self.config = config
        cfg = config
        # Precision policy (see repro._compute): float64 is the bitwise
        # parity reference, while float32 casts the plan constants to
        # single precision once here so the hot loops never promote.
        self._precision = cfg.precision
        self._cdtype = complex_dtype(cfg.precision)
        self._rdtype = real_dtype(cfg.precision)
        starts = np.arange(cfg.num_blocks) * cfg.hop
        self._gather = block_gather(starts, cfg.fft_size)
        self._taper = get_window(cfg.window, cfg.fft_size).astype(self._rdtype)
        self._phase = phase_table(starts, cfg.fft_size).astype(self._cdtype)
        # One front-end tile: the gather copy, FFT output and shifted
        # spectra of a trial (see framed_spectra).
        self._slab_trials = tile_trials(
            3 * self._gather.size * self._cdtype.itemsize
        )
        self._columns = searched_columns(cfg.m, cfg.cyclic_bins)
        self._executor = executor
        self._exact = bool(getattr(self._executor, "dscf_exact", False))
        self._kernels = threading.local()
        # The spectra rule is static in the config: asked once here,
        # not on every statistics_from_spectra call.
        self._spectra_refusal = spectra_refusal(config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executor(self):
        """The backend-provided vectorised executor, if any."""
        return self._executor

    @property
    def searched_columns(self) -> np.ndarray:
        """Surface columns scanned by the statistic (offsets ``a != 0``,
        or ``config.cyclic_bins`` when given)."""
        return self._columns

    @property
    def slab_trials(self) -> int:
        """Trials per slab: every batch entry point takes its trials
        this many at a time, so its working set does not grow with the
        batch."""
        return self._slab_trials

    @property
    def averaging_length(self) -> int:
        """Blocks averaged per decision on this plan's substrate."""
        if self._executor is not None:
            return self._executor.averaging_length
        return self.config.num_blocks

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------
    def as_batch(self, signals: np.ndarray) -> np.ndarray:
        """Coerce *signals* into a validated ``(trials, samples)``
        complex batch at the plan's precision."""
        array = np.asarray(signals, dtype=self._cdtype)
        if array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2:
            raise ConfigurationError(
                f"signals must be a (trials, samples) array, got shape "
                f"{array.shape}"
            )
        needed = self.config.samples_per_decision
        if array.shape[1] < needed:
            raise ConfigurationError(
                f"each trial needs {needed} samples for "
                f"{self.config.num_blocks} blocks of {self.config.fft_size}, "
                f"got {array.shape[1]}"
            )
        return array

    def as_spectra_batch(self, spectra: np.ndarray) -> np.ndarray:
        """Coerce *spectra* into a validated ``(trials, N, K)`` complex
        batch of centered block spectra at the plan's precision."""
        array = np.asarray(spectra, dtype=self._cdtype)
        if array.ndim == 2:
            array = array[None, :, :]
        cfg = self.config
        if array.ndim != 3 or array.shape[1:] != (
            cfg.num_blocks,
            cfg.fft_size,
        ):
            raise ConfigurationError(
                f"spectra must be a (trials, {cfg.num_blocks}, "
                f"{cfg.fft_size}) array of centered block spectra, got "
                f"shape {array.shape}"
            )
        return array

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def block_spectra(self, signals: np.ndarray) -> np.ndarray:
        """Centered block spectra of every trial.

        Returns a ``(trials, N, K)`` tensor whose slice ``[t]`` is
        bit-for-bit equal to
        ``repro.core.fourier.block_spectra(signals[t], ...)`` — both run
        the :func:`~repro.core.fourier.framed_spectra` kernel.  The
        scoring entry points below never call this on a whole batch:
        they take the front end one slab at a time.
        """
        return self._front_end(self.as_batch(signals))

    def _front_end(self, batch: np.ndarray) -> np.ndarray:
        return framed_spectra(
            batch, self._gather, self._taper, self._phase, self._precision
        )

    def _slabs(self, trials: int):
        """Row slices of a *trials*-row batch, :attr:`slab_trials` each."""
        step = self._slab_trials
        for start in range(0, trials, step):
            yield slice(start, min(start + step, trials))

    def _scored_planes(self, signals, spectra, stage: str) -> np.ndarray:
        """The Gram path's ``(trials, 2M+1, 2M+1)`` *stage* output
        (``"values"`` or ``"surfaces"``), scored slab by slab from the
        caller's *spectra* rows or else the front end's."""
        source = self.as_batch(signals) if spectra is None else spectra
        dtype = self._cdtype if stage == "values" else self._rdtype
        planes = self._planes(len(source), dtype)
        for rows in self._slabs(len(source)):
            slab = (
                self._front_end(source[rows]) if spectra is None
                else source[rows]
            )
            self._score(slab, **{stage: planes[rows]})
        return planes

    def dscf_values(
        self, signals: np.ndarray, spectra: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched DSCF estimates, shape ``(trials, 2M+1, 2M+1)``.

        Each trial's grid is the Gram view described on
        :class:`BatchExecutionPlan`, divided by ``N`` and written by the
        per-trial scoring loop (:meth:`_score`) straight into its slice
        of the result.
        On a full-plane backend the grid is instead the estimator
        lattice's per-cell peak magnitudes (cast to complex —
        max-binned cells have no meaningful phase); on the compiled
        SoC backend it is the platform's exact complex DSCF,
        bit-for-bit equal to a per-trial cycle-level run.
        """
        if self._executor is None:
            return self._scored_planes(signals, spectra, "values")
        batch = self.as_batch(signals)
        produce = (
            self._executor.values if self._exact
            else self._executor.magnitudes
        )
        values = self._planes(len(batch), self._cdtype)
        for rows in self._slabs(len(batch)):
            values[rows] = produce(batch[rows])
        return values

    def surfaces(
        self, signals: np.ndarray, spectra: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-trial detection surfaces (coherence, or ``|S|`` when
        ``config.normalize`` is False)."""
        if self._executor is None:
            return self._scored_planes(signals, spectra, "surfaces")
        batch = self.as_batch(signals)
        surfaces = self._planes(len(batch), self._rdtype)
        for rows in self._slabs(len(batch)):
            if not self._exact:
                surfaces[rows] = self._executor.surfaces(batch[rows])
                continue
            # exact executor: values come from the platform replay, but
            # the coherence denominator uses the host block spectra —
            # the same convention as the per-trial pipeline path.
            np.abs(self._executor.values(batch[rows]), out=surfaces[rows])
            if not self.config.normalize:
                continue
            slab = (
                self._front_end(batch[rows]) if spectra is None
                else spectra[rows]
            )
            kernel = self._kernel()
            for surface, trial_spectra in zip(surfaces[rows], slab):
                kernel.load(trial_spectra)
                kernel.normalise(surface)
        return surfaces

    def statistics(self, signals: np.ndarray) -> np.ndarray:
        """The detection statistic of every trial in one pass.

        Peak surface value over the searched cyclic offsets — the same
        reduction as
        :meth:`repro.core.detection.CyclostationaryFeatureDetector.statistic`.
        Each slab's spectra (or executor surfaces) are reduced before
        the next slab is built.  On the Gram path the peak is taken
        inside the per-trial scoring loop, so no ``(trials, 2M+1,
        2M+1)`` tensor is materialised.
        """
        batch = self.as_batch(signals)
        statistics = np.empty(len(batch), dtype=self._rdtype)
        for rows in self._slabs(len(batch)):
            if self._executor is None:
                statistics[rows] = self._score(self._front_end(batch[rows]))
            else:
                surfaces = self.surfaces(batch[rows])
                statistics[rows] = surfaces[:, :, self._columns].max(
                    axis=(1, 2)
                )
        return statistics

    def statistics_from_spectra(self, spectra: np.ndarray) -> np.ndarray:
        """Detection statistics straight from centered block spectra.

        The spectra-domain twin of :meth:`statistics`: when the caller
        already holds the ``(trials, N, K)`` block spectra — e.g. a
        serve session's reconciled ring (see
        :meth:`repro.serve.SensingSession.window_spectra`) — this skips
        re-blocking and the N-block FFT sweep entirely and runs only
        the per-trial scoring loop.  Rows that are bitwise equal to
        the matching :meth:`block_spectra` slices yield statistics
        bitwise identical to :meth:`statistics` on the raw window (the
        mathematics from the spectra onward are the same code path).

        Backends with raw-sample executors (the FAM/SSCA lattices, the
        compiled SoC replay) fail :func:`spectra_refusal` and raise
        :class:`~repro.errors.ConfigurationError`.
        """
        if self._spectra_refusal is not None:
            raise ConfigurationError(self._spectra_refusal)
        return self._score(self.as_spectra_batch(spectra))

    # ------------------------------------------------------------------
    # The per-trial scoring loop
    # ------------------------------------------------------------------
    def _planes(self, trials: int, dtype) -> np.ndarray:
        extent = self.config.extent
        return np.empty((trials, extent, extent), dtype=dtype)

    def _score(
        self,
        spectra: np.ndarray,
        values: np.ndarray | None = None,
        surfaces: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score every trial of a ``(trials, N, K)`` spectra batch.

        One cache-resident pass per trial through this thread's
        :class:`~repro.core.scf.GramKernel` (Gram plane, ``|S|`` and
        coherence normalisation into its fixed planes), then the peak
        over :attr:`searched_columns` reduces one column-max vector.
        No per-trial array is allocated and no index array is
        gathered.  Given a
        ``(trials, 2M+1, 2M+1)`` *values* or *surfaces* output, the
        loop stops at that stage and writes each trial's slice;
        otherwise it returns the per-trial statistics.

        Every step is per trial or elementwise, so each trial's
        results are bitwise independent of its batch-mates.
        """
        kernel = self._kernel()
        statistics = np.empty(spectra.shape[0], dtype=self._rdtype)
        for trial, rows in enumerate(spectra):
            kernel.correlate(rows)
            if values is not None:
                kernel.values(values[trial])
                continue
            surface = kernel.surface if surfaces is None else surfaces[trial]
            kernel.magnitude(surface)
            if self.config.normalize:
                kernel.normalise(surface)
            if surfaces is None:
                np.maximum.reduce(surface, axis=0, out=kernel.column_max)
                statistics[trial] = kernel.column_max[self._columns].max()
        return statistics

    def _kernel(self) -> GramKernel:
        """This thread's scoring kernel, built on its first use.

        It stays resident across calls instead of going back to the
        allocator, which can unmap the buffers and page-fault about a
        megabyte back in on the next call at the paper point.  A cached
        plan is shared by every thread that scores it (e.g. the serve
        layer's ``to_thread`` batches), so each thread owns a kernel.
        """
        kernel = getattr(self._kernels, "kernel", None)
        if kernel is None:
            cfg = self.config
            kernel = self._kernels.kernel = GramKernel(
                cfg.num_blocks, cfg.fft_size, cfg.m, self._precision
            )
        return kernel

    def results(self, signals: np.ndarray) -> list[DSCFResult]:
        """Batched DSCFs wrapped per trial in :class:`DSCFResult`."""
        cfg = self.config
        values = self.dscf_values(signals)
        return [
            DSCFResult(
                values=trial_values,
                m=cfg.m,
                num_blocks=self.averaging_length,
                fft_size=cfg.fft_size,
                sample_rate_hz=cfg.sample_rate_hz,
            )
            for trial_values in values
        ]


class LoopExecutionPlan:
    """Per-trial plan for inherently sequential substrates.

    Wraps a private instance of the configured backend (``fresh()``
    when offered, so shared registry state stays untouched) and
    evaluates trials one at a time — the exact mathematics of the
    :class:`~repro.pipeline.DetectionPipeline` non-batched path, so
    statistics agree bit for bit with a pipeline running the same
    backend.  The engine shards these plans like any other; the
    speedup is what the paper's parallel hardware buys, here across
    worker processes instead of tiles.
    """

    def __init__(self, config) -> None:
        from ..pipeline.backends import get_backend

        self.config = config
        registered = get_backend(config.backend)
        fresh = getattr(registered, "fresh", None)
        self._backend = fresh() if callable(fresh) else registered
        # Host-side gram plan: spectra geometry for the coherence
        # denominator, so both paths window identically.  Building it
        # is cheap (a taper, a gather and a phase table).
        self._spectra = BatchExecutionPlan(config.with_backend("vectorized"))
        self._spectra_refusal = spectra_refusal(config)

    @property
    def searched_columns(self) -> np.ndarray:
        """Surface columns scanned by the statistic."""
        return self._spectra.searched_columns

    @property
    def averaging_length(self) -> int:
        """Blocks averaged per decision."""
        return self.config.num_blocks

    def _surface(
        self, samples: np.ndarray | None, spectra: np.ndarray | None = None
    ) -> np.ndarray:
        """One trial's surface from raw *samples*, or — on a backend
        that accepts precomputed spectra — from a caller-supplied
        ``(N, K)`` *spectra* array (the spectra-domain fast path)."""
        if spectra is None:
            spectra = self._spectra.block_spectra(samples[None])[0]
        source = (
            spectra
            if self._backend.capabilities.accepts_spectra
            else samples
        )
        result = self._backend.compute(source, self.config)
        if not self.config.normalize:
            return result.magnitude()
        mean_square = np.mean(np.abs(spectra) ** 2, axis=0)
        return spectral_coherence(result, mean_square)

    def surfaces(self, signals: np.ndarray) -> np.ndarray:
        """Per-trial surfaces via the sequential backend."""
        batch = self._spectra.as_batch(signals)
        return np.stack([self._surface(samples) for samples in batch])

    def statistics(self, signals: np.ndarray) -> np.ndarray:
        """Per-trial statistics via the sequential backend."""
        batch = self._spectra.as_batch(signals)
        columns = self.searched_columns
        return np.array(
            [
                float(self._surface(samples)[:, columns].max())
                for samples in batch
            ]
        )

    def statistics_from_spectra(self, spectra: np.ndarray) -> np.ndarray:
        """Detection statistics straight from centered block spectra.

        The spectra-domain twin of :meth:`statistics` for sequential
        backends that accept precomputed spectra (``reference``): each
        trial's ``(N, K)`` rows feed the backend directly, so the
        per-trial block FFT sweep is skipped.  Rows bitwise equal to the host plan's :meth:`~BatchExecutionPlan.
        block_spectra` slices yield statistics bitwise identical to
        :meth:`statistics` on the raw window.  Raw-sample substrates
        (the cycle-level soc interpreter) fail :func:`spectra_refusal`
        and raise :class:`~repro.errors.ConfigurationError`.
        """
        if self._spectra_refusal is not None:
            raise ConfigurationError(self._spectra_refusal)
        batch = self._spectra.as_spectra_batch(spectra)
        columns = self.searched_columns
        return np.array(
            [
                float(self._surface(None, spectra=rows)[:, columns].max())
                for rows in batch
            ]
        )


class CallableStatisticPlan:
    """Adapter running an arbitrary statistic callable per trial.

    Lets :meth:`~repro.engine.Engine.monte_carlo_statistics` and
    :meth:`~repro.engine.Engine.map_operating_points` drive any
    detector exposing ``statistic(samples) -> float`` (the energy
    detector, matched filters, ad-hoc lambdas).  Closures cannot cross
    process boundaries, so the engine runs these plans in-process, and
    it streams realisations one at a time instead of stacking them (the
    callable contract allows variable-length and non-ndarray signals,
    and streaming keeps memory constant in the trial count).
    """

    def __init__(self, statistic_fn: Callable[[np.ndarray], float]) -> None:
        if not callable(statistic_fn):
            raise ConfigurationError(
                f"statistic_fn must be callable, got {statistic_fn!r}"
            )
        self._statistic_fn = statistic_fn

    def statistic(self, signal) -> float:
        """The callable applied to ONE observation, passed through
        untouched — the observation may be any object the callable
        accepts (a 1-D array, a multichannel 2-D capture, a
        :class:`~repro.core.sampling.SampledSignal`), preserving the
        legacy per-trial loop's contract exactly."""
        return float(self._statistic_fn(signal))


def build_plan(config):
    """Build the execution plan for one operating point.

    The one place that decides how a configuration executes.  The
    backend's ``batch_plan`` factory (when it has one) is called
    exactly once: an executor it returns — the FAM/SSCA lattices, the
    compiled SoC replay — goes into a :class:`BatchExecutionPlan`, as
    do batch-capable backends without one (the Gram path); sequential
    substrates get a :class:`LoopExecutionPlan`.  Callers should go
    through a :class:`~repro.engine.cache.PlanCache` (usually
    :func:`~repro.engine.cache.shared_plan_cache`) rather than calling
    this directly, so identical operating points share one build.
    """
    from ..pipeline.backends import get_backend

    backend = get_backend(config.backend)
    plan_factory = getattr(backend, "batch_plan", None)
    executor = plan_factory(config) if callable(plan_factory) else None
    if executor is not None or backend.capabilities.supports_batch:
        return BatchExecutionPlan(config, executor=executor)
    return LoopExecutionPlan(config)


def spectra_refusal(config, serving: bool = False) -> str | None:
    """Why *config* cannot be scored from centered block spectra, or
    ``None`` when it can.

    The one spectra-route rule, asked by both plans'
    ``statistics_from_spectra``,
    :meth:`repro.serve.SensingService.resolve_serve_path` and
    ``repro-cfd backends``.  It is static (capabilities and config
    fields only; no plan is built).  A config qualifies when its
    backend's ``compute`` accepts precomputed spectra — raw-sample
    substrates (FAM/SSCA lattices, compiled SoC replay, soc
    interpreter) do not.
    *serving* (a session scoring its float64 ring spectra) also
    requires float64, the only precision bitwise equal to the engine
    sample path.
    """
    from ..pipeline.backends import get_backend

    if not get_backend(config.backend).capabilities.accepts_spectra:
        return (
            f"backend {config.backend!r} executes trials from raw "
            f"samples and has no spectra-domain entry point"
        )
    if serving and config.precision != "float64":
        return (
            "serving from session spectra requires precision='float64' "
            "(session ring spectra are double precision)"
        )
    return None


def plan_support(backend_name: str) -> str:
    """Human-readable plan flavour ``repro-cfd backends`` reports.

    Probes the registered backend's capabilities without building a
    plan (building the compiled SoC schedule is expensive).
    """
    from ..pipeline.backends import get_backend

    backend = get_backend(backend_name)
    capabilities = backend.capabilities
    if backend_name == "soc":
        return (
            "batched plan (compiled trace, soc_compiled=True) "
            "or per-trial loop (interpreter)"
        )
    if not capabilities.supports_batch:
        return "per-trial loop plan"
    if not capabilities.dscf_exact:
        return "batched plan (estimator lattice)"
    return "batched plan (Gram-matrix DSCF)"


def default_noise_factory(config) -> Callable[[int], np.ndarray]:
    """Unit-power AWGN calibration trials for *config*.

    Trial *t* draws from the arithmetic substream
    ``spawn_substreams(1, base_seed=config.calibration_seed, start=t)``
    — the package-wide seeding contract (see
    :func:`repro._util.spawn_substreams`), so thresholds agree bit for
    bit wherever they are calibrated.
    """
    from ..signals.noise import awgn

    needed = config.samples_per_decision
    base = config.calibration_seed

    def factory(trial: int) -> np.ndarray:
        seed = int(spawn_substreams(1, base_seed=base, start=trial)[0])
        return awgn(needed, power=1.0, seed=seed)

    return factory
