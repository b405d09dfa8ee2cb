"""Execution plans: the prepared, reusable form of one operating point.

An *execution plan* is everything a backend computes once per
configuration and reuses across every trial: the DSCF window taper,
block gather indices, the expression-2 phase table and Gram index
grids; a full-plane estimator's channelizer bank; the compiled SoC
trace.  Plans are built by :func:`build_plan`, cached by
:class:`~repro.engine.cache.PlanCache`, and executed by
:class:`~repro.engine.Engine` — in-process or sharded across a worker
pool.

Two plan classes cover every registered backend:

* :class:`BatchExecutionPlan` — the vectorised multi-trial path.  It
  carries the Gram-matrix DSCF mathematics and dispatches to a
  backend-provided *executor*
  (:class:`~repro.estimators.fam.BatchedFAM`,
  :class:`~repro.estimators.ssca.BatchedSSCA`,
  :class:`~repro.soc.compiled.CompiledSoCPlan`) when the backend
  exposes one through ``batch_plan``.
* :class:`LoopExecutionPlan` — the per-trial fallback for inherently
  sequential substrates (the literal reference loop, the streaming
  accumulator, the interpreted cycle-level SoC).  Statistics match the
  :class:`~repro.pipeline.DetectionPipeline` per-trial path bit for
  bit, so the engine can run — and shard — *any* registered backend.

Both are **stateless after construction** and **deterministic per
trial**: a trial's statistic does not depend on which other trials
share its batch, slab, or shard.  That property is what makes sharded
execution bitwise equal to the serial path (asserted by the engine
test battery for ``jobs in {1, 2, 4}``).

:class:`CallableStatisticPlan` adapts an arbitrary
``statistic(samples) -> float`` callable (e.g. an energy detector) to
the engine's per-trial Monte-Carlo driver, so ad-hoc detectors (the
energy detector, matched filters) run through the same sweeps.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np
from scipy.linalg.blas import cgemm

from ..core.scf import COHERENCE_FLOOR, DSCFResult, spectral_coherence
from ..errors import ConfigurationError
from .._compute import (
    complex_dtype,
    fft_fast_kwargs,
    fft_namespace,
    tile_trials,
)
from .._util import spawn_substreams

#: Highest worker count the bitwise-equality battery pins (see
#: ``tests/test_engine.py``); ``repro-cfd backends`` reports it.
MAX_TESTED_JOBS = 4

#: Correlation lags probed by the pruned search's coarse screen (see
#: :meth:`BatchExecutionPlan.alpha_screen`).  Lag 0 sees
#: envelope-periodic signals; the small non-zero lags see
#: constant-modulus pulse trains whose instantaneous power is flat.
PRUNE_SCREEN_LAGS = (0, 1, 2, 3)


@runtime_checkable
class ExecutionPlan(Protocol):
    """What the engine requires of a plan.

    ``statistics`` is the hot path.  Every plan is rebuildable from its
    ``config``, which is what lets the engine shard it: workers receive
    the configuration and build the same plan in their own process.
    """

    config: object
    backend_name: str

    def statistics(self, signals: np.ndarray) -> np.ndarray:
        """Per-trial detection statistics of a ``(trials, samples)``
        array."""
        ...  # pragma: no cover - protocol

    def surfaces(self, signals: np.ndarray) -> np.ndarray:
        """Per-trial ``(2M+1, 2M+1)`` detection surfaces."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class TrialExecutor(Protocol):
    """The backend-provided vectorised executor a
    :class:`BatchExecutionPlan` dispatches to (what ``batch_plan``
    returns): :class:`~repro.estimators.fam.BatchedFAM`,
    :class:`~repro.estimators.ssca.BatchedSSCA` and
    :class:`~repro.soc.compiled.CompiledSoCPlan` all conform.

    ``dscf_exact`` executors produce exact complex expression-3 values
    through ``values``; full-plane executors bin peak magnitudes
    through ``magnitudes``/``surfaces`` instead.
    """

    averaging_length: int

    def magnitudes(self, signals: np.ndarray) -> np.ndarray:
        ...  # pragma: no cover - protocol


class BatchExecutionPlan:
    """The vectorised multi-trial plan of one operating point.

    Holds every constant reused across trials — built exactly once,
    ideally via the shared :class:`~repro.engine.cache.PlanCache` —
    and amortises the per-trial cost of the DSCF:

    * **one bulk FFT** — every block of every trial goes through a
      single FFT call on a ``(trials, N, K)`` tensor;
    * **cached constants** — window taper, expression-2 phase table,
      index grids and searched-column masks are built once per
      configuration;
    * **Gram-matrix DSCF** — per trial, ``S_f^a`` is a gather from the
      ``(4M+1) x (4M+1)`` Gram matrix ``G[u, v] = sum_n X[n, c+u]
      conj(X[n, c+v])`` computed by one BLAS matmul (``u = f+a``,
      ``v = f-a``), instead of gathering an ``(N, 2M+1, 2M+1)`` tensor;
    * **trial chunking** — trials stream through in slabs of
      ``config.trial_chunk``, bounding the Gram intermediate
      independently of the trial count.

    Every per-trial slice of a batched result is bit-for-bit identical
    to running that trial alone, and independent of slab and shard
    boundaries.
    """

    def __init__(self, config) -> None:
        from ..core.windows import get_window
        from ..pipeline.backends import get_backend

        self.config = config
        self.backend_name = config.backend
        cfg = config
        # Precision policy (see repro._compute): float64 is the bitwise
        # parity reference — its constants and FFT namespace are exactly
        # the pre-policy ones — while float32 casts the plan constants
        # to single precision once here so the hot loops never promote.
        self._precision = cfg.precision
        self._cdtype = complex_dtype(cfg.precision)
        self._fft = fft_namespace(cfg.precision)
        self._taper = get_window(cfg.window, cfg.fft_size)
        starts = np.arange(cfg.num_blocks) * cfg.hop
        self._gather = starts[:, None] + np.arange(cfg.fft_size)[None, :]
        # Expression 2's absolute-time phase reference (identically 1 in
        # exact arithmetic for hop == K, but kept so batched spectra are
        # bit-for-bit equal to repro.core.fourier.block_spectra).
        self._phase = np.exp(
            -2j * np.pi * np.outer(starts, np.arange(cfg.fft_size)) / cfg.fft_size
        )
        if self._precision == "float32":
            self._taper = self._taper.astype(np.float32)
            self._phase = self._phase.astype(np.complex64)
        m = cfg.m
        center = cfg.fft_size // 2
        offsets = np.arange(-m, m + 1)
        # Gram-window bins u = f + a and v = f - a, both in [-2M, 2M].
        self._sub = np.arange(center - 2 * m, center + 2 * m + 1)
        self._gram_u = offsets[:, None] + offsets[None, :] + 2 * m
        self._gram_v = offsets[:, None] - offsets[None, :] + 2 * m
        # Full-spectrum index grids for the coherence denominator.
        self._plus = center + offsets[:, None] + offsets[None, :]
        self._minus = center + offsets[:, None] - offsets[None, :]
        if cfg.cyclic_bins is not None:
            self._columns = np.asarray([a + m for a in cfg.cyclic_bins])
        else:
            columns = np.arange(2 * m + 1)
            self._columns = columns[columns != m]
        # Backends may carry their own vectorised executor; when the
        # configured backend exposes one, surfaces and DSCF values
        # route through it instead of the Gram-matrix DSCF mathematics
        # below.  Two executor flavours exist (see TrialExecutor): the
        # full-plane estimators bin peak magnitudes onto the (f, a)
        # grid, while the compiled SoC executor marks itself
        # ``dscf_exact`` and produces exact complex expression-3
        # values, so this plan's coherence normalisation applies
        # unchanged.
        backend = get_backend(cfg.backend)
        plan_factory = getattr(backend, "batch_plan", None)
        self._executor = plan_factory(cfg) if callable(plan_factory) else None
        self._exact = bool(getattr(self._executor, "dscf_exact", False))
        # Pruned cycle-frequency search (config validation restricts it
        # to the Gram path): statistics() screens every column with the
        # cyclic autocorrelation of the block powers, then refines only
        # the strongest candidates exactly.
        self._pruned = (
            cfg.alpha_search == "pruned" and self._executor is None
        )
        self._offsets = offsets

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executor(self):
        """The backend-provided :class:`TrialExecutor`, if any."""
        return self._executor

    @property
    def searched_columns(self) -> np.ndarray:
        """Surface columns scanned by the statistic (offsets ``a != 0``,
        or ``config.cyclic_bins`` when given)."""
        return self._columns

    @property
    def averaging_length(self) -> int:
        """Blocks averaged per decision on this plan's substrate."""
        if self._executor is not None:
            return self._executor.averaging_length
        return self.config.num_blocks

    @property
    def kind(self) -> str:
        """Plan flavour: ``gram`` (host DSCF), ``exact`` (platform
        replay) or ``lattice`` (full-plane magnitude binning)."""
        if self._executor is None:
            return "gram"
        return "exact" if self._exact else "lattice"

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
        """Centered block spectra of every trial: one bulk FFT.

        Returns a ``(trials, N, K)`` tensor whose slice ``[t]`` is
        bit-for-bit equal to
        ``repro.core.fourier.block_spectra(signals[t], ...)``.
        """
        batch = self.as_batch(signals)
        if self._precision == "float64":
            blocks = batch[:, self._gather] * self._taper
            spectra = np.fft.fft(blocks, axis=2)
            spectra = spectra * self._phase
            return np.fft.fftshift(spectra, axes=2)
        # float32 fast path: the (trials, N, K) plane is processed in
        # cache-sized trial tiles through the single-precision FFT
        # namespace (scipy.fft preserves complex64; numpy's dispatch
        # would silently be slower than complex128).
        cfg = self.config
        trials = batch.shape[0]
        out = np.empty(
            (trials, cfg.num_blocks, cfg.fft_size), dtype=self._cdtype
        )
        bytes_per_trial = 3 * cfg.num_blocks * cfg.fft_size * out.itemsize
        tile = tile_trials(bytes_per_trial)
        shift = cfg.fft_size // 2
        split = cfg.fft_size - shift
        for start in range(0, trials, tile):
            stop = min(start + tile, trials)
            blocks = batch[start:stop, self._gather]
            blocks *= self._taper
            spectra = self._fft.fft(
                blocks, axis=2, **fft_fast_kwargs(self._fft)
            )
            spectra *= self._phase
            # fftshift as two direct slice assignments (no shifted
            # temporary).
            out[start:stop, :, shift:] = spectra[:, :, :split]
            out[start:stop, :, :shift] = spectra[:, :, split:]
        return out

    def dscf_values(
        self, signals: np.ndarray, spectra: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched DSCF estimates, shape ``(trials, 2M+1, 2M+1)``.

        Each trial's grid is the Gram gather described on
        :class:`BatchExecutionPlan`, streamed in
        ``config.trial_chunk`` slabs into a preallocated accumulator.
        On a full-plane backend the grid is instead the estimator
        lattice's per-cell peak magnitudes (cast to complex —
        max-binned cells have no meaningful phase); on the compiled
        SoC backend it is the platform's exact complex DSCF,
        bit-for-bit equal to a per-trial cycle-level run.
        """
        if self._executor is not None:
            batch = self.as_batch(signals)
            if self._exact:
                return self._executor.values(batch)
            return self._executor.magnitudes(batch).astype(self._cdtype)
        if spectra is None:
            spectra = self.block_spectra(signals)
        cfg = self.config
        extent = cfg.extent
        trials = spectra.shape[0]
        values = np.empty((trials, extent, extent), dtype=self._cdtype)
        windowed = spectra[:, :, self._sub]
        if self._precision == "float64":
            for start in range(0, trials, cfg.trial_chunk):
                stop = start + cfg.trial_chunk
                slab = windowed[start:stop]
                gram = np.matmul(slab.transpose(0, 2, 1), np.conj(slab))
                values[start:stop] = gram[:, self._gram_u, self._gram_v]
            # The 1/N pass runs on the gathered (2M+1)^2 grid — a 4x
            # smaller array than the full (4M+1)^2 Gram plane, and
            # elementwise division commutes with the gather, so the
            # values are bitwise unchanged.
            values /= cfg.num_blocks
            return values
        # float32 fast path: the whole Gram gather is one cgemm per
        # trial.  For X = windowed[t] (N x K'), X.T is
        # Fortran-contiguous for free, and
        # ``cgemm(alpha=1/N, a=X.T, b=X.T, trans_b='C')`` computes
        # (X.T)(X.T)^H / N = X^T conj(X) / N — the 1/N normalisation
        # folded into alpha and the conjugated operand expressed as a
        # BLAS op instead of a materialised ``conj`` copy.
        scale = 1.0 / cfg.num_blocks
        for trial in range(trials):
            transposed = windowed[trial].T
            gram = cgemm(scale, transposed, transposed, trans_b=2)
            values[trial] = gram[self._gram_u, self._gram_v]
        return values

    def surfaces(
        self, signals: np.ndarray, spectra: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-trial detection surfaces (coherence, or ``|S|`` when
        ``config.normalize`` is False)."""
        if self._executor is not None and not self._exact:
            return self._executor.surfaces(self.as_batch(signals))
        if spectra is None and self._executor is None:
            spectra = self.block_spectra(signals)
        values = self.dscf_values(signals, spectra=spectra)
        if not self.config.normalize:
            return np.abs(values)
        if spectra is None:
            # exact executor: values come from the platform replay, but
            # the coherence denominator uses the host block spectra —
            # the same convention as the per-trial pipeline path.
            spectra = self.block_spectra(signals)
        mean_square = np.mean(np.abs(spectra) ** 2, axis=1)
        denominator = np.sqrt(
            mean_square[:, self._plus] * mean_square[:, self._minus]
        )
        denominator = np.maximum(denominator, COHERENCE_FLOOR)
        return np.abs(values) / denominator

    def statistics(self, signals: np.ndarray) -> np.ndarray:
        """The detection statistic of every trial in one pass.

        Peak surface value over the searched cyclic offsets — the same
        reduction as
        :meth:`repro.core.detection.CyclostationaryFeatureDetector.statistic`.
        With ``config.alpha_search="pruned"`` the peak is instead taken
        over the exactly-refined top-scoring columns of the coarse
        cycle-frequency screen (see :meth:`pruned_search`).
        """
        if self._pruned:
            return self.pruned_search(signals)[0]
        surfaces = self.surfaces(signals)
        return surfaces[:, :, self._columns].max(axis=(1, 2))

    def statistics_from_spectra(self, spectra: np.ndarray) -> np.ndarray:
        """Detection statistics straight from centered block spectra.

        The spectra-domain twin of :meth:`statistics`: when the caller
        already holds the ``(trials, N, K)`` block spectra — e.g. a
        serve session's reconciled ring (see
        :meth:`repro.serve.SensingSession.window_spectra`) — this skips
        re-blocking and the N-block FFT sweep entirely and runs only
        the Gram gather plus coherence normalisation.  Rows that are
        bitwise equal to the matching :meth:`block_spectra` slices
        yield statistics bitwise identical to :meth:`statistics` on the
        raw window (the mathematics from the spectra onward are the
        same code path).

        Only the Gram-path plan can enter here: backend-provided
        executors (the FAM/SSCA lattices, the compiled SoC replay)
        consume raw samples, and the pruned search screens raw sample
        blocks — both raise :class:`~repro.errors.ConfigurationError`.
        """
        if self._executor is not None:
            raise ConfigurationError(
                f"backend {self.backend_name!r} executes trials from raw "
                f"samples (estimator lattice or platform replay) and has "
                f"no spectra-domain entry point"
            )
        if self._pruned:
            raise ConfigurationError(
                "alpha_search='pruned' screens raw sample blocks and has "
                "no spectra-domain entry point; use alpha_search='full'"
            )
        batch = self.as_spectra_batch(spectra)
        surfaces = self.surfaces(None, spectra=batch)
        return surfaces[:, :, self._columns].max(axis=(1, 2))

    # ------------------------------------------------------------------
    # Pruned cycle-frequency search (arXiv:0903.1183-style)
    # ------------------------------------------------------------------
    def alpha_screen(self, signals: np.ndarray) -> np.ndarray:
        """Coarse per-column cycle-frequency scores, ``(trials, cols)``.

        Column ``a`` of the DSCF is scored by the block-averaged cyclic
        autocorrelation magnitude at its cycle frequency ``2a/K``,
        probed at the few smallest correlation lags — a handful of
        FFTs of lag-product series per trial (``T * N * K log K``
        work) instead of the full ``(2M+1)^2 * N`` Gram sweep.  The
        identity behind it:

            sum_f X[f+a] conj(X[f-a]) e^{2 pi i f tau / K}
                = K * DFT_{2a}(b[n] conj(b[n - tau]))

        — each lag ``tau`` sums a column coherently under a different
        linear f-phase.  Lag 0 alone (the instantaneous-power screen)
        is blind to constant-modulus signals, whose envelope hides the
        symbol clock; small non-zero lags recover it (the lag product
        of a pulse train flips with the symbol stream), so the screen
        maximises over lags :data:`PRUNE_SCREEN_LAGS`.  Scores align
        with :attr:`searched_columns`.
        """
        cfg = self.config
        batch = self.as_batch(signals)
        blocks = batch[:, self._gather] * self._taper
        scores = None
        for lag in PRUNE_SCREEN_LAGS:
            if lag >= cfg.fft_size:
                break
            products = blocks * np.conj(np.roll(blocks, -lag, axis=2))
            cyclic = np.abs(np.fft.fft(products, axis=2).mean(axis=1))
            scores = cyclic if scores is None else np.maximum(scores, cyclic)
        columns = (2 * (self._columns - cfg.m)) % cfg.fft_size
        return scores[:, columns]

    def pruned_search(
        self, signals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Screen + refine: statistics and winning cyclic offsets.

        Returns ``(statistics, peak_offsets)``: per trial, the top
        ``config.alpha_top`` screened columns are re-evaluated with the
        exact coherence mathematics and the strongest refined cell
        supplies the statistic and its offset ``a``.  Conjugate
        symmetry makes column ``-a`` redundant with ``a`` (identical
        coherence values, mirrored in f), so refining the screened
        candidates never misses the mirrored peak; the winning offset
        is reported as its non-negative mirror ``|a|``.
        """
        batch = self.as_batch(signals)
        spectra = self.block_spectra(batch)
        scores = self.alpha_screen(batch)
        trials = batch.shape[0]
        cfg = self.config
        top = min(cfg.alpha_top, self._columns.size)
        candidates = np.argpartition(scores, -top, axis=1)[:, -top:]
        windowed = spectra[:, :, self._sub]
        if cfg.normalize:
            mean_square = np.mean(np.abs(spectra) ** 2, axis=1)
        center = cfg.fft_size // 2
        two_m = 2 * cfg.m
        statistics = np.empty(trials)
        peaks = np.empty(trials, dtype=np.int64)
        for trial in range(trials):
            offsets_a = self._columns[candidates[trial]] - cfg.m
            u = self._offsets[:, None] + offsets_a[None, :]
            v = self._offsets[:, None] - offsets_a[None, :]
            slab = windowed[trial]
            values = np.sum(
                slab[:, u + two_m] * np.conj(slab[:, v + two_m]), axis=0
            )
            values /= self.averaging_length
            surface = np.abs(values)
            if cfg.normalize:
                trial_power = mean_square[trial]
                denominator = np.sqrt(
                    trial_power[center + u] * trial_power[center + v]
                )
                surface /= np.maximum(denominator, COHERENCE_FLOOR)
            flat = int(np.argmax(surface))
            statistics[trial] = float(surface.ravel()[flat])
            peaks[trial] = abs(int(offsets_a[flat % offsets_a.size]))
        return statistics, peaks

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

    def __init__(self, config, host_cache=None) -> None:
        from ..pipeline.backends import get_backend

        self.config = config
        self.backend_name = config.backend
        registered = get_backend(config.backend)
        fresh = getattr(registered, "fresh", None)
        self._backend = fresh() if callable(fresh) else registered
        # Host-side gram plan: spectra geometry for the coherence
        # denominator, so both paths window identically.  When the
        # building cache retains plans it is
        # resolved through it (deduping with any vectorized plan at
        # this geometry); with caching disabled the host is built
        # directly so cold timings stay cold.
        host_config = config.with_backend("vectorized")
        if host_cache is not None and host_cache.maxsize > 0:
            self._spectra = host_cache.get(host_config)
        else:
            self._spectra = BatchExecutionPlan(host_config)

    @property
    def searched_columns(self) -> np.ndarray:
        """Surface columns scanned by the statistic."""
        return self._spectra.searched_columns

    @property
    def kind(self) -> str:
        """Plan flavour marker (``loop``)."""
        return "loop"

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
        backends that accept precomputed spectra (``streaming``,
        ``reference``): each trial's ``(N, K)`` rows feed the backend
        directly, so the per-trial block FFT sweep is skipped.  Rows
        bitwise equal to the host plan's :meth:`~BatchExecutionPlan.
        block_spectra` slices yield statistics bitwise identical to
        :meth:`statistics` on the raw window.  Raw-sample substrates
        (the cycle-level soc interpreter) raise
        :class:`~repro.errors.ConfigurationError`.
        """
        if not self._backend.capabilities.accepts_spectra:
            raise ConfigurationError(
                f"backend {self.backend_name!r} operates on raw samples "
                f"and has no spectra-domain entry point"
            )
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

    config = None
    backend_name = "callable"

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

    def statistics(self, signals) -> np.ndarray:
        """Apply the wrapped callable per trial row of a
        ``(trials, samples)`` batch (a 1-D array is one trial).

        Only for homogeneous stacked batches — per-trial drivers that
        may carry non-ndarray or 2-D single observations must call
        :meth:`statistic` per realisation instead (the engine's
        Monte-Carlo driver does).
        """
        signals = np.asarray(signals)
        if signals.ndim == 1:
            signals = signals[None, :]
        return np.array(
            [self.statistic(samples) for samples in signals]
        )

    def surfaces(self, signals: np.ndarray) -> np.ndarray:
        raise ConfigurationError(
            "a callable statistic has no detection surface"
        )


def build_plan(config, cache=None):
    """Build the :class:`ExecutionPlan` for one operating point.

    Batch-capable backends — and backends handing over a vectorised
    :class:`TrialExecutor` (the compiled SoC) — get a
    :class:`BatchExecutionPlan`; sequential substrates get a
    :class:`LoopExecutionPlan`.  Callers should prefer
    :func:`repro.engine.cache.shared_plan_cache` over calling this
    directly, so identical operating points share one build.

    *cache* is the :class:`~repro.engine.cache.PlanCache` invoking
    this builder (when any): nested plan lookups — the loop plan's
    vectorized host — resolve through it, so a retaining cache dedupes
    and a disabled one stays genuinely cold.
    """
    from ..pipeline.backends import get_backend

    backend = get_backend(config.backend)
    if backend.capabilities.supports_batch:
        return BatchExecutionPlan(config)
    # Probe for a backend-provided executor before building anything:
    # the probe itself is served by the backend's own executor cache,
    # so the BatchExecutionPlan constructor's second call is a hit.
    plan_factory = getattr(backend, "batch_plan", None)
    if callable(plan_factory) and plan_factory(config) is not None:
        return BatchExecutionPlan(config)
    return LoopExecutionPlan(config, host_cache=cache)


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
