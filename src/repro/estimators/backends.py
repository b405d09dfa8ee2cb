"""Pipeline adapters: FAM and SSCA as registered estimator backends.

The full-plane estimators plug into the same
:class:`~repro.pipeline.backends.EstimatorBackend` registry as the
DSCF substrates, under the names ``fam`` and ``ssca``:

* ``compute`` resamples the estimator's lattice onto the paper's DSCF
  ``(f, a)`` grid (max magnitude per cell), so downstream detector
  code — coherence normalisation, searched-column reduction, threshold
  test — runs unchanged;
* ``batch_plan`` hands the execution engine a vectorised multi-trial
  executor (:class:`~repro.estimators.fam.BatchedFAM` /
  :class:`~repro.estimators.ssca.BatchedSSCA`, both conforming to the
  :class:`repro.engine.plans.TrialExecutor` protocol and cached by a
  shared :class:`~repro.engine.cache.PlanCache`), which is also what
  a batch of one runs through, keeping per-trial and batched results
  bit-for-bit identical;
* ``estimate`` exposes the native full-plane
  :class:`~repro.estimators.result.CyclicSpectrum` for blind-search
  consumers (see ``examples/blind_search.py``).

Unlike the DSCF substrates these backends are *not* exact expression-3
evaluations — they trade the DSCF's spectral resolution for full-plane
coverage and finer cyclic resolution — so their capabilities carry
``dscf_exact=False`` and the cross-backend parity tests compare peak
locations, not values.

Geometry defaults are derived from the pipeline operating point:
``N' = clamp(fft_size // 4, 8, 64)`` channels (64 at the paper's
K = 256), hop ``N'/4`` for FAM, and every complete frame of the
decision window unless ``fam_blocks`` pins P.
"""

from __future__ import annotations

import numpy as np

from ..core.sampling import SampledSignal
from ..core.scf import DSCFResult
from ..engine.cache import PlanCache
from ..pipeline.backends import (
    BackendCapabilities,
    _require_samples,
    register_backend,
)
from ..pipeline.config import PipelineConfig
from .fam import BatchedFAM
from .result import CyclicSpectrum
from .ssca import BatchedSSCA

_PLAN_CACHE_LIMIT = 8


def default_estimator_channels(fft_size: int) -> int:
    """Channelizer length N' derived from the DSCF block length K.

    ``K // 4`` clamped to [8, 64]: 64 channels at the paper's K = 256
    (the standard FAM/SSCA operating point of the Versal
    implementations), shrinking with K so tiny test configurations
    still fit their decision window.
    """
    return max(8, min(64, int(fft_size) // 4))


def fam_plan(config: PipelineConfig) -> BatchedFAM:
    """Build the batched FAM executor for a pipeline operating point."""
    return BatchedFAM(
        samples_per_decision=config.samples_per_decision,
        fft_size=config.fft_size,
        m=config.m,
        num_channels=(
            config.fam_channels
            if config.fam_channels is not None
            else default_estimator_channels(config.fft_size)
        ),
        hop=config.fam_hop,
        num_blocks=config.fam_blocks,
        window=config.estimator_window,
        normalize=config.normalize,
        trial_chunk=config.trial_chunk,
        precision=config.precision,
    )


def ssca_plan(config: PipelineConfig) -> BatchedSSCA:
    """Build the batched SSCA executor for a pipeline operating point."""
    return BatchedSSCA(
        samples_per_decision=config.samples_per_decision,
        fft_size=config.fft_size,
        m=config.m,
        num_channels=(
            config.ssca_channels
            if config.ssca_channels is not None
            else default_estimator_channels(config.fft_size)
        ),
        window=config.estimator_window,
        normalize=config.normalize,
        trial_chunk=config.trial_chunk,
        precision=config.precision,
    )


class _FullPlaneBackend:
    """Shared adapter machinery for the full-plane estimator backends."""

    name = ""  # overridden

    def __init__(self) -> None:
        self._plans = PlanCache(
            builder=self._build_plan,
            maxsize=_PLAN_CACHE_LIMIT,
            name=f"{self.name or 'full-plane'}-executors",
        )

    def fresh(self):
        """A private instance for one pipeline (isolates the plan cache)."""
        return type(self)()

    def _build_plan(self, config: PipelineConfig):
        raise NotImplementedError  # pragma: no cover - abstract

    @property
    def plan_cache(self) -> PlanCache:
        """This backend's executor cache (hit/miss accounting included)."""
        return self._plans

    def batch_plan(self, config: PipelineConfig):
        """The (cached) vectorised :class:`~repro.engine.plans.
        TrialExecutor` for *config* — the hook
        :class:`~repro.engine.plans.BatchExecutionPlan` dispatches
        through."""
        return self._plans.get(config)

    def compute(
        self,
        signal: SampledSignal | np.ndarray,
        config: PipelineConfig,
    ) -> DSCFResult:
        """Full-plane estimate resampled onto the DSCF (f, a) grid.

        The returned values are the per-cell peak *magnitudes* (cast to
        complex; the phase of a max-binned cell is not meaningful), so
        ``magnitude()``/``alpha_profile()`` and the coherence
        normalisation behave exactly as for the DSCF backends.
        """
        samples, sample_rate = _require_samples(signal, self.name)
        plan = self.batch_plan(config)
        values = plan.magnitudes(samples[None])[0].astype(np.complex128)
        return DSCFResult(
            values=values,
            m=config.m,
            num_blocks=plan.averaging_length,
            fft_size=config.fft_size,
            sample_rate_hz=(
                sample_rate if sample_rate is not None else config.sample_rate_hz
            ),
        )

    def estimate(
        self,
        signal: SampledSignal | np.ndarray,
        config: PipelineConfig,
    ) -> CyclicSpectrum:
        """The native full-plane spectrum at *config*'s geometry."""
        samples, sample_rate = _require_samples(signal, self.name)
        if sample_rate is None:
            sample_rate = config.sample_rate_hz
        plan = self.batch_plan(config)
        return plan.estimator.estimate(samples, sample_rate_hz=sample_rate)


class FAMBackend(_FullPlaneBackend):
    """FFT Accumulation Method as a pipeline backend (``fam``)."""

    name = "fam"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_streaming=False,
        accepts_spectra=False,
        cycle_accurate=False,
        description="FFT Accumulation Method (full-plane, fine alpha)",
        complexity="O(N'^2 P log P), df=fs/N', da=fs/(P L)",
        dscf_exact=False,
    )

    def _build_plan(self, config: PipelineConfig) -> BatchedFAM:
        return fam_plan(config)


class SSCABackend(_FullPlaneBackend):
    """Strip Spectral Correlation Analyzer as a pipeline backend
    (``ssca``)."""

    name = "ssca"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_streaming=False,
        accepts_spectra=False,
        cycle_accurate=False,
        description="Strip Spectral Correlation Analyzer (full-plane, exhaustive alpha)",
        complexity="O(N N' log N), df=fs/N', da=fs/N",
        dscf_exact=False,
    )

    def _build_plan(self, config: PipelineConfig) -> BatchedSSCA:
        return ssca_plan(config)


register_backend(FAMBackend())
register_backend(SSCABackend())
