"""Estimator backends: one DSCF computation, many execution substrates.

The paper's central claim is that the *same* Discrete Spectral
Correlation Function can be realised on very different engines — a
literal reference evaluation, vectorised software, a streaming
hardware-style accumulator, and the 4-tile Montium SoC.  This module
makes that claim executable: every substrate is an
:class:`EstimatorBackend` registered by name, producing a
:class:`~repro.core.scf.DSCFResult` from the same inputs, and the
cross-backend parity tests assert they agree.

Backends accept either raw samples (a 1-D array or
:class:`~repro.core.sampling.SampledSignal`) or precomputed centered
block spectra (a 2-D ``(N, K)`` array), so pipelines that already hold
the spectra — e.g. for coherence normalisation — never recompute them.

Registry
--------
>>> from repro.pipeline import available_backends, get_backend
>>> available_backends()
('reference', 'soc', 'streaming', 'vectorized')
>>> backend = get_backend("streaming")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.fourier import block_spectra
from ..core.sampling import SampledSignal
from ..core.scf import DSCFResult, StreamingDSCF, compute_dscf, dscf_reference
from ..engine.cache import PlanCache
from ..errors import ConfigurationError
from .config import PipelineConfig


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution substrate can do, for dispatch decisions.

    Attributes
    ----------
    supports_batch:
        The computation vectorises across independent trials, so the
        engine builds a :class:`~repro.engine.BatchExecutionPlan`.
    supports_streaming:
        Blocks can be integrated one at a time (hardware-style).
    accepts_spectra:
        ``compute`` also takes precomputed ``(N, K)`` block spectra, so
        pipelines can share one spectra pass across stages.
    cycle_accurate:
        The backend also produces platform cycle counts.
    description:
        One-line summary shown by ``repro-cfd backends``.
    complexity:
        Complexity class / resolution note shown by ``repro-cfd
        backends`` (e.g. ``"O(N (2M+1)^2)"``).
    dscf_exact:
        The backend evaluates expression 3 exactly on the ``(f, a)``
        grid; full-plane estimators (FAM, SSCA) resample their own
        lattice onto that grid instead, so value-level parity tests
        must skip them and compare peak locations.
    """

    supports_batch: bool
    supports_streaming: bool
    accepts_spectra: bool
    cycle_accurate: bool
    description: str
    complexity: str = ""
    dscf_exact: bool = True


@runtime_checkable
class EstimatorBackend(Protocol):
    """Protocol every registered DSCF estimator implements.

    Backends that keep per-run state (like :class:`SoCBackend`'s
    ``last_run``) may additionally expose ``fresh() -> EstimatorBackend``;
    :class:`~repro.pipeline.DetectionPipeline` then takes a private
    instance per pipeline instead of sharing the registered one.
    """

    name: str
    capabilities: BackendCapabilities

    def compute(
        self,
        signal: SampledSignal | np.ndarray,
        config: PipelineConfig,
    ) -> DSCFResult:
        """Estimate the DSCF of *signal* at *config*'s operating point.

        *signal* is raw samples (1-D) or centered block spectra (2-D).
        """
        ...  # pragma: no cover - protocol


def _split_input(
    signal: SampledSignal | np.ndarray, config: PipelineConfig
) -> tuple[np.ndarray, float | None]:
    """Resolve *signal* into centered ``(N, K)`` spectra + sample rate."""
    sample_rate = config.sample_rate_hz
    if isinstance(signal, SampledSignal):
        sample_rate = signal.sample_rate_hz
        signal = signal.samples
    array = np.asarray(signal)
    if array.ndim == 2:
        if array.shape != (config.num_blocks, config.fft_size):
            raise ConfigurationError(
                f"precomputed spectra must have shape "
                f"({config.num_blocks}, {config.fft_size}), got {array.shape}"
            )
        return np.asarray(array, dtype=np.complex128), sample_rate
    spectra = block_spectra(
        array,
        config.fft_size,
        num_blocks=config.num_blocks,
        hop=config.hop,
        window=config.window,
    )
    return spectra, sample_rate


def _require_samples(
    signal: SampledSignal | np.ndarray, backend_name: str
) -> tuple[np.ndarray, float | None]:
    sample_rate = (
        signal.sample_rate_hz if isinstance(signal, SampledSignal) else None
    )
    samples = (
        signal.samples if isinstance(signal, SampledSignal) else np.asarray(signal)
    )
    if samples.ndim != 1:
        raise ConfigurationError(
            f"the {backend_name!r} backend operates on raw samples and "
            f"cannot accept precomputed spectra (got a {samples.ndim}-D array)"
        )
    return samples, sample_rate


class ReferenceBackend:
    """Literal triple-loop evaluation of expression 3 — slow, exact.

    The ground truth every other backend is verified against.
    """

    name = "reference"
    capabilities = BackendCapabilities(
        supports_batch=False,
        supports_streaming=False,
        accepts_spectra=True,
        cycle_accurate=False,
        description="literal triple-loop DSCF (ground truth)",
        complexity="O(N (2M+1)^2) python-loop, df=fs/K, da=2fs/K",
    )

    def compute(
        self, signal: SampledSignal | np.ndarray, config: PipelineConfig
    ) -> DSCFResult:
        spectra, sample_rate = _split_input(signal, config)
        values = dscf_reference(spectra, m=config.m)
        return DSCFResult(
            values=values,
            m=config.m,
            num_blocks=config.num_blocks,
            fft_size=config.fft_size,
            sample_rate_hz=sample_rate,
        )


class VectorizedBackend:
    """Vectorised numpy estimator (`repro.core.scf.dscf`)."""

    name = "vectorized"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_streaming=False,
        accepts_spectra=True,
        cycle_accurate=False,
        description="vectorised numpy einsum estimator (production software)",
        complexity="O(N (2M+1)^2) BLAS, df=fs/K, da=2fs/K",
    )

    def compute(
        self, signal: SampledSignal | np.ndarray, config: PipelineConfig
    ) -> DSCFResult:
        spectra, sample_rate = _split_input(signal, config)
        result = compute_dscf(
            spectra,
            m=config.m,
            sample_rate_hz=sample_rate,
            precision=config.precision,
        )
        return result


class StreamingBackend:
    """Block-at-a-time accumulation mirroring the hardware integration.

    Feeds each block spectrum through a
    :class:`~repro.core.scf.StreamingDSCF`, exactly as the Montium's
    multiply-accumulate loop adds into its integration memories.
    """

    name = "streaming"
    capabilities = BackendCapabilities(
        supports_batch=False,
        supports_streaming=True,
        accepts_spectra=True,
        cycle_accurate=False,
        description="block-at-a-time accumulator (hardware-style integration)",
        complexity="O(N (2M+1)^2), df=fs/K, da=2fs/K",
    )

    def compute(
        self, signal: SampledSignal | np.ndarray, config: PipelineConfig
    ) -> DSCFResult:
        spectra, sample_rate = _split_input(signal, config)
        accumulator = StreamingDSCF(config.fft_size, m=config.m)
        for spectrum in spectra:
            accumulator.update(spectrum)
        return accumulator.result(sample_rate_hz=sample_rate)


class SoCBackend:
    """Cycle-level emulation of the paper's tiled-SoC platform.

    Routes the signal through a
    :class:`~repro.soc.runner.SoCRunner` (per-tile FFT, conjugate
    reshuffle, folded MAC sweep with inter-tile boundary exchange) and
    returns the platform's DSCF.

    With ``config.soc_compiled`` the same runner executes on the
    trace-compiled engine (:mod:`repro.soc.compiled`) — identical
    values, cycle tables and energy, replayed as vectorised NumPy —
    and :meth:`batch_plan` additionally hands the engine's
    :class:`~repro.engine.BatchExecutionPlan` a batched multi-trial
    executor so Monte-Carlo workloads run in bulk.

    :attr:`last_run` holds the :class:`~repro.soc.runner.SoCRunResult`
    of the *most recent* :meth:`compute` on this instance — read it
    immediately after the compute you care about (every
    :class:`~repro.pipeline.DetectionPipeline` gets its own instance,
    but calibration loops also go through :meth:`compute`).

    Requires the paper's operating point: non-overlapping rectangular
    blocks (``hop == fft_size``, ``window == "rectangular"``).
    """

    name = "soc"
    capabilities = BackendCapabilities(
        supports_batch=False,
        supports_streaming=True,
        accepts_spectra=False,
        cycle_accurate=True,
        description=(
            "cycle-level tiled-SoC emulation (Montium tiles + links); "
            "soc_compiled=True replays the compiled trace"
        ),
        complexity="O(N (2M+1)^2) MACs, cycle-counted, df=fs/K, da=2fs/K",
    )

    _PLAN_CACHE_LIMIT = 8

    def __init__(self) -> None:
        self.last_run = None
        self._plans = PlanCache(
            builder=self._build_plan,
            maxsize=self._PLAN_CACHE_LIMIT,
            name="soc-executors",
        )

    def fresh(self) -> "SoCBackend":
        """A private instance for one pipeline (isolates :attr:`last_run`)."""
        return SoCBackend()

    @staticmethod
    def _build_plan(config: PipelineConfig):
        # Deferred so ``import repro`` stays light: compiling the trace
        # pulls in the whole Montium compiler.
        from ..soc.compiled import CompiledSoCPlan

        return CompiledSoCPlan(config)

    @property
    def plan_cache(self) -> PlanCache:
        """The compiled-trace executor cache (hit/miss accounting
        included) — compiling a schedule interprets the full Montium
        instruction stream, so hits here matter most."""
        return self._plans

    def batch_plan(self, config: PipelineConfig):
        """The batched trace-replay :class:`~repro.engine.plans.
        TrialExecutor`, when the configuration opts in via
        ``soc_compiled``; ``None`` otherwise (the interpreter is
        inherently per-trial, so execution falls back to the loop
        plan)."""
        if not config.soc_compiled:
            return None
        return self._plans.get(config)

    def compute(
        self, signal: SampledSignal | np.ndarray, config: PipelineConfig
    ) -> DSCFResult:
        if config.hop != config.fft_size:
            raise ConfigurationError(
                "the soc backend requires non-overlapping blocks "
                f"(hop == fft_size), got hop={config.hop}"
            )
        if config.window != "rectangular":
            raise ConfigurationError(
                "the soc backend computes rectangular-window spectra, got "
                f"window={config.window!r}"
            )
        samples, sample_rate = _require_samples(signal, self.name)
        # Deferred so ``import repro`` stays light: the SoC pulls in the
        # whole cycle-level Montium simulator.
        from ..soc.config import PlatformConfig
        from ..soc.runner import SoCRunner

        platform = PlatformConfig(
            num_tiles=config.soc_tiles,
            fft_size=config.fft_size,
            m=config.m,
        )
        runner = SoCRunner(platform, compiled=config.soc_compiled)
        run = runner.run(samples, config.num_blocks)
        self.last_run = run
        if sample_rate is not None and run.dscf.sample_rate_hz is None:
            return DSCFResult(
                values=run.dscf.values,
                m=run.dscf.m,
                num_blocks=run.dscf.num_blocks,
                fft_size=run.dscf.fft_size,
                sample_rate_hz=sample_rate,
            )
        return run.dscf


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, EstimatorBackend] = {}


def register_backend(backend: EstimatorBackend) -> EstimatorBackend:
    """Register *backend* under ``backend.name`` for pipeline dispatch.

    Re-registering a name replaces the previous backend, so tests and
    extensions can override substrates.
    """
    if not isinstance(backend, EstimatorBackend):
        raise ConfigurationError(
            "backend must provide name, capabilities and compute() "
            f"(got {type(backend).__name__})"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> EstimatorBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown estimator backend {name!r}; registered: {known}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def spectra_serve_support(name: str) -> bool:
    """Whether the serve layer's spectra-reuse fast path covers *name*.

    A backend qualifies when it is serve-capable (batched or streaming
    execution), consumes precomputed ``(N, K)`` block spectra, and
    evaluates expression 3 exactly on the ``(f, a)`` grid — then a
    session's reconciled ring spectra can feed the plan layer's
    ``statistics_from_spectra`` entry point with bitwise-identical
    results.  Full-plane estimators (``fam``/``ssca``) re-channelize
    raw samples onto their own lattice and the cycle-level ``soc``
    interpreter replays raw blocks, so their serve detects keep the
    engine sample path; the per-trial ``reference`` oracle is not
    serve-capable at all.  ``repro-cfd backends`` reports this flag and
    :meth:`repro.serve.SensingService.resolve_serve_path` enforces it.
    """
    capabilities = get_backend(name).capabilities
    return (
        (capabilities.supports_batch or capabilities.supports_streaming)
        and capabilities.accepts_spectra
        and capabilities.dscf_exact
    )


register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(StreamingBackend())
register_backend(SoCBackend())
