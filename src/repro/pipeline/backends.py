"""Estimator backends: one DSCF computation, many execution substrates.

The paper's central claim is that the *same* Discrete Spectral
Correlation Function can be realised on very different engines — a
literal reference evaluation, vectorised software, and the 4-tile
Montium SoC.  This module makes that claim executable: every
substrate is an :class:`EstimatorBackend` registered by name,
producing a :class:`~repro.core.scf.DSCFResult` from the same inputs,
and the cross-backend parity tests assert they agree.

Backends accept either raw samples (a 1-D array or
:class:`~repro.core.sampling.SampledSignal`) or precomputed centered
block spectra (a 2-D ``(N, K)`` array), so pipelines that already hold
the spectra — e.g. for coherence normalisation — never recompute them.

Backends keep no plan state of their own: a backend with a vectorised
multi-trial executor exposes it through an uncached ``batch_plan``
factory, and :func:`repro.engine.plans.build_plan` places the result in
the plan the engine's :class:`~repro.engine.PlanCache` retains.

Registry
--------
>>> from repro.pipeline import available_backends, get_backend
>>> available_backends()
('fam', 'reference', 'soc', 'ssca', 'vectorized')
>>> backend = get_backend("reference")
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.fourier import front_end_plan
from ..core.sampling import SampledSignal
from ..core.scf import DSCFResult, compute_dscf, dscf_reference
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
        pipelines can share one spectra pass across stages and the
        engine can score configurations straight from block spectra
        (see :func:`repro.engine.plans.spectra_refusal`).  Backends
        whose ``batch_plan`` hands over a raw-sample executor must
        leave it False.
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
    plan = front_end_plan(
        config.fft_size,
        config.num_blocks,
        config.hop,
        config.window,
        config.precision,
    )
    return plan.block_spectra(array)[0], sample_rate


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
    """Gram-matrix estimator (`repro.core.scf.dscf`): the kernel the
    batch plans score with, so its DSCF equals theirs bit for bit."""

    name = "vectorized"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_streaming=False,
        accepts_spectra=True,
        cycle_accurate=False,
        description="Gram-matrix BLAS estimator (production software)",
        complexity="O(N (4M+1)^2) BLAS, df=fs/K, da=2fs/K",
    )

    def compute(
        self, signal: SampledSignal | np.ndarray, config: PipelineConfig
    ) -> DSCFResult:
        spectra, sample_rate = _split_input(signal, config)
        return compute_dscf(
            spectra,
            m=config.m,
            sample_rate_hz=sample_rate,
            precision=config.precision,
        )


class SoCBackend:
    """Cycle-level emulation of the paper's tiled-SoC platform.

    Routes the signal through a
    :class:`~repro.soc.runner.SoCRunner` (per-tile FFT, conjugate
    reshuffle, folded MAC sweep with inter-tile boundary exchange) and
    returns the platform's DSCF.

    With ``config.soc_compiled`` the same runner executes on the
    trace-compiled engine (:mod:`repro.soc.compiled`) — identical
    values, cycle tables and energy, replayed as vectorised NumPy —
    and :meth:`batch_plan` additionally builds the batched multi-trial
    executor the engine's :class:`~repro.engine.BatchExecutionPlan`
    holds, so Monte-Carlo workloads run in bulk.

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

    last_run = None

    def fresh(self) -> "SoCBackend":
        """A private instance for one pipeline (isolates :attr:`last_run`)."""
        return SoCBackend()

    def batch_plan(self, config: PipelineConfig):
        """A new batched trace-replay executor
        (:class:`~repro.soc.compiled.CompiledSoCPlan`) when the
        configuration opts in via ``soc_compiled``; ``None`` otherwise
        (the interpreter is inherently per-trial, so execution falls
        back to the loop plan).  Uncached: the engine's plan cache
        retains the plan holding it."""
        if not config.soc_compiled:
            return None
        # Deferred so ``import repro`` stays light: compiling the trace
        # pulls in the whole Montium compiler.
        from ..soc.compiled import CompiledSoCPlan

        return CompiledSoCPlan(config)

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

# The built-in substrates by name, each instantiated (and its module
# imported) on its first lookup: listing them imports nothing, and a
# serve process never loads the full-plane estimators.
_BUILTINS = {
    "fam": ("repro.estimators.backends", "FAMBackend"),
    "reference": (__name__, "ReferenceBackend"),
    "soc": (__name__, "SoCBackend"),
    "ssca": ("repro.estimators.backends", "SSCABackend"),
    "vectorized": (__name__, "VectorizedBackend"),
}


def register_backend(backend: EstimatorBackend) -> EstimatorBackend:
    """Register *backend* under ``backend.name`` for pipeline dispatch.

    Re-registering a name replaces the previous backend (a built-in
    one included), so tests and extensions can override substrates.
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
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    if name not in _BUILTINS:
        raise ConfigurationError(
            f"unknown estimator backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        )
    module, cls = _BUILTINS[name]
    return _REGISTRY.setdefault(name, getattr(import_module(module), cls)())


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY.keys() | _BUILTINS.keys()))
