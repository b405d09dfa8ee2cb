"""repro — reproduction of "Cyclostationary Feature Detection on a tiled-SoC".

Kokkeler, Smit, Krol, Kuper — DATE 2007.

The package is organised in layers:

* :mod:`repro.core` — the DCFD signal-processing pipeline (expressions
  1-3: sampling, block spectra, Discrete Spectral Correlation Function)
  and the detector family.
* :mod:`repro.signals` — synthetic cyclostationary waveforms and band
  scenarios standing in for real RF spectrum.
* :mod:`repro.mapping` — step 1 of the paper's methodology: dependence
  graphs, space-time transformations, systolic-array synthesis and
  folding onto Q cores.
* :mod:`repro.montium` — step 2 substrate: a cycle-level simulator of
  the Montium coarse-grain reconfigurable core.
* :mod:`repro.soc` — the tiled SoC: tile grid, inter-tile links,
  sequential and multiprocessing emulation of the 4-tile platform.
* :mod:`repro.perf` — analytic cycle/area/power models reproducing
  Table 1 and the Section 5 evaluation.
* :mod:`repro.pipeline` — the unified estimator-backend pipeline: one
  typed configuration drives the same detection chain on any
  registered substrate (reference, vectorised, SoC), with
  batched multi-trial execution for Monte-Carlo workloads.
* :mod:`repro.engine` — the unified execution engine: per-operating-
  point execution plans (prepared FFT constants, channelizer banks,
  compiled SoC schedules) behind one LRU
  :class:`~repro.engine.PlanCache`, scheduled by the
  :class:`~repro.engine.Engine` front-end in-process or sharded
  across a multi-process worker pool — bitwise equal to serial
  execution on every backend.
* :mod:`repro.estimators` — the full (f, alpha)-plane estimator
  family: a shared channelizer front-end feeding the FFT Accumulation
  Method (``fam``) and the Strip Spectral Correlation Analyzer
  (``ssca``), both registered as pipeline backends and returning
  physical-axis :class:`~repro.estimators.CyclicSpectrum` planes for
  blind (unknown-alpha) searches.
* :mod:`repro.serve` — detection-as-a-service: a long-running asyncio
  sensing service on top of the engine, with per-client chunked
  ingestion sessions (a ring of the last N block spectra, bitwise
  checkpoint/restore), a coalescing scheduler (concurrent requests
  batched into single engine calls, bounded-queue backpressure,
  per-request deadlines), a latency/coalescing metrics surface, and a
  line-delimited JSON TCP front end (``repro-cfd serve``).
* :mod:`repro.scanner` — blind wideband scanning: a polyphase
  channelizer splits a multi-emitter capture into sub-bands, every
  sub-band runs any registered backend (batched across sub-bands x
  trials), and the per-band decisions aggregate into an
  :class:`~repro.scanner.OccupancyMap` with blind modulation-class
  attribution — fed by the wideband multi-emitter scenario engine in
  :mod:`repro.signals.wideband`.

Quickstart
----------
>>> from repro import bpsk_signal, dscf_from_signal
>>> sig = bpsk_signal(256 * 64, sample_rate_hz=1e6, samples_per_symbol=8,
...                   seed=1)
>>> result = dscf_from_signal(sig, fft_size=256)
>>> result.extent            # the paper's 127 x 127 DSCF
127

Pipeline quickstart
-------------------
>>> from repro import DetectionPipeline, PipelineConfig
>>> pipeline = DetectionPipeline(PipelineConfig(fft_size=64,
...                                             num_blocks=32))
>>> pipeline.backend.name
'vectorized'
"""

from ._lazy import lazy_exports

__version__ = "1.7.0"

# Each public name resolves on first access (PEP 562), so a process
# imports only the modules that define the names it uses.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.detection": (
            "CyclostationaryFeatureDetector",
            "EnergyDetector",
            "MatchedFilterDetector",
        ),
        ".core.fourier": ("block_spectra",),
        ".core.sampling": ("SampledSignal",),
        ".core.scf": (
            "DSCFResult",
            "default_m",
            "dscf",
            "dscf_from_signal",
            "dscf_reference",
            "spectral_coherence",
        ),
        ".errors": (
            "CommunicationError",
            "ConfigurationError",
            "DeadlineExceededError",
            "MappingError",
            "MemoryAccessError",
            "ProgramError",
            "ReproError",
            "ServeError",
            "ServiceOverloadedError",
            "SessionStateError",
            "SignalError",
            "SimulationError",
        ),
        ".pipeline.backends": (
            "EstimatorBackend",
            "available_backends",
            "get_backend",
            "register_backend",
        ),
        ".pipeline.config": ("PipelineConfig",),
        ".pipeline.pipeline": ("DetectionPipeline",),
        ".engine.cache": ("PlanCache", "PlanCacheStats", "shared_plan_cache"),
        ".engine.engine": ("Engine",),
        ".engine.plans": ("build_plan",),
        ".estimators.channelizer": ("ChannelizerPlan",),
        ".estimators.fam": ("FAMEstimator",),
        ".estimators.result": ("CyclicPeak", "CyclicSpectrum"),
        ".estimators.ssca": ("SSCAEstimator",),
        ".scanner.occupancy": ("OccupancyMap",),
        ".scanner.scanner": ("BandScanner",),
        ".serve.server": ("SensingServer",),
        ".serve.service": ("SensingService",),
        ".serve.session": ("SensingSession", "serve_backends"),
        ".signals.carriers": ("amplitude_modulated_carrier",),
        ".signals.modulators": (
            "LinearModulator",
            "bpsk_signal",
            "msk_signal",
            "qam16_signal",
            "qpsk_signal",
        ),
        ".signals.noise": ("awgn", "complex_awgn_signal"),
        ".signals.ofdm": ("ofdm_signal",),
        ".signals.scenario": ("BandScenario", "LicensedUser"),
        ".signals.scfdma": ("scfdma_signal",),
        ".signals.wideband": ("EmitterSpec", "WidebandScenario", "scenario_preset"),
    },
)

__all__ = [
    "BandScanner",
    "BandScenario",
    "EmitterSpec",
    "OccupancyMap",
    "WidebandScenario",
    "scenario_preset",
    "scfdma_signal",
    "ChannelizerPlan",
    "CyclicPeak",
    "CyclicSpectrum",
    "DetectionPipeline",
    "EstimatorBackend",
    "FAMEstimator",
    "PipelineConfig",
    "SSCAEstimator",
    "available_backends",
    "get_backend",
    "register_backend",
    "CommunicationError",
    "ConfigurationError",
    "CyclostationaryFeatureDetector",
    "DeadlineExceededError",
    "SensingServer",
    "SensingService",
    "SensingSession",
    "ServeError",
    "ServiceOverloadedError",
    "SessionStateError",
    "serve_backends",
    "DSCFResult",
    "EnergyDetector",
    "LicensedUser",
    "LinearModulator",
    "MappingError",
    "MatchedFilterDetector",
    "MemoryAccessError",
    "ProgramError",
    "ReproError",
    "SampledSignal",
    "SignalError",
    "SimulationError",
    "amplitude_modulated_carrier",
    "awgn",
    "block_spectra",
    "bpsk_signal",
    "complex_awgn_signal",
    "default_m",
    "dscf",
    "dscf_from_signal",
    "dscf_reference",
    "msk_signal",
    "ofdm_signal",
    "qam16_signal",
    "qpsk_signal",
    "spectral_coherence",
    "__version__",
]
