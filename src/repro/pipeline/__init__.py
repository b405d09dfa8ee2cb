"""Unified estimator-backend pipeline.

This package is the spine that lets every consumer — CLI, analysis
sweeps, SoC experiments, benchmarks, examples — run the *same* DSCF
detection chain on interchangeable execution substrates:

* :mod:`repro.pipeline.config` — :class:`PipelineConfig`, the single
  typed object describing a sensing operating point;
* :mod:`repro.pipeline.backends` — the :class:`EstimatorBackend`
  protocol and the registered substrates (``reference``,
  ``vectorized``, ``soc``, plus the full-plane
  ``fam``/``ssca`` estimators from :mod:`repro.estimators`);
* :mod:`repro.pipeline.pipeline` — :class:`DetectionPipeline`, the
  composed scenario -> channel -> backend -> detector chain, executed
  through a :class:`~repro.engine.Engine` (whose cached plans hold the
  vectorised multi-trial mathematics).

Quickstart
----------
>>> from repro.pipeline import DetectionPipeline, PipelineConfig
>>> pipeline = DetectionPipeline(
...     PipelineConfig(fft_size=64, num_blocks=32, backend="reference"))
>>> result = pipeline.compute(samples)               # doctest: +SKIP
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backends": (
            "BackendCapabilities",
            "EstimatorBackend",
            "ReferenceBackend",
            "SoCBackend",
            "VectorizedBackend",
            "available_backends",
            "get_backend",
            "register_backend",
        ),
        ".config": ("PipelineConfig",),
        ".pipeline": ("DetectionPipeline",),
        "..estimators.backends": ("FAMBackend", "SSCABackend"),
    },
)

__all__ = [
    "FAMBackend",
    "SSCABackend",
    "BackendCapabilities",
    "DetectionPipeline",
    "EstimatorBackend",
    "PipelineConfig",
    "ReferenceBackend",
    "SoCBackend",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
