"""The unified execution engine: plans, plan cache, sharded scheduling.

There is exactly one place where work is planned, cached and
scheduled:

* :mod:`repro.engine.plans` — the prepared, reusable form of one
  operating point: :func:`build_plan` resolves any registered backend
  to a vectorised :class:`BatchExecutionPlan` (holding the backend's
  executor, if it has one) or a sequential :class:`LoopExecutionPlan`,
  and :func:`spectra_refusal` is the one rule for scoring a
  configuration straight from block spectra;
* :mod:`repro.engine.cache` — the LRU :class:`PlanCache` with
  hit/miss accounting (the only plan cache: backends keep none of
  their own), and the process-wide :func:`shared_plan_cache` every
  engine defaults to;
* :mod:`repro.engine.engine` — the :class:`Engine` front-end running
  plans over trial batches in-process or sharded across a worker pool
  (``jobs=N``, bitwise equal to serial execution), and the one entry
  point for threshold calibration (:meth:`Engine.calibrate_threshold`);
* :mod:`repro.engine.shm` — the zero-copy shard transport: trial
  blocks published once via ``multiprocessing.shared_memory``, workers
  attaching read-only views (O(config) bytes per shard on the pipe).

:class:`~repro.pipeline.DetectionPipeline`, the
:class:`~repro.scanner.BandScanner`, the serve layer and the analysis
sweeps are all thin consumers of this layer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cache": (
            "PLAN_KEY_FIELDS",
            "PlanCache",
            "PlanCacheStats",
            "plan_key",
            "shared_plan_cache",
        ),
        ".engine": ("Engine", "EngineHealth", "available_cpus"),
        ".plans": (
            "MAX_TESTED_JOBS",
            "BatchExecutionPlan",
            "CallableStatisticPlan",
            "LoopExecutionPlan",
            "build_plan",
            "default_noise_factory",
            "plan_support",
            "spectra_refusal",
        ),
        ".shm": ("SharedArrayDescriptor", "SharedArraySegment"),
    },
)

__all__ = [
    "PLAN_KEY_FIELDS",
    "MAX_TESTED_JOBS",
    "BatchExecutionPlan",
    "CallableStatisticPlan",
    "Engine",
    "EngineHealth",
    "LoopExecutionPlan",
    "PlanCache",
    "PlanCacheStats",
    "SharedArrayDescriptor",
    "SharedArraySegment",
    "available_cpus",
    "build_plan",
    "default_noise_factory",
    "plan_key",
    "plan_support",
    "shared_plan_cache",
    "spectra_refusal",
]
