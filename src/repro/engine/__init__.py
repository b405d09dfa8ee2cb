"""The unified execution engine: plans, plan cache, sharded scheduling.

There is exactly one place where work is planned, cached and
scheduled:

* :mod:`repro.engine.plans` — :class:`ExecutionPlan` (the prepared,
  reusable form of one operating point) and :func:`build_plan`, which
  resolves any registered backend to a vectorised
  :class:`BatchExecutionPlan` or a sequential
  :class:`LoopExecutionPlan`;
* :mod:`repro.engine.cache` — the LRU :class:`PlanCache` with
  hit/miss accounting, and the process-wide
  :func:`shared_plan_cache` every executor defaults to;
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

from .cache import (
    PLAN_KEY_FIELDS,
    PlanCache,
    PlanCacheStats,
    plan_key,
    shared_plan_cache,
)
from .engine import Engine, EngineHealth, available_cpus
from .shm import SharedArrayDescriptor, SharedArraySegment
from .plans import (
    MAX_TESTED_JOBS,
    BatchExecutionPlan,
    CallableStatisticPlan,
    ExecutionPlan,
    LoopExecutionPlan,
    TrialExecutor,
    build_plan,
    default_noise_factory,
    plan_support,
)

__all__ = [
    "PLAN_KEY_FIELDS",
    "MAX_TESTED_JOBS",
    "BatchExecutionPlan",
    "CallableStatisticPlan",
    "Engine",
    "EngineHealth",
    "ExecutionPlan",
    "LoopExecutionPlan",
    "PlanCache",
    "PlanCacheStats",
    "SharedArrayDescriptor",
    "SharedArraySegment",
    "TrialExecutor",
    "available_cpus",
    "build_plan",
    "default_noise_factory",
    "plan_key",
    "plan_support",
    "shared_plan_cache",
]
