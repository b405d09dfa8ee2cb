"""Plan caching: build once per operating point, reuse everywhere.

Every execution substrate prepares per-configuration constants before
it can process a single trial — window tapers, the expression-2 phase
table and Gram index grids for the DSCF, channelizer banks for the
full-plane estimators, the compiled Montium schedule for the SoC
backend, preallocated workspaces for all of them.  Building those
constants dominates start-up cost (compiling the SoC trace interprets
the whole instruction stream), and before this layer each consumer
grew its own ad-hoc cache.

:class:`PlanCache` is the one LRU that replaces them: plans are keyed
by :func:`plan_key` — the subset of :class:`~repro.pipeline.config.
PipelineConfig` fields a plan actually consumes (backend, K, N, M,
hop, window, grid and estimator knobs) — so configurations differing
only in calibration policy (``pfa``, ``calibration``,
``calibration_trials``, ``calibration_seed``, ``scan_bands``) share
one plan, while any geometry change invalidates the key and rebuilds.  Hit/miss/eviction
accounting is kept per cache and surfaced by ``repro-cfd backends``
and the engine benchmarks.

The module-level :func:`shared_plan_cache` is the process-wide default
every :class:`~repro.engine.Engine` draws from, so a band scan reuses
one plan across sub-bands x trials and repeated sweeps pay the build
cost once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .._util import require_non_negative_int
from ..errors import ConfigurationError

#: PipelineConfig fields a plan consumes.  Everything else (pfa,
#: calibration policy, scan_bands) is calibration-time policy that
#: never enters the prepared constants, so it deliberately does not
#: key the cache.
PLAN_KEY_FIELDS = (
    "backend",
    "fft_size",
    "num_blocks",
    "m",
    "hop",
    "window",
    "normalize",
    "cyclic_bins",
    # The cycle-frequency search strategy changes what statistics()
    # computes, so pruned and full plans must never collide.
    "alpha_search",
    "alpha_top",
    "trial_chunk",
    "soc_tiles",
    "soc_compiled",
    "fam_channels",
    "fam_hop",
    "fam_blocks",
    "ssca_channels",
    "estimator_window",
    "sample_rate_hz",
    # Precision keys the plan too: float32 plans carry complex64
    # tapers/phase tables and scipy-backed FFT namespaces, so they
    # must never collide with float64 plans in shared_plan_cache.
    "precision",
    # serve_path is deliberately absent: it picks the serving route
    # only, plans are identical either way — engine- and spectra-routed
    # requests at one geometry share a single cached plan (the serve
    # scheduler separates batch groups by request domain instead).
)


def plan_key(config) -> tuple:
    """The hashable cache key of *config*'s execution plan.

    A tuple of :data:`PLAN_KEY_FIELDS` values, ``backend`` first — two
    configurations map to the same plan exactly when every field a
    plan is built from is identical.
    """
    try:
        return tuple(getattr(config, field) for field in PLAN_KEY_FIELDS)
    except AttributeError as error:
        raise ConfigurationError(
            f"plan_key needs a PipelineConfig-like object, got "
            f"{type(config).__name__} ({error})"
        ) from None


@dataclass(frozen=True)
class PlanCacheStats:
    """A snapshot of one cache's accounting."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total :meth:`PlanCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _default_builder(config, cache=None):
    # Deferred: plans.py imports the pipeline layer, which imports this
    # module's consumers.
    from .plans import build_plan

    return build_plan(config, cache=cache)


class PlanCache:
    """LRU cache of execution plans keyed by :func:`plan_key`.

    Parameters
    ----------
    builder:
        ``config -> plan`` factory invoked on a miss; defaults to
        :func:`repro.engine.plans.build_plan`.  Backend-internal caches
        pass their own executor factories (``fam_plan``,
        ``CompiledSoCPlan``) so every plan flavour shares one caching
        implementation.
    maxsize:
        Entries retained before least-recently-used eviction.  ``0``
        disables retention entirely (every lookup builds afresh) — the
        ``--no-cache`` CLI path.
    name:
        Label shown in diagnostics.
    """

    def __init__(
        self,
        builder: Callable | None = None,
        maxsize: int = 32,
        name: str = "plans",
    ) -> None:
        self.maxsize = require_non_negative_int(maxsize, "maxsize")
        self.name = str(name)
        if builder is None:
            # The default builder gets a handle on this cache so nested
            # plan lookups (a loop plan's vectorized host) resolve
            # through it — deduped when retaining, cold when disabled.
            def builder(config, _cache=self):
                return _default_builder(config, cache=_cache)

        self._builder = builder
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, config):
        """The plan for *config*, building (and caching) it on a miss."""
        key = plan_key(config)
        plan = self._entries.get(key)
        if plan is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return plan
        self._misses += 1
        plan = self._builder(config)
        if self.maxsize > 0:
            while len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = plan
        return plan

    def peek(self, config):
        """The cached plan for *config* without building or recording
        a lookup; ``None`` when absent."""
        return self._entries.get(plan_key(config))

    def __contains__(self, config) -> bool:
        return plan_key(config) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple:
        """The cached plan keys, least-recently-used first."""
        return tuple(self._entries)

    def backend_entries(self, backend_name: str) -> int:
        """How many cached plans belong to *backend_name* (the first
        :data:`PLAN_KEY_FIELDS` component of every key)."""
        return sum(1 for key in self._entries if key[0] == backend_name)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> PlanCacheStats:
        """Hit/miss/eviction accounting since construction (or the
        last :meth:`reset_stats`)."""
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def reset_stats(self) -> None:
        """Zero the counters without dropping cached plans."""
        self._hits = self._misses = self._evictions = 0

    def clear(self) -> None:
        """Drop every cached plan (counters keep accumulating)."""
        self._entries.clear()


#: The process-wide default cache (one per worker process too — each
#: sharded worker builds its own plans from the shipped configuration
#: and keeps them warm across shards).
_SHARED_CACHE = PlanCache(name="engine-shared")


def shared_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` every executor defaults to."""
    return _SHARED_CACHE
