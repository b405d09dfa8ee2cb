"""The unified execution engine: plans, cache accounting, sharding.

Pins the PR-5 contracts:

* :class:`repro.engine.PlanCache` hit/miss/eviction accounting, and
  cache-key behaviour — calibration-policy knobs share a plan, any
  geometry knob invalidates;
* :func:`repro.engine.build_plan` resolves every registered backend to
  the right plan flavour;
* sharded execution (``jobs in {1, 2, 4}``) is **bitwise** equal to
  the serial path across the dscf (vectorized), fam, ssca and
  soc-compiled backends — and on the sequential loop plan;
* the engine-calibrated thresholds and
  :meth:`~repro.engine.Engine.map_operating_points` sweeps equal their
  pre-engine counterparts bit for bit.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro._compute import TILE_BUDGET_BYTES
from repro.core.detection import calibration_quantile
from repro.engine import (
    default_noise_factory,
    MAX_TESTED_JOBS,
    BatchExecutionPlan,
    CallableStatisticPlan,
    Engine,
    LoopExecutionPlan,
    PlanCache,
    build_plan,
    plan_key,
    plan_support,
    shared_plan_cache,
)
from repro.errors import ConfigurationError, NonFiniteInputError
from repro.estimators import BatchedFAM, BatchedSSCA
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.scanner import BandScanner
from repro.signals.noise import awgn
from repro.signals.modulators import bpsk_signal
from repro.soc.compiled import CompiledSoCPlan

TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)
TINY_SOC = PipelineConfig(
    fft_size=16, num_blocks=4, m=3, backend="soc", soc_compiled=True,
    soc_tiles=2, calibration_trials=20,
)


def _signals(config, trials=6, seed=900):
    return np.stack(
        [
            awgn(config.samples_per_decision, seed=seed + trial)
            for trial in range(trials)
        ]
    )


class TestPlanKey:
    def test_backend_leads_the_key(self):
        assert plan_key(TINY)[0] == "vectorized"

    def test_calibration_policy_does_not_key(self):
        relaxed = replace(
            TINY, pfa=0.2, calibration_trials=99, calibration_seed=5,
            scan_bands=3,
        )
        assert plan_key(relaxed) == plan_key(TINY)

    def test_geometry_knobs_key(self):
        for change in (
            {"fft_size": 64},
            {"num_blocks": 16},
            {"m": 5},
            {"window": "hann"},
            {"backend": "fam"},
            {"normalize": False},
        ):
            assert plan_key(replace(TINY, **change)) != plan_key(TINY)

    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError):
            plan_key(object())


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache()
        first = cache.get(TINY)
        second = cache.get(TINY)
        assert first is second
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_calibration_knob_change_hits(self):
        cache = PlanCache()
        plan = cache.get(TINY)
        assert cache.get(replace(TINY, pfa=0.01)) is plan
        assert cache.stats.hits == 1

    def test_geometry_change_invalidates(self):
        cache = PlanCache()
        plan = cache.get(TINY)
        other = cache.get(replace(TINY, num_blocks=16))
        assert other is not plan
        assert cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        a, b, c = (
            TINY,
            replace(TINY, fft_size=64),
            replace(TINY, fft_size=128),
        )
        cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a: b becomes LRU
        cache.get(c)  # evicts b
        assert cache.stats.evictions == 1
        assert a in cache and c in cache and b not in cache

    def test_maxsize_zero_never_stores(self):
        cache = PlanCache(maxsize=0)
        first = cache.get(TINY)
        second = cache.get(TINY)
        assert first is not second
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_peek_and_clear(self):
        cache = PlanCache()
        assert cache.peek(TINY) is None
        plan = cache.get(TINY)
        assert cache.peek(TINY) is plan
        cache.clear()
        assert cache.peek(TINY) is None
        assert cache.stats.misses == 1  # counters survive clear

    def test_reset_stats_keeps_entries(self):
        cache = PlanCache()
        cache.get(TINY)
        cache.reset_stats()
        assert cache.stats.misses == 0
        assert len(cache) == 1

    def test_backend_entries(self):
        cache = PlanCache()
        cache.get(TINY)
        cache.get(replace(TINY, backend="fam"))
        assert cache.backend_entries("vectorized") == 1
        assert cache.backend_entries("fam") == 1
        assert cache.backend_entries("ssca") == 0


class TestBuildPlan:
    def test_vectorized_is_gram(self):
        plan = build_plan(TINY)
        assert isinstance(plan, BatchExecutionPlan)
        assert plan.executor is None

    def test_fam_is_lattice(self):
        plan = build_plan(replace(TINY, backend="fam"))
        assert isinstance(plan, BatchExecutionPlan)
        assert isinstance(plan.executor, BatchedFAM)

    def test_compiled_soc_is_exact(self):
        plan = build_plan(TINY_SOC)
        assert isinstance(plan, BatchExecutionPlan)
        assert isinstance(plan.executor, CompiledSoCPlan)
        assert plan.executor.dscf_exact

    def test_sequential_backends_get_loop_plans(self):
        plan = build_plan(replace(TINY, backend="reference"))
        assert isinstance(plan, LoopExecutionPlan)

    def test_interpreted_soc_gets_loop_plan(self):
        plan = build_plan(replace(TINY_SOC, soc_compiled=False))
        assert isinstance(plan, LoopExecutionPlan)

    def test_plan_support_strings(self):
        assert "Gram" in plan_support("vectorized")
        assert "lattice" in plan_support("fam")
        assert "loop" in plan_support("reference")
        assert "soc_compiled" in plan_support("soc")


class TestEngineSerial:
    def test_statistics_needs_source(self):
        with pytest.raises(TypeError):
            Engine().statistics(_signals(TINY))

    def test_matches_batch_runner(self):
        signals = _signals(TINY)
        assert np.array_equal(
            Engine().statistics(signals, config=TINY),
            Engine().plan(TINY).statistics(signals),
        )

    def test_plan_override_runs_runner(self):
        # Batch execution has one source — the configuration; ad-hoc
        # plans run through monte_carlo_statistics instead.
        with pytest.raises(TypeError):
            Engine().statistics(
                _signals(TINY), config=TINY, plan=Engine().plan(TINY)
            )
        with pytest.raises(TypeError):
            Engine().spectra_statistics(
                np.zeros((1, 8, 32), dtype=complex),
                config=TINY,
                plan=Engine().plan(TINY),
            )

    def test_callable_plan(self):
        signals = _signals(TINY, trials=4)
        plan = CallableStatisticPlan(lambda x: float(np.abs(x).sum()))
        stats = Engine().monte_carlo_statistics(
            lambda trial: signals[trial], 4, plan=plan
        )
        assert stats.shape == (4,)
        assert stats[0] == float(np.abs(signals[0]).sum())

    def test_loop_plan_matches_pipeline_statistic(self):
        config = replace(TINY, backend="reference")
        signals = _signals(config, trials=3)
        pipeline = DetectionPipeline(config)
        expected = np.array(
            [pipeline.statistic(samples) for samples in signals]
        )
        assert np.array_equal(
            Engine().statistics(signals, config=config), expected
        )

    def test_calibrate_threshold_matches_runner(self):
        factory = default_noise_factory(TINY)
        noise = np.stack(
            [factory(trial) for trial in range(TINY.calibration_trials)]
        )
        expected = calibration_quantile(
            Engine().plan(TINY).statistics(noise), TINY.pfa
        )
        assert Engine().calibrate_threshold(TINY) == expected


NON_FINITE = [complex(np.nan, 0.0), complex(1.0, np.inf)]


class TestFailClosedInput:
    """One NaN or ±inf sample is a typed error, raised before any plan
    work — never a ``nan`` statistic read as "channel free"."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_statistics(self, bad):
        engine = Engine(cache=PlanCache())
        signals = _signals(TINY, trials=3)
        signals[1, 5] = bad
        with pytest.raises(NonFiniteInputError):
            engine.statistics(signals, config=TINY)
        assert len(engine.cache) == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_spectra_statistics(self, bad):
        engine = Engine(cache=PlanCache())
        spectra = Engine().plan(TINY).block_spectra(_signals(TINY, trials=2))
        spectra[0, 2, 7] = bad
        with pytest.raises(NonFiniteInputError):
            engine.spectra_statistics(spectra, config=TINY)
        assert len(engine.cache) == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pipeline_detect(self, bad):
        pipeline = DetectionPipeline(TINY, engine=Engine(cache=PlanCache()))
        samples = _signals(TINY, trials=1)[0]
        samples[-1] = bad
        with pytest.raises(NonFiniteInputError):
            pipeline.detect(samples)
        assert pipeline.threshold is None
        assert len(pipeline.engine.cache) == 0


class TestScoringMemory:
    """Gram-path statistics stream trials through one cache-sized Gram
    buffer: no ``(T, 4M+1, 4M+1)`` slab and no ``(T, 2M+1, 2M+1)``
    surfaces tensor is ever allocated, and the block spectra are built
    one slab at a time."""

    def test_peak_bounded_by_one_slab_plus_planes(self):
        config = PipelineConfig(fft_size=256, num_blocks=8)
        trials = 480
        engine = Engine(cache=PlanCache())
        signals = _signals(config, trials=trials)
        engine.statistics(signals, config=config)  # build the plan
        gram_plane_bytes = (4 * config.m + 1) ** 2 * 16
        tracemalloc.start()
        try:
            engine.statistics(signals, config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 480 trials' (T, N, K) spectra alone are 15.7 MB; one slab
        # of the front end stays within the tile budget (4.2 MB), and
        # the bound (7.3 MB) does not grow with the trial count.
        assert peak < TILE_BUDGET_BYTES + 3 * gram_plane_bytes

    def test_concurrent_threads_score_bitwise(self):
        # Four threads score one cached plan at once, as the serve
        # layer's to_thread batches do.  The Gram grid and the Hankel
        # denominator views alias the scratch they were built on, so
        # every entry point stays bitwise equal to serial scoring only
        # while each thread keeps its own scratch.
        for precision in ("float64", "float32"):
            config = PipelineConfig(
                fft_size=64, num_blocks=8, precision=precision
            )
            engine = Engine(cache=PlanCache())
            plan = engine.plan(config)
            batches = [
                _signals(config, trials=3, seed=70 * k + 1) for k in range(4)
            ]
            results, expected = self._score_in_threads(plan, batches)
            assert engine.plan(config) is plan
            for index, runs in enumerate(results):
                assert runs == [expected[index]] * 10, precision

    @staticmethod
    def _score_in_threads(plan, batches):
        """Every entry point's bytes per batch, serially, and ten rounds
        of the same from one thread per batch, all started together."""

        def run(batch):
            spectra = plan.block_spectra(batch)
            return [
                np.ascontiguousarray(result).tobytes()
                for result in (
                    plan.statistics(batch),
                    plan.statistics_from_spectra(spectra),
                    plan.surfaces(batch),
                    plan.dscf_values(batch),
                )
            ]

        expected = [run(batch) for batch in batches]
        start = threading.Barrier(len(batches))

        def score(index):
            start.wait(timeout=60)
            return [run(batches[index]) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                results = list(
                    pool.map(score, range(len(batches)), timeout=120)
                )
        finally:
            sys.setswitchinterval(interval)
        return results, expected


def _traced_peak(run):
    """Traced allocation peak of ``run()``, less its result's bytes."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - np.asarray(result).nbytes


class TestSlabMemory:
    """Batch memory is set by the slab, not by the trial count: the
    traced peak at 4x the trials stays within one slab (the tile
    budget) of the peak at 1x, output arrays excluded: no extra trial
    may add its three (N, K) front-end tensors (or, in calibration,
    its draw) to the peak."""

    @pytest.mark.parametrize(
        "entry", ["statistics", "surfaces", "dscf_values"]
    )
    @pytest.mark.parametrize(
        "backend, fft_size", [("vectorized", 256), ("fam", 64)]
    )
    def test_batch_entry_points(self, backend, fft_size, entry):
        config = PipelineConfig(
            fft_size=fft_size, num_blocks=32, backend=backend
        )
        engine = Engine(cache=PlanCache())
        plan = engine.plan(config)
        if entry == "statistics":
            def run(signals):
                return engine.statistics(signals, config=config)
        else:
            run = getattr(plan, entry)
        # Two slabs at 1x: the peak then already holds a full slab.
        small = _signals(config, trials=2 * plan.slab_trials)
        large = _signals(config, trials=8 * plan.slab_trials, seed=2000)
        run(small)  # plan constants and scoring scratch
        assert _traced_peak(lambda: run(large)) <= (
            _traced_peak(lambda: run(small)) + TILE_BUDGET_BYTES
        )

    def test_calibration(self):
        config = PipelineConfig(fft_size=256, num_blocks=32)
        engine = Engine(cache=PlanCache())
        engine.calibrate_threshold(config, trials=20)
        small = _traced_peak(
            lambda: engine.calibrate_threshold(config, trials=32)
        )
        large = _traced_peak(
            lambda: engine.calibrate_threshold(config, trials=128)
        )
        assert large <= small + TILE_BUDGET_BYTES


def _assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(
        np.ascontiguousarray(actual).view(np.uint8),
        np.ascontiguousarray(expected).view(np.uint8),
    )


def _assert_slab_invariant(plan, signals, entry):
    """*entry*(signals) equals the stacked singleton runs, bit for bit."""
    batched = entry(plan, signals)
    singles = [entry(plan, signals[t : t + 1]) for t in range(len(signals))]
    if isinstance(batched, tuple):
        for index, part in enumerate(batched):
            _assert_same_bits(
                part, np.concatenate([single[index] for single in singles])
            )
    else:
        _assert_same_bits(batched, np.concatenate(singles))


PLAN_ENTRIES = {
    "statistics": lambda plan, s: plan.statistics(s),
    "surfaces": lambda plan, s: plan.surfaces(s),
    "dscf_values": lambda plan, s: plan.dscf_values(s),
    "block_spectra": lambda plan, s: plan.block_spectra(s),
    "statistics_from_spectra": (
        lambda plan, s: plan.statistics_from_spectra(plan.block_spectra(s))
    ),
    "surfaces_given_spectra": (
        lambda plan, s: plan.surfaces(s, spectra=plan.block_spectra(s))
    ),
    "dscf_values_given_spectra": (
        lambda plan, s: plan.dscf_values(s, spectra=plan.block_spectra(s))
    ),
}


class TestSlabBitwise:
    """Slab boundaries never move a bit: on a batch of 2.5 slabs and of
    less than one slab, every plan entry point equals per-trial
    singleton runs byte for byte."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("entry", sorted(PLAN_ENTRIES))
    def test_gram_entry_points(self, entry, precision):
        config = PipelineConfig(
            fft_size=256, num_blocks=32, precision=precision
        )
        plan = Engine(cache=PlanCache()).plan(config)
        slab = plan.slab_trials
        for trials in (slab // 2, 2 * slab + slab // 2):
            _assert_slab_invariant(
                plan, _signals(config, trials=trials), PLAN_ENTRIES[entry]
            )

    @pytest.mark.parametrize("name", ["fam", "ssca", "soc-compiled"])
    @pytest.mark.parametrize(
        "entry", ["statistics", "surfaces", "dscf_values"]
    )
    def test_executor_entry_points(self, name, entry):
        # A four-trial slab puts 2.5 slabs at ten trials: the slab loop
        # around the executor is what is under test, at any slab size.
        plan = build_plan(BITWISE_CONFIGS[name])
        plan._slab_trials = 4
        for trials in (3, 10):
            _assert_slab_invariant(
                plan,
                _signals(plan.config, trials=trials),
                PLAN_ENTRIES[entry],
            )

    def test_calibration_across_draw_slabs(self):
        # Draw slabs of 58 trials at this geometry: 150 trials span
        # three, each sharded across the pool with jobs=2.
        config = PipelineConfig(fft_size=256, num_blocks=32, hop=64)
        trials = 150
        factory = default_noise_factory(config)
        stacked = Engine(cache=PlanCache()).statistics(
            np.stack([factory(trial) for trial in range(trials)]),
            config=config,
        )
        for jobs in (1, 2):
            with Engine(jobs=jobs, cache=PlanCache()) as engine:
                _assert_same_bits(
                    engine.monte_carlo_statistics(
                        factory, trials, config=config
                    ),
                    stacked,
                )
                assert engine.calibrate_threshold(
                    config, trials=trials
                ) == calibration_quantile(stacked, config.pfa)


BITWISE_CONFIGS = {
    "dscf": TINY,
    "fam": replace(TINY, backend="fam"),
    "ssca": replace(TINY, backend="ssca"),
    "soc-compiled": TINY_SOC,
}


class TestShardedBitwiseEquality:
    """jobs in {1, 2, 4}: sharded == serial, bit for bit, per backend."""

    @pytest.mark.parametrize("name", sorted(BITWISE_CONFIGS))
    @pytest.mark.parametrize("jobs", [2, MAX_TESTED_JOBS])
    def test_statistics_shard_invariant(self, name, jobs):
        config = BITWISE_CONFIGS[name]
        signals = _signals(config)
        serial = Engine(jobs=1).statistics(signals, config=config)
        with Engine(jobs=jobs) as engine:
            sharded = engine.statistics(signals, config=config)
        assert np.array_equal(serial, sharded)

    @pytest.mark.parametrize("jobs", [2, MAX_TESTED_JOBS])
    def test_loop_plan_shards(self, jobs):
        config = replace(TINY, backend="reference", fft_size=16, m=3)
        signals = _signals(config, trials=5)
        serial = Engine(jobs=1).statistics(signals, config=config)
        with Engine(jobs=jobs) as engine:
            sharded = engine.statistics(signals, config=config)
        assert np.array_equal(serial, sharded)

    def test_more_jobs_than_trials(self):
        signals = _signals(TINY, trials=2)
        with Engine(jobs=MAX_TESTED_JOBS) as engine:
            sharded = engine.statistics(signals, config=TINY)
        assert np.array_equal(
            sharded, Engine().statistics(signals, config=TINY)
        )

    def test_sharded_calibration_threshold(self):
        serial = Engine().calibrate_threshold(TINY)
        with Engine(jobs=2) as engine:
            sharded = engine.calibrate_threshold(TINY)
        assert sharded == serial

    def test_sharded_pipeline_calibration(self):
        baseline = DetectionPipeline(TINY).calibrate()
        with Engine(jobs=2) as engine:
            threshold = DetectionPipeline(TINY, engine=engine).calibrate()
        assert threshold == baseline

    def test_runner_plan_shards_through_config(self):
        signals = _signals(TINY)
        with Engine(jobs=2) as engine:
            sharded = engine.statistics(signals, config=TINY)
        assert np.array_equal(sharded, Engine().plan(TINY).statistics(signals))

    def test_sequential_runner_is_not_shardable(self):
        # A sequential backend runs (and shards) its own loop plan; the
        # vectorised host mathematics is reached only by asking for
        # the vectorized backend explicitly.
        config = replace(TINY, backend="reference")
        signals = _signals(TINY, trials=3)
        with Engine(jobs=2) as engine:
            stats = engine.statistics(signals, config=config)
        assert np.array_equal(stats, Engine().plan(config).statistics(signals))
        host = Engine().statistics(
            signals, config=config.with_backend("vectorized")
        )
        np.testing.assert_allclose(stats, host, rtol=1e-9)


class TestMapOperatingPoints:
    def _factories(self, config):
        samples = config.samples_per_decision

        def h0(trial):
            return awgn(samples, power=1.0, seed=300 + trial)

        def h1(snr_db, trial):
            noise = awgn(samples, power=1.0, seed=400 + trial)
            user = bpsk_signal(samples, 1e6, 8, seed=500 + trial)
            return noise + np.sqrt(10 ** (snr_db / 10.0)) * user.samples

        return h0, h1

    def test_matches_pd_vs_snr_runner_path(self):
        h0, h1 = self._factories(TINY)
        per_trial = Engine().map_operating_points(
            h0, h1, [-6.0, 0.0], pfa=0.1, trials=10,
            plan=CallableStatisticPlan(DetectionPipeline(TINY).statistic),
        )
        engine = Engine().map_operating_points(
            h0, h1, [-6.0, 0.0], config=TINY, pfa=0.1, trials=10
        )
        assert engine.detector_name == "cyclostationary/vectorized"
        assert [p.pd for p in engine.points] == [p.pd for p in per_trial.points]
        assert engine.points[0].threshold == per_trial.points[0].threshold

    def test_sharded_sweep_bitwise(self):
        h0, h1 = self._factories(TINY)
        serial = Engine().map_operating_points(
            h0, h1, [-3.0], config=TINY, trials=10
        )
        with Engine(jobs=2) as engine:
            sharded = engine.map_operating_points(
                h0, h1, [-3.0], config=TINY, trials=10
            )
        assert sharded.points[0].threshold == serial.points[0].threshold
        assert sharded.points[0].pd == serial.points[0].pd

    def test_callable_plan_sweep(self):
        h0, h1 = self._factories(TINY)
        sweep = Engine().map_operating_points(
            h0,
            h1,
            [0.0],
            plan=CallableStatisticPlan(
                lambda x: float(np.mean(np.abs(x) ** 2))
            ),
            trials=10,
            detector_name="energy-ish",
        )
        assert sweep.detector_name == "energy-ish"
        assert 0.0 <= sweep.points[0].pd <= 1.0


class TestScannerWithEngine:
    def test_scan_statistics_shard_invariant(self):
        config = replace(TINY, scan_bands=4)
        scanner = BandScanner(config)
        capture = awgn(scanner.required_samples, seed=77)
        bands = scanner.channelize(capture)
        baseline = scanner.band_statistics(bands)
        with Engine(jobs=2) as engine:
            sharded_scanner = BandScanner(config, engine=engine)
            sharded = sharded_scanner.band_statistics(bands)
        assert np.array_equal(baseline, sharded)

    def test_full_scan_agrees(self):
        config = replace(TINY, scan_bands=4)
        scanner = BandScanner(config)
        capture = awgn(scanner.required_samples, seed=78)
        baseline = scanner.scan(capture, classify=False)
        with Engine(jobs=2) as engine:
            sharded = BandScanner(config, engine=engine).scan(
                capture, classify=False
            )
        assert sharded.threshold == baseline.threshold
        assert [b.statistic for b in sharded.bands] == [
            b.statistic for b in baseline.bands
        ]


class TestSharedCacheIntegration:
    def test_batch_runner_reuses_shared_plan(self):
        cache = shared_plan_cache()
        config = replace(TINY, fft_size=64, num_blocks=4)
        first = Engine().plan(config)
        hits_before = cache.stats.hits
        second = Engine().plan(config)
        assert second is first
        assert cache.stats.hits == hits_before + 1

    def test_raw_sample_backend_front_end_uses_shared_plan(self):
        # A raw-sample compute takes its block spectra from the shared
        # plan's front end: one cache hit per repeat call, no new plan,
        # and bit-equal to the plan's own spectra.
        from repro.pipeline import get_backend

        cache = shared_plan_cache()
        config = replace(TINY, fft_size=64, num_blocks=4)
        signal = awgn(config.samples_per_decision, seed=21)
        backend = get_backend("vectorized")
        first = backend.compute(signal, config)
        before = cache.stats
        second = backend.compute(signal, config)
        assert cache.stats.misses == before.misses
        assert cache.stats.hits == before.hits + 1
        assert np.array_equal(
            first.values.view(np.uint64), second.values.view(np.uint64)
        )
        plan = cache.get(config)
        spectra = plan.block_spectra(signal[None])[0]
        assert np.array_equal(
            backend.compute(spectra, config).values.view(np.uint64),
            first.values.view(np.uint64),
        )

    def test_scanner_shares_one_plan_across_scans(self):
        cache = shared_plan_cache()
        config = replace(TINY, scan_bands=4, fft_size=64, num_blocks=4)
        scanner = BandScanner(config)
        plan = scanner.pipeline.engine.plan(config)
        again = BandScanner(config)
        assert again.pipeline.engine.plan(config) is plan
        assert cache.backend_entries("vectorized") >= 1


class TestPerTrialStreaming:
    """The legacy monte_carlo loop contract survives the engine port."""

    def test_variable_length_factory(self):
        plan = CallableStatisticPlan(
            lambda x: float(np.abs(np.asarray(x)).sum())
        )
        stats = Engine().monte_carlo_statistics(
            lambda t: np.ones(4 + t), 3, plan=plan
        )
        assert stats.tolist() == [4.0, 5.0, 6.0]

    def test_non_ndarray_trial_objects_pass_through(self):
        from repro.core.sampling import SampledSignal

        plan = CallableStatisticPlan(lambda sig: float(sig.sample_rate_hz))
        stats = Engine().monte_carlo_statistics(
            lambda t: SampledSignal(np.ones(8), 1e6 + t), 2, plan=plan
        )
        assert stats.tolist() == [1e6, 1e6 + 1]

    def test_streaming_matches_stacked(self):
        signals = _signals(TINY, trials=4)
        plan = CallableStatisticPlan(lambda x: float(np.abs(x).max()))
        streamed = Engine().monte_carlo_statistics(
            lambda t: signals[t], 4, plan=plan
        )
        stacked = np.abs(signals).max(axis=1)
        assert np.array_equal(streamed, stacked)


class TestNoCacheSharding:
    def test_sharded_no_cache_results_match(self):
        signals = _signals(TINY)
        serial = Engine().statistics(signals, config=TINY)
        with Engine(jobs=2, cache=PlanCache(maxsize=0)) as engine:
            sharded = engine.statistics(signals, config=TINY)
            assert len(engine.cache) == 0
        assert np.array_equal(serial, sharded)


class TestCachePurityAndAmbiguity:
    """Review hardening: disabled caches stay cold (executors
    included), ambiguous calls are rejected."""

    def test_rejects_config_and_plan_together(self):
        signals = _signals(TINY, trials=2)
        plan = CallableStatisticPlan(lambda x: 0.0)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Engine().monte_carlo_statistics(
                lambda t: signals[t], 2, config=TINY, plan=plan
            )

    def test_disabled_cache_never_touches_shared_cache(self):
        config = replace(TINY, backend="reference", fft_size=16, m=3)
        shared = shared_plan_cache()
        before = (len(shared), shared.stats.lookups)
        engine = Engine(cache=PlanCache(maxsize=0))
        first = engine.plan(config)
        second = engine.plan(config)
        assert first is not second  # genuinely cold rebuilds
        assert (len(shared), shared.stats.lookups) == before

    @pytest.mark.parametrize(
        "config",
        [
            replace(TINY, backend="fam"),
            replace(TINY, backend="ssca"),
            TINY_SOC,
        ],
        ids=["fam", "ssca", "soc-compiled"],
    )
    def test_disabled_cache_rebuilds_executors(self, config):
        # The plan cache is the only cache: with it disabled, every
        # plan() call builds a new plan *and* a new backend executor.
        engine = Engine(cache=PlanCache(maxsize=0))
        first = engine.plan(config)
        second = engine.plan(config)
        assert first.executor is not second.executor
        assert isinstance(
            first.executor, (BatchedFAM, BatchedSSCA, CompiledSoCPlan)
        )
