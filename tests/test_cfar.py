"""Analytic CFAR calibration and the pruned cycle-frequency search.

Three batteries:

* **Analytic-vs-Monte-Carlo agreement** — for every serve-capable
  backend (vectorized / fam / ssca / soc-compiled) and both precisions,
  the closed-form threshold's realized false-alarm rate on a large
  noise-only batch must sit inside a pinned band around the target
  (tight for the exact Gram law, looser-but-conservative for the
  channelizer laws), with zero calibration trials.
* **Calibration-correctness bugfixes** — the unified quantile rule
  (per-trial loop, batched, engine: bit-identical), the under-sampled
  calibration warning, and the serve threshold-cache policy key.
* **Pruned search** — finds the full sweep's peak cyclic offset (and
  statistic) on the golden K=256 operating point; full-sweep outputs
  stay bitwise unchanged by the knob's existence.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.cfar import (
    GRAM_BACKENDS,
    NullModel,
    analytic_threshold,
    null_model,
)
from repro.core.detection import calibration_quantile
from repro.engine import (
    CallableStatisticPlan,
    Engine,
    PlanCache,
    default_noise_factory,
    shared_plan_cache,
)
from repro.errors import CalibrationWarning, ConfigurationError
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.scanner import BandScanner
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn


def _noise_batch(config: PipelineConfig, trials: int) -> np.ndarray:
    rng = np.random.default_rng(987_654)
    return np.stack(
        [
            awgn(config.samples_per_decision, power=1.0, rng=rng)
            for _ in range(trials)
        ]
    )


# ---------------------------------------------------------------------------
# Analytic-vs-MC agreement battery
# ---------------------------------------------------------------------------
#: (backend kwargs, realized-Pfa band as multiples of the target).
#: The Gram law is exact (tight band); the FAM/SSCA overlap corrections
#: bound inter-cell dependence from above, so their realized Pfa may
#: run conservative (low) but must never exceed the target band.
AGREEMENT_CASES = [
    pytest.param(dict(backend="vectorized"), (0.5, 1.6), id="vectorized-f64"),
    pytest.param(
        dict(backend="vectorized", precision="float32"),
        (0.5, 1.6),
        id="vectorized-f32",
    ),
    pytest.param(dict(backend="fam"), (0.25, 1.6), id="fam-f64"),
    pytest.param(
        dict(backend="fam", precision="float32"), (0.25, 1.6), id="fam-f32"
    ),
    pytest.param(dict(backend="ssca"), (0.4, 1.7), id="ssca-f64"),
    pytest.param(
        dict(backend="ssca", precision="float32"), (0.4, 1.7), id="ssca-f32"
    ),
    pytest.param(
        dict(backend="soc", soc_compiled=True, fft_size=32),
        (0.4, 1.8),
        id="soc-compiled",
    ),
]


@pytest.mark.parametrize("kwargs, band", AGREEMENT_CASES)
def test_analytic_realized_pfa_matches_target(kwargs, band):
    kwargs.setdefault("fft_size", 64)
    config = PipelineConfig(
        num_blocks=8, pfa=0.1, calibration="analytic", **kwargs
    )
    threshold = DetectionPipeline(config).calibrate()
    assert 0.0 < threshold < 1.0
    trials = 400
    statistics = Engine().plan(config).statistics(
        _noise_batch(config, trials)
    )
    realized = float(np.mean(statistics > threshold))
    low, high = band
    assert config.pfa * low <= realized <= config.pfa * high, (
        f"realized Pfa {realized:.4f} outside "
        f"[{config.pfa * low:.4f}, {config.pfa * high:.4f}] "
        f"(threshold {threshold:.4f})"
    )


def test_analytic_realized_pfa_paper_operating_point():
    """The golden K=256 point: exact Gram law at the paper geometry."""
    config = PipelineConfig(
        fft_size=256, num_blocks=8, pfa=0.1, calibration="analytic"
    )
    threshold = DetectionPipeline(config).calibrate()
    statistics = Engine().plan(config).statistics(_noise_batch(config, 300))
    realized = float(np.mean(statistics > threshold))
    assert 0.05 <= realized <= 0.16


def test_analytic_matches_monte_carlo_quantile():
    """Analytic and MC thresholds agree on the same operating point."""
    config = PipelineConfig(fft_size=64, num_blocks=8, pfa=0.1)
    plan = Engine().plan(config)
    statistics = plan.statistics(_noise_batch(config, 500))
    mc = calibration_quantile(statistics, config.pfa)
    analytic = analytic_threshold(config)
    assert analytic == pytest.approx(mc, rel=0.03)


def test_analytic_needs_zero_trials():
    """The analytic policy never invokes the noise factory."""
    calls = []

    def factory(trial: int) -> np.ndarray:
        calls.append(trial)
        return awgn(64 * 8, power=1.0, seed=trial)

    config = PipelineConfig(
        fft_size=64, num_blocks=8, calibration="analytic"
    )
    pipeline = DetectionPipeline(config)
    threshold = pipeline.calibrate(noise_factory=factory, trials=100)
    assert calls == []
    assert pipeline.threshold == threshold
    with Engine() as engine:
        assert engine.calibrate_threshold(
            config, noise_factory=factory
        ) == pytest.approx(threshold)
    assert calls == []


@pytest.mark.parametrize("backend", ["fam", "ssca"])
def test_analytic_lattice_calibration_uses_the_engines_plan_cache(backend):
    """A lattice null model reads its geometry from the engine's own
    plan: a private-cache (``--no-cache``-style) engine builds the plan
    in its cache and never warms the process-wide one."""
    config = PipelineConfig(
        fft_size=64, num_blocks=11, backend=backend, calibration="analytic"
    )
    shared = shared_plan_cache()
    assert config not in shared
    engine = Engine(cache=PlanCache())
    threshold = engine.calibrate_threshold(config)
    assert config in engine.cache
    assert config not in shared
    sweep = engine.map_operating_points(
        lambda trial: awgn(config.samples_per_decision, seed=trial),
        lambda snr, trial: awgn(config.samples_per_decision, seed=trial),
        [0.0],
        config=config,
        pfa=config.pfa,
        trials=20,
    )
    assert sweep.points[0].threshold == threshold
    assert config not in shared


def test_gram_model_distinct_pair_count():
    """Full search: (2M+1) * M distinct unordered bin pairs."""
    config = PipelineConfig(fft_size=64, num_blocks=8)
    model = null_model(config)
    m = config.m
    assert model.cells == (2 * m + 1) * m
    assert model.averaging == config.num_blocks

    subset = PipelineConfig(
        fft_size=64, num_blocks=8, cyclic_bins=(3, 7)
    )
    sub_model = null_model(subset)
    # Two non-mirrored columns: every (f, a) cell is a distinct pair.
    assert sub_model.cells == 2 * (2 * m + 1)
    mirrored = PipelineConfig(
        fft_size=64, num_blocks=8, cyclic_bins=(-3, 3)
    )
    # A mirrored pair of columns shares every coherence value.
    assert null_model(mirrored).cells == (2 * m + 1)


def test_null_model_round_trip():
    model = NullModel(
        cells=1000.0, averaging=8.0, backend="vectorized", family="gram"
    )
    for pfa in (0.01, 0.05, 0.2):
        threshold = model.threshold(pfa)
        assert model.realized_pfa(threshold) == pytest.approx(pfa, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(window="hann"), "rectangular"),
        (dict(hop=32), "hop"),
        (dict(normalize=False), "normalize"),
        (dict(num_blocks=1), "num_blocks"),
    ],
)
def test_analytic_rejects_unmodelled_gram_geometry(kwargs, match):
    config = PipelineConfig(
        fft_size=64, num_blocks=kwargs.pop("num_blocks", 8), **kwargs
    )
    with pytest.raises(ConfigurationError, match=match):
        analytic_threshold(config)


def test_analytic_rejects_unknown_backend():
    config = PipelineConfig(fft_size=64, num_blocks=8)
    fake = config.with_backend("vectorized")
    object.__setattr__(fake, "backend", "no-such-backend")
    with pytest.raises(ConfigurationError, match="no-such-backend"):
        analytic_threshold(fake)
    assert "vectorized" in GRAM_BACKENDS


def test_analytic_is_noise_power_invariant():
    """Coherence is scale-free: the threshold has no power parameter."""
    config = PipelineConfig(
        fft_size=64, num_blocks=8, calibration="analytic"
    )
    threshold = DetectionPipeline(config).calibrate()
    loud = 100.0 * _noise_batch(config, 200)
    statistics = Engine().plan(config).statistics(loud)
    realized = float(np.mean(statistics > threshold))
    assert realized <= 3.0 * config.pfa


# ---------------------------------------------------------------------------
# Unified quantile rule (bugfix)
# ---------------------------------------------------------------------------
def test_quantile_rule_is_shared_and_bit_identical():
    rng = np.random.default_rng(42)
    statistics = rng.random(200)
    expected = float(np.quantile(statistics, 1.0 - 0.05))
    assert calibration_quantile(statistics, 0.05) == expected


def test_per_trial_and_batched_calibration_bit_identical():
    """Same trial set -> bit-identical thresholds on every path."""
    config = PipelineConfig(
        fft_size=32, num_blocks=8, backend="reference", calibration_trials=24
    )
    pipeline = DetectionPipeline(config)  # reference: per-trial loop
    factory = default_noise_factory(config)
    loop_threshold = pipeline.calibrate(noise_factory=factory)

    batched = DetectionPipeline(config.with_backend("vectorized"))
    batched_threshold = batched.calibrate(noise_factory=factory)
    assert loop_threshold == batched_threshold

    detector_threshold = calibration_quantile(
        Engine().monte_carlo_statistics(
            factory, 24, plan=CallableStatisticPlan(pipeline.statistic)
        ),
        config.pfa,
    )
    assert detector_threshold == batched_threshold

    with Engine() as engine:
        engine_threshold = engine.calibrate_threshold(
            config.with_backend("vectorized"), noise_factory=factory
        )
    assert engine_threshold == batched_threshold


# ---------------------------------------------------------------------------
# Under-sampled calibration guard (bugfix)
# ---------------------------------------------------------------------------
def test_undersampled_calibration_warns():
    statistics = np.linspace(0.0, 1.0, 16)
    with pytest.warns(CalibrationWarning, match="under-sampled"):
        calibration_quantile(statistics, 0.01)  # 16 * 0.01 < 1


def test_adequately_sampled_calibration_is_silent():
    statistics = np.linspace(0.0, 1.0, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CalibrationWarning)
        calibration_quantile(statistics, 0.05)  # 100 * 0.05 = 5 >= 1
        # Boundary: trials * pfa == 1 exactly is adequately sampled.
        calibration_quantile(np.linspace(0.0, 1.0, 20), 0.05)


def test_undersampled_warning_through_runner():
    config = PipelineConfig(
        fft_size=32, num_blocks=8, pfa=0.01, calibration_trials=16
    )
    with pytest.warns(CalibrationWarning):
        Engine().calibrate_threshold(config)


# ---------------------------------------------------------------------------
# Serve threshold-cache policy key (bugfix)
# ---------------------------------------------------------------------------
def test_service_threshold_cache_distinguishes_policies():
    import asyncio

    from repro.serve import SensingService

    async def run() -> tuple[float, float, float]:
        config = PipelineConfig(
            fft_size=32, num_blocks=8, pfa=0.1, calibration_trials=30
        )
        service = SensingService(config)
        try:
            mc = await service.threshold(config)
            analytic_config = PipelineConfig(
                fft_size=32,
                num_blocks=8,
                pfa=0.1,
                calibration_trials=30,
                calibration="analytic",
            )
            analytic = await service.threshold(analytic_config)
            mc_again = await service.threshold(config)
        finally:
            await service.close()
        return mc, analytic, mc_again

    mc, analytic, mc_again = asyncio.run(run())
    # Distinct cache entries: the analytic lookup must not evict or
    # collide with the MC threshold (same plan key, different policy).
    assert mc == mc_again
    assert analytic != mc
    assert analytic == pytest.approx(
        analytic_threshold(
            PipelineConfig(fft_size=32, num_blocks=8, pfa=0.1)
        )
    )


# ---------------------------------------------------------------------------
# Scanner CFAR guard
# ---------------------------------------------------------------------------
def test_scanner_analytic_calibration_rectangular_bank():
    config = PipelineConfig(
        fft_size=32, num_blocks=8, scan_bands=4, calibration="analytic"
    )
    scanner = BandScanner(config, leak_margin=1.25)
    threshold = scanner.calibrate()
    assert threshold == pytest.approx(
        analytic_threshold(config) * 1.25
    )


def test_scanner_analytic_rejects_overlapping_prototype():
    config = PipelineConfig(
        fft_size=32, num_blocks=8, scan_bands=4, calibration="analytic"
    )
    scanner = BandScanner(config, taps_per_band=4)
    with pytest.raises(ConfigurationError, match="taps_per_band"):
        scanner.calibrate()


# ---------------------------------------------------------------------------
# Pruned cycle-frequency search
# ---------------------------------------------------------------------------
def _occupied(config: PipelineConfig, sps: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    samples = config.samples_per_decision
    noise = awgn(samples, power=1.0, rng=rng)
    user = bpsk_signal(samples, 1e6, samples_per_symbol=sps, rng=rng)
    return noise + 2.0 * user.samples


@pytest.mark.parametrize("sps", [4, 8])
def test_pruned_search_finds_full_sweep_peak(sps):
    full_config = PipelineConfig(fft_size=64, num_blocks=8)
    pruned_config = PipelineConfig(
        fft_size=64, num_blocks=8, alpha_search="pruned", alpha_top=8
    )
    signal = _occupied(full_config, sps, seed=13 + sps)

    full = Engine().plan(full_config)
    surface = full.surfaces(signal[None])[0]
    columns = full.searched_columns
    m = full_config.m
    full_peak = abs(
        int(columns[np.argmax(surface[:, columns].max(axis=0))]) - m
    )
    full_statistic = float(full.statistics(signal[None])[0])

    plan = Engine().plan(pruned_config)
    statistics, peaks = plan.pruned_search(signal[None])
    assert int(peaks[0]) == full_peak == 64 // (2 * sps)
    assert statistics[0] == pytest.approx(full_statistic, rel=1e-6)
    # statistics() routes through the pruned path on this plan.
    assert plan.statistics(signal[None])[0] == pytest.approx(
        statistics[0]
    )


def test_pruned_search_golden_k256_operating_point():
    """The paper's K=256 geometry: pruned == full peak alpha."""
    full_config = PipelineConfig(fft_size=256, num_blocks=8)
    pruned_config = PipelineConfig(
        fft_size=256, num_blocks=8, alpha_search="pruned"
    )
    signal = _occupied(full_config, sps=8, seed=99)
    full = Engine().plan(full_config)
    surface = full.surfaces(signal[None])[0]
    columns = full.searched_columns
    full_peak = abs(
        int(columns[np.argmax(surface[:, columns].max(axis=0))])
        - full_config.m
    )
    statistics, peaks = Engine().plan(pruned_config).pruned_search(
        signal[None]
    )
    assert int(peaks[0]) == full_peak == 256 // 16
    assert statistics[0] == pytest.approx(
        float(full.statistics(signal[None])[0]), rel=1e-6
    )


def test_full_sweep_unchanged_by_pruned_knob_existence():
    """Default configs produce bitwise-identical statistics as ever."""
    config = PipelineConfig(fft_size=32, num_blocks=8)
    assert config.alpha_search == "full"
    signal = _occupied(config, sps=4, seed=5)
    plan = Engine().plan(config)
    surfaces = plan.surfaces(signal[None])
    stats = plan.statistics(signal[None])
    expected = surfaces[:, :, plan.searched_columns].max(axis=(1, 2))
    assert np.array_equal(stats, expected)


def test_pruned_config_validation():
    with pytest.raises(ConfigurationError, match="vectorized"):
        PipelineConfig(backend="fam", alpha_search="pruned")
    with pytest.raises(ConfigurationError, match="cyclic_bins"):
        PipelineConfig(alpha_search="pruned", cyclic_bins=(3,))
    with pytest.raises(ConfigurationError, match="alpha_search"):
        PipelineConfig(alpha_search="fastest")
    with pytest.raises(ConfigurationError, match="calibration"):
        PipelineConfig(calibration="bayesian")
    with pytest.raises(ConfigurationError, match="alpha_top"):
        PipelineConfig(alpha_top=0)


def test_pruned_and_full_plans_cache_separately():
    from repro.engine.cache import plan_key

    full = PipelineConfig(fft_size=32, num_blocks=8)
    pruned = PipelineConfig(
        fft_size=32, num_blocks=8, alpha_search="pruned"
    )
    assert plan_key(full) != plan_key(pruned)
    # Calibration policy deliberately does NOT key the plan cache.
    analytic = PipelineConfig(
        fft_size=32, num_blocks=8, calibration="analytic"
    )
    assert plan_key(full) == plan_key(analytic)


def test_analytic_with_pruned_search_is_conservative():
    """Analytic + pruned: full-search cell count bounds realized Pfa."""
    config = PipelineConfig(
        fft_size=64,
        num_blocks=8,
        alpha_search="pruned",
        pfa=0.1,
        calibration="analytic",
    )
    threshold = DetectionPipeline(config).calibrate()
    statistics = Engine().plan(config).statistics(_noise_batch(config, 300))
    realized = float(np.mean(statistics > threshold))
    assert realized <= 1.6 * config.pfa
