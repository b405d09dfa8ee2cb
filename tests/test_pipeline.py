"""Tests for the unified estimator-backend pipeline and batched execution.

The two contracts the subsystem promises:

* **cross-backend parity** — every registered backend produces DSCFs
  equal (within floating tolerance) to ``dscf_reference`` on a shared
  fixture;
* **batch/per-trial parity** — the engine's batched
  :class:`~repro.engine.BatchExecutionPlan` results are bit-for-bit
  identical to the pipeline's per-trial path.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.detection import (
    CyclostationaryFeatureDetector,
    calibration_quantile,
)
from repro.core.fourier import block_spectra
from repro.core.scf import dscf, dscf_reference
from repro.core.sampling import SampledSignal
from repro.engine import (
    CallableStatisticPlan,
    Engine,
    PlanCache,
    default_noise_factory,
)
from repro.errors import ConfigurationError
from repro.pipeline import (
    DetectionPipeline,
    EstimatorBackend,
    PipelineConfig,
    available_backends,
    get_backend,
    register_backend,
)
from repro.signals.channel import apply_cfo
from repro.signals.noise import awgn
from repro.signals.scenario import BandScenario, LicensedUser

SMALL = dict(fft_size=16, num_blocks=4, m=3, soc_tiles=2)


@pytest.fixture(scope="module")
def small_config():
    return PipelineConfig(**SMALL)


@pytest.fixture(scope="module")
def shared_signal(small_config):
    user = np.exp(2j * np.pi * 0.17 * np.arange(small_config.samples_per_decision))
    return awgn(small_config.samples_per_decision, seed=42) + 0.5 * user


@pytest.fixture(scope="module")
def batch_config():
    return PipelineConfig(fft_size=32, num_blocks=6)


@pytest.fixture(scope="module")
def batch_signals(batch_config):
    # 11 trials: an odd batch, so per-trial results cannot lean on any
    # power-of-two trial grouping.
    return np.stack(
        [awgn(batch_config.samples_per_decision, seed=100 + t) for t in range(11)]
    )


class TestConfig:
    def test_defaults_resolve_paper_operating_point(self):
        config = PipelineConfig()
        assert config.fft_size == 256
        assert config.m == 63
        assert config.extent == 127
        assert config.hop == 256
        assert config.samples_per_decision == 256 * config.num_blocks

    def test_overlapping_hop_changes_decision_length(self):
        config = PipelineConfig(fft_size=16, num_blocks=4, hop=8)
        assert config.samples_per_decision == 3 * 8 + 16

    def test_rejects_bad_pfa(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(pfa=0.0)

    def test_rejects_zero_cyclic_bin(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(fft_size=16, cyclic_bins=(0,))

    def test_rejects_out_of_range_cyclic_bin(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(fft_size=16, m=3, cyclic_bins=(5,))

    def test_rejects_unknown_window(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(window="bogus")

    def test_with_backend(self):
        assert PipelineConfig().with_backend("soc").backend == "soc"

    # PR-5 regression tests: every constructor validation raises
    # ConfigurationError (never a bare ValueError/TypeError), matching
    # the PR-4 scanner/noise error-type cleanups.
    def test_rejects_non_string_backend(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(backend=123)
        with pytest.raises(ConfigurationError):
            PipelineConfig(backend="")

    def test_rejects_negative_calibration_seed(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(calibration_seed=-1)
        with pytest.raises(ConfigurationError):
            PipelineConfig(calibration_seed=1.5)

    def test_rejects_non_positive_sample_rate(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(sample_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(sample_rate_hz=-8e6)
        with pytest.raises(ConfigurationError):
            PipelineConfig(sample_rate_hz=float("nan"))

    def test_validations_never_raise_bare_valueerror(self):
        for kwargs in (
            {"fft_size": -1},
            {"num_blocks": 0},
            {"pfa": 2.0},
            {"window": "bogus"},
            {"backend": None},
            {"sample_rate_hz": -1.0},
            {"calibration_seed": -5},
        ):
            try:
                PipelineConfig(**kwargs)
            except ConfigurationError:
                continue
            raise AssertionError(
                f"PipelineConfig({kwargs}) did not raise ConfigurationError"
            )


class TestRegistry:
    def test_all_five_substrates_registered(self):
        names = available_backends()
        for expected in ("reference", "vectorized", "soc", "fam", "ssca"):
            assert expected in names

    def test_retired_streaming_backend_rejected(self):
        """One software model per role: ``vectorized`` estimates,
        ``reference`` checks, and the hardware's block-at-a-time
        integration is modelled by ``soc`` (and
        ``mapping.architecture``), not by a software accumulator."""
        import repro
        import repro.core.scf
        import repro.pipeline

        assert available_backends() == (
            "fam", "reference", "soc", "ssca", "vectorized",
        )
        registered = "registered: fam, reference, soc, ssca, vectorized$"
        config = PipelineConfig(fft_size=32, num_blocks=8, backend="streaming")
        signals = awgn(config.samples_per_decision, seed=1)[None]
        with pytest.raises(ConfigurationError, match=registered):
            get_backend("streaming")
        with pytest.raises(ConfigurationError, match=registered):
            DetectionPipeline(config)
        with pytest.raises(ConfigurationError, match=registered):
            Engine(cache=PlanCache(maxsize=0)).statistics(signals, config)
        for module in (repro, repro.core, repro.core.scf):
            assert not hasattr(module, "StreamingDSCF")
        assert not hasattr(repro.pipeline, "StreamingBackend")

    def test_unknown_backend_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown estimator backend"):
            get_backend("warp-drive")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            get_backend("warp-drive")

    def test_pipeline_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            DetectionPipeline(PipelineConfig(backend="warp-drive"))

    def test_register_requires_protocol(self):
        with pytest.raises(ConfigurationError):
            register_backend(object())

    def test_duplicate_registration_replaces_and_restores(self):
        original = get_backend("vectorized")

        class Override:
            name = "vectorized"
            capabilities = original.capabilities

            def compute(self, signal, config):  # pragma: no cover - stub
                raise NotImplementedError

        try:
            register_backend(Override())
            assert isinstance(get_backend("vectorized"), Override)
            assert available_backends().count("vectorized") == 1
        finally:
            register_backend(original)
        assert get_backend("vectorized") is original

    def test_backends_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), EstimatorBackend)


class TestCrossBackendParity:
    """Every exact-DSCF backend equals the reference loop on one
    fixture (the full-plane estimators resample their own lattice onto
    the grid — their peak-location agreement is asserted in
    ``test_estimators.py``)."""

    def test_all_exact_backends_match_reference(
        self, small_config, shared_signal
    ):
        spectra = block_spectra(
            shared_signal, small_config.fft_size,
            num_blocks=small_config.num_blocks,
        )
        expected = dscf_reference(spectra, m=small_config.m)
        checked = 0
        for name in available_backends():
            if not get_backend(name).capabilities.dscf_exact:
                continue
            checked += 1
            result = get_backend(name).compute(
                shared_signal, small_config.with_backend(name)
            )
            assert result.m == small_config.m
            assert result.num_blocks == small_config.num_blocks
            np.testing.assert_allclose(
                result.values, expected, atol=1e-9,
                err_msg=f"backend {name!r} disagrees with dscf_reference",
            )
        assert checked >= 3  # reference, vectorized, soc

    def test_spectra_accepting_backends_skip_the_fft(
        self, small_config, shared_signal
    ):
        spectra = block_spectra(
            shared_signal, small_config.fft_size,
            num_blocks=small_config.num_blocks,
        )
        expected = dscf_reference(spectra, m=small_config.m)
        for name in available_backends():
            backend = get_backend(name)
            if not backend.capabilities.accepts_spectra:
                continue
            result = backend.compute(spectra, small_config.with_backend(name))
            np.testing.assert_allclose(result.values, expected, atol=1e-9)

    def test_soc_backend_rejects_spectra_input(self, small_config):
        spectra = np.zeros(
            (small_config.num_blocks, small_config.fft_size), dtype=complex
        )
        with pytest.raises(ConfigurationError, match="raw samples"):
            get_backend("soc").compute(spectra, small_config)

    def test_soc_backend_rejects_overlapping_blocks(self, shared_signal):
        config = PipelineConfig(fft_size=16, num_blocks=4, m=3, hop=8)
        with pytest.raises(ConfigurationError, match="non-overlapping"):
            get_backend("soc").compute(shared_signal, config)

    def test_sample_rate_carried_through(self, small_config):
        signal = SampledSignal(
            awgn(small_config.samples_per_decision, seed=5), 1e6
        )
        for name in available_backends():
            result = get_backend(name).compute(
                signal, small_config.with_backend(name)
            )
            assert result.sample_rate_hz == 1e6

    def test_pipeline_statistics_agree_across_backends(
        self, small_config, shared_signal
    ):
        statistics = {
            name: DetectionPipeline(small_config.with_backend(name)).statistic(
                shared_signal
            )
            for name in available_backends()
            if get_backend(name).capabilities.dscf_exact
        }
        values = list(statistics.values())
        assert len(values) >= 3  # reference, vectorized, soc
        np.testing.assert_allclose(values, values[0], rtol=1e-9)


class TestBatchPlanParity:
    """Batched results are bit-for-bit equal to the per-trial path.

    The engine's :class:`~repro.engine.BatchExecutionPlan` is under
    test.
    """

    def test_block_spectra_bitwise_vs_core(self, batch_config, batch_signals):
        plan = Engine().plan(batch_config)
        batched = plan.block_spectra(batch_signals)
        for trial, signal in enumerate(batch_signals):
            expected = block_spectra(
                signal, batch_config.fft_size,
                num_blocks=batch_config.num_blocks,
            )
            assert (batched[trial] == expected).all()

    def test_statistics_bitwise_vs_singleton_batches(
        self, batch_config, batch_signals
    ):
        plan = Engine().plan(batch_config)
        batched = plan.statistics(batch_signals)
        looped = np.array(
            [plan.statistics(signal[None])[0] for signal in batch_signals]
        )
        assert (batched == looped).all()

    def test_statistics_bitwise_vs_pipeline_per_trial(
        self, batch_config, batch_signals
    ):
        pipeline = DetectionPipeline(batch_config)
        batched = Engine().statistics(batch_signals, config=batch_config)
        per_trial = np.array(
            [pipeline.statistic(signal) for signal in batch_signals]
        )
        assert (batched == per_trial).all()

    def test_dscf_values_bitwise_vs_singleton_batches(
        self, batch_config, batch_signals
    ):
        plan = Engine().plan(batch_config)
        batched = plan.dscf_values(batch_signals)
        for trial, signal in enumerate(batch_signals):
            assert (batched[trial] == plan.dscf_values(signal[None])[0]).all()

    def test_dscf_values_match_vectorised_estimator(
        self, batch_config, batch_signals
    ):
        plan = Engine().plan(batch_config)
        batched = plan.dscf_values(batch_signals)
        for trial, signal in enumerate(batch_signals):
            spectra = block_spectra(
                signal, batch_config.fft_size,
                num_blocks=batch_config.num_blocks,
            )
            np.testing.assert_array_equal(
                batched[trial].view(np.uint64),
                dscf(spectra, batch_config.m).view(np.uint64),
            )

    def test_statistics_match_legacy_detector(self, batch_config, batch_signals):
        detector = CyclostationaryFeatureDetector(
            batch_config.fft_size, batch_config.num_blocks, m=batch_config.m
        )
        batched = Engine().plan(batch_config).statistics(batch_signals)
        legacy = np.array(
            [detector.statistic(signal) for signal in batch_signals]
        )
        np.testing.assert_array_equal(
            batched.view(np.uint64), legacy.view(np.uint64)
        )

    def test_unnormalized_statistics_match_legacy_detector(self, batch_signals):
        config = PipelineConfig(fft_size=32, num_blocks=6, normalize=False)
        detector = CyclostationaryFeatureDetector(
            32, 6, normalize=False
        )
        batched = Engine().plan(config).statistics(batch_signals)
        legacy = np.array(
            [detector.statistic(signal) for signal in batch_signals]
        )
        np.testing.assert_array_equal(
            batched.view(np.uint64), legacy.view(np.uint64)
        )

    def test_cyclic_bins_restrict_the_search(self, batch_signals):
        config = PipelineConfig(fft_size=32, num_blocks=6, cyclic_bins=(2, -2))
        detector = CyclostationaryFeatureDetector(
            32, 6, cyclic_bins=(2, -2)
        )
        batched = Engine().plan(config).statistics(batch_signals)
        legacy = np.array(
            [detector.statistic(signal) for signal in batch_signals]
        )
        np.testing.assert_array_equal(
            batched.view(np.uint64), legacy.view(np.uint64)
        )

    def test_results_wrap_per_trial_dscf(self, batch_config, batch_signals):
        results = Engine().plan(batch_config).results(batch_signals[:3])
        assert len(results) == 3
        for result in results:
            assert result.extent == batch_config.extent
            assert result.num_blocks == batch_config.num_blocks

    def test_rejects_short_trials(self, batch_config):
        plan = Engine().plan(batch_config)
        with pytest.raises(ConfigurationError, match="samples"):
            plan.statistics(np.zeros((2, 8), dtype=complex))

    def test_rejects_3d_input(self, batch_config):
        plan = Engine().plan(batch_config)
        with pytest.raises(ConfigurationError):
            plan.statistics(np.zeros((2, 2, 8), dtype=complex))


class TestBatchCalibration:
    def test_matches_per_trial_calibration(self, batch_config):
        pipeline = DetectionPipeline(batch_config)
        engine = Engine()
        factory = default_noise_factory(batch_config)
        batched = engine.calibrate_threshold(batch_config, trials=20)
        per_trial = calibration_quantile(
            engine.monte_carlo_statistics(
                factory, 20, plan=CallableStatisticPlan(pipeline.statistic)
            ),
            batch_config.pfa,
        )
        assert batched == per_trial  # same statistics bit-for-bit

    def test_batched_monte_carlo_matches_loop(self, batch_config):
        pipeline = DetectionPipeline(batch_config)
        engine = Engine()
        factory = default_noise_factory(batch_config)
        batched = engine.monte_carlo_statistics(factory, 9, config=batch_config)
        looped = engine.monte_carlo_statistics(
            factory, 9, plan=CallableStatisticPlan(pipeline.statistic)
        )
        assert (batched == looped).all()


#: Every registered execution substrate, as the pipeline sees it.
UNIFIED_BACKENDS = {
    "reference": dict(backend="reference"),
    "vectorized": dict(backend="vectorized"),
    "soc": dict(backend="soc"),
    "fam": dict(backend="fam"),
    "ssca": dict(backend="ssca"),
}


class TestEngineUnification:
    """The pipeline has no execution path of its own: statistic,
    surface and threshold are the engine's, bit for bit, on every
    backend (the engine side builds its plan cold, independently)."""

    @pytest.mark.parametrize("name", sorted(UNIFIED_BACKENDS))
    def test_pipeline_matches_engine_bitwise(self, name, shared_signal):
        config = PipelineConfig(
            **SMALL, calibration_trials=20, **UNIFIED_BACKENDS[name]
        )
        pipeline = DetectionPipeline(config)
        engine = Engine(cache=PlanCache(maxsize=0))
        batch = shared_signal[None]
        assert pipeline.statistic(shared_signal) == (
            engine.statistics(batch, config=config)[0]
        )
        assert np.array_equal(
            pipeline.feature_surface(shared_signal),
            engine.plan(config).surfaces(batch)[0],
        )
        assert pipeline.calibrate() == engine.calibrate_threshold(config)


class TestDetectionPipeline:
    def test_detect_calibrates_once_and_caches(self, batch_config):
        pipeline = DetectionPipeline(batch_config)
        assert pipeline.threshold is None
        signal = awgn(batch_config.samples_per_decision, seed=77)
        report = pipeline.detect(signal)
        assert pipeline.threshold is not None
        assert report.threshold == pipeline.threshold
        assert report.detector == "cyclostationary/vectorized"

    def test_occupied_band_detected_vacant_not(self):
        config = PipelineConfig(
            fft_size=32, num_blocks=48, calibration_trials=25, pfa=0.05
        )
        scenario = BandScenario(
            sample_rate_hz=1e6,
            users=[
                LicensedUser(
                    name="tv", modulation="bpsk", samples_per_symbol=4,
                    carrier_offset_hz=0.0, snr_db=6.0,
                )
            ],
        )
        pipeline = DetectionPipeline(config)
        pipeline.calibrate()
        occupied, truth = pipeline.sense(scenario, seed=3)
        assert truth.occupied and occupied.detected
        vacant, truth = pipeline.sense(scenario, active=(), seed=4)
        assert not truth.occupied and not vacant.detected

    def test_channel_stage_is_applied(self, small_config, shared_signal):
        plain = DetectionPipeline(small_config)
        shifted = DetectionPipeline(
            small_config,
            channel=lambda s: apply_cfo(s, offset_hz=0.2 * 1e6),
        )
        signal = SampledSignal(shared_signal, 1e6)
        plain_result = plain.compute(signal)
        shifted_result = shifted.compute(signal)
        assert not np.allclose(plain_result.values, shifted_result.values)

    def test_channel_on_raw_samples_needs_sample_rate(self, shared_signal):
        pipeline = DetectionPipeline(
            PipelineConfig(**SMALL), channel=lambda s: s
        )
        with pytest.raises(ConfigurationError, match="sample_rate"):
            pipeline.statistic(np.asarray(shared_signal))

    def test_stateful_backends_get_private_instances(self, small_config):
        config = small_config.with_backend("soc")
        first = DetectionPipeline(config)
        second = DetectionPipeline(config)
        assert first.backend is not second.backend
        signal = awgn(config.samples_per_decision, seed=11)
        first.compute(signal)
        run = first.backend.last_run
        second.compute(signal)
        assert first.backend.last_run is run  # not clobbered by second

    def test_channel_stage_not_applied_to_calibration_noise(self, small_config):
        from repro.signals.channel import apply_cfo

        for name in ("vectorized", "reference"):
            config = small_config.with_backend(name)
            plain = DetectionPipeline(config)
            impaired = DetectionPipeline(
                config, channel=lambda s: apply_cfo(s, 1e4)
            )
            assert plain.calibrate(trials=20) == impaired.calibrate(trials=20)

    def test_nonbatch_backend_calibration_loops_through_backend(self):
        config = PipelineConfig(
            fft_size=16, num_blocks=4, m=3, backend="reference",
            calibration_trials=20,
        )
        reference = DetectionPipeline(config)
        vectorized = DetectionPipeline(config.with_backend("vectorized"))
        np.testing.assert_allclose(
            reference.calibrate(), vectorized.calibrate(), rtol=1e-9
        )

    def test_feature_surface_shape(self, small_config, shared_signal):
        for name in ("vectorized", "reference"):
            surface = DetectionPipeline(
                small_config.with_backend(name)
            ).feature_surface(shared_signal)
            assert surface.shape == (small_config.extent, small_config.extent)


class TestSweepIntegration:
    def test_pd_vs_snr_batched_equals_per_trial(self, batch_config):
        pipeline = DetectionPipeline(batch_config)
        needed = batch_config.samples_per_decision

        def h0(trial):
            return awgn(needed, seed=500 + trial)

        def h1(snr_db, trial):
            rng = np.random.default_rng(900 + trial)
            tone = np.exp(2j * np.pi * 0.11 * np.arange(needed))
            return awgn(needed, rng=rng) + 10 ** (snr_db / 20.0) * tone

        kwargs = dict(snrs_db=(-6.0, 0.0), pfa=0.2, trials=8)
        engine = Engine()
        batched = engine.map_operating_points(
            h0, h1, config=batch_config, **kwargs
        )
        looped = engine.map_operating_points(
            h0, h1, plan=CallableStatisticPlan(pipeline.statistic), **kwargs
        )
        assert batched.pds().tolist() == looped.pds().tolist()

    def test_pd_vs_snr_requires_statistic_or_runner(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Engine().map_operating_points(
                lambda t: np.zeros(4), lambda s, t: np.zeros(4),
                snrs_db=(0.0,),
            )

    def test_pd_vs_snr_rejects_statistic_and_runner_together(self, batch_config):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Engine().map_operating_points(
                lambda t: np.zeros(4), lambda s, t: np.zeros(4),
                snrs_db=(0.0,), config=batch_config,
                plan=CallableStatisticPlan(lambda s: 0.0),
            )


class TestCliIntegration:
    def test_sense_selects_backend(self, capsys):
        code = main([
            "sense", "--fft-size", "32", "--blocks", "32",
            "--snr-db", "6", "--sps", "4",
            "--calibration-trials", "20", "--seed", "3",
            "--backend", "reference",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclostationary/reference" in out
        assert "OCCUPIED" in out

    def test_backends_subcommand_lists_all(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
