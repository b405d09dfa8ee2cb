"""Tests for the trace-compiled SoC engine (repro.montium.compiler +
repro.soc.compiled): interpreter parity, batching, pipeline wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.montium.compiler import (
    MontiumTrace,
    compile_platform,
    replay_accumulators,
    replay_dscf_values,
)
from repro.montium.energy import estimate_energy
from repro.core.detection import calibration_quantile, searched_columns
from repro.core.scf import spectral_coherence
from repro.engine import BatchExecutionPlan, Engine
from repro.engine.plans import default_noise_factory
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.pipeline.backends import get_backend
from repro.signals.noise import awgn
from repro.soc import (
    CompiledSoC,
    CompiledSoCPlan,
    ParallelSoCEmulation,
    PlatformConfig,
    SoCRunner,
    TiledSoC,
)


@pytest.fixture
def small_platform():
    return PlatformConfig(num_tiles=3, fft_size=16, m=3)


def _interpret(platform, blocks):
    soc = TiledSoC(platform)
    soc.reset()
    for block in blocks:
        soc.integrate_block(block)
    return soc


class TestCompilePlatform:
    def test_compiles_and_caches(self, small_platform):
        trace = compile_platform(small_platform)
        assert isinstance(trace, MontiumTrace)
        assert compile_platform(small_platform) is trace
        assert compile_platform(small_platform, use_cache=False) is not trace

    def test_trace_geometry(self, small_platform):
        trace = compile_platform(small_platform)
        extent = small_platform.extent
        assert trace.normal_src.shape == (extent, extent)
        assert trace.conjugate_src.shape == (extent, extent)
        assert len(trace.fft_stages) == 4  # log2(16)
        assert all(stage.upper.size == 8 for stage in trace.fft_stages)
        assert len(trace.activities) == small_platform.used_tiles

    def test_rejects_non_platform(self):
        with pytest.raises(ConfigurationError):
            compile_platform("not a platform")

    def test_activity_matches_analytic_budget(self, small_platform):
        from repro.montium.programs import integration_step_cycle_budget

        trace = compile_platform(small_platform)
        budget = integration_step_cycle_budget(small_platform.tile_config(0))
        for activity in trace.activities:
            assert dict(activity.cycles) == {
                category: cycles
                for category, cycles in budget.items()
                if category != "total"
            }
            assert activity.cycles_per_block == budget["total"]


class TestInterpreterParity:
    @pytest.mark.parametrize("datapath", ["float", "q15"])
    @pytest.mark.parametrize("num_tiles", [1, 3])
    def test_accumulators_bitwise(self, datapath, num_tiles):
        platform = PlatformConfig(
            num_tiles=num_tiles, fft_size=16, m=3, datapath=datapath
        )
        blocks = awgn(16 * 4, seed=50).reshape(4, 16)
        soc = _interpret(platform, blocks)
        trace = compile_platform(platform)
        accumulators = replay_accumulators(trace, blocks)
        for q, tile in enumerate(soc.tiles):
            tasks = list(trace.tile_tasks(q))
            expected = tile.accumulator_values()[:, : len(tasks)]
            assert np.array_equal(accumulators[:, tasks], expected)

    @pytest.mark.parametrize("datapath", ["float", "q15"])
    def test_runner_bitwise_dscf_cycles_links(self, datapath):
        platform = PlatformConfig(
            num_tiles=3, fft_size=16, m=3, datapath=datapath
        )
        samples = awgn(16 * 3, seed=51)
        interpreted = SoCRunner(platform).run(samples, 3)
        compiled = SoCRunner(platform, compiled=True).run(samples, 3)
        assert np.array_equal(interpreted.dscf.values, compiled.dscf.values)
        assert interpreted.cycle_tables == compiled.cycle_tables
        assert interpreted.cycles_per_step == compiled.cycles_per_step
        assert interpreted.total_cycles == compiled.total_cycles
        assert interpreted.link_transfers == compiled.link_transfers
        assert interpreted.analysed_bandwidth_hz == compiled.analysed_bandwidth_hz

    @pytest.mark.parametrize("datapath", ["float", "q15"])
    def test_energy_totals_identical(self, datapath):
        platform = PlatformConfig(
            num_tiles=2, fft_size=16, m=3, datapath=datapath
        )
        samples = awgn(16 * 4, seed=52)
        interpreter = SoCRunner(platform)
        compiled = SoCRunner(platform, compiled=True)
        interpreter.run(samples, 4)
        compiled.run(samples, 4)
        interpreted_energy = [
            estimate_energy(tile) for tile in interpreter.soc.tiles
        ]
        assert interpreted_energy == compiled.soc.energy_reports()

    def test_instruction_counts_identical(self, small_platform):
        samples = awgn(16 * 2, seed=53)
        interpreter = SoCRunner(small_platform)
        compiled = SoCRunner(small_platform, compiled=True)
        interpreter.run(samples, 2)
        compiled.run(samples, 2)
        assert [
            sequencer.instructions_executed
            for sequencer in interpreter.soc.sequencers
        ] == compiled.soc.instructions_executed()

    def test_paper_platform_bitwise(self):
        from repro.soc import aaf_drbpf

        platform = aaf_drbpf()
        blocks = awgn(256 * 2, seed=54).reshape(2, 256)
        soc = _interpret(platform, blocks)
        compiled = replay_dscf_values(compile_platform(platform), blocks)
        assert np.array_equal(soc.dscf_values(), compiled)


class TestCompiledSoCEngine:
    def test_incremental_equals_bulk(self, small_platform):
        blocks = awgn(16 * 3, seed=55).reshape(3, 16)
        engine = CompiledSoC(small_platform)
        for block in blocks:
            engine.integrate_block(block)
        bulk = replay_dscf_values(engine.trace, blocks)
        assert np.array_equal(engine.dscf_values(), bulk)
        assert engine.blocks_integrated == 3

    def test_tile_accumulators_match_interpreter(self, small_platform):
        blocks = awgn(16 * 2, seed=56).reshape(2, 16)
        soc = _interpret(small_platform, blocks)
        engine = CompiledSoC(small_platform)
        engine.integrate_blocks(blocks)
        for q, tile in enumerate(soc.tiles):
            assert np.array_equal(
                tile.accumulator_values(), engine.tile_accumulator_values(q)
            )

    def test_reset_clears_state(self, small_platform):
        engine = CompiledSoC(small_platform)
        engine.integrate_block(awgn(16, seed=57))
        engine.reset()
        assert engine.blocks_integrated == 0
        with pytest.raises(ConfigurationError):
            engine.dscf_values()

    def test_rejects_bad_block_shape(self, small_platform):
        engine = CompiledSoC(small_platform)
        with pytest.raises(ConfigurationError):
            engine.integrate_block(awgn(8, seed=0))

    def test_trace_mode_incompatible_with_compiled(self, small_platform):
        with pytest.raises(ConfigurationError):
            SoCRunner(small_platform, trace=True, compiled=True)


class TestParallelEmulationCompiled:
    def test_smoke_matches_interpreted_emulation(self, small_platform):
        samples = awgn(16 * 3, seed=58)
        interpreted, interpreted_cycles = ParallelSoCEmulation(
            small_platform
        ).run(samples, 3)
        compiled, compiled_cycles = ParallelSoCEmulation(
            small_platform, compiled=True
        ).run(samples, 3)
        assert np.array_equal(interpreted.values, compiled.values)
        assert interpreted_cycles == compiled_cycles

    def test_q15_smoke(self):
        platform = PlatformConfig(
            num_tiles=2, fft_size=16, m=3, datapath="q15"
        )
        samples = awgn(16 * 2, seed=59)
        compiled, cycles = ParallelSoCEmulation(platform, compiled=True).run(
            samples, 2
        )
        sequential = SoCRunner(platform).run(samples, 2)
        assert np.array_equal(compiled.values, sequential.dscf.values)
        assert cycles[0] == sequential.cycles_by_category()


class TestPipelineIntegration:
    """The ``soc`` backend replays its compiled trace; every output it
    hands the pipeline and the engine must equal the instruction-level
    interpreter's bit for bit."""

    @pytest.fixture
    def config(self):
        return PipelineConfig(
            fft_size=16,
            num_blocks=4,
            m=3,
            backend="soc",
            soc_tiles=2,
            calibration_trials=20,
        )

    @staticmethod
    def _interpreter(config):
        return SoCRunner(
            PlatformConfig(
                num_tiles=config.soc_tiles,
                fft_size=config.fft_size,
                m=config.m,
            )
        )

    @classmethod
    def _loop_surface(cls, config, samples):
        """The per-trial loop's surface over the interpreter's DSCF:
        coherence against the host block spectra's mean power."""
        dscf = cls._interpreter(config).run(samples, config.num_blocks).dscf
        host = Engine().plan(config.with_backend("vectorized"))
        spectra = host.block_spectra(samples[None])[0]
        return spectral_coherence(dscf, np.mean(np.abs(spectra) ** 2, axis=0))

    @classmethod
    def _loop_statistic(cls, config, samples):
        columns = searched_columns(config.m, config.cyclic_bins)
        return float(cls._loop_surface(config, samples)[:, columns].max())

    def test_backend_builds_the_compiled_plan(self, config):
        plan = Engine().plan(config)
        assert isinstance(plan, BatchExecutionPlan)
        assert isinstance(plan.executor, CompiledSoCPlan)
        assert get_backend("soc").capabilities.supports_batch

    def test_backend_compute_equals_interpreter(self, config):
        samples = awgn(config.samples_per_decision, seed=60)
        expected = self._interpreter(config).run(samples, config.num_blocks)
        assert np.array_equal(
            DetectionPipeline(config).compute(samples).values,
            expected.dscf.values,
        )

    def test_statistic_equals_interpreter_loop(self, config):
        samples = awgn(config.samples_per_decision, seed=61)
        pipeline = DetectionPipeline(config)
        assert pipeline.statistic(samples) == self._loop_statistic(
            config, samples
        )
        assert np.array_equal(
            pipeline.feature_surface(samples),
            self._loop_surface(config, samples),
        )

    def test_batch_equals_singletons_and_interpreter_loop(self, config):
        plan = Engine().plan(config)
        signals = np.stack(
            [
                awgn(config.samples_per_decision, seed=70 + trial)
                for trial in range(5)
            ]
        )
        batch = plan.statistics(signals)
        singletons = np.array(
            [plan.statistics(signal[None])[0] for signal in signals]
        )
        assert (batch == singletons).all()
        loop = np.array(
            [self._loop_statistic(config, signal) for signal in signals]
        )
        assert (batch == loop).all()
        values = plan.dscf_values(signals)
        for trial, signal in enumerate(signals):
            expected = self._interpreter(config).run(
                signal, config.num_blocks
            )
            assert np.array_equal(values[trial], expected.dscf.values)

    def test_calibrated_threshold_equals_interpreter_loop(self, config):
        noise = default_noise_factory(config)
        loop = np.array(
            [
                self._loop_statistic(config, noise(trial))
                for trial in range(config.calibration_trials)
            ]
        )
        assert DetectionPipeline(config).calibrate() == calibration_quantile(
            loop, config.pfa
        )

    def test_plan_values_are_exact_complex(self, config):
        plan = get_backend("soc").batch_plan(config)
        assert isinstance(plan, CompiledSoCPlan)
        assert plan.dscf_exact
        assert plan.averaging_length == config.num_blocks
        signal = awgn(config.samples_per_decision, seed=62)
        values = plan.values(signal[None])
        expected = DetectionPipeline(config).compute(signal).values
        assert np.array_equal(values[0], expected)

    def test_plan_rejects_overlapping_blocks(self):
        config = PipelineConfig(
            fft_size=16, num_blocks=4, m=3, backend="soc", hop=8,
        )
        with pytest.raises(ConfigurationError):
            get_backend("soc").batch_plan(config)

    def test_plan_rejects_short_signals(self, config):
        plan = get_backend("soc").batch_plan(config)
        with pytest.raises(ConfigurationError):
            plan.values(awgn(16, seed=0)[None])

    def test_last_run_cycle_and_energy_exact(self, config, monkeypatch):
        import repro.soc.runner as runner_module

        runners = []

        class RecordingRunner(runner_module.SoCRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        samples = awgn(config.samples_per_decision, seed=63)
        interpreter = self._interpreter(config)
        expected = interpreter.run(samples, config.num_blocks)
        monkeypatch.setattr(runner_module, "SoCRunner", RecordingRunner)
        pipeline = DetectionPipeline(config)
        pipeline.compute(samples)
        run = pipeline.backend.last_run
        assert run.cycles_per_step == expected.cycles_per_step
        assert run.cycle_tables == expected.cycle_tables
        assert run.total_cycles == expected.total_cycles
        assert run.link_transfers == expected.link_transfers
        assert runners[-1].compiled
        assert runners[-1].soc.energy_reports() == [
            estimate_energy(tile) for tile in interpreter.soc.tiles
        ]


class TestAnalysisSweeps:
    def _factories(self, config):
        def h0(trial):
            return awgn(config.samples_per_decision, seed=500 + trial)

        def h1(snr_db, trial):
            return awgn(config.samples_per_decision, seed=600 + trial)

        return h0, h1

    def test_pd_vs_snr_by_backend_sweeps_soc(self):
        from repro.analysis.sweeps import pd_vs_snr_by_backend

        config = PipelineConfig(
            fft_size=16, num_blocks=4, m=3, backend="soc", soc_tiles=2,
        )
        h0, h1 = self._factories(config)
        sweeps = pd_vs_snr_by_backend(
            config, h0, h1, [0.0], backends=("soc",), trials=10
        )
        assert sweeps["soc"].detector_name == "cyclostationary/soc"
        assert len(sweeps["soc"].points) == 1

    def test_soc_sweep_matches_interpreter(self):
        """The soc sweep's threshold and Pd equal those of the
        interpreter's per-trial loop on the same realisations."""
        from repro.analysis.roc import detection_probability
        from repro.analysis.sweeps import pd_vs_snr_by_backend

        config = PipelineConfig(
            fft_size=16, num_blocks=4, m=3, backend="soc", soc_tiles=2,
        )
        h0, h1 = self._factories(config)
        trials = 8
        sweep = pd_vs_snr_by_backend(
            config, h0, h1, [0.0], backends=("soc",), pfa=0.25,
            trials=trials,
        )["soc"]
        loop = TestPipelineIntegration._loop_statistic
        threshold = calibration_quantile(
            np.array([loop(config, h0(trial)) for trial in range(trials)]),
            0.25,
        )
        h1_statistics = np.array(
            [loop(config, h1(0.0, trial)) for trial in range(trials)]
        )
        (point,) = sweep.points
        assert point.threshold == threshold
        assert point.pd == detection_probability(h1_statistics, threshold)


class TestModuleLevelCaches:
    def test_bitrev_cached_and_mutation_safe(self):
        from repro.montium.agu import bit_reversed_sequence

        first = bit_reversed_sequence(16)
        first[0] = 999
        assert bit_reversed_sequence(16)[0] == 0

    def test_twiddles_cached_read_only(self):
        from repro.montium.programs.fft256 import stage_twiddles

        twiddles = stage_twiddles(8)
        assert stage_twiddles(8) is twiddles
        assert not twiddles.flags.writeable
        assert np.allclose(
            twiddles, np.exp(-2j * np.pi * np.arange(4) / 8)
        )


class TestValidationGuard:
    def test_validation_detects_divergence(self, small_platform, monkeypatch):
        """A corrupted replay must fail the compile-time parity check."""
        import repro.montium.compiler as compiler

        original = compiler._spectra_float

        def corrupted(trace, blocks):
            work_re, work_im, resh_re, resh_im = original(trace, blocks)
            return work_re + 1e-9, work_im, resh_re, resh_im

        monkeypatch.setattr(compiler, "_spectra_float", corrupted)
        with pytest.raises(SimulationError):
            compile_platform(small_platform, use_cache=False)
