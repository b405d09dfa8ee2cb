"""Cross-model agreement: every model of the same quantity must concur.

The repository computes several quantities through independent paths —
analytic closed forms, instruction-stream budgets, and executing
simulations.  These tests pin them together for configurations beyond
the paper's single operating point.
"""

import numpy as np
import pytest

from repro.core.fourier import block_spectra
from repro.core.scf import default_m, dscf, dscf_reference
from repro.mapping.architecture import FoldedArray, SystolicArray
from repro.montium.programs import integration_step_cycle_budget
from repro.montium.tile import TileConfig
from repro.perf.cycles import table1_budget
from repro.perf.scaling import scaling_study
from repro.signals.modulators import qpsk_signal
from repro.signals.noise import awgn
from repro.soc.config import PlatformConfig
from repro.soc.runner import SoCRunner


class TestAnalyticVsExecuted:
    @pytest.mark.parametrize(
        "fft_size,m,tiles", [(16, 3, 1), (16, 3, 2), (64, 15, 2), (64, 15, 4)]
    )
    def test_scaling_row_matches_executed_cycles(self, fft_size, m, tiles):
        """A scaling-study row's cycle count equals what the executing
        platform actually spends per integration step."""
        row = scaling_study((tiles,), fft_size=fft_size, m=m)[0]
        runner = SoCRunner(
            PlatformConfig(num_tiles=tiles, fft_size=fft_size, m=m)
        )
        result = runner.run(awgn(fft_size * 2, seed=fft_size + tiles), 2)
        assert result.cycles_per_step == row.cycles_per_step

    @pytest.mark.parametrize("fft_size,m,tiles", [(16, 3, 2), (64, 15, 3)])
    def test_program_budget_matches_table1_budget(self, fft_size, m, tiles):
        analytic = table1_budget(fft_size=fft_size, m=m, num_cores=tiles)
        simulated = integration_step_cycle_budget(
            TileConfig(
                fft_size=fft_size, m=m, num_cores=tiles, core_index=0
            )
        )
        assert simulated["multiply accumulate"] == analytic.multiply_accumulate
        assert simulated["read data"] == analytic.read_data
        assert simulated["FFT"] == analytic.fft
        assert simulated["total"] == analytic.total


class TestFourWayFunctionalEquivalence:
    """Reference estimator == systolic array == folded array == platform."""

    def test_all_paths_agree_on_qpsk(self):
        k = 32
        m = default_m(k)
        blocks = 4
        signal = qpsk_signal(k * blocks, 1e6, samples_per_symbol=4, seed=77)
        spectra = block_spectra(signal.samples, k)
        reference = dscf(spectra, m)

        systolic = SystolicArray(m, k)
        folded = FoldedArray(m, k, num_cores=3)
        for spectrum in spectra:
            systolic.integrate_block(spectrum)
            folded.integrate_block(spectrum)

        platform = SoCRunner(
            PlatformConfig(num_tiles=3, fft_size=k, m=m)
        ).run(signal, blocks)

        assert np.allclose(systolic.result(), reference)
        assert np.allclose(folded.result(), reference)
        assert np.allclose(platform.dscf.values, reference)

    def test_block_models_match_reference_on_noise_input(self):
        """The hardware's block-at-a-time integration, fed one spectrum
        per step, lands on the NumPy-literal estimator and the batch
        estimator alike."""
        k, m, blocks = 16, 3, 6
        samples = awgn(k * blocks, seed=78)
        spectra = block_spectra(samples, k)
        literal = dscf_reference(spectra, m)
        systolic = SystolicArray(m, k)
        folded = FoldedArray(m, k, num_cores=2)
        for spectrum in spectra:
            systolic.integrate_block(spectrum)
            folded.integrate_block(spectrum)
        assert np.allclose(literal, dscf(spectra, m))
        assert np.allclose(systolic.result(), literal)
        assert np.allclose(folded.result(), literal)


class TestTracedRunnerAgreement:
    def test_trace_total_equals_cycle_counter(self):
        from repro.soc.trace import phase_durations

        runner = SoCRunner(
            PlatformConfig(num_tiles=2, fft_size=16, m=3), trace=True
        )
        result = runner.run(awgn(16 * 2, seed=79), 2)
        durations = phase_durations(runner.soc.trace_events, tile=0)
        assert sum(durations.values()) == result.total_cycles


class TestScannerCrossModel:
    """The wideband scanner reaches the same occupancy verdict on every
    estimator model of the same decision.

    Complements the per-preset truth checks in ``tests/test_scanner.py``:
    here the backends are compared *against each other* on identical
    captures — the vectorized DSCF as comparator, the NumPy-literal
    reference DSCF (on the cyclic-prefix preset), the full-plane
    estimator family (fam/ssca, on the linear presets where their
    lattice resolves the features), and the cycle-exact compiled SoC
    platform.
    """

    def _decisions(self, preset, backend, seed=9, **config_overrides):
        from repro.pipeline import PipelineConfig
        from repro.scanner import BandScanner
        from repro.signals.wideband import scenario_preset

        scenario, bands = scenario_preset(preset, sample_rate_hz=4e6)
        options = dict(
            fft_size=32,
            num_blocks=32,
            backend=backend,
            scan_bands=bands,
            sample_rate_hz=4e6,
            calibration_trials=30,
        )
        options.update(config_overrides)
        config = PipelineConfig(**options)
        scanner = BandScanner(config, leak_margin=1.6)
        capture, _truth = scenario.realize(scanner.required_samples, seed=seed)
        return scanner.scan(capture, classify=False).decisions

    @pytest.mark.parametrize("preset", ["single-qpsk", "linear-pair", "bursty"])
    def test_software_models_agree_on_linear_presets(self, preset):
        reference = self._decisions(preset, "vectorized")
        for backend in ("fam", "ssca"):
            assert np.array_equal(
                self._decisions(preset, backend), reference
            ), f"{backend} disagrees with vectorized on {preset!r}"

    @pytest.mark.parametrize("preset", ["linear-pair", "bursty"])
    def test_soc_agrees_with_software(self, preset):
        software = self._decisions(preset, "vectorized")
        platform = self._decisions(preset, "soc")
        assert np.array_equal(platform, software)

    def test_cp_preset_exact_models_agree(self):
        vectorized = self._decisions(
            "cp-pair", "vectorized", fft_size=64, num_blocks=64
        )
        reference = self._decisions(
            "cp-pair", "reference", fft_size=64, num_blocks=64
        )
        assert np.array_equal(vectorized, reference)
        assert vectorized.any()  # the CP emitters are actually detected
