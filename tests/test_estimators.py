"""Tests for the full-plane estimator family (FAM, SSCA).

The subsystem's contracts:

* **channelizer fidelity** — the demodulate front-end is bit-for-bit
  expression 2 (``repro.core.fourier.block_spectra``) for uncentered
  frames, batched and single paths identical;
* **estimation correctness** — both estimators place a BPSK signal's
  cyclic feature at its symbol rate, on the full plane and after
  projection onto the DSCF grid (the acceptance operating point:
  K = 256, the paper's candidate cyclic-offset set);
* **pipeline integration** — ``fam``/``ssca`` are registered backends
  whose batched, per-trial and pipeline paths agree bit-for-bit.
"""

import numpy as np
import pytest

from repro.analysis.sweeps import pd_vs_snr_by_backend
from repro.core.fourier import block_spectra
from repro.core.sampling import SampledSignal
from repro.core.scf import DSCFResult
from repro.errors import ConfigurationError, SignalError
from repro.estimators import (
    BatchedFAM,
    ChannelizerPlan,
    CyclicSpectrum,
    FAMEstimator,
    LatticeProjection,
    SSCAEstimator,
    bin_to_plane,
)
from repro.engine import Engine
from repro.pipeline import (
    DetectionPipeline,
    EstimatorBackend,
    PipelineConfig,
    available_backends,
    get_backend,
)
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn

SAMPLE_RATE = 1e6
SPS = 8  # BPSK samples/symbol -> cyclic feature at fs/8


@pytest.fixture(scope="module")
def paper_observation():
    """BPSK + noise at the paper's K = 256, N = 32 operating point."""
    config = PipelineConfig(fft_size=256, num_blocks=32)
    num = config.samples_per_decision
    user = bpsk_signal(num, SAMPLE_RATE, samples_per_symbol=SPS, seed=1)
    return user.samples + 0.5 * awgn(num, seed=2)


@pytest.fixture(scope="module")
def small_batch():
    config = PipelineConfig(fft_size=32, num_blocks=16)
    return config, np.stack(
        [awgn(config.samples_per_decision, seed=300 + t) for t in range(5)]
    )


class TestChannelizer:
    def test_uncentered_matches_block_spectra_bitwise(self):
        signal = awgn(512, seed=10)
        plan = ChannelizerPlan(32, hop=8, window="hann", center=False)
        expected = block_spectra(signal, 32, hop=8, window="hann")
        assert (plan.demodulates(signal) == expected).all()

    def test_batch_matches_single_bitwise(self):
        signals = np.stack([awgn(256, seed=20 + t) for t in range(4)])
        plan = ChannelizerPlan(16, hop=4, window="hamming")
        batched = plan.demodulates_batch(signals)
        for trial, signal in enumerate(signals):
            assert (batched[trial] == plan.demodulates(signal)).all()

    def test_centered_frame_count_is_one_per_hop_position(self):
        plan = ChannelizerPlan(16, hop=1, center=True)
        assert plan.num_frames(100) == 100
        assert ChannelizerPlan(16, hop=4, center=True).num_frames(100) == 25

    def test_tone_demodulates_to_baseband(self):
        # A tone on a channel center must be constant over frames once
        # the absolute-time phase reference has removed its carrier.
        plan = ChannelizerPlan(16, hop=4, window="rectangular")
        tone = np.exp(2j * np.pi * (3 / 16) * np.arange(256))
        demodulates = plan.demodulates(tone) / plan.coherent_gain
        channel = demodulates[:, 3 + 8]  # centered bin +3
        np.testing.assert_allclose(channel, channel[0], atol=1e-9)

    def test_rejects_short_signal(self):
        with pytest.raises(SignalError, match="frames"):
            ChannelizerPlan(64).demodulates(awgn(32, seed=1))

    def test_rejects_2d_signal(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            ChannelizerPlan(8).demodulates(np.zeros((2, 64), dtype=complex))


class TestCyclicSpectrum:
    def make(self):
        values = np.zeros((3, 5), dtype=complex)
        values[1, 3] = 2.0  # f = 0, alpha = +1000
        values[0, 4] = 1.0  # f = -500, alpha = +2000
        return CyclicSpectrum(
            values=values,
            freq_hz=np.array([-500.0, 0.0, 500.0]),
            alpha_hz=np.array([-2000.0, -1000.0, 0.0, 1000.0, 2000.0]),
            sample_rate_hz=8000.0,
            estimator="fam",
        )

    def test_resolutions(self):
        spectrum = self.make()
        assert spectrum.freq_resolution_hz == 500.0
        assert spectrum.alpha_resolution_hz == 1000.0

    def test_alpha_profile_matches_dscf_contract(self):
        spectrum = self.make()
        peak = spectrum.alpha_profile("max")
        total = spectrum.alpha_profile("sum")
        assert peak.shape == (5,)
        assert (total >= peak).all()
        with pytest.raises(ConfigurationError, match="reducer"):
            spectrum.alpha_profile("median")

    def test_peak_and_guard(self):
        spectrum = self.make()
        assert spectrum.peak().alpha_hz == 1000.0
        assert spectrum.peak(min_alpha_hz=1500.0).alpha_hz == 2000.0
        with pytest.raises(SignalError, match="alpha"):
            spectrum.peak(min_alpha_hz=1e9)

    def test_top_peaks_separation(self):
        spectrum = self.make()
        peaks = spectrum.top_peaks(count=3, min_separation_hz=500.0)
        alphas = [peak.alpha_hz for peak in peaks]
        assert alphas[:2] == [1000.0, 2000.0]

    def test_alpha_cut_picks_nearest_column(self):
        spectrum = self.make()
        assert spectrum.alpha_cut(1200.0)[1] == 2.0

    def test_rejects_mismatched_axes(self):
        with pytest.raises(ConfigurationError, match="shape"):
            CyclicSpectrum(
                values=np.zeros((2, 2), dtype=complex),
                freq_hz=np.array([0.0, 1.0]),
                alpha_hz=np.array([0.0, 1.0, 2.0]),
                sample_rate_hz=1.0,
                estimator="fam",
            )

    def test_rejects_unsorted_axis(self):
        with pytest.raises(ConfigurationError, match="increasing"):
            CyclicSpectrum(
                values=np.zeros((2, 2), dtype=complex),
                freq_hz=np.array([1.0, 0.0]),
                alpha_hz=np.array([0.0, 1.0]),
                sample_rate_hz=1.0,
                estimator="fam",
            )


class TestGrid:
    def test_bin_to_plane_max_wins_and_empty_cells_zero(self):
        spectrum = bin_to_plane(
            f_norm=np.array([0.0, 0.0, 0.25]),
            alpha_norm=np.array([0.1, 0.1, -0.2]),
            values=np.array([1 + 0j, 3 + 0j, 2 + 0j]),
            freq_step=0.25,
            alpha_step=0.1,
            sample_rate_hz=1.0,
            estimator="fam",
        )
        assert spectrum.values[1, 3] == 3 + 0j  # max of the two collisions
        assert spectrum.values[2, 0] == 2 + 0j
        assert np.count_nonzero(spectrum.values) == 2

    def test_projection_drops_outside_points(self):
        projection = LatticeProjection(
            f_norm=np.array([0.0, 0.4]),  # second point beyond |f| <= m/K
            alpha_norm=np.array([0.0, 0.0]),
            fft_size=16,
            m=3,
        )
        grid = projection.project(np.array([2.0, 5.0]))
        assert grid.shape == (7, 7)
        assert grid[3, 3] == 2.0
        assert grid.sum() == 2.0

    def test_projection_point_map_requires_num_points(self):
        with pytest.raises(ConfigurationError, match="num_points"):
            LatticeProjection(
                f_norm=np.zeros(2),
                alpha_norm=np.zeros(2),
                fft_size=16,
                m=3,
                point_map=np.array([0, 0]),
            )

    def test_projection_validates_magnitude_length(self):
        projection = LatticeProjection(
            f_norm=np.zeros(3), alpha_norm=np.zeros(3), fft_size=16, m=3
        )
        with pytest.raises(ConfigurationError, match="lattice points"):
            projection.project(np.zeros(5))


class TestFullPlaneEstimation:
    """Both estimators localise the BPSK feature at alpha = fs / sps."""

    def test_fam_peak_on_symbol_rate(self, paper_observation):
        estimator = FAMEstimator(num_channels=64)
        spectrum = estimator.estimate(
            paper_observation, sample_rate_hz=SAMPLE_RATE
        )
        peak = spectrum.peak(min_alpha_hz=16 * spectrum.alpha_resolution_hz)
        assert abs(abs(peak.alpha_hz) - SAMPLE_RATE / SPS) <= (
            spectrum.alpha_resolution_hz
        )

    def test_ssca_peak_on_symbol_rate(self, paper_observation):
        estimator = SSCAEstimator(num_channels=64)
        spectrum = estimator.estimate(
            paper_observation, sample_rate_hz=SAMPLE_RATE
        )
        peak = spectrum.peak(min_alpha_hz=16 * spectrum.alpha_resolution_hz)
        assert abs(abs(peak.alpha_hz) - SAMPLE_RATE / SPS) <= (
            spectrum.alpha_resolution_hz
        )

    def test_sampled_signal_carries_rate_into_axes(self):
        signal = SampledSignal(awgn(1024, seed=9), 48000.0)
        spectrum = FAMEstimator(num_channels=16).estimate(signal)
        assert spectrum.sample_rate_hz == 48000.0
        # FAM covers alpha = (f_i - f_j) +- fs/(2L): just beyond fs.
        assert spectrum.alpha_hz.max() <= 48000.0 * (1.0 + 1.0 / (2 * 4))

    def test_fam_resolutions(self):
        estimator = FAMEstimator(num_channels=32, hop=8)
        assert estimator.freq_resolution(1e6) == pytest.approx(1e6 / 32)
        assert estimator.alpha_resolution(50, 1e6) == pytest.approx(
            1e6 / (50 * 8)
        )

    def test_ssca_resolutions(self):
        estimator = SSCAEstimator(num_channels=32)
        assert estimator.freq_resolution(1e6) == pytest.approx(1e6 / 32)
        assert estimator.alpha_resolution(4096, 1e6) == pytest.approx(
            1e6 / 4096
        )


class TestDSCFGridAgreement:
    """Acceptance: at the paper's K = 256 operating point the projected
    FAM/SSCA coherence peaks agree with the reference DSCF peak alpha
    to within one alpha-bin (cyclic features come in +-alpha pairs, so
    the comparison is on |alpha|)."""

    @pytest.fixture(scope="class")
    def peak_bins(self, paper_observation):
        config = PipelineConfig(fft_size=256, num_blocks=32)
        bins = {}
        for name in ("vectorized", "fam", "ssca"):
            plan = Engine().plan(config.with_backend(name))
            surface = plan.surfaces(paper_observation[None])[0]
            profile = surface.max(axis=0)
            profile[config.m] = 0.0  # exclude a = 0 (the PSD)
            bins[name] = abs(int(np.argmax(profile)) - config.m)
        return bins

    def test_fam_peak_alpha_within_one_bin(self, peak_bins):
        assert abs(peak_bins["fam"] - peak_bins["vectorized"]) <= 1

    def test_ssca_peak_alpha_within_one_bin(self, peak_bins):
        assert abs(peak_bins["ssca"] - peak_bins["vectorized"]) <= 1

    def test_reference_peak_is_the_symbol_rate(self, peak_bins):
        # alpha = 2 a fs / K  ->  a = (fs/SPS) K / (2 fs) = K / (2 SPS)
        assert peak_bins["vectorized"] == 256 // (2 * SPS)


class TestEstimatorBackends:
    def test_registered_and_protocol(self):
        names = available_backends()
        for name in ("fam", "ssca"):
            assert name in names
            backend = get_backend(name)
            assert isinstance(backend, EstimatorBackend)
            assert not backend.capabilities.dscf_exact
            assert backend.capabilities.supports_batch
            assert backend.capabilities.complexity

    def test_compute_returns_dscf_grid(self, small_batch):
        config, signals = small_batch
        for name in ("fam", "ssca"):
            result = get_backend(name).compute(
                signals[0], config.with_backend(name)
            )
            assert isinstance(result, DSCFResult)
            assert result.values.shape == (config.extent, config.extent)
            assert result.fft_size == config.fft_size
            assert (result.values.imag == 0).all()  # peak magnitudes

    def test_compute_carries_sample_rate(self, small_batch):
        config, signals = small_batch
        signal = SampledSignal(signals[0], SAMPLE_RATE)
        for name in ("fam", "ssca"):
            result = get_backend(name).compute(
                signal, config.with_backend(name)
            )
            assert result.sample_rate_hz == SAMPLE_RATE

    def test_compute_rejects_spectra_input(self, small_batch):
        config, _ = small_batch
        spectra = np.zeros((config.num_blocks, config.fft_size), dtype=complex)
        for name in ("fam", "ssca"):
            with pytest.raises(ConfigurationError, match="raw samples"):
                get_backend(name).compute(spectra, config.with_backend(name))

    def test_batch_bitwise_equals_singletons(self, small_batch):
        config, signals = small_batch
        for name in ("fam", "ssca"):
            plan = Engine().plan(config.with_backend(name))
            batched = plan.statistics(signals)
            singles = np.array(
                [plan.statistics(signal[None])[0] for signal in signals]
            )
            assert (batched == singles).all()

    def test_batch_values_bitwise_equal_backend_compute(self, small_batch):
        config, signals = small_batch
        for name in ("fam", "ssca"):
            named = config.with_backend(name)
            plan = Engine().plan(named)
            values = plan.dscf_values(signals[:2])
            for trial in range(2):
                computed = get_backend(name).compute(signals[trial], named)
                assert (values[trial] == computed.values).all()

    def test_pipeline_statistic_matches_batch(self, small_batch):
        config, signals = small_batch
        for name in ("fam", "ssca"):
            pipeline = DetectionPipeline(config.with_backend(name))
            batched = Engine().statistics(
                signals[:3], config=config.with_backend(name)
            )
            per_trial = np.array(
                [pipeline.statistic(signal) for signal in signals[:3]]
            )
            assert (batched == per_trial).all()

    def test_results_record_estimator_averaging_length(self, small_batch):
        config, signals = small_batch
        plan = Engine().plan(config.with_backend("fam"))
        results = plan.results(signals[:2])
        assert results[0].num_blocks == plan.executor.averaging_length

    def test_detection_end_to_end(self):
        config = PipelineConfig(
            fft_size=32, num_blocks=32, calibration_trials=40, pfa=0.05
        )
        num = config.samples_per_decision
        amplitude = 10 ** (6 / 20.0)
        occupied = (
            amplitude
            * bpsk_signal(num, SAMPLE_RATE, samples_per_symbol=4, seed=3).samples
            + awgn(num, seed=103)
        )
        vacant = awgn(num, seed=203)
        for name in ("fam", "ssca"):
            pipeline = DetectionPipeline(config.with_backend(name))
            pipeline.calibrate()
            assert pipeline.detect(occupied).detected
            assert not pipeline.detect(vacant).detected

    def test_backend_estimate_returns_cyclic_spectrum(self, small_batch):
        config, signals = small_batch
        named = config.with_backend("fam")
        spectrum = get_backend("fam").estimate(signals[0], named)
        assert isinstance(spectrum, CyclicSpectrum)
        assert spectrum.estimator == "fam"

    def test_fresh_isolates_plan_cache(self, small_batch):
        config, _ = small_batch
        backend = get_backend("fam")
        private = backend.fresh()
        assert private is not backend
        assert type(private) is type(backend)

    def test_plan_cache_reuses_plans(self, small_batch):
        config, _ = small_batch
        backend = get_backend("fam").fresh()
        named = config.with_backend("fam")
        assert backend.batch_plan(named) is backend.batch_plan(named)


class TestConfigValidation:
    def test_rejects_non_positive_estimator_fields(self):
        for field in ("fam_channels", "fam_hop", "fam_blocks", "ssca_channels"):
            with pytest.raises(ConfigurationError):
                PipelineConfig(fft_size=32, **{field: 0})

    def test_rejects_unknown_estimator_window(self):
        with pytest.raises(ConfigurationError, match="window"):
            PipelineConfig(fft_size=32, estimator_window="bogus")

    def test_fam_plan_rejects_infeasible_frame_count(self):
        config = PipelineConfig(
            fft_size=32, num_blocks=4, backend="fam", fam_blocks=10_000
        )
        with pytest.raises(ConfigurationError, match="frames"):
            Engine().plan(config)

    def test_fam_estimator_rejects_tiny_channel_count(self):
        with pytest.raises(ConfigurationError, match="channels"):
            FAMEstimator(num_channels=2)

    def test_ssca_estimator_rejects_tiny_strip_count(self):
        with pytest.raises(ConfigurationError, match="strips"):
            SSCAEstimator(num_channels=2)

    def test_batched_fam_honours_explicit_geometry(self):
        plan = BatchedFAM(
            samples_per_decision=512,
            fft_size=32,
            m=7,
            num_channels=16,
            hop=4,
            num_blocks=32,
        )
        assert plan.averaging_length == 32
        assert plan.estimator.hop == 4


class TestAnalysisIntegration:
    def test_pd_vs_snr_by_backend_sweeps_each_backend(self):
        config = PipelineConfig(fft_size=32, num_blocks=16)
        num = config.samples_per_decision

        def h0(trial):
            return awgn(num, seed=400 + trial)

        def h1(snr_db, trial):
            rng = np.random.default_rng(500 + trial)
            user = bpsk_signal(
                num, SAMPLE_RATE, samples_per_symbol=4, rng=rng
            ).samples
            return 10 ** (snr_db / 20.0) * user + awgn(num, rng=rng)

        sweeps = pd_vs_snr_by_backend(
            config, h0, h1, snrs_db=(10.0,), trials=10,
            backends=("vectorized", "fam"),
        )
        assert set(sweeps) == {"vectorized", "fam"}
        for name, sweep in sweeps.items():
            assert sweep.detector_name == f"cyclostationary/{name}"
            assert 0.0 <= sweep.pds()[0] <= 1.0