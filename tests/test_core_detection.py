"""Tests for repro.core.detection — the three spectrum-sensing detectors."""

import numpy as np
import pytest

from repro.core.detection import (
    CyclostationaryFeatureDetector,
    DetectionReport,
    EnergyDetector,
    MatchedFilterDetector,
    calibration_quantile,
    inverse_q_function,
)
from repro.engine import CallableStatisticPlan, Engine
from repro.errors import ConfigurationError, SignalError
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn


class TestInverseQ:
    def test_median(self):
        assert inverse_q_function(0.5) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "p,expected",
        [(0.158655, 1.0), (0.022750, 2.0), (0.001350, 3.0)],
    )
    def test_known_values(self, p, expected):
        assert inverse_q_function(p) == pytest.approx(expected, abs=1e-3)

    def test_symmetry(self):
        assert inverse_q_function(0.9) == pytest.approx(
            -inverse_q_function(0.1), abs=1e-9
        )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ConfigurationError):
            inverse_q_function(p)


class TestEnergyDetector:
    def test_statistic_is_mean_power(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=4)
        assert detector.statistic(np.array([1.0, 1.0, 1.0, 1.0])) == pytest.approx(1.0)

    def test_statistic_requires_enough_samples(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=8)
        with pytest.raises(SignalError):
            detector.statistic(np.ones(4))

    def test_threshold_increases_with_stricter_pfa(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=100)
        assert detector.threshold_for_pfa(0.001) > detector.threshold_for_pfa(0.1)

    def test_threshold_scales_with_uncertainty(self):
        base = EnergyDetector(noise_power=1.0, num_samples=100)
        uncertain = EnergyDetector(
            noise_power=1.0, num_samples=100, noise_uncertainty_db=3.0
        )
        ratio = uncertain.threshold_for_pfa(0.05) / base.threshold_for_pfa(0.05)
        assert ratio == pytest.approx(10 ** 0.3, rel=1e-6)

    def test_false_alarm_rate_near_target(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=1000)
        threshold = detector.threshold_for_pfa(0.1)
        alarms = sum(
            detector.statistic(awgn(1000, seed=seed)) > threshold
            for seed in range(300)
        )
        assert 0.04 < alarms / 300 < 0.2

    def test_detects_strong_signal(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=512)
        samples = awgn(512, seed=1) + 2.0  # strong DC offset
        report = detector.detect(samples, pfa=0.01)
        assert report.detected
        assert isinstance(report, DetectionReport)

    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ConfigurationError):
            EnergyDetector(1.0, 16, noise_uncertainty_db=-1.0)

    def test_snr_wall_behaviour(self):
        """With noise uncertainty, a weak signal becomes undetectable even
        with long integration — the classic argument for CFD."""
        num = 4096
        snr_linear = 10 ** (-6 / 10)  # -6 dB signal
        uncertain = EnergyDetector(
            noise_power=1.0, num_samples=num, noise_uncertainty_db=2.0
        )
        certain = EnergyDetector(noise_power=1.0, num_samples=num)
        # expected received power under H1
        received = 1.0 + snr_linear
        assert received > certain.threshold_for_pfa(0.05)  # detectable
        assert received < uncertain.threshold_for_pfa(0.05)  # walled off


class TestMatchedFilter:
    def test_perfect_match_yields_template_energy(self):
        template = awgn(64, seed=2)
        detector = MatchedFilterDetector(template)
        energy = float(np.sum(np.abs(template) ** 2))
        assert detector.statistic(template) == pytest.approx(energy)

    def test_orthogonal_signal_scores_low(self):
        template = np.exp(2j * np.pi * 3 * np.arange(64) / 64)
        other = np.exp(2j * np.pi * 7 * np.arange(64) / 64)
        detector = MatchedFilterDetector(template)
        assert detector.statistic(other) < 1e-20

    def test_template_length(self):
        assert MatchedFilterDetector(np.ones(32)).template_length == 32

    def test_rejects_zero_template(self):
        with pytest.raises(ConfigurationError):
            MatchedFilterDetector(np.zeros(8))

    def test_requires_enough_samples(self):
        detector = MatchedFilterDetector(np.ones(16))
        with pytest.raises(SignalError):
            detector.statistic(np.ones(8))

    def test_detect_uses_threshold(self):
        detector = MatchedFilterDetector(np.ones(8))
        report = detector.detect(np.ones(8), threshold=100.0)
        assert not report.detected


class TestCyclostationaryDetector:
    def make(self, **kwargs):
        defaults = dict(fft_size=32, num_blocks=24)
        defaults.update(kwargs)
        return CyclostationaryFeatureDetector(**defaults)

    def test_samples_required(self):
        assert self.make().samples_required == 32 * 24

    def test_properties(self):
        detector = self.make(m=4)
        assert detector.fft_size == 32
        assert detector.num_blocks == 24
        assert detector.m == 4

    def test_rejects_zero_cyclic_bin(self):
        with pytest.raises(ConfigurationError):
            self.make(cyclic_bins=(0,))

    def test_rejects_out_of_range_cyclic_bin(self):
        with pytest.raises(ConfigurationError):
            self.make(m=3, cyclic_bins=(5,))

    def test_signal_scores_above_noise(self):
        detector = CyclostationaryFeatureDetector(fft_size=32, num_blocks=48)
        needed = detector.samples_required
        signal = bpsk_signal(needed, 1e6, samples_per_symbol=4, seed=3)
        mixed = signal.samples + awgn(needed, seed=4)
        noise_stats = [
            detector.statistic(awgn(needed, seed=100 + s)) for s in range(6)
        ]
        assert detector.statistic(mixed) > max(noise_stats)

    def test_targeted_bins_match_full_scan_at_peak(self):
        sps, k = 4, 32
        expected_a = k // (2 * sps)
        full = CyclostationaryFeatureDetector(fft_size=k, num_blocks=48)
        targeted = CyclostationaryFeatureDetector(
            fft_size=k, num_blocks=48, cyclic_bins=(expected_a, -expected_a)
        )
        needed = full.samples_required
        signal = bpsk_signal(needed, 1e6, samples_per_symbol=sps, seed=5)
        assert targeted.statistic(signal) == pytest.approx(
            full.statistic(signal), rel=0.2
        )

    def test_unnormalized_mode(self):
        detector = self.make(normalize=False)
        samples = awgn(detector.samples_required, seed=6)
        surface = detector.feature_surface(samples)
        assert surface.shape == (2 * detector.m + 1, 2 * detector.m + 1)

    def test_detect_report(self):
        detector = self.make()
        samples = awgn(detector.samples_required, seed=7)
        report = detector.detect(samples, threshold=np.inf)
        assert not report.detected
        assert report.detector == "cyclostationary"


def calibrate_threshold(statistic_fn, noise_factory, pfa, trials=200):
    """Monte-Carlo threshold of an ad-hoc detector through the engine."""
    statistics = Engine().monte_carlo_statistics(
        noise_factory, trials, plan=CallableStatisticPlan(statistic_fn)
    )
    return calibration_quantile(statistics, pfa)


class TestCalibrateThreshold:
    def test_quantile_semantics(self):
        statistics = iter(np.linspace(0, 1, 100))
        threshold = calibrate_threshold(
            statistic_fn=lambda _x: next(statistics),
            noise_factory=lambda trial: np.zeros(1),
            pfa=0.1,
            trials=100,
        )
        assert threshold == pytest.approx(0.9, abs=0.02)

    def test_rejects_bad_pfa(self):
        with pytest.raises(ConfigurationError):
            calibrate_threshold(lambda x: 0.0, lambda t: np.zeros(1), pfa=0.0)

    def test_holds_false_alarm_rate(self):
        detector = EnergyDetector(noise_power=1.0, num_samples=256)
        threshold = calibrate_threshold(
            detector.statistic,
            lambda trial: awgn(256, seed=trial),
            pfa=0.1,
            trials=200,
        )
        alarms = sum(
            detector.statistic(awgn(256, seed=10_000 + s)) > threshold
            for s in range(200)
        )
        assert 0.03 < alarms / 200 < 0.25
