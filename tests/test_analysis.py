"""Tests for repro.analysis (ROC machinery and feature metrics)."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    estimate_symbol_rate_bins,
    feature_snr_db,
    peak_cyclic_offsets,
    peak_to_average_ratio,
)
from repro.analysis.roc import (
    RocCurve,
    auc,
    detection_probability,
    roc_curve,
)
from repro.engine import CallableStatisticPlan, Engine
from repro.core.scf import dscf_from_signal
from repro.errors import ConfigurationError, SignalError
from repro.signals.modulators import bpsk_signal


class TestRocCurve:
    def test_separable_statistics_give_auc_one(self):
        h0 = np.linspace(0.0, 1.0, 50)
        h1 = np.linspace(2.0, 3.0, 50)
        curve = roc_curve(h0, h1)
        assert curve.area() == pytest.approx(1.0)

    def test_identical_distributions_give_diagonal(self):
        values = np.linspace(0, 1, 200)
        curve = roc_curve(values, values)
        assert curve.area() == pytest.approx(0.5, abs=0.02)

    def test_curve_spans_corners(self):
        curve = roc_curve(np.arange(10.0), np.arange(10.0) + 5)
        assert curve.pfa.min() == 0.0 and curve.pfa.max() == 1.0
        assert curve.pd.min() == 0.0 and curve.pd.max() == 1.0

    def test_pd_at_pfa_interpolates(self):
        curve = roc_curve(np.linspace(0, 1, 100), np.linspace(0.5, 1.5, 100))
        pd = curve.pd_at_pfa(0.1)
        assert 0.0 <= pd <= 1.0

    def test_pd_at_pfa_rejects_out_of_range(self):
        curve = roc_curve(np.arange(5.0), np.arange(5.0))
        with pytest.raises(ConfigurationError):
            curve.pd_at_pfa(1.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            roc_curve(np.array([]), np.array([1.0]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            RocCurve(
                pfa=np.zeros(3), pd=np.zeros(4), thresholds=np.zeros(3)
            )


class TestAuc:
    def test_unit_square(self):
        assert auc(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            auc(np.array([0.5]), np.array([0.5]))


class TestDetectionProbability:
    def test_counts_exceedances(self):
        stats = np.array([0.1, 0.5, 0.9, 1.5])
        assert detection_probability(stats, 0.7) == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            detection_probability(np.array([]), 0.0)


class TestMonteCarlo:
    def test_calls_factory_per_trial(self):
        calls = []

        def factory(trial):
            calls.append(trial)
            return np.ones(4) * trial

        stats = Engine().monte_carlo_statistics(
            factory, 5, plan=CallableStatisticPlan(lambda x: float(x.sum()))
        )
        assert calls == [0, 1, 2, 3, 4]
        assert stats.shape == (5,)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            Engine().monte_carlo_statistics(
                lambda t: np.zeros(1),
                0,
                plan=CallableStatisticPlan(lambda x: 0.0),
            )


class TestMetrics:
    @pytest.fixture
    def bpsk_result(self):
        signal = bpsk_signal(64 * 150, 1e6, samples_per_symbol=8, seed=9)
        return dscf_from_signal(signal, 64)

    def test_peak_to_average_flat_profile(self):
        assert peak_to_average_ratio(np.ones(11)) == pytest.approx(1.0)

    def test_peak_to_average_spiky_profile(self):
        profile = np.ones(11)
        profile[2] = 50.0
        assert peak_to_average_ratio(profile) > 5.0

    def test_peak_to_average_excludes_center(self):
        profile = np.ones(11)
        profile[5] = 100.0  # center: excluded by default
        assert peak_to_average_ratio(profile) == pytest.approx(1.0)

    def test_peak_to_average_rejects_short(self):
        with pytest.raises(ConfigurationError):
            peak_to_average_ratio(np.ones(2))

    def test_peak_to_average_rejects_zero_mean(self):
        with pytest.raises(SignalError):
            peak_to_average_ratio(np.zeros(9))

    def test_peak_offsets_bpsk(self, bpsk_result):
        offsets = peak_cyclic_offsets(bpsk_result, count=2)
        assert sorted(abs(a) for a in offsets) == [4, 4]

    def test_peak_offsets_count_validated(self, bpsk_result):
        with pytest.raises(ConfigurationError):
            peak_cyclic_offsets(bpsk_result, count=0)

    def test_symbol_rate_estimate(self, bpsk_result):
        # sps = 8 on K = 64 -> symbol rate = 8 bins
        assert estimate_symbol_rate_bins(bpsk_result) == 8

    def test_feature_snr_positive_at_peak(self, bpsk_result):
        assert feature_snr_db(bpsk_result, 4) > 6.0

    def test_feature_snr_rejects_zero_offset(self, bpsk_result):
        with pytest.raises(ConfigurationError):
            feature_snr_db(bpsk_result, 0)
