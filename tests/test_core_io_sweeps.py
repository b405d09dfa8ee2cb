"""Tests for repro.core.io (DSCF persistence) and repro.analysis.sweeps."""

import numpy as np
import pytest

from repro.analysis.sweeps import DetectionSweep, SweepPoint
from repro.core.detection import EnergyDetector
from repro.core.io import load_dscf, save_dscf
from repro.core.scf import dscf_from_signal
from repro.core.sampling import SampledSignal
from repro.engine import CallableStatisticPlan, Engine
from repro.errors import ConfigurationError
from repro.signals.noise import awgn


class TestDscfPersistence:
    def make_result(self, with_rate=True):
        samples = awgn(16 * 4, seed=0)
        signal = SampledSignal(samples, 1e6) if with_rate else samples
        return dscf_from_signal(signal, 16)

    def test_round_trip(self, tmp_path):
        result = self.make_result()
        path = save_dscf(result, tmp_path / "scan")
        loaded = load_dscf(path)
        assert np.array_equal(loaded.values, result.values)
        assert loaded.m == result.m
        assert loaded.num_blocks == result.num_blocks
        assert loaded.fft_size == result.fft_size
        assert loaded.sample_rate_hz == result.sample_rate_hz

    def test_suffix_appended(self, tmp_path):
        path = save_dscf(self.make_result(), tmp_path / "scan")
        assert path.suffix == ".npz"

    def test_missing_sample_rate_round_trips_as_none(self, tmp_path):
        result = self.make_result(with_rate=False)
        loaded = load_dscf(save_dscf(result, tmp_path / "no_rate"))
        assert loaded.sample_rate_hz is None

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such file"):
            load_dscf(tmp_path / "absent.npz")

    def test_load_rejects_foreign_archive(self, tmp_path):
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, stuff=np.ones(3))
        with pytest.raises(ConfigurationError, match="not a DSCF archive"):
            load_dscf(foreign)

    def test_save_rejects_non_result(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_dscf(np.ones((3, 3)), tmp_path / "x")


class TestDetectionSweep:
    def make_sweep(self):
        num = 512
        detector = EnergyDetector(noise_power=1.0, num_samples=num)

        def h0(trial):
            return awgn(num, seed=1000 + trial)

        def h1(snr_db, trial):
            amplitude = 10 ** (snr_db / 20.0)
            rng = np.random.default_rng(2000 + trial)
            return awgn(num, rng=rng) + amplitude * np.exp(
                2j * np.pi * rng.uniform() * np.arange(num)
            )

        return Engine().map_operating_points(
            h0,
            h1,
            snrs_db=(-15.0, -10.0, -5.0, 0.0, 5.0),
            plan=CallableStatisticPlan(detector.statistic),
            pfa=0.1,
            trials=40,
            detector_name="energy",
        )

    def test_curve_monotone_overall(self):
        sweep = self.make_sweep()
        pds = sweep.pds()
        assert pds[-1] > pds[0]
        assert pds[-1] > 0.9   # strong signal always detected
        assert pds[0] < 0.5    # deep below the floor: near the Pfa

    def test_threshold_constant_across_points(self):
        sweep = self.make_sweep()
        thresholds = {point.threshold for point in sweep.points}
        assert len(thresholds) == 1

    def test_snr_for_pd_interpolates(self):
        sweep = self.make_sweep()
        sensitivity = sweep.snr_for_pd(0.9)
        assert -15.0 <= sensitivity <= 5.0

    def test_snr_for_pd_validates(self):
        sweep = DetectionSweep(
            detector_name="x",
            pfa=0.1,
            points=(SweepPoint(0.0, 0.5, 1.0),),
        )
        with pytest.raises(ConfigurationError):
            sweep.snr_for_pd(1.5)

    def test_pfa_validated(self):
        with pytest.raises(ConfigurationError):
            Engine().map_operating_points(
                lambda t: np.zeros(4), lambda s, t: np.zeros(4), (0.0,),
                plan=CallableStatisticPlan(lambda x: 0.0), pfa=0.0,
            )
