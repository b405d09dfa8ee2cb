"""Tests for repro.scanner — channelizer, scanner, classifier, scoring.

The cross-model agreement battery lives here and in
``tests/test_cross_model_agreement.py``: for every scenario preset the
registered estimator backends must agree on occupancy decisions at
matched operating points, and the scanner's batched path must be
bit-for-bit the per-band singleton path on *every* backend.
"""

import numpy as np
import pytest

from repro.analysis.occupancy import (
    EmitterAttribution,
    OccupancyConfusion,
    attribute_emitters,
    format_attribution,
    occupancy_confusion,
)
from repro.engine import Engine
from repro.errors import ConfigurationError, SignalError
from repro.pipeline import PipelineConfig, available_backends
from repro.scanner import (
    BandDecision,
    BandScanner,
    OccupancyMap,
    ScannerChannelizer,
    classify_modulation,
    spectral_line_ratio,
)
from repro.signals import (
    awgn,
    bpsk_signal,
    ofdm_signal,
    qam16_signal,
    qpsk_signal,
    scenario_preset,
    scfdma_signal,
)

FS = 4e6


def small_config(**overrides):
    defaults = dict(
        fft_size=32,
        num_blocks=32,
        scan_bands=4,
        sample_rate_hz=FS,
        calibration_trials=20,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestScannerChannelizer:
    def test_noise_power_preserved_per_band(self):
        channelizer = ScannerChannelizer(8)
        noise = awgn(8 * 4096, power=2.0, seed=0)
        bands = channelizer.split(noise)
        for band in bands:
            assert np.mean(np.abs(band) ** 2) == pytest.approx(2.0, rel=0.1)

    def test_tone_lands_in_its_band_only(self):
        channelizer = ScannerChannelizer(8)
        n = 8 * 1024
        t = np.arange(n)
        # a tone at the centre of band 6 (centred bin +2 of 8)
        tone = np.exp(2j * np.pi * (2.0 / 8.0) * t)
        bands = channelizer.split(tone)
        powers = np.mean(np.abs(bands) ** 2, axis=1)
        assert np.argmax(powers) == 6
        assert powers[6] > 1e6 * np.delete(powers, 6).max()

    def test_total_power_conserved(self):
        """Parseval: the rectangular bank partitions the capture."""
        channelizer = ScannerChannelizer(4)
        samples = awgn(4 * 512, power=1.0, seed=3)
        bands = channelizer.split(samples)
        assert np.sum(np.abs(bands) ** 2) == pytest.approx(
            np.sum(np.abs(samples) ** 2)
        )

    def test_band_ordering_matches_band_edges(self):
        from repro.signals.wideband import band_edges_hz

        channelizer = ScannerChannelizer(4)
        assert channelizer.band_edges(FS) == band_edges_hz(4, FS)

    def test_required_samples(self):
        assert ScannerChannelizer(4).required_samples(100) == 400
        assert (
            ScannerChannelizer(4, taps_per_band=3).required_samples(100)
            == 99 * 4 + 12
        )

    def test_polyphase_prototype_improves_selectivity(self):
        """A longer prototype attenuates an adjacent-band edge tone."""
        n = 8 * 2048
        t = np.arange(n)
        # a tone just inside band 5's upper edge, adjacent to band 6
        tone = np.exp(2j * np.pi * (1.44 / 8.0) * t)
        leak = []
        for taps_per_band in (1, 8):
            channelizer = ScannerChannelizer(8, taps_per_band=taps_per_band)
            bands = channelizer.split(tone)
            powers = np.mean(np.abs(bands) ** 2, axis=1)
            leak.append(powers[6] / powers[5])
        assert leak[1] < 0.5 * leak[0]

    def test_input_validation(self):
        channelizer = ScannerChannelizer(4)
        with pytest.raises(ConfigurationError):
            channelizer.split(np.ones((2, 64)))
        with pytest.raises(SignalError):
            channelizer.split(np.ones(16), band_samples=100)
        with pytest.raises(ConfigurationError):
            ScannerChannelizer(0)


class TestClassifier:
    def test_bpsk(self):
        signal = bpsk_signal(4096, FS, samples_per_symbol=4, seed=1)
        received = 3.0 * signal.samples + awgn(4096, seed=2)
        assert classify_modulation(received).label == "bpsk"

    def test_qpsk(self):
        signal = qpsk_signal(4096, FS, samples_per_symbol=4, seed=3)
        received = 3.0 * signal.samples + awgn(4096, seed=4)
        assert classify_modulation(received).label == "qpsk"

    def test_qam16(self):
        signal = qam16_signal(4096, FS, samples_per_symbol=4, seed=5)
        received = 3.0 * signal.samples + awgn(4096, seed=6)
        assert classify_modulation(received).label == "qam16"

    def test_ofdm_vs_scfdma(self):
        kwargs = dict(n_fft=96, n_cp=32, active_subcarriers=64)
        ofdm = ofdm_signal(8192, FS, seed=7, **kwargs)
        scfdma = scfdma_signal(8192, FS, seed=8, **kwargs)
        ofdm_rx = 3.0 * ofdm.samples + awgn(8192, seed=9)
        scfdma_rx = 3.0 * scfdma.samples + awgn(8192, seed=10)
        assert classify_modulation(ofdm_rx).label == "cp-ofdm"
        assert classify_modulation(scfdma_rx).label == "cp-scfdma"

    def test_carrier_offset_tolerated(self):
        signal = bpsk_signal(
            4096, FS, samples_per_symbol=4, seed=11,
            carrier_offset_hz=FS / 37.0,
        )
        received = 3.0 * signal.samples + awgn(4096, seed=12)
        assert classify_modulation(received).label == "bpsk"

    def test_noise_only_is_unknown(self):
        guess = classify_modulation(awgn(4096, seed=13))
        assert guess.label == "unknown"
        assert guess.diagnostics["signal_power"] < 1.0

    def test_spectral_line_ratio_extremes(self):
        t = np.arange(1024)
        line = np.exp(2j * np.pi * (128 / 1024) * t)
        assert spectral_line_ratio(line, 1) == pytest.approx(1.0)
        assert spectral_line_ratio(np.zeros(16, dtype=complex), 2) == 0.0

    def test_diagnostics_present(self):
        guess = classify_modulation(awgn(1024, seed=14))
        assert set(guess.diagnostics) == {
            "signal_power",
            "conjugate_line",
            "fourth_order_line",
            "kurtosis",
        }


class TestOccupancyMap:
    def make_map(self):
        bands = tuple(
            BandDecision(
                index=i,
                f_low_hz=float(i) * 1e6,
                f_high_hz=float(i + 1) * 1e6,
                statistic=0.1 * (i + 1),
                occupied=i == 2,
                label="qpsk" if i == 2 else None,
            )
            for i in range(4)
        )
        return OccupancyMap(
            bands=bands, threshold=0.25, backend="vectorized",
            sample_rate_hz=FS,
        )

    def test_properties(self):
        occupancy = self.make_map()
        assert occupancy.num_bands == 4
        assert occupancy.occupied_bands == (2,)
        assert occupancy.labels[2] == "qpsk"
        assert np.allclose(occupancy.statistics, [0.1, 0.2, 0.3, 0.4])
        assert occupancy.band(2).center_hz == pytest.approx(2.5e6)

    def test_summary_mentions_decisions(self):
        text = self.make_map().summary()
        assert "OCCUPIED" in text and "vacant" in text and "qpsk" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            OccupancyMap(bands=(), threshold=0.1, backend="x")
        band = BandDecision(1, None, None, 0.0, False)
        with pytest.raises(ConfigurationError, match="indexed"):
            OccupancyMap(bands=(band,), threshold=0.1, backend="x")
        occupancy = self.make_map()
        with pytest.raises(ConfigurationError, match="band index"):
            occupancy.band(9)


class TestBandScanner:
    def test_geometry(self):
        scanner = BandScanner(small_config())
        assert scanner.band_samples == 32 * 32
        assert scanner.required_samples == 4 * 32 * 32
        assert scanner.band_sample_rate_hz == pytest.approx(FS / 4)

    def test_config_scan_bands_and_override(self):
        assert BandScanner(small_config()).num_bands == 4
        assert BandScanner(small_config(), num_bands=8).num_bands == 8

    def test_leak_margin_scales_threshold(self):
        plain = BandScanner(small_config())
        guarded = BandScanner(small_config(), leak_margin=1.5)
        assert guarded.calibrate() == pytest.approx(1.5 * plain.calibrate())
        with pytest.raises(ConfigurationError, match="leak_margin"):
            BandScanner(small_config(), leak_margin=0.5)

    def test_rejects_bad_inputs(self):
        scanner = BandScanner(small_config())
        with pytest.raises(SignalError, match="capture samples"):
            scanner.scan(np.ones(16, dtype=complex))
        with pytest.raises(ConfigurationError, match="1-D"):
            scanner.channelize(np.ones((2, 4096)))
        with pytest.raises(ConfigurationError, match="noise_power"):
            BandScanner(small_config(), noise_power=0.0)

    def test_scan_recovers_linear_pair(self):
        scenario, bands = scenario_preset("linear-pair", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands), leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture)
        assert np.array_equal(occupancy.decisions, truth.band_mask(bands))
        for name in truth.active_names:
            band = truth.emitter_band(name, bands)
            assert occupancy.band(band).label == truth.truth_of(
                name
            ).modulation_class

    def test_classification_can_be_disabled(self):
        scenario, bands = scenario_preset("single-qpsk", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands), leak_margin=1.6)
        capture, _truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture, classify=False)
        assert all(label is None for label in occupancy.labels)

    def test_explicit_threshold_skips_calibration(self):
        scenario, bands = scenario_preset("single-qpsk", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands))
        capture, _truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture, threshold=0.9, classify=False)
        assert scanner.threshold is None
        assert occupancy.threshold == pytest.approx(0.9)

    def test_scan_many_matches_scan(self):
        scenario, bands = scenario_preset("linear-pair", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands), leak_margin=1.6)
        captures = np.stack(
            [
                scenario.realize(scanner.required_samples, seed=s)[0].samples
                for s in (1, 2, 3)
            ]
        )
        many = scanner.scan_many(captures)
        for seed, occupancy in zip((1, 2, 3), many):
            single = scanner.scan(captures[list((1, 2, 3)).index(seed)],
                                  classify=False)
            assert np.array_equal(occupancy.statistics, single.statistics)

    def test_taps_per_band_calibration_uses_channelized_noise(self):
        """Overlapping prototypes colour sub-band noise; the calibrated
        threshold must track the (higher) coloured-noise quantile."""
        plain = BandScanner(small_config(calibration_trials=30))
        overlapped = BandScanner(
            small_config(calibration_trials=30), taps_per_band=4
        )
        assert overlapped.calibrate() != pytest.approx(
            plain.calibrate(), rel=1e-6
        )


class TestBatchedSingletonParity:
    """Acceptance criterion: a scan's statistics are bitwise the
    per-band :meth:`DetectionPipeline.statistic` loop for every
    registered backend."""

    @staticmethod
    def _linear_pair(backend, engine=None):
        scenario, bands = scenario_preset("linear-pair", sample_rate_hz=FS)
        config = PipelineConfig(
            fft_size=16,
            num_blocks=8,
            backend=backend,
            scan_bands=bands,
            sample_rate_hz=FS,
        )
        scanner = BandScanner(config, engine=engine)
        capture, _truth = scenario.realize(scanner.required_samples, seed=4)
        return scanner, capture

    @staticmethod
    def _per_band_loop(scanner, capture):
        return np.array(
            [
                scanner.pipeline.statistic(series)
                for series in scanner.channelize(capture)
            ]
        )

    @pytest.mark.parametrize("backend", available_backends())
    def test_scan_equals_per_band_pipeline_loop_bitwise(self, backend):
        scanner, capture = self._linear_pair(backend)
        scanned = scanner.scan(capture, classify=False, threshold=0.5)
        assert np.array_equal(
            scanned.statistics, self._per_band_loop(scanner, capture)
        )

    def test_sharded_loop_scan_equals_per_band_pipeline_loop_bitwise(self):
        # The reference backend executes through the per-trial loop
        # plan; sharding that loop must not move a bit either.
        with Engine(jobs=2) as engine:
            scanner, capture = self._linear_pair("reference", engine=engine)
            scanned = scanner.scan(capture, classify=False, threshold=0.5)
            assert np.array_equal(
                scanned.statistics, self._per_band_loop(scanner, capture)
            )

    def test_scan_many_stack_is_bitwise_consistent(self):
        scenario, bands = scenario_preset("single-qpsk", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands))
        captures = np.stack(
            [
                scenario.realize(scanner.required_samples, seed=s)[0].samples
                for s in (5, 6)
            ]
        )
        many = scanner.scan_many(captures, threshold=0.5)
        for index, occupancy in enumerate(many):
            alone = scanner.scan(
                captures[index], classify=False, threshold=0.5
            )
            assert np.array_equal(occupancy.statistics, alone.statistics)


class TestCrossModelAgreementBattery:
    """For every scenario preset, the estimator backends agree on
    occupancy decisions at matched operating points.

    The full-plane estimators (fam/ssca) are asserted on the linear
    and bursty presets; the cyclic-prefix presets are exact-DSCF-only
    because the CP feature (alpha = fs/(n_fft + n_cp)) is too weak for
    the channelizer-front-end estimators at this observation length —
    their lattice smears the narrow alpha line that the direct DSCF
    resolves on its grid.
    """

    LINEAR_PRESETS = ("single-qpsk", "linear-pair", "bursty")

    @pytest.mark.parametrize("preset", LINEAR_PRESETS)
    @pytest.mark.parametrize(
        "backend", ("vectorized", "reference", "fam", "ssca")
    )
    def test_linear_presets_agree_with_truth(self, preset, backend):
        scenario, bands = scenario_preset(preset, sample_rate_hz=FS)
        config = small_config(scan_bands=bands, backend=backend,
                              calibration_trials=30)
        scanner = BandScanner(config, leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture, classify=False)
        assert np.array_equal(occupancy.decisions, truth.band_mask(bands))

    @pytest.mark.parametrize("preset", LINEAR_PRESETS)
    def test_linear_presets_agree_on_soc(self, preset):
        scenario, bands = scenario_preset(preset, sample_rate_hz=FS)
        config = small_config(
            scan_bands=bands, backend="soc", calibration_trials=30,
        )
        scanner = BandScanner(config, leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture, classify=False)
        assert np.array_equal(occupancy.decisions, truth.band_mask(bands))

    @pytest.mark.parametrize("backend", ("vectorized", "reference"))
    def test_cp_preset_agrees_on_exact_backends(self, backend):
        scenario, bands = scenario_preset("cp-pair", sample_rate_hz=FS)
        config = small_config(
            fft_size=64, num_blocks=64, scan_bands=bands, backend=backend,
            calibration_trials=30,
        )
        scanner = BandScanner(config, leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture, classify=False)
        assert np.array_equal(occupancy.decisions, truth.band_mask(bands))

    def test_five_emitter_full_recovery(self):
        """The acceptance scenario: all five emitters recovered blind,
        band and modulation class."""
        scenario, bands = scenario_preset("five-emitter", sample_rate_hz=8e6)
        config = PipelineConfig(
            fft_size=64,
            num_blocks=64,
            scan_bands=bands,
            sample_rate_hz=8e6,
            calibration_trials=40,
        )
        scanner = BandScanner(config, leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=7)
        occupancy = scanner.scan(capture)
        assert np.array_equal(occupancy.decisions, truth.band_mask(bands))
        attributions = attribute_emitters(truth, occupancy)
        assert len(attributions) == 5
        assert all(entry.recovered for entry in attributions)


class TestOccupancyScoring:
    def test_confusion_counts_and_metrics(self):
        truth = np.array([True, True, False, False])
        decided = np.array([True, False, True, False])
        confusion = occupancy_confusion(truth, decided)
        assert (
            confusion.true_positive,
            confusion.false_positive,
            confusion.false_negative,
            confusion.true_negative,
        ) == (1, 1, 1, 1)
        assert confusion.precision == pytest.approx(0.5)
        assert confusion.recall == pytest.approx(0.5)
        assert confusion.f1 == pytest.approx(0.5)
        assert confusion.accuracy == pytest.approx(0.5)
        assert confusion.num_bands == 4

    def test_confusion_degenerate_cases(self):
        empty = occupancy_confusion([False, False], [False, False])
        assert empty.precision == 1.0 and empty.recall == 1.0

    def test_confusion_addition(self):
        a = occupancy_confusion([True], [True])
        b = occupancy_confusion([False], [True])
        total = a + b
        assert total.true_positive == 1 and total.false_positive == 1

    def test_confusion_validation(self):
        with pytest.raises(ConfigurationError):
            occupancy_confusion([True, False], [True])

    def test_attribute_emitters_and_format(self):
        scenario, bands = scenario_preset("linear-pair", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands), leak_margin=1.6)
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        occupancy = scanner.scan(capture)
        attributions = attribute_emitters(truth, occupancy)
        assert {entry.name for entry in attributions} == set(
            truth.active_names
        )
        assert all(isinstance(e, EmitterAttribution) for e in attributions)
        table = format_attribution(attributions)
        assert "bpsk-low" in table and "recovered" in table

    def test_attribution_records_miss(self):
        scenario, bands = scenario_preset("single-qpsk", sample_rate_hz=FS)
        scanner = BandScanner(small_config(scan_bands=bands))
        capture, truth = scenario.realize(scanner.required_samples, seed=9)
        # An absurd threshold misses everything.
        occupancy = scanner.scan(capture, threshold=1e9, classify=False)
        attributions = attribute_emitters(truth, occupancy)
        assert not attributions[0].detected
        assert not attributions[0].recovered
        assert "MISSED" in format_attribution(attributions)
