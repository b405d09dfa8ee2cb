"""Tests for repro.core.scf (expression 3) — the heart of the paper."""

import numpy as np
import pytest

from repro.core.fourier import block_spectra
from repro.core.opcount import OperationCounter
from repro.core.sampling import SampledSignal
from repro.core.scf import (
    DSCFResult,
    compute_dscf,
    default_m,
    dscf,
    dscf_from_signal,
    dscf_reference,
    spectral_coherence,
    validate_m,
)
from repro.errors import ConfigurationError, SignalError
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn


class TestDefaultM:
    def test_paper_value(self):
        # K = 256 -> f, a in [-63, 63] -> the 127 x 127 DSCF
        assert default_m(256) == 63

    @pytest.mark.parametrize("k,expected", [(16, 3), (64, 15), (128, 31), (512, 127)])
    def test_small_sizes(self, k, expected):
        assert default_m(k) == expected

    def test_indices_stay_in_spectrum(self):
        for k in (16, 64, 256):
            m = default_m(k)
            assert 2 * m <= k // 2 - 1  # f+a and f-a remain valid bins

    def test_rejects_tiny_fft(self):
        with pytest.raises(ConfigurationError):
            default_m(2)


class TestValidateM:
    def test_defaults(self):
        assert validate_m(256, None) == 63

    def test_accepts_smaller(self):
        assert validate_m(256, 10) == 10

    def test_rejects_larger(self):
        with pytest.raises(ConfigurationError):
            validate_m(256, 64)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validate_m(256, -1)


class TestEstimatorEquivalence:
    """The reference and production estimators must agree."""

    def test_reference_equals_vectorized(self, small_spectra, small_m):
        ref = dscf_reference(small_spectra, small_m)
        vec = dscf(small_spectra, small_m)
        assert np.allclose(ref, vec)

    def test_single_block(self, small_spectra, small_m):
        one = small_spectra[:1]
        assert np.allclose(dscf_reference(one, small_m), dscf(one, small_m))

    @pytest.mark.parametrize("m", [11, 12])  # plane / same-parity kernel
    def test_reference_equals_vectorized_on_bpsk(self, m):
        k = 64
        signal = bpsk_signal(k * 8, 1e6, samples_per_symbol=4, seed=3)
        spectra = block_spectra(signal.samples, k)
        assert np.allclose(dscf_reference(spectra, m), dscf(spectra, m))


class TestDscfStructure:
    def test_shape(self, small_spectra, small_m):
        values = dscf(small_spectra, small_m)
        assert values.shape == (2 * small_m + 1, 2 * small_m + 1)

    def test_a0_column_is_psd(self, small_spectra, small_m):
        # S_f^0 = mean |X[f]|^2 is real and non-negative
        values = dscf(small_spectra, small_m)
        column = values[:, small_m]
        assert np.allclose(column.imag, 0.0)
        assert (column.real >= 0).all()

    def test_hermitian_symmetry_in_a(self, small_spectra, small_m):
        # S_f^{-a} = conj(S_f^{a}) since swapping a conjugates the product
        values = dscf(small_spectra, small_m)
        assert np.allclose(values[:, ::-1], np.conj(values))

    def test_operation_count_matches_closed_form(self, small_spectra, small_m):
        counter = OperationCounter()
        dscf_reference(small_spectra, small_m, counter=counter)
        extent = 2 * small_m + 1
        expected = extent * extent * small_spectra.shape[0]
        assert counter.complex_multiplications == expected

    def test_rejects_empty_spectra(self):
        with pytest.raises(ConfigurationError):
            dscf(np.zeros((0, 16)))

    def test_tone_appears_on_dscf_diagonal(self):
        # A pure tone at bin v0 has energy only at (f=v0, a=0) plus the
        # points where f+a = f-a = v0.
        k = 16
        v0 = 2
        n = np.arange(k * 4)
        x = np.exp(2j * np.pi * v0 * n / k)
        spectra = block_spectra(x, k)
        values = dscf(spectra, 3)
        m = 3
        peak = np.abs(values[v0 + m, m])
        others = np.abs(values).sum() - peak
        assert peak > 100 * others


class TestDSCFResult:
    def make_result(self, small_spectra, small_m, fs=None):
        return compute_dscf(small_spectra, small_m, sample_rate_hz=fs)

    def test_extent(self, small_spectra, small_m):
        assert self.make_result(small_spectra, small_m).extent == 7

    def test_axes(self, small_spectra, small_m):
        result = self.make_result(small_spectra, small_m)
        assert list(result.f_axis) == list(range(-3, 4))
        assert list(result.a_axis) == list(range(-3, 4))

    def test_get_matches_values(self, small_spectra, small_m):
        result = self.make_result(small_spectra, small_m)
        assert result.get(1, -2) == result.values[1 + 3, -2 + 3]

    def test_get_rejects_outside(self, small_spectra, small_m):
        with pytest.raises(SignalError):
            self.make_result(small_spectra, small_m).get(4, 0)

    def test_alpha_axis_needs_sample_rate(self, small_spectra, small_m):
        with pytest.raises(SignalError):
            self.make_result(small_spectra, small_m).alpha_axis_hz()

    def test_alpha_axis_formula(self, small_spectra, small_m, small_k):
        result = self.make_result(small_spectra, small_m, fs=1e6)
        alpha = result.alpha_axis_hz()
        # alpha = 2 a fs / K
        assert alpha[-1] == pytest.approx(2 * small_m * 1e6 / small_k)

    def test_frequency_axis_formula(self, small_spectra, small_m, small_k):
        result = self.make_result(small_spectra, small_m, fs=1e6)
        assert result.frequency_axis_hz()[0] == pytest.approx(
            -small_m * 1e6 / small_k
        )

    def test_psd_column(self, small_spectra, small_m):
        result = self.make_result(small_spectra, small_m)
        assert np.allclose(
            result.psd_column(), result.values[:, small_m].real
        )

    def test_alpha_profile_reducers(self, small_spectra, small_m):
        result = self.make_result(small_spectra, small_m)
        peak = result.alpha_profile("max")
        total = result.alpha_profile("sum")
        assert (total >= peak).all()

    def test_alpha_profile_rejects_unknown_reducer(self, small_spectra, small_m):
        with pytest.raises(ConfigurationError):
            self.make_result(small_spectra, small_m).alpha_profile("median")

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            DSCFResult(values=np.zeros((3, 5)), m=2, num_blocks=1, fft_size=16)


class TestDscfFromSignal:
    def test_carries_sample_rate(self):
        signal = SampledSignal(awgn(16 * 4, seed=0), 2e6)
        result = dscf_from_signal(signal, 16)
        assert result.sample_rate_hz == 2e6

    def test_raw_array_has_no_rate(self):
        result = dscf_from_signal(awgn(16 * 4, seed=0), 16)
        assert result.sample_rate_hz is None

    def test_bpsk_feature_at_symbol_rate(self):
        # sps = 8, K = 64 -> strongest non-zero feature at a = K/(2*sps) = 4
        signal = bpsk_signal(64 * 150, 1e6, samples_per_symbol=8, seed=42)
        result = dscf_from_signal(signal, 64)
        profile = result.alpha_profile("max")
        profile[result.m] = 0  # drop the PSD column
        peak_offset = abs(int(result.a_axis[np.argmax(profile)]))
        assert peak_offset == 4

    def test_noise_has_no_cyclic_features(self):
        # coherence at a != 0 stays well below 1 for pure noise
        samples = awgn(16 * 200, seed=11)
        result = dscf_from_signal(samples, 16)
        spectra = block_spectra(samples, 16)
        coherence = spectral_coherence(
            result, np.mean(np.abs(spectra) ** 2, axis=0)
        )
        off_psd = np.delete(coherence, result.m, axis=1)
        assert off_psd.max() < 0.5


class TestCoherence:
    def test_bounded_by_one_for_psd_column(self, small_spectra, small_m, small_k):
        result = compute_dscf(small_spectra, small_m)
        psd = np.mean(np.abs(small_spectra) ** 2, axis=0)
        coherence = spectral_coherence(result, psd)
        # a = 0: |S_f^0| / PSD[f] = 1 exactly
        assert np.allclose(coherence[:, small_m], 1.0)

    def test_rejects_wrong_psd_shape(self, small_spectra, small_m):
        result = compute_dscf(small_spectra, small_m)
        with pytest.raises(ConfigurationError):
            spectral_coherence(result, np.ones(8))

    def test_floor_prevents_division_by_zero(self, small_m, small_k):
        spectra = np.zeros((2, small_k), dtype=complex)
        spectra[:, 0] = 1.0  # single occupied bin
        result = compute_dscf(spectra, small_m)
        psd = np.mean(np.abs(spectra) ** 2, axis=0)
        coherence = spectral_coherence(result, psd)
        assert np.isfinite(coherence).all()
