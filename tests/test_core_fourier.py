"""Tests for repro.core.fourier (expression 2)."""

import numpy as np
import pytest

from repro._compute import tile_trials
from repro.core.fourier import (
    bit_reverse_indices,
    block_gather,
    block_spectra,
    centered_to_fft_index,
    dft,
    fft_radix2,
    fft_to_centered_index,
    framed_spectra,
    ifft_radix2,
    phase_table,
    power_spectral_density,
)
from repro.core.opcount import OperationCounter
from repro.core.sampling import SampledSignal
from repro.errors import ConfigurationError
from repro.core.windows import get_window
from repro.signals.noise import awgn


class TestDft:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(dft(x), np.fft.fft(x))

    def test_positive_sign_is_conjugate_kernel(self, rng):
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(dft(x, sign=+1), np.conj(np.fft.fft(np.conj(x))))

    def test_counts_k_squared_multiplications(self):
        counter = OperationCounter()
        dft(np.ones(8), counter=counter)
        assert counter.complex_multiplications == 64

    def test_rejects_bad_sign(self):
        with pytest.raises(ConfigurationError):
            dft(np.ones(4), sign=2)

    def test_non_power_of_two_allowed(self, rng):
        x = rng.normal(size=12) + 0j
        assert np.allclose(dft(x), np.fft.fft(x))


class TestBitReversal:
    def test_size_8(self):
        assert list(bit_reverse_indices(8)) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_is_a_permutation(self):
        indices = bit_reverse_indices(64)
        assert sorted(indices) == list(range(64))

    def test_is_an_involution(self):
        indices = bit_reverse_indices(32)
        assert np.array_equal(indices[indices], np.arange(32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            bit_reverse_indices(12)


class TestFftRadix2:
    @pytest.mark.parametrize("size", [2, 4, 16, 64, 256])
    def test_matches_numpy(self, rng, size):
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert np.allclose(fft_radix2(x), np.fft.fft(x))

    def test_multiplication_count_is_half_n_log_n(self):
        counter = OperationCounter()
        fft_radix2(np.ones(256), counter=counter)
        assert counter.complex_multiplications == 128 * 8  # (N/2) log2 N

    def test_addition_count(self):
        counter = OperationCounter()
        fft_radix2(np.ones(16), counter=counter)
        assert counter.complex_additions == 2 * 8 * 4

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            fft_radix2(np.ones(12))

    def test_inverse_round_trip(self, rng):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(ifft_radix2(fft_radix2(x)), x)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft_radix2(x), 1.0)


class TestCenteredIndexing:
    def test_round_trip(self):
        for v in range(-8, 8):
            assert fft_to_centered_index(centered_to_fft_index(v, 16), 16) == v

    def test_dc_maps_to_zero(self):
        assert centered_to_fft_index(0, 16) == 0

    def test_negative_bins_wrap(self):
        assert centered_to_fft_index(-1, 16) == 15


class TestBlockSpectra:
    def test_shape(self):
        spectra = block_spectra(awgn(64, seed=0), 16)
        assert spectra.shape == (4, 16)

    def test_centered_ordering(self, rng):
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        centered = block_spectra(x, 16, centered=True)
        natural = block_spectra(x, 16, centered=False)
        assert np.allclose(centered[0], np.fft.fftshift(natural[0]))

    def test_engines_agree(self):
        x = awgn(32, seed=3)
        a = block_spectra(x, 16, engine="numpy")
        b = block_spectra(x, 16, engine="radix2")
        c = block_spectra(x, 16, engine="direct")
        assert np.allclose(a, b)
        assert np.allclose(a, c)

    def test_phase_reference_identity_for_hop_k(self):
        # hop == K: the absolute-time phase is 1, so expression 2 is a
        # plain FFT of each block.
        x = awgn(48, seed=4)
        plain = np.fft.fftshift(np.fft.fft(x.reshape(3, 16), axis=1), axes=1)
        assert np.allclose(block_spectra(x, 16), plain)

    def test_phase_reference_matches_expression2(self):
        # Direct evaluation of expression 2 for one overlapping block.
        x = awgn(24, seed=6)
        fft_size, hop, n = 16, 4, 2
        spectra = block_spectra(x, fft_size, hop=hop, centered=False)
        start = n * hop
        k = np.arange(fft_size)
        expected = np.array(
            [
                np.sum(x[start + k] * np.exp(-2j * np.pi * v * (start + k) / fft_size))
                for v in range(fft_size)
            ]
        )
        assert np.allclose(spectra[n], expected)

    def test_num_blocks_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            block_spectra(awgn(32, seed=0), 16, num_blocks=3)

    def test_accepts_sampled_signal(self):
        signal = SampledSignal(awgn(64, seed=1), 1e6)
        assert block_spectra(signal, 16).shape == (4, 16)

    def test_window_applied(self):
        x = np.ones(16, dtype=complex)
        rect = block_spectra(x, 16, window="rectangular", centered=False)
        hann = block_spectra(x, 16, window="hann", centered=False)
        assert rect[0, 0] == pytest.approx(16.0)
        assert abs(hann[0, 0]) == pytest.approx(8.0, rel=1e-6)

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            block_spectra(awgn(32, seed=0), 16, engine="fftw")


class TestFramedSpectra:
    """The front end's tile loop and its slice-written fftshift keep
    float64 bits equal to the whole-batch ``fftshift(fft(...))``."""

    @staticmethod
    def _reference(batch, gather, taper, phase):
        blocks = batch[:, gather]
        blocks *= taper
        spectra = np.fft.fft(blocks, axis=2)
        if phase is not None:
            spectra *= phase
        return np.fft.fftshift(spectra, axes=2)

    @pytest.mark.parametrize(
        "fft_size, hop", [(256, 3), (256, 64), (256, 256), (15, 4)]
    )
    @pytest.mark.parametrize("phased", [True, False])
    @pytest.mark.parametrize("stream", ["noise", "signed-zeros"])
    def test_float64_bits_equal_fftshift_of_fft(
        self, fft_size, hop, phased, stream
    ):
        num_blocks = 32
        starts = np.arange(num_blocks) * hop
        gather = block_gather(starts, fft_size)
        taper = get_window("hann", fft_size)
        phase = phase_table(starts, fft_size) if phased else None
        tile = tile_trials(3 * gather.size * 16)
        trials = min(2 * tile + tile // 2, 40)  # several tiles at K=256
        length = int(starts[-1]) + fft_size
        rng = np.random.default_rng(11)
        if stream == "noise":
            batch = rng.normal(size=(trials, length)) + 1j * rng.normal(
                size=(trials, length)
            )
        else:
            batch = np.empty((trials, length), dtype=np.complex128)
            batch.real = np.copysign(0.0, rng.normal(size=(trials, length)))
            batch.imag = np.copysign(0.0, rng.normal(size=(trials, length)))
        actual = framed_spectra(batch, gather, taper, phase)
        expected = self._reference(batch, gather, taper, phase)
        assert actual.dtype == expected.dtype == np.complex128
        assert np.array_equal(
            np.ascontiguousarray(actual).view(np.uint64),
            np.ascontiguousarray(expected).view(np.uint64),
        )


class TestPsd:
    def test_white_noise_is_flat(self):
        spectra = block_spectra(awgn(16 * 400, seed=7, power=1.0), 16)
        psd = power_spectral_density(spectra)
        # mean |X|^2 / K of unit-power noise ~ 1 per bin
        assert psd.mean() == pytest.approx(1.0, rel=0.1)
        assert psd.std() < 0.3

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            power_spectral_density(np.zeros((0, 4)))
