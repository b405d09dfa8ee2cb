"""Tests for repro.core.scf (expression 3) — the heart of the paper."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import _compute
from repro.core import scf
from repro.core.fourier import block_spectra
from repro.core.opcount import OperationCounter
from repro.core.sampling import SampledSignal
from repro.core.scf import (
    DSCFResult,
    GramKernel,
    compute_dscf,
    default_m,
    dscf,
    dscf_from_signal,
    dscf_reference,
    parity_split,
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


#: Half-extents of the kernel tests at K=256: a small width the share
#: rule keeps whole, the smallest that splits, a Haswell/Zen clash
#: width and the paper point.
KERNEL_MS = (7, 12, 49, 63)
KERNEL_BLOCKS = 8
KERNEL_FFT = 256


def _word_bits(array):
    """Raw bits of a float or complex array, one unsigned integer per
    real component."""
    array = np.ascontiguousarray(array)
    return array.view(f"u{array.real.itemsize}")


def _kernel_spectra(precision, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, KERNEL_BLOCKS, KERNEL_FFT)) * scale
    with np.errstate(over="ignore"):
        return (parts[0] + 1j * parts[1]).astype(
            _compute.complex_dtype(precision)
        )


def _kernel_values(kernel, spectra, m):
    values = np.empty((2 * m + 1, 2 * m + 1), spectra.dtype)
    with np.errstate(all="ignore"):
        kernel.correlate(spectra)
        kernel.values(values)
    return values


def _plane_values(spectra, m):
    """``S`` read from the full Gram plane, ``np.matmul(X.T, conj(X))
    / N`` of the ``4M+1`` bins around the center."""
    center = spectra.shape[1] // 2
    window = np.ascontiguousarray(
        spectra[:, center - 2 * m : center + 2 * m + 1]
    )
    offsets = np.arange(2 * m + 1)
    with np.errstate(all="ignore"):
        gram = np.matmul(window.T, np.conj(window))
        values = gram[
            offsets[:, None] + offsets[None, :],
            offsets[:, None] - offsets[None, :] + 2 * m,
        ]
        values /= len(window)
    return values


class TestGramKernel:
    """One Gram kernel for both precisions: the layout depends on the
    width only, building a kernel pins numpy's OpenBLAS to one thread,
    and both the parity layout and the full plane it falls back to give
    the plane's bits."""

    def test_pin_leaves_one_blas_thread(self):
        assert _compute.pin_blas_thread()
        _, get_threads = _compute._openblas_thread_calls()
        assert get_threads() == 1

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_building_a_kernel_pins_the_process(self, precision):
        # A fresh process started with two BLAS threads: the count
        # reads 2 (or the CPUs there are) until a kernel is built.
        script = (
            "from repro import _compute; "
            "from repro.core.scf import GramKernel; "
            "get = _compute._openblas_thread_calls()[1]; "
            "before = get(); "
            f"GramKernel(8, 256, 63, {precision!r}); "
            "print(before, get())"
        )
        source = str(Path(scf.__file__).parents[2])
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="2",
            PYTHONPATH=os.pathsep.join(
                [source, os.environ.get("PYTHONPATH", "")]
            ),
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        before, after = map(int, child.stdout.split())
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        )
        assert (before, after) == (min(2, cpus), 1)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_layout_depends_only_on_the_width(self, precision):
        for m in KERNEL_MS:
            kernel = GramKernel(KERNEL_BLOCKS, KERNEL_FFT, m, precision)
            assert (kernel._columns is not None) == parity_split(m), m

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_unpinnable_blas_keeps_the_plane_bits(
        self, precision, monkeypatch
    ):
        spectra = _kernel_spectra(precision)
        split = {
            m: _kernel_values(
                GramKernel(KERNEL_BLOCKS, KERNEL_FFT, m, precision), spectra, m
            )
            for m in KERNEL_MS
        }
        # A BLAS the pin cannot reach computes every width whole.
        monkeypatch.setattr(scf, "pin_blas_thread", lambda: False)
        for m in KERNEL_MS:
            kernel = GramKernel(KERNEL_BLOCKS, KERNEL_FFT, m, precision)
            assert kernel._columns is None
            whole = _kernel_values(kernel, spectra, m)
            expected = _word_bits(_plane_values(spectra, m))
            np.testing.assert_array_equal(_word_bits(whole), expected)
            np.testing.assert_array_equal(_word_bits(split[m]), expected)

    @pytest.mark.parametrize(
        "precision, huge", [("float64", 1e200), ("float32", 1e30)]
    )
    def test_magnitude_is_the_modulus_of_values(self, precision, huge):
        # Finite cells, then block 0 holding huge*(1+1j) one bin above
        # the center and huge one below: their Gram cell overflows to
        # inf in both parts, which complex division by N turns into
        # NaN, so magnitude must redo the plane to match.
        for m in KERNEL_MS:
            kernel = GramKernel(KERNEL_BLOCKS, KERNEL_FFT, m, precision)
            surface = np.empty((2 * m + 1, 2 * m + 1), kernel.surface.dtype)
            finite = _kernel_spectra(precision, seed=m)
            overflowing = finite.copy()
            overflowing[0, KERNEL_FFT // 2 + 1] = huge * (1 + 1j)
            overflowing[0, KERNEL_FFT // 2 - 1] = huge
            for spectra in (finite, overflowing):
                values = _kernel_values(kernel, spectra, m)
                with np.errstate(all="ignore"):
                    kernel.magnitude(surface)
                    expected = np.abs(values)
                np.testing.assert_array_equal(
                    _word_bits(surface), _word_bits(expected), err_msg=str(m)
                )
            assert np.isnan(values[m, m + 1])
