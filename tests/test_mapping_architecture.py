"""Tests for repro.mapping.architecture — the executable array models."""

import numpy as np
import pytest

from repro.core.fourier import block_spectra
from repro.core.scf import dscf
from repro.errors import ConfigurationError, SignalError
from repro.mapping.architecture import FoldedArray, ProcessingElement, SystolicArray
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn


class TestProcessingElement:
    def test_figure3_register_pe(self):
        pe = ProcessingElement(memory_depth=1)
        pe.mac(2.0 + 0j, 3.0 + 0j)
        pe.mac(1.0 + 0j, 1.0 + 0j)
        assert pe.read() == pytest.approx(7.0 + 0j)
        assert pe.mac_count == 2

    def test_figure4_memory_pe(self):
        pe = ProcessingElement(memory_depth=4)
        pe.mac(1.0, 1.0, address=2)
        pe.mac(1.0, 2.0, address=2)
        assert pe.read(2) == pytest.approx(3.0 + 0j)
        assert pe.read(0) == 0j

    def test_address_bounds(self):
        pe = ProcessingElement(memory_depth=2)
        with pytest.raises(ConfigurationError):
            pe.mac(1.0, 1.0, address=2)
        with pytest.raises(ConfigurationError):
            pe.read(5)

    def test_reset(self):
        pe = ProcessingElement(memory_depth=2)
        pe.mac(1.0, 1.0)
        pe.reset()
        assert pe.mac_count == 0
        assert pe.read(0) == 0j


class TestSystolicArray:
    """Figure 7's array must reproduce the reference DSCF exactly."""

    def test_structure(self):
        array = SystolicArray(3, 16)
        assert array.num_processors == 7
        assert array.total_registers == 14

    def test_matches_reference_noise(self, small_spectra, small_m, small_k):
        array = SystolicArray(small_m, small_k)
        for spectrum in small_spectra:
            array.integrate_block(spectrum)
        reference = dscf(small_spectra, small_m)
        assert np.allclose(array.result(), reference)

    def test_matches_reference_bpsk(self):
        k, m = 32, 7
        signal = bpsk_signal(k * 8, 1e6, samples_per_symbol=4, seed=0)
        spectra = block_spectra(signal.samples, k)
        array = SystolicArray(m, k)
        for spectrum in spectra:
            array.integrate_block(spectrum)
        assert np.allclose(array.result(), dscf(spectra, m))

    def test_blocks_integrated_counter(self, small_spectra, small_m, small_k):
        array = SystolicArray(small_m, small_k)
        array.integrate_block(small_spectra[0])
        assert array.blocks_integrated == 1

    def test_result_requires_blocks(self):
        with pytest.raises(SignalError):
            SystolicArray(3, 16).result()

    def test_reset(self, small_spectra, small_m, small_k):
        array = SystolicArray(small_m, small_k)
        array.integrate_block(small_spectra[0])
        array.reset()
        assert array.blocks_integrated == 0
        with pytest.raises(SignalError):
            array.result()

    def test_reset_then_reintegrate_matches_fresh(
        self, small_spectra, small_m, small_k
    ):
        fresh = SystolicArray(small_m, small_k)
        reused = SystolicArray(small_m, small_k)
        reused.integrate_block(small_spectra[-1])
        reused.reset()
        for spectrum in small_spectra:
            fresh.integrate_block(spectrum)
            reused.integrate_block(spectrum)
        assert np.array_equal(reused.result(), fresh.result())

    def test_properties(self, small_m):
        array = SystolicArray(small_m, 16)
        assert array.m == small_m
        assert array.num_processors == 2 * small_m + 1

    def test_spectrum_shape_checked(self):
        array = SystolicArray(3, 16)
        with pytest.raises(ConfigurationError):
            array.integrate_block(np.zeros(8, dtype=complex))

    def test_mac_count_per_block(self, small_spectra, small_m, small_k):
        array = SystolicArray(small_m, small_k)
        array.integrate_block(small_spectra[0])
        extent = 2 * small_m + 1
        # every PE performs F macs per block
        total = sum(pe.mac_count for pe in array._pes)
        assert total == extent * extent


class TestFoldedArray:
    """Figure 9's folded array: same numbers, Q cores."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 7])
    def test_matches_reference_any_fold(
        self, cores, small_spectra, small_m, small_k
    ):
        array = FoldedArray(small_m, small_k, num_cores=cores)
        for spectrum in small_spectra:
            array.integrate_block(spectrum)
        assert np.allclose(array.result(), dscf(small_spectra, small_m))

    def test_macs_per_core_per_step_equals_t(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=3)
        for spectrum in small_spectra:
            array.integrate_block(spectrum)
        assert array.macs_per_core_per_step() == pytest.approx(
            array.fold.tasks_per_core
        )

    def test_transfers_per_block_is_2m(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=3)
        array.integrate_block(small_spectra[0])
        assert array.transfers_per_block() == 2 * small_m

    def test_padded_macs_counted(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=3)  # T=3, 9 slots, 7 tasks
        array.integrate_block(small_spectra[0])
        extent = 2 * small_m + 1
        assert array.padded_mac_count == 2 * extent
        assert array.valid_mac_count == extent * extent

    def test_single_core_has_no_boundaries(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=1)
        array.integrate_block(small_spectra[0])
        with pytest.raises(SignalError):
            array.transfers_per_block()

    def test_transfer_counts_symmetric(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=2)
        array.integrate_block(small_spectra[0])
        for counts in array.transfer_counts.values():
            assert counts["conjugate"] == counts["normal"]

    def test_reset(self, small_spectra, small_m, small_k):
        array = FoldedArray(small_m, small_k, num_cores=2)
        array.integrate_block(small_spectra[0])
        array.reset()
        assert array.valid_mac_count == 0
        with pytest.raises(SignalError):
            array.result()

    def test_reset_then_reintegrate_matches_fresh(
        self, small_spectra, small_m, small_k
    ):
        fresh = FoldedArray(small_m, small_k, num_cores=3)
        reused = FoldedArray(small_m, small_k, num_cores=3)
        reused.integrate_block(small_spectra[-1])
        reused.reset()
        for spectrum in small_spectra:
            fresh.integrate_block(spectrum)
            reused.integrate_block(spectrum)
        assert np.array_equal(reused.result(), fresh.result())
        assert reused.valid_mac_count == fresh.valid_mac_count
        assert reused.padded_mac_count == fresh.padded_mac_count
        assert reused.transfer_counts == fresh.transfer_counts

    def test_result_requires_blocks(self):
        with pytest.raises(SignalError):
            FoldedArray(3, 16, num_cores=2).result()

    def test_spectrum_shape_checked(self):
        array = FoldedArray(3, 16, num_cores=2)
        with pytest.raises(ConfigurationError):
            array.integrate_block(np.zeros(17, dtype=complex))

    def test_properties(self, small_m):
        array = FoldedArray(small_m, 16, num_cores=3)
        assert array.m == small_m
        assert array.num_cores == 3
        assert array.fold.tasks_per_core == 3  # ceil(7 / 3)


class TestFoldedEqualsUnfolded:
    def test_q_equals_p_degenerates_to_systolic(self, small_spectra, small_m, small_k):
        extent = 2 * small_m + 1
        folded = FoldedArray(small_m, small_k, num_cores=extent)
        systolic = SystolicArray(small_m, small_k)
        for spectrum in small_spectra:
            folded.integrate_block(spectrum)
            systolic.integrate_block(spectrum)
        assert np.allclose(folded.result(), systolic.result())
