"""Property-based tests (hypothesis) on the core invariants.

Invariant families:

* Q15 arithmetic: closure, saturation bounds, commutativity.
* The DSCF estimators: vectorised == literal triple loop on arbitrary
  complex spectra; Hermitian symmetry in a.
* Space-time mapping algebra: linearity and the fold's partition
  property for arbitrary (P, Q).
* The executable systolic array: equivalence with the estimator for
  arbitrary signals.
* Batch composition: every Gram-path plan entry point scores a trial
  bitwise identically whatever its batch-mates and their order.
* Session chunking: any split of a stream (signed zeros and subnormals
  included) leaves a serve session in the same bitwise state, and its
  ring-served window spectra equal the offline plan's bit for bit.
* Gram-path scoring: the plan's in-place, gather-free scoring loop
  equals the plain fancy-index/complex-division expressions bit for
  bit, from subnormal to overflowing input scales and on signed zeros.
* Gram layout: the kernel's same-parity products give the grid of the
  full Gram plane bit for bit, at both precisions.
* BLAS threads: every float64 result is bit for bit the same whatever
  thread count a process's OpenBLAS starts with.
* One DSCF kernel: every software entry point (``compute_dscf``,
  ``dscf_from_signal``, the vectorized backend, the pipeline, the
  detector and a session's ``scf_result``) equals the plan bit for bit.
* Coherence numerics at float64: every normalised surface cell lies in
  ``[0, 1 + 8 eps]``, and scaling a window by ``2**k`` (k in
  [-40, 60]) leaves its statistic bit for bit unchanged.
* The quantile rule: ``calibration_quantile`` and ``linear_quantile``
  equal ``np.quantile`` bit for bit, ties and signed zeros included.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.detection import (
    CyclostationaryFeatureDetector,
    calibration_quantile,
    linear_quantile,
)
from repro.core import scf
from repro.core.fourier import block_spectra, fft_radix2
from repro.core.scf import (
    COHERENCE_FLOOR,
    compute_dscf,
    default_m,
    dscf,
    dscf_from_signal,
    dscf_reference,
)
from repro.engine import Engine, build_plan, default_noise_factory
from repro.errors import CalibrationWarning
from repro.mapping.architecture import FoldedArray
from repro.mapping.folding import Fold
from repro.mapping.projections import step2_mapping
from repro.montium.fixedpoint import (
    Q15_MAX,
    Q15_MIN,
    from_q15,
    q15_add,
    q15_multiply,
    to_q15,
)
from repro.pipeline import DetectionPipeline, PipelineConfig, get_backend
from repro.serve import SensingSession
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn

q15_values = st.integers(min_value=Q15_MIN, max_value=Q15_MAX)
small_floats = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


class TestQ15Properties:
    @given(q15_values, q15_values)
    def test_add_closed_and_bounded(self, a, b):
        result = q15_add(a, b)
        assert Q15_MIN <= result <= Q15_MAX

    @given(q15_values, q15_values)
    def test_add_commutative(self, a, b):
        assert q15_add(a, b) == q15_add(b, a)

    @given(q15_values, q15_values)
    def test_multiply_closed_and_bounded(self, a, b):
        result = q15_multiply(a, b)
        assert Q15_MIN <= result <= Q15_MAX

    @given(q15_values, q15_values)
    def test_multiply_commutative(self, a, b):
        assert q15_multiply(a, b) == q15_multiply(b, a)

    @given(q15_values)
    def test_multiply_by_zero(self, a):
        assert q15_multiply(a, 0) == 0

    @given(small_floats)
    def test_to_q15_error_bounded(self, x):
        quantised = from_q15(to_q15(x))
        clipped = min(max(x, Q15_MIN / 32768), Q15_MAX / 32768)
        assert abs(quantised - clipped) <= 0.5 / 32768 + 1e-12

    @given(q15_values, q15_values)
    def test_multiply_magnitude_contraction(self, a, b):
        # |a*b| <= max(|a|, |b|) in Q15 (fractional multiply), modulo
        # the single saturating corner
        result = q15_multiply(a, b)
        assert abs(result) <= max(abs(a), abs(b)) + 1


def complex_arrays(num_blocks, size):
    return st.lists(
        st.tuples(small_floats, small_floats),
        min_size=num_blocks * size,
        max_size=num_blocks * size,
    ).map(
        lambda pairs: np.array(
            [complex(re, im) for re, im in pairs]
        ).reshape(num_blocks, size)
    )


class TestDscfProperties:
    @settings(max_examples=20, deadline=None)
    @given(complex_arrays(2, 8))
    def test_vectorised_equals_reference(self, spectra):
        assert np.allclose(dscf_reference(spectra, 1), dscf(spectra, 1))

    @settings(max_examples=20, deadline=None)
    @given(complex_arrays(3, 8))
    def test_hermitian_symmetry(self, spectra):
        values = dscf(spectra, 1)
        assert np.allclose(values[:, ::-1], np.conj(values))

    @settings(max_examples=20, deadline=None)
    @given(complex_arrays(2, 8), small_floats.filter(lambda g: abs(g) > 1e-3))
    def test_quadratic_scaling(self, spectra, gain):
        # S(g x) = |g|^2 S(x)
        base = dscf(spectra, 1)
        scaled = dscf(gain * spectra, 1)
        assert np.allclose(scaled, gain * gain * base, atol=1e-9)


class TestFftProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(small_floats, small_floats), min_size=16, max_size=16
        )
    )
    def test_matches_numpy(self, pairs):
        x = np.array([complex(re, im) for re, im in pairs])
        assert np.allclose(fft_radix2(x), np.fft.fft(x), atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(small_floats, small_floats), min_size=8, max_size=8
        )
    )
    def test_linearity(self, pairs):
        x = np.array([complex(re, im) for re, im in pairs])
        assert np.allclose(fft_radix2(2.0 * x), 2.0 * fft_radix2(x))


class TestMappingProperties:
    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    def test_step2_equations(self, f, a):
        mapping = step2_mapping()
        assert mapping.processor((f, a)) == (a,)
        assert mapping.time((f, a)) == f

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=16),
    )
    def test_fold_partitions_tasks(self, tasks, cores):
        fold = Fold(tasks, cores)
        seen = []
        for core in range(cores):
            seen.extend(fold.tasks_of_core(core))
        assert sorted(seen) == list(range(tasks))

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=16),
    )
    def test_fold_respects_expression_9(self, tasks, cores):
        fold = Fold(tasks, cores)
        t = fold.tasks_per_core
        for task in range(0, tasks, max(1, tasks // 7)):
            assert fold.core_of_task(task) == task // t

    @given(st.integers(min_value=1, max_value=300))
    def test_fold_slot_budget_covers_tasks(self, tasks):
        for cores in (1, 2, 4, 8):
            fold = Fold(tasks, cores)
            assert fold.num_cores * fold.tasks_per_core >= tasks
            assert fold.padded_slots < fold.tasks_per_core * fold.num_cores


class TestRegisterChainProperties:
    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=12),
        st.lists(st.integers(-100, 100), min_size=1, max_size=20),
    )
    def test_forward_chain_is_fifo(self, initial, incoming):
        """A +1 chain emits values in exactly the order they entered
        (initial tail-to-head first, then the incoming stream)."""
        from repro.mapping.registers import RegisterChain

        chain = RegisterChain(len(initial), direction=+1)
        chain.load(list(initial))
        emitted = [chain.clock(value) for value in incoming]
        expected_stream = list(reversed(initial)) + list(incoming)
        assert emitted == expected_stream[: len(incoming)]

    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=12),
        st.lists(st.integers(-100, 100), min_size=1, max_size=20),
    )
    def test_backward_chain_is_fifo(self, initial, incoming):
        from repro.mapping.registers import RegisterChain

        chain = RegisterChain(len(initial), direction=-1)
        chain.load(list(initial))
        emitted = [chain.clock(value) for value in incoming]
        expected_stream = list(initial) + list(incoming)
        assert emitted == expected_stream[: len(incoming)]

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=8))
    def test_chain_conserves_contents(self, initial):
        from repro.mapping.registers import RegisterChain

        chain = RegisterChain(len(initial), direction=+1)
        chain.load(list(initial))
        out = chain.clock(999)
        snapshot = chain.snapshot()
        assert sorted(snapshot + [out]) == sorted(initial + [999])


class TestAguProperties:
    @given(
        st.integers(0, 15),
        st.integers(-4, 4).filter(lambda s: s != 0),
        st.integers(1, 16),
    )
    def test_modulo_addresses_stay_in_range(self, base, stride, modulo):
        from repro.montium.agu import AddressGenerator

        if base >= modulo:
            base = base % modulo
        agu = AddressGenerator(base=base, stride=stride, modulo=modulo)
        for address in agu.take(32):
            assert 0 <= address < modulo

    @given(st.integers(1, 6))
    def test_bit_reversal_is_involution(self, bits):
        from repro.montium.agu import bit_reversed_sequence

        sequence = bit_reversed_sequence(2**bits)
        assert [sequence[sequence[i]] for i in range(2**bits)] == list(
            range(2**bits)
        )


class TestQ15RoundTripProperties:
    @given(st.lists(st.tuples(small_floats, small_floats), min_size=1,
                    max_size=32))
    def test_memory_q15_round_trip_error_bounded(self, pairs):
        from repro.montium.memory import Memory

        memory = Memory("M01", datapath="q15")
        for slot, (re, im) in enumerate(pairs):
            value = complex(
                min(max(re, -0.999), 0.999), min(max(im, -0.999), 0.999)
            )
            memory.write_complex(slot, value)
            read_back = memory.read_complex(slot)
            assert abs(read_back - value) < 1.0 / 32768


class TestArchitectureProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(small_floats, small_floats),
            min_size=32,
            max_size=32,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_folded_array_equals_estimator(self, pairs, cores):
        samples = np.array([complex(re, im) for re, im in pairs])
        spectra = block_spectra(samples, 16)
        array = FoldedArray(3, 16, num_cores=cores)
        for spectrum in spectra:
            array.integrate_block(spectrum)
        assert np.allclose(array.result(), dscf(spectra, 3), atol=1e-9)


_PLANS = {}


def _paper_plan(num_blocks, precision):
    key = (num_blocks, precision)
    if key not in _PLANS:
        _PLANS[key] = build_plan(
            PipelineConfig(
                fft_size=256, num_blocks=num_blocks, precision=precision
            )
        )
    return _PLANS[key]


def _bits(array):
    """Raw bits of a float or complex array, one unsigned integer per
    real component (uint64 at float64, uint32 at float32)."""
    array = np.ascontiguousarray(array)
    return array.view(f"u{array.real.itemsize}")


@st.composite
def batch_compositions(draw):
    # 1..9 trials cross the former 4-trial Gram slab boundary twice;
    # 48 is the Monte-Carlo batch of the golden Pd point.
    trials = draw(st.one_of(st.integers(1, 9), st.just(48)))
    order = np.asarray(draw(st.permutations(range(trials))), dtype=int)
    num_blocks = draw(st.sampled_from((8, 32)))
    precision = draw(st.sampled_from(("float64", "float32")))
    return order, num_blocks, precision


class TestBatchCompositionProperties:
    @settings(max_examples=12, deadline=None)
    @given(batch_compositions())
    def test_trial_results_ignore_batch_mates(self, composition):
        order, num_blocks, precision = composition
        plan = _paper_plan(num_blocks, precision)
        samples = plan.config.samples_per_decision
        tone = np.exp(2j * np.pi * 0.11 * np.arange(samples))
        batch = np.stack(
            [
                awgn(samples, seed=7000 + trial) + 0.3 * tone
                for trial in range(order.size)
            ]
        )
        spectra = plan.block_spectra(batch)
        entry_points = {
            "statistics": lambda rows: plan.statistics(batch[rows]),
            "statistics_from_spectra": lambda rows: (
                plan.statistics_from_spectra(spectra[rows])
            ),
            "surfaces": lambda rows: plan.surfaces(batch[rows]),
            "dscf_values": lambda rows: plan.dscf_values(batch[rows]),
        }
        for name, run in entry_points.items():
            whole = _bits(run(np.arange(order.size)))
            np.testing.assert_array_equal(
                _bits(run(order)), whole[order], err_msg=name
            )
            for trial in range(order.size):
                np.testing.assert_array_equal(
                    _bits(run(np.array([trial])))[0],
                    whole[trial],
                    err_msg=f"{name}, trial {trial} alone",
                )


# Signed zeros and subnormals: FFTs of such blocks have exact-zero bins
# whose sign depends on every multiply the front end makes.
signed_zeros = st.sampled_from((0.0, -0.0))
tiny_floats = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310))
stream_values = (signed_zeros, tiny_floats, st.one_of(tiny_floats, small_floats))


@st.composite
def chunked_streams(draw):
    fft_size, num_blocks = 32, 4
    hop = draw(st.sampled_from((fft_size // 4, fft_size // 2, fft_size, 3)))
    window = draw(st.sampled_from(("rectangular", "hann")))
    config = PipelineConfig(
        fft_size=fft_size, num_blocks=num_blocks, hop=hop, window=window,
        calibration_trials=20,
    )
    size = config.samples_per_decision + draw(st.integers(0, 2 * fft_size))
    values = draw(st.sampled_from(stream_values))
    parts = draw(st.lists(values, min_size=2 * size, max_size=2 * size))
    # Assign the parts (not real + 1j * imag), so signed zeros survive.
    stream = np.empty(size, dtype=np.complex128)
    stream.real = parts[:size]
    stream.imag = parts[size:]
    cuts = draw(st.lists(st.integers(0, size), max_size=6))
    return config, stream, sorted(cuts)


def _signed_zero_case(hop, window):
    """A stream of zeros of mixed sign: every FFT bin is a signed zero,
    so a phase multiply the offline plan does not make shows up."""
    config = PipelineConfig(
        fft_size=32, num_blocks=4, hop=hop, window=window,
        calibration_trials=20,
    )
    stream = np.zeros(config.samples_per_decision + 40, dtype=np.complex128)
    stream.real[::2] = -0.0
    stream.imag[1::3] = -0.0
    return config, stream, [63, 126]


def _state_bits(state):
    return {
        key: _bits(value).tolist() if isinstance(value, np.ndarray) else (
            _state_bits(value) if isinstance(value, dict) else value
        )
        for key, value in state.items()
    }


class TestSessionChunkingProperties:
    @settings(max_examples=40, deadline=None)
    @given(chunked_streams())
    @example(_signed_zero_case(8, "hann"))
    @example(_signed_zero_case(16, "rectangular"))
    def test_state_and_window_spectra_ignore_chunking(self, case):
        config, stream, cuts = case
        whole = SensingSession(config, session_id="s")
        whole.ingest(stream)
        chunked = SensingSession(config, session_id="s")
        for low, high in zip([0, *cuts], [*cuts, stream.size]):
            chunked.ingest(stream[low:high])
        assert _state_bits(chunked.state()) == _state_bits(whole.state())
        offline = Engine().plan(config).block_spectra(
            chunked.window_samples()[None]
        )[0]
        np.testing.assert_array_equal(
            _bits(chunked.window_spectra()), _bits(offline)
        )


def _plain_scoring(plan, spectra):
    """Gram-path ``(statistics, surfaces, dscf_values)`` written as
    plain expressions: the Gram window and the coherence bins gathered
    with index arrays, ``/= N`` as a complex division, the mean square
    over the full rows.  The plan's scoring loop must equal these bit
    for bit."""
    cfg = plan.config
    m, center, count = cfg.m, cfg.fft_size // 2, cfg.num_blocks
    offsets = np.arange(-m, m + 1)
    plus = center + offsets[:, None] + offsets[None, :]
    minus = center + offsets[:, None] - offsets[None, :]
    window = np.arange(center - 2 * m, center + 2 * m + 1)
    statistics, surfaces, values = [], [], []
    for rows in spectra:
        windowed = rows[:, window]
        gram = np.matmul(windowed.T, np.conj(windowed))
        value = gram[plus - center + 2 * m, minus - center + 2 * m]
        value /= count
        surface = np.abs(value)
        if cfg.normalize:
            mean_square = np.mean(np.abs(rows) ** 2, axis=0)
            denominator = np.sqrt(mean_square[plus] * mean_square[minus])
            np.maximum(denominator, COHERENCE_FLOOR, out=denominator)
            surface /= denominator
        statistics.append(surface.max(axis=0)[plan.searched_columns].max())
        surfaces.append(surface)
        values.append(value)
    return np.array(statistics), np.stack(surfaces), np.stack(values)


#: Input scales from subnormal-prone to overflowing: |X|^2 overflows
#: near 1e19 at float32 and 1e153 at float64, the Gram plane past them.
SCORING_SCALES = (1e-150, 1e-20, 1.0, 1e17, 1e19, 1e76, 1e153, 1e200)


def _scoring_batch(config):
    samples = config.samples_per_decision
    tone = np.exp(2j * np.pi * 0.11 * np.arange(samples))
    noisy = awgn(samples, seed=71) + 0.3 * tone
    signed_zeros = np.zeros(samples, dtype=np.complex128)
    signed_zeros.real[::2] = -0.0
    signed_zeros.imag[1::3] = -0.0
    scaled = [noisy * scale for scale in SCORING_SCALES]
    return np.stack(scaled + [signed_zeros])


@st.composite
def arbitrary_spectra(draw):
    num_blocks = draw(st.sampled_from((3, 8)))
    precision = draw(st.sampled_from(("float64", "float32")))
    values = st.one_of(
        tiny_floats, small_floats, st.sampled_from((1e150, -1e160))
    )
    size = 2 * num_blocks * 16
    parts = draw(st.lists(values, min_size=size, max_size=size))
    return num_blocks, precision, parts


class TestScoringProperties:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("fft_size, m", [(16, 3), (64, 10), (256, 63)])
    @pytest.mark.parametrize("num_blocks", [3, 5, 6, 7, 8, 32])
    def test_scoring_loop_equals_plain_expressions(
        self, num_blocks, fft_size, m, window, precision
    ):
        for normalize in (True, False):
            plan = build_plan(
                PipelineConfig(
                    fft_size=fft_size, m=m, num_blocks=num_blocks,
                    window=window, precision=precision, normalize=normalize,
                )
            )
            with np.errstate(all="ignore"):
                batch = plan.as_batch(_scoring_batch(plan.config))
                spectra = plan.block_spectra(batch)
                statistics, surfaces, values = _plain_scoring(plan, spectra)
                results = {
                    "statistics": (plan.statistics(batch), statistics),
                    "statistics_from_spectra": (
                        plan.statistics_from_spectra(spectra), statistics
                    ),
                    "surfaces": (plan.surfaces(batch), surfaces),
                    "dscf_values": (plan.dscf_values(batch), values),
                }
            for name, (result, expected) in results.items():
                np.testing.assert_array_equal(
                    _bits(result), _bits(expected),
                    err_msg=f"{name}, normalize={normalize}",
                )

    @settings(max_examples=25, deadline=None)
    @given(arbitrary_spectra())
    def test_arbitrary_spectra_score_like_plain_expressions(self, case):
        # Spectra straight from hypothesis: signed zeros, subnormals and
        # overflowing cells in any arrangement, not just FFT outputs.
        num_blocks, precision, parts = case
        plan = build_plan(
            PipelineConfig(
                fft_size=16, m=3, num_blocks=num_blocks, precision=precision
            )
        )
        dtype = np.complex128 if precision == "float64" else np.complex64
        spectra = np.empty((1, num_blocks, 16), dtype=dtype)
        with np.errstate(all="ignore"):
            spectra.real.flat = parts[: spectra.size]
            spectra.imag.flat = parts[spectra.size :]
            statistics, _, _ = _plain_scoring(plan, spectra)
            result = plan.statistics_from_spectra(spectra)
        np.testing.assert_array_equal(_bits(result), _bits(statistics))


#: Input scales of the layout test, subnormal-prone to past the
#: float64 Gram overflow; complex64 casts the large ones to inf.
LAYOUT_SCALES = (1e-150, 1e-50, 1.0, 1e50, 1e150)


def _full_plane_grid(window, m):
    """The DSCF grid read from the full ``(4M+1)^2`` Gram product of a
    contiguous ``(N, 4M+1)`` window, ``np.matmul(X.T, conj(X)) / N``."""
    gram = np.matmul(window.T, np.conj(window))
    offsets = np.arange(2 * m + 1)
    values = gram[
        offsets[:, None] + offsets[None, :],
        offsets[:, None] - offsets[None, :] + 2 * m,
    ]
    values /= len(window)
    return values


#: Half-extents of the layout tests: small windows the share rule
#: keeps whole, the paper point, the Haswell/Zen clash widths (M=49 to
#: 61 in steps of 3, and 64) and M=127, the default at K=512.
LAYOUT_MS = (0, 1, 3, 7, 10, 15, 31, 48, 49, 52, 55, 58, 61, 63, 64, 127)
LAYOUT_BLOCKS = (1, 2, 3, 8, 32, 33)


def _layout_mismatches(m, num_blocks, precision):
    """Whether the kernel of ``(N, M)`` splits the plane, and the
    differing words between its ``values`` grid and the full plane's,
    per input batch (only batches that differ)."""
    fft_size = 4 * m + 4
    rng = np.random.default_rng(m * 100 + num_blocks)
    dtype = np.complex128 if precision == "float64" else np.complex64
    batches = {}
    for scale in LAYOUT_SCALES:
        parts = rng.standard_normal((2, num_blocks, fft_size)) * scale
        batches[repr(scale)] = parts[0] + 1j * parts[1]
    batches["1.0+inf"] = batches["1.0"].copy()
    batches["1.0+inf"][num_blocks // 2, fft_size // 2 + 1] = np.inf
    kernel = scf.GramKernel(num_blocks, fft_size, m, precision)
    values = np.empty((2 * m + 1, 2 * m + 1), dtype)
    mismatches = {}
    for label, spectra in batches.items():
        with np.errstate(all="ignore"):
            spectra = spectra.astype(dtype)
            kernel.correlate(spectra)
            kernel.values(values)
            expected = _full_plane_grid(
                np.ascontiguousarray(spectra[:, kernel.bins]), m
            )
        words = int(np.count_nonzero(_bits(values) != _bits(expected)))
        if words:
            mismatches[label] = words
    return kernel._columns is not None, mismatches


def forced_layout_report():
    """Every ``(M >= 1, N)`` of the layout tests at both precisions
    with the share rule lifted, so the small windows split too: the
    kernels that split, and every ``(precision, M, N, batch, words)``
    that differs.  Each kernel pins its process to one BLAS thread
    (``TestGramLayoutProperties`` runs this in a child process)."""
    scf.PARITY_MAX_SHARE = np.inf
    split, mismatches = 0, []
    for precision in ("float64", "float32"):
        for m in LAYOUT_MS[1:]:
            for num_blocks in LAYOUT_BLOCKS:
                used, differing = _layout_mismatches(m, num_blocks, precision)
                split += used
                mismatches += [
                    (precision, m, num_blocks, *item)
                    for item in differing.items()
                ]
    return {"split": split, "mismatches": mismatches}


class TestGramLayoutProperties:
    """The kernel's grid equals the full Gram plane's, bit for bit.

    At both precisions the kernel computes only the same-parity cells
    (:func:`repro.core.scf.parity_layout`), and what keeps their bits
    is OpenBLAS's register-tile classes.  Scope, measured on OpenBLAS
    0.3.31 with one thread for every M up to 255 on an AVX-512 Xeon's
    own core and on the Katmai, Nehalem, Sandybridge, Haswell (Zen
    runs it too) and SkylakeX kernels forced through
    ``OPENBLAS_CORETYPE``: every width keeps its bits except, on
    Haswell and Zen, widths above 192 that are 5 mod 12 (M = 49, 52,
    55, 58, 61, 64, ..., 127), which :func:`repro.core.scf.
    parity_split` rules out (at float32 the Haswell kernel differs at
    only some of those widths, from M = 64 on).  With several threads
    OpenBLAS splits a product between them by its size, and on every
    probed kernel but SkylakeX's the full plane's own bits change with
    the thread count, so the kernel pins numpy's OpenBLAS to one
    thread before it splits.

    The first test runs with the ambient BLAS threads, both precisions
    and the kernel's own rules.  The second runs every case again on
    one BLAS thread in a child process, with the share rule lifted, so
    that the layout itself is checked whatever the threads of this
    run.
    """

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("num_blocks", LAYOUT_BLOCKS)
    @pytest.mark.parametrize("m", LAYOUT_MS)
    def test_values_equal_the_full_plane(self, m, num_blocks, precision):
        _, mismatches = _layout_mismatches(m, num_blocks, precision)
        assert mismatches == {}

    def test_layout_on_one_blas_thread_equals_the_full_plane(
        self, monkeypatch
    ):
        monkeypatch.setattr(scf, "PARITY_MAX_SHARE", np.inf)
        # Both precisions, every N, each M the width rule lets split.
        splits = 2 * len(LAYOUT_BLOCKS) * sum(
            map(scf.parity_split, LAYOUT_MS[1:])
        )
        script = (
            "import json, test_properties; "
            "print(json.dumps(test_properties.forced_layout_report()))"
        )
        # No OPENBLAS_NUM_THREADS: the kernel pins one thread itself.
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=_child_env(), capture_output=True, text=True, check=True,
            timeout=600,
        )
        report = json.loads(child.stdout.splitlines()[-1])
        assert report["mismatches"] == []
        # The layout must really run: a BLAS the kernel cannot pin to
        # one thread keeps every plane whole.
        assert report["split"] == splits


def _child_env(**variables):
    """This process's environment plus *variables*, with the test
    directory and the imported package's source tree on the path."""
    paths = [Path(__file__).parent, Path(scf.__file__).parents[2]]
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [*map(str, paths), os.environ.get("PYTHONPATH", "")]
        ),
        **variables,
    )


def blas_thread_dump(path):
    """Save the float64 words of ``Engine.statistics``,
    ``plan.surfaces`` and ``plan.dscf_values`` (16 AWGN trials, K=256,
    N in {8, 32}) and of a 100-trial ``calibrate_threshold`` to *path*
    (``.npz``).  ``TestBlasThreadInvariance`` runs it in children
    started with different BLAS thread counts."""
    words = {}
    with Engine() as engine:
        for num_blocks in (8, 32):
            config = PipelineConfig(fft_size=256, num_blocks=num_blocks)
            signals = awgn(
                16 * config.samples_per_decision, seed=num_blocks
            ).reshape(16, -1)
            plan = engine.plan(config)
            threshold = engine.calibrate_threshold(config, trials=100)
            words.update({
                f"statistics/{num_blocks}": engine.statistics(signals, config),
                f"surfaces/{num_blocks}": plan.surfaces(signals),
                f"dscf_values/{num_blocks}": plan.dscf_values(signals),
                f"threshold/{num_blocks}": np.float64(threshold),
            })
    np.savez(path, **{name: _bits(value) for name, value in words.items()})


def _runs_haswell_kernels():
    """Whether this CPU can run OpenBLAS's Haswell kernels (AVX2, FMA)."""
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return "avx2" in flags and "fma" in flags


class TestBlasThreadInvariance:
    """Every float64 result is the same whatever BLAS thread count the
    process starts with: building a Gram kernel pins numpy's OpenBLAS
    to one thread.  Without the pin, OpenBLAS's Haswell kernel (Zen
    runs it too) splits a product between two threads along tile
    boundaries of its own, and the full plane's words change.  The
    statistics alone can hide that, so the surfaces and DSCF values
    are compared too.  Kernels differ between cores, so each core is
    compared with itself only: the ambient one, and Haswell's forced
    through ``OPENBLAS_CORETYPE``."""

    @pytest.mark.parametrize("coretype", [None, "Haswell"])
    def test_results_ignore_the_blas_thread_count(self, coretype, tmp_path):
        if coretype == "Haswell" and not _runs_haswell_kernels():
            pytest.skip("this CPU cannot run OpenBLAS's Haswell kernels")
        core = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
        script = (
            "import sys, test_properties; "
            "test_properties.blas_thread_dump(sys.argv[1])"
        )
        dumps = {}
        for threads in ("1", "2"):
            path = tmp_path / f"threads-{threads}.npz"
            subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env=_child_env(OPENBLAS_NUM_THREADS=threads, **core),
                capture_output=True, check=True, timeout=600,
            )
            with np.load(path) as dump:
                dumps[threads] = dict(dump)
        assert dumps["1"].keys() == dumps["2"].keys()
        for name, words in dumps["1"].items():
            np.testing.assert_array_equal(
                dumps["2"][name], words, err_msg=name
            )


@st.composite
def entry_point_cases(draw):
    fft_size = draw(st.sampled_from((16, 32, 64, 256)))
    m = draw(st.integers(min_value=1, max_value=default_m(fft_size)))
    offsets = [a for a in range(-m, m + 1) if a != 0]
    cyclic_bins = draw(
        st.none()
        | st.lists(st.sampled_from(offsets), min_size=1, max_size=3).map(
            tuple
        )
    )
    config = PipelineConfig(
        fft_size=fft_size,
        num_blocks=draw(st.integers(min_value=1, max_value=12)),
        m=m,
        cyclic_bins=cyclic_bins,
        normalize=draw(st.booleans()),
        precision=draw(st.sampled_from(("float64", "float32"))),
    )
    samples = config.samples_per_decision
    tone = np.exp(2j * np.pi * draw(st.floats(0.0, 0.5)) * np.arange(samples))
    signal = awgn(samples, seed=draw(st.integers(0, 2**16))) + 0.5 * tone
    return config, signal


class TestEntryPointProperties:
    @settings(max_examples=40, deadline=None)
    @given(entry_point_cases())
    def test_every_entry_point_equals_the_plan(self, case):
        config, signal = case
        engine = Engine()
        plan = engine.plan(config)
        values = _bits(plan.dscf_values(signal[None])[0])
        spectra = plan.block_spectra(signal[None])[0]
        computed = {
            "compute_dscf": compute_dscf(
                spectra, m=config.m, precision=config.precision
            ),
            "VectorizedBackend.compute": get_backend("vectorized").compute(
                signal, config
            ),
            "DetectionPipeline.compute": DetectionPipeline(config).compute(
                signal
            ),
        }
        if config.precision == "float64":
            # The detector, dscf_from_signal and the session ring are
            # double precision only.
            computed["dscf_from_signal"] = dscf_from_signal(
                signal, config.fft_size, num_blocks=config.num_blocks,
                m=config.m,
            )
            session = SensingSession(config, session_id="s")
            session.ingest(signal)
            computed["scf_result"] = session.scf_result()
            detector = CyclostationaryFeatureDetector(
                config.fft_size, config.num_blocks, m=config.m,
                cyclic_bins=config.cyclic_bins, normalize=config.normalize,
            )
            np.testing.assert_array_equal(
                _bits(detector.feature_surface(signal)),
                _bits(plan.surfaces(signal[None])[0]),
            )
            assert _bits(np.float64(detector.statistic(signal))) == _bits(
                engine.statistics(signal[None], config=config)[0]
            )
        for name, result in computed.items():
            np.testing.assert_array_equal(
                _bits(result.values), values, err_msg=name
            )


@st.composite
def coherence_cases(draw):
    """A float64 operating point (K 16-256, N 1-32, hop K, K/4 or 3)
    and one noise or noise-plus-BPSK window for it."""
    fft_size = draw(st.sampled_from((16, 32, 64, 256)))
    config = PipelineConfig(
        fft_size=fft_size,
        num_blocks=draw(st.integers(min_value=1, max_value=32)),
        hop=draw(st.sampled_from((fft_size, fft_size // 4, 3))),
    )
    samples = config.samples_per_decision
    seed = draw(st.integers(0, 2**16))
    signal = awgn(samples, seed=seed)
    if draw(st.booleans()):
        sps = draw(st.sampled_from((2, 4, 8)))
        user = bpsk_signal(samples, 1e6, samples_per_symbol=sps, seed=seed)
        signal = signal + 2.0 * user.samples
    return config, signal


class TestCoherenceNumericsProperties:
    @settings(max_examples=30, deadline=None)
    @given(coherence_cases())
    def test_normalised_surface_within_unit_interval(self, case):
        # Cauchy-Schwarz bounds the coherence by 1; rounding in the
        # Gram sum and the denominator may only add a few ulps.
        config, signal = case
        surface = Engine().plan(config).surfaces(signal[None])[0]
        assert surface.min() >= 0.0
        assert surface.max() <= 1.0 + 8 * np.finfo(np.float64).eps

    @settings(max_examples=30, deadline=None)
    @given(
        coherence_cases(),
        st.lists(st.integers(min_value=-40, max_value=60), min_size=1,
                 max_size=4),
    )
    def test_statistic_invariant_to_power_of_two_scaling(self, case, powers):
        # A power-of-two gain is exact in every step of the statistic
        # while no spectral power underflows toward COHERENCE_FLOOR or
        # overflows.
        config, signal = case
        batch = np.stack(
            [signal] + [signal * 2.0**power for power in powers]
        )
        statistics = Engine().statistics(batch, config=config)
        np.testing.assert_array_equal(
            _bits(statistics[1:]),
            np.broadcast_to(_bits(statistics[:1]), len(powers)),
        )


#: Calibration false-alarm rates; 1e-3 and 1e-4 leave every sample
#: size below 1000 (resp. 10,000) under-sampled.
PFA_GRID = (0.5, 0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4)


@st.composite
def quantile_samples(draw, dtype=np.float64, max_exponent=150):
    """1 to 4096 values: continuous with mixed signs, small-integer
    ties, or ±0/±1 ties (signed zeros compare equal, so only numpy's
    own partition order puts the same zero where numpy reads it),
    scaled by 10**e for |e| <= *max_exponent*."""
    size = draw(st.one_of(st.integers(1, 16), st.integers(1, 4096)))
    kind = draw(st.sampled_from(("continuous", "ties", "signed-zeros")))
    scale = 10.0 ** draw(st.integers(-max_exponent, max_exponent))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        values = rng.standard_normal(size)
    elif kind == "ties":
        values = rng.integers(-3, 4, size).astype(np.float64)
    else:
        values = rng.choice(np.array([-0.0, 0.0, -1.0, 1.0]), size)
    return (values * scale).astype(dtype)


class TestQuantileProperties:
    @settings(max_examples=300, deadline=None)
    @given(quantile_samples(), st.sampled_from(PFA_GRID))
    def test_calibration_quantile_is_numpys(self, values, pfa):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CalibrationWarning)
            threshold = calibration_quantile(values, pfa)
        under_sampled = values.size * pfa < 1.0
        assert [w.category for w in caught] == (
            [CalibrationWarning] if under_sampled else []
        )
        expected = np.quantile(values, 1.0 - pfa)
        assert _bits(np.float64(threshold)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            quantile_samples(),
            quantile_samples(dtype=np.float32, max_exponent=30),
        ),
        st.one_of(
            st.sampled_from((0.0, 0.5, 0.99, 1.0)),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_linear_quantile_is_numpys(self, values, q):
        # float32 keeps the input's precision, as np.quantile does.
        result = linear_quantile(values, q)
        expected = np.quantile(values, q)
        assert type(result) is type(expected)
        assert _bits(result) == _bits(expected)

    def test_golden_threshold_is_numpys_quantile(self):
        # The golden Pd fixture's operating point: its threshold keeps
        # the bits np.quantile gives the same noise statistics.
        path = Path(__file__).parent / "fixtures" / "golden_pd.json"
        point = json.loads(path.read_text())["operating_point"]
        config = PipelineConfig(
            fft_size=point["fft_size"],
            num_blocks=point["num_blocks"],
            m=point["m"],
            pfa=point["pfa"],
            calibration_trials=point["calibration_trials"],
            calibration_seed=point["calibration_seed"],
        )
        engine = Engine()
        statistics = engine.monte_carlo_statistics(
            default_noise_factory(config),
            config.calibration_trials,
            config=config,
        )
        threshold = engine.calibrate_threshold(config)
        expected = np.quantile(statistics, 1.0 - config.pfa)
        assert _bits(np.float64(threshold)) == _bits(expected)
