"""Discrete Fourier analysis (expression 2 of the paper).

The paper computes, for each block offset ``n``, the K-point spectrum

    X[n, v] = sum_{k=0}^{K-1} x[n+k] * e^{-j 2 pi v (n+k) / K}

Two things are notable about this definition:

* the phase is referenced to *absolute* sample time ``n+k`` rather than
  block-local time ``k``; the spectrum of the block therefore carries an
  extra factor ``e^{-j 2 pi v n / K}`` relative to a plain FFT of the
  block.  For the paper's operating point — non-overlapping blocks
  (``hop == K``) and integer bins ``v`` — this factor is exactly 1, but
  it matters for overlapping blocks so we implement it faithfully.
* the paper's expression 2 prints a ``+j`` exponent; every standard SCF
  formulation (and the cited detector literature) uses ``-j``, so we
  treat the sign as a typo and use ``-1``.

The block-spectra front end is one batched kernel,
:func:`framed_spectra` (gather → taper → FFT → phase → fftshift), fed
by :func:`block_gather` and :func:`phase_table` — the only place the
expression-2 phase is built.  Every consumer runs it: the engine's
batch plans, the FAM/SSCA channelizer, serve-session ingest and the
``numpy`` engine of :func:`block_spectra`, so their spectra agree bit
for bit by construction.

Three DFT engines are provided:

``dft``
    Direct O(K^2) evaluation of the definition; the ground truth used in
    tests and for operation counting.
``fft_radix2``
    A from-scratch iterative radix-2 decimation-in-time FFT, the
    algorithm the Montium runs (1040 cycles for K=256, Table 1).
``numpy``
    The :func:`framed_spectra` kernel, for fast bulk processing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .._compute import (
    complex_dtype,
    fft_fast_kwargs,
    fft_namespace,
    tile_trials,
)
from .._util import (
    as_complex_vector,
    require,
    require_power_of_two,
    require_positive_int,
)
from ..errors import ConfigurationError
from .opcount import OperationCounter
from .sampling import SampledSignal
from .windows import get_window

_ENGINES = ("numpy", "radix2", "direct")


def dft(
    samples: np.ndarray,
    sign: int = -1,
    counter: OperationCounter | None = None,
) -> np.ndarray:
    """Direct discrete Fourier transform of a sample block.

    Evaluates ``X[v] = sum_k x[k] * e^{sign * j 2 pi v k / K}`` by the
    definition, in O(K^2) complex multiplications.  Used as ground truth
    and for exact operation counting.

    Parameters
    ----------
    samples:
        The K-sample block.
    sign:
        Exponent sign, ``-1`` (conventional, default) or ``+1``.
    counter:
        Optional :class:`OperationCounter`; each twiddle multiply and
        accumulation is recorded.
    """
    block = as_complex_vector(samples, "samples")
    size = block.size
    if sign not in (-1, 1):
        raise ConfigurationError(f"sign must be -1 or +1, got {sign}")
    result = np.zeros(size, dtype=np.complex128)
    base = sign * 2j * np.pi / size
    for v in range(size):
        accumulator = 0.0 + 0.0j
        for k in range(size):
            accumulator += block[k] * np.exp(base * v * k)
            if counter is not None:
                counter.record_multiplication()
                counter.record_addition()
        result[v] = accumulator
    return result


def bit_reverse_indices(size: int) -> np.ndarray:
    """Bit-reversal permutation for a power-of-two *size*.

    ``out[i]`` is the index whose binary representation is the reverse
    of ``i``'s (in ``log2(size)`` bits).  This is the input reordering
    of the decimation-in-time FFT.
    """
    size = require_power_of_two(size, "size")
    bits = size.bit_length() - 1
    indices = np.arange(size)
    reversed_indices = np.zeros(size, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def fft_radix2(
    samples: np.ndarray,
    sign: int = -1,
    counter: OperationCounter | None = None,
) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT.

    This is the classic in-place butterfly network: ``log2 K`` stages of
    ``K/2`` butterflies, each butterfly performing exactly one complex
    multiplication (by a twiddle factor) and two complex additions.  The
    total complex-multiplication count is therefore ``(K/2) * log2 K``,
    the figure the paper uses in its Section 2 complexity argument.

    Parameters
    ----------
    samples:
        Block of K samples; K must be a power of two.
    sign:
        Exponent sign, ``-1`` (forward, default) or ``+1`` (inverse
        kernel without the 1/K scaling).
    counter:
        Optional :class:`OperationCounter` recording one multiplication
        and two additions per butterfly.
    """
    block = as_complex_vector(samples, "samples")
    size = require_power_of_two(block.size, "len(samples)")
    if sign not in (-1, 1):
        raise ConfigurationError(f"sign must be -1 or +1, got {sign}")

    data = block[bit_reverse_indices(size)].copy()
    span = 2
    while span <= size:
        half = span // 2
        twiddles = np.exp(sign * 2j * np.pi * np.arange(half) / span)
        for start in range(0, size, span):
            for offset in range(half):
                upper = data[start + offset]
                lower = data[start + offset + half] * twiddles[offset]
                data[start + offset] = upper + lower
                data[start + offset + half] = upper - lower
                if counter is not None:
                    counter.record_multiplication()
                    counter.record_addition(2)
        span *= 2
    return data


def ifft_radix2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse FFT via :func:`fft_radix2` with conjugate kernel and 1/K."""
    block = as_complex_vector(spectrum, "spectrum")
    return fft_radix2(block, sign=+1) / block.size


def centered_to_fft_index(v: int | np.ndarray, fft_size: int) -> int | np.ndarray:
    """Map a centered bin ``v in [-K/2, K/2-1]`` to its FFT array index.

    Centered bin 0 is DC; negative bins wrap to the top half of the FFT
    output, exactly as ``numpy.fft.fftshift`` arranges them.
    """
    return np.asarray(v) % fft_size if isinstance(v, np.ndarray) else v % fft_size


def fft_to_centered_index(index: int, fft_size: int) -> int:
    """Map an FFT array index to its centered bin ``v in [-K/2, K/2-1]``."""
    index = index % fft_size
    return index if index < fft_size // 2 else index - fft_size


def block_gather(starts: np.ndarray, fft_size: int) -> np.ndarray:
    """Sample indices ``(P, K)`` of the blocks starting at *starts*."""
    return np.asarray(starts)[:, None] + np.arange(fft_size)[None, :]


def phase_table(starts: np.ndarray, fft_size: int) -> np.ndarray:
    """Expression 2's absolute-time phase of blocks starting at *starts*.

    Row ``p`` holds ``e^{-j 2 pi v s_p / K}`` for the natural-order
    bins ``v = 0 .. K-1``: multiplied into a plain FFT of block ``p`` it
    references the block to absolute sample time.  Integer starts make
    every row K-periodic in ``v``, so the table commutes with fftshift.
    """
    return np.exp(
        -2j * np.pi * np.outer(starts, np.arange(fft_size)) / fft_size
    )


def framed_spectra(
    batch: np.ndarray,
    gather: np.ndarray,
    taper: np.ndarray,
    phase: np.ndarray | None = None,
    precision: str = "float64",
) -> np.ndarray:
    """The block-spectra front end: ``(T, P, K)`` centered spectra.

    Block ``p`` of trial ``t`` is ``batch[t, gather[p]]`` (*batch* and
    *taper* at the working *precision*); it is multiplied by *taper*,
    transformed by one K-point FFT, multiplied by ``phase[p]`` when a
    natural-order :func:`phase_table` is given, and fftshifted so
    column ``c`` holds bin ``c - K/2``.  Both precisions run one loop
    over cache-sized trial tiles (:func:`~repro._compute.tile_trials`
    of the gather copy, the FFT output and the result), so besides the
    result only one tile's two temporaries are ever live.  The fftshift
    is written as two slice assignments into the result — a
    permutation, so the bits equal ``numpy.fft.fftshift``'s.
    ``"float64"`` is the bitwise parity reference (``numpy.fft``);
    ``"float32"`` runs ``scipy.fft`` with its input overwritten.
    """
    cdtype = complex_dtype(precision)
    if phase is not None:
        # A complex128 table would round complex64 products differently.
        phase = np.asarray(phase, dtype=cdtype)
    fft = fft_namespace(precision)
    trials = batch.shape[0]
    size = gather.shape[1]
    out = np.empty((trials, gather.shape[0], size), dtype=cdtype)
    tile = tile_trials(3 * gather.size * out.itemsize)
    shift = size // 2
    split = size - shift
    for start in range(0, trials, tile):
        stop = min(start + tile, trials)
        blocks = batch[start:stop, gather]
        blocks *= taper
        spectra = fft.fft(blocks, axis=2, **fft_fast_kwargs(fft))
        if phase is not None:
            spectra *= phase
        out[start:stop, :, shift:] = spectra[:, :, :split]
        out[start:stop, :, :shift] = spectra[:, :, split:]
    return out


def _block_geometry(
    signal: SampledSignal | np.ndarray,
    fft_size: int,
    num_blocks: int | None,
    hop: int | None,
) -> tuple[np.ndarray, int, int, int]:
    """Validated ``(samples, K, N, hop)`` of a block-spectra request;
    ``N`` defaults to every complete block and ``hop`` to ``K``."""
    if isinstance(signal, SampledSignal):
        samples = signal.samples
    else:
        samples = as_complex_vector(signal, "signal")
    fft_size = require_positive_int(fft_size, "fft_size")
    if hop is None:
        hop = fft_size
    hop = require_positive_int(hop, "hop")
    available = (samples.size - fft_size) // hop + 1 if samples.size >= fft_size else 0
    if num_blocks is None:
        num_blocks = available
    num_blocks = require_positive_int(num_blocks, "num_blocks")
    require(
        num_blocks <= available,
        f"num_blocks={num_blocks} requested but only {available} complete "
        f"blocks of {fft_size} samples (hop {hop}) are available",
    )
    return samples, fft_size, num_blocks, hop


def block_spectra(
    signal: SampledSignal | np.ndarray,
    fft_size: int,
    num_blocks: int | None = None,
    hop: int | None = None,
    window: str = "rectangular",
    engine: str = "numpy",
    centered: bool = True,
) -> np.ndarray:
    """Compute the short-time spectra ``X[n, v]`` of expression 2.

    Every block is referenced to absolute sample time (the factor
    ``e^{-j 2 pi v (n*hop) / K}``, identically 1 for ``hop ==
    fft_size``), so the result is the paper's expression 2 for any hop.

    Parameters
    ----------
    signal:
        A :class:`SampledSignal` or raw sample array.
    fft_size:
        Block length K (and DFT size).
    num_blocks:
        Number of blocks N to analyse; defaults to every complete block.
    hop:
        Stride between block starts; defaults to ``fft_size``
        (non-overlapping blocks, the paper's operating point).
    window:
        Name of the analysis window (default rectangular, as the paper).
    engine:
        ``"numpy"`` (default, the :func:`framed_spectra` kernel),
        ``"radix2"`` (our from-scratch FFT) or ``"direct"`` (O(K^2)
        DFT).
    centered:
        If True (default), return spectra with bins in centered order
        (index ``c`` holds bin ``v = c - K/2``); otherwise natural FFT
        order.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(N, K)``.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}"
        )
    samples, fft_size, num_blocks, hop = _block_geometry(
        signal, fft_size, num_blocks, hop
    )
    taper = get_window(window, fft_size)
    starts = np.arange(num_blocks) * hop
    gather = block_gather(starts, fft_size)
    phase = phase_table(starts, fft_size)

    if engine == "numpy":
        spectra = framed_spectra(samples[None], gather, taper, phase)[0]
        return spectra if centered else np.fft.ifftshift(spectra, axes=1)
    blocks = samples[gather] * taper
    if engine == "radix2":
        require_power_of_two(fft_size, "fft_size (radix2 engine)")
        spectra = np.stack([fft_radix2(row) for row in blocks])
    else:  # direct
        spectra = np.stack([dft(row) for row in blocks])
    spectra = spectra * phase
    return np.fft.fftshift(spectra, axes=1) if centered else spectra


def shared_block_spectra(
    signal: SampledSignal | np.ndarray,
    fft_size: int,
    num_blocks: int | None = None,
    hop: int | None = None,
    window: str = "rectangular",
) -> np.ndarray:
    """:func:`block_spectra` (numpy engine, centered, float64) through
    :func:`front_end_plan`: the same bits, with the taper, block gather
    and phase table built once per geometry instead of on every call.
    """
    samples, fft_size, num_blocks, hop = _block_geometry(
        signal, fft_size, num_blocks, hop
    )
    plan = front_end_plan(fft_size, num_blocks, hop, window)
    return plan.block_spectra(samples[None])[0]


def front_end_plan(
    fft_size: int,
    num_blocks: int,
    hop: int | None,
    window: str,
    precision: str = "float64",
):
    """The shared plan cache's Gram plan serving one front-end geometry.

    Block spectra depend on ``(K, N, hop, window, precision)`` alone,
    so the one-call estimators (``dscf_from_signal``, the detector)
    and the raw-sample backends all take theirs from
    this plan's ``block_spectra``: one plan per geometry, and the
    engine's bits.
    """
    # Deferred: the engine package imports this module.
    from ..engine.cache import shared_plan_cache

    config = _front_end_config(fft_size, num_blocks, hop, window, precision)
    return shared_plan_cache().get(config)


@lru_cache(maxsize=64)
def _front_end_config(
    fft_size: int,
    num_blocks: int,
    hop: int | None,
    window: str,
    precision: str,
):
    """The Gram-plan config of one front-end geometry, kept so that a
    repeated call skips the config's validation and key build."""
    # Deferred: the pipeline package imports this module.
    from ..pipeline.config import PipelineConfig

    return PipelineConfig(
        fft_size=fft_size,
        num_blocks=num_blocks,
        hop=hop,
        window=window,
        precision=precision,
    )


def power_spectral_density(spectra: np.ndarray) -> np.ndarray:
    """Average periodogram ``mean_n |X[n, v]|^2 / K`` over the blocks.

    Accepts spectra in either centered or natural order and preserves
    the ordering of its input.
    """
    spectra = np.asarray(spectra)
    if spectra.ndim != 2 or spectra.size == 0:
        raise ConfigurationError(
            f"spectra must be a non-empty (N, K) array, got shape {spectra.shape}"
        )
    fft_size = spectra.shape[1]
    return np.mean(np.abs(spectra) ** 2, axis=0) / fft_size
