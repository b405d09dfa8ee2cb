"""Discrete Spectral Correlation Function (expression 3 of the paper).

The DSCF is

    S_f^a = (1/N) * sum_{n=0}^{N-1}  X[n, f+a] * conj(X[n, f-a])

where ``X[n, v]`` are the block spectra of expression 2, ``f`` is the
spectral frequency bin, ``a`` the frequency-offset bin and ``N`` the
number of averaged blocks.  The product correlates bins separated by
``2a``; the physical cyclic frequency probed at offset ``a`` is
``alpha = 2 a fs / K``.

Index conventions (Section 4.1 of the paper): for a K-point spectrum
both ``f`` and ``a`` range over ``[-M, M]`` with ``M = (K/2 - 1) // 2``
so that ``f + a`` and ``f - a`` always address valid spectrum bins.
For K = 256 this gives M = 63 and a 127 x 127 DSCF, the configuration
the paper maps onto the 4-tile platform.

Two estimators are provided and verified against each other:

``dscf_reference``
    Literal triple loop over (f, a, n); slow, exact, countable.
``dscf``
    The production evaluator: BLAS Gram products over the spectra's
    Gram window (:class:`GramKernel`; on one BLAS thread, only the
    same-parity cells expression 3 reads, see :func:`parity_layout`),
    the kernel every batch plan scores with, so its grid is
    bit-for-bit the plan's.

Both (plus the cycle-level SoC emulation of the hardware's
block-at-a-time integration loop) are registered as named estimator
backends behind :mod:`repro.pipeline` — the recommended API:
``DetectionPipeline`` selects a substrate by name, and the
:class:`~repro.engine.Engine` evaluates many trials in one vectorised
pass.  The functions here
remain the single-shot building blocks those backends adapt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .._compute import complex_dtype, pin_blas_thread, real_dtype
from .._util import require, require_non_negative_int, require_positive_int
from ..errors import ConfigurationError, SignalError
from .fourier import shared_block_spectra
from .opcount import OperationCounter
from .sampling import SampledSignal


# Denominator floor shared by every coherence normalisation (the DSCF
# batch path and the FAM/SSCA estimator planes): keeps empty spectral
# bins from dividing by zero without disturbing real coherence values.
COHERENCE_FLOOR = 1e-30


def default_m(fft_size: int) -> int:
    """Largest offset bound M such that ``f±a`` stay within the spectrum.

    ``f + a`` ranges over ``[-2M, 2M]``; requiring ``2M <= K/2 - 1``
    yields ``M = (K/2 - 1) // 2``.  For the paper's K = 256 this is 63,
    giving the 127 x 127 DSCF of Section 4.1.
    """
    fft_size = require_positive_int(fft_size, "fft_size")
    if fft_size < 4:
        raise ConfigurationError(
            f"fft_size must be at least 4 to host a DSCF, got {fft_size}"
        )
    return (fft_size // 2 - 1) // 2


def validate_m(fft_size: int, m: int | None) -> int:
    """Validate (or default) the half-extent M for a K-point spectrum."""
    limit = default_m(fft_size)
    if m is None:
        return limit
    m = require_non_negative_int(m, "m")
    require(
        m <= limit,
        f"m={m} too large for fft_size={fft_size}: f±a would leave the "
        f"spectrum (maximum m is {limit})",
    )
    return m


@dataclass(frozen=True)
class DSCFResult:
    """A computed DSCF estimate.

    Attributes
    ----------
    values:
        Complex array of shape ``(2M+1, 2M+1)`` indexed
        ``values[f + M, a + M]`` = ``S_f^a`` (rows are spectral
        frequency ``f``, columns are offset ``a``, matching Figure 1
        where rows sweep f and columns sweep a).
    m:
        The half-extent M; ``f, a`` range over ``[-M, M]``.
    num_blocks:
        The number of averaged blocks N.
    fft_size:
        Block length K used for the spectra.
    sample_rate_hz:
        Optional sampling frequency, enabling physical-unit axes.
    """

    values: np.ndarray
    m: int
    num_blocks: int
    fft_size: int
    sample_rate_hz: float | None = None

    def __post_init__(self) -> None:
        extent = 2 * self.m + 1
        if self.values.shape != (extent, extent):
            raise ConfigurationError(
                f"DSCF values must have shape ({extent}, {extent}) for "
                f"m={self.m}, got {self.values.shape}"
            )

    # ------------------------------------------------------------------
    # Axes and lookup
    # ------------------------------------------------------------------
    @property
    def extent(self) -> int:
        """Grid side length ``2M+1`` (the paper's P = F)."""
        return 2 * self.m + 1

    @property
    def f_axis(self) -> np.ndarray:
        """Spectral frequency bins ``f = -M..M``."""
        return np.arange(-self.m, self.m + 1)

    @property
    def a_axis(self) -> np.ndarray:
        """Offset bins ``a = -M..M``."""
        return np.arange(-self.m, self.m + 1)

    def alpha_axis_hz(self) -> np.ndarray:
        """Physical cyclic frequencies ``alpha = 2 a fs / K`` in Hz."""
        if self.sample_rate_hz is None:
            raise SignalError(
                "alpha_axis_hz requires the DSCF to carry a sample rate"
            )
        return 2.0 * self.a_axis * self.sample_rate_hz / self.fft_size

    def frequency_axis_hz(self) -> np.ndarray:
        """Physical spectral frequencies ``f fs / K`` in Hz."""
        if self.sample_rate_hz is None:
            raise SignalError(
                "frequency_axis_hz requires the DSCF to carry a sample rate"
            )
        return self.f_axis * self.sample_rate_hz / self.fft_size

    def get(self, f: int, a: int) -> complex:
        """Return ``S_f^a`` for centered bins ``f, a`` in ``[-M, M]``."""
        if not (-self.m <= f <= self.m and -self.m <= a <= self.m):
            raise SignalError(
                f"(f={f}, a={a}) outside the computed grid [-{self.m}, {self.m}]^2"
            )
        return complex(self.values[f + self.m, a + self.m])

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def magnitude(self) -> np.ndarray:
        """``|S_f^a|`` with the same indexing as :attr:`values`."""
        return np.abs(self.values)

    def alpha_profile(self, reducer: str = "max") -> np.ndarray:
        """Collapse the f-dimension to a per-offset feature profile.

        ``reducer`` is ``"max"`` (peak magnitude over f, the usual
        feature-detection statistic) or ``"sum"`` (total magnitude).
        The a = 0 column is the ordinary averaged power spectrum and is
        *included*; detectors typically exclude it themselves.
        """
        magnitude = self.magnitude()
        if reducer == "max":
            return magnitude.max(axis=0)
        if reducer == "sum":
            return magnitude.sum(axis=0)
        raise ConfigurationError(
            f"reducer must be 'max' or 'sum', got {reducer!r}"
        )

    def psd_column(self) -> np.ndarray:
        """The ``a = 0`` column: the averaged power spectrum ``S_f^0``."""
        return np.real(self.values[:, self.m]).copy()


def _validate_spectra(spectra: np.ndarray) -> tuple[int, int]:
    spectra = np.asarray(spectra)
    if spectra.ndim != 2 or spectra.size == 0:
        raise ConfigurationError(
            f"spectra must be a non-empty (N, K) complex array, got shape "
            f"{spectra.shape}"
        )
    return spectra.shape


def dscf_reference(
    spectra: np.ndarray,
    m: int | None = None,
    counter: OperationCounter | None = None,
) -> np.ndarray:
    """Literal triple-loop DSCF (expression 3), for testing and counting.

    Parameters
    ----------
    spectra:
        Centered block spectra of shape ``(N, K)`` (bin ``v`` at column
        ``v + K/2``), e.g. from :func:`repro.core.fourier.block_spectra`.
    m:
        Half-extent M (defaults to :func:`default_m`).
    counter:
        Optional :class:`OperationCounter`; records one complex
        multiplication and one conjugation per (f, a, n) term, and one
        addition per accumulation into the running sum.

    Returns
    -------
    numpy.ndarray
        ``(2M+1, 2M+1)`` array indexed ``[f + M, a + M]``.
    """
    spectra = np.asarray(spectra, dtype=np.complex128)
    num_blocks, fft_size = _validate_spectra(spectra)
    m = validate_m(fft_size, m)
    center = fft_size // 2
    extent = 2 * m + 1
    result = np.zeros((extent, extent), dtype=np.complex128)
    for f in range(-m, m + 1):
        for a in range(-m, m + 1):
            accumulator = 0.0 + 0.0j
            for n in range(num_blocks):
                term = spectra[n, center + f + a] * np.conj(
                    spectra[n, center + f - a]
                )
                accumulator += term
                if counter is not None:
                    counter.record_multiplication()
                    counter.record_conjugation()
                    counter.record_addition()
            result[f + m, a + m] = accumulator / num_blocks
    return result


#: Row alignment of the parity Gram layout: a common multiple of the
#: register-tile heights OpenBLAS's complex gemm kernels use (4 and 8
#: rows, 6 in Haswell and Zen's zgemm), so every bin keeps its tile
#: class.
PARITY_ALIGN = 24

#: Largest share of the full plane's cells the two parity products may
#: hold for the kernel to split the plane.  The share depends
#: on the window width only (0.55 at M=63; 2.0 below M=12, where each
#: padded product is as wide as the window); above about 0.75 the
#: gather and the tail index cost more than the smaller products save.
PARITY_MAX_SHARE = 0.7

#: Widths (4M+1) above this that are 5 mod 12 keep the full plane:
#: there OpenBLAS's Haswell/Zen zgemm computes a few read cells (tail
#: rows against the columns near half the width) in a tile class no
#: parity product reproduces.  Measured on OpenBLAS 0.3.31, one
#: thread, for every M up to 255: every other width keeps its bits on
#: every core probed.
PARITY_CLASH_WIDTH = 192


@lru_cache(maxsize=64)
def parity_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The same-parity Gram layout of half-extent *m*.

    Expression 3 reads ``G[u, v]`` of the Gram window only where ``u``
    and ``v`` share a parity, so the plane splits into two square
    products.  Parity ``p``'s rows (and columns) are the window bins
    ``p, p+2, ...`` below ``tail = (4M+1) // PARITY_ALIGN *
    PARITY_ALIGN``, padded with copies of bin ``p`` to a multiple of
    :data:`PARITY_ALIGN`, then the window's last ``(4M+1) mod
    PARITY_ALIGN`` bins in order.  Every bin then sits at the same
    offset from an aligned boundary as in the full ``(4M+1)^2``
    product, so OpenBLAS computes each cell the grid reads in the same
    register-tile class and to the same bits.

    Returns ``(columns, cells, sources)``: the ``2n`` window positions
    of the even side then the odd one; and, for the grid cells that
    read a tail bin, their flat index in the ``(2M+1, 2M+1)`` grid and
    the flat index of their value in the products buffer of
    :class:`GramKernel` (leading dimension ``2n+1``, the odd product at
    offset ``n+1``).  Built once per *m*; the arrays are read-only.
    """
    width, extent = 4 * m + 1, 2 * m + 1
    tail = width // PARITY_ALIGN * PARITY_ALIGN
    rest = np.arange(tail, width)
    sides = []
    for parity in (0, 1):
        body = np.arange(parity, tail, 2)
        pad = np.full(-len(body) % PARITY_ALIGN, parity)
        sides.append(np.concatenate([body, pad, rest]))
    side = len(sides[0])
    position = np.arange(width) // 2
    position[tail:] = side - len(rest) + np.arange(len(rest))
    f, a = np.indices((extent, extent))
    u, v = f + a, f - a + 2 * m
    tails = (u >= tail) | (v >= tail)
    sources = (u % 2) * (side + 1) + position[u] * (2 * side + 1) + position[v]
    layout = np.concatenate(sides), np.flatnonzero(tails), sources[tails]
    for array in layout:
        array.setflags(write=False)
    return layout


def parity_split(m: int) -> bool:
    """Whether the kernel of half-extent *m* may compute the parity
    products of :func:`parity_layout` instead of the plane.

    A static rule on the width ``4M+1``: the two products hold at most
    :data:`PARITY_MAX_SHARE` of the plane's cells, and the width is not
    one of the Haswell/Zen clashes (above :data:`PARITY_CLASH_WIDTH`
    and 5 mod 12).  True at the paper point (M=63); false below M=12,
    at M in {49, 52, 55, 58, 61} and at M=127, for instance.
    """
    width = 4 * m + 1
    if width > PARITY_CLASH_WIDTH and width % 12 == 5:
        return False
    side = len(parity_layout(m)[0]) // 2
    return 2 * side**2 <= PARITY_MAX_SHARE * width**2


class GramKernel:
    """The Gram-window DSCF kernel of one geometry, with its buffers.

    Expression 3 for every ``(f, a)`` at once: the Gram plane
    ``G[u, v] = sum_n X[n, c+u] conj(X[n, c+v])`` of the Gram window
    ``X[:, c-2M : c+2M+1]`` is BLAS work, and ``S_f^a`` is
    ``G[f+a, f-a] / N``.  Every software DSCF entry point evaluates
    through this kernel — :func:`dscf` once per call, the
    :class:`~repro.engine.plans.BatchExecutionPlan` scoring loop once
    per trial — so they agree bit for bit.

    ``S`` reads ``G`` only where both bins share a parity, so the
    kernel computes just the two square products of
    :func:`parity_layout` (two 133 x 133 instead of one 253 x 253 at
    the paper point) where :func:`parity_split` allows it, in one
    batched ``np.matmul`` into one buffer of leading dimension
    ``2n+1``: the even product at offset 0, the odd one at ``n+1``.
    Each cell keeps its OpenBLAS tile class, so it holds the full
    plane's bits.  Tile classes hold only on one thread: with several,
    OpenBLAS splits a product between them by its size, which on most
    of its cores moves tile boundaries (the full plane's own bits then
    change with the thread count).  So building a kernel pins numpy's
    OpenBLAS to one thread for the whole process
    (:func:`~repro._compute.pin_blas_thread`), and every result is the
    same whatever thread count the process started with.  A BLAS the
    pin cannot reach, or a width :func:`parity_split` rules out, keeps
    the full ``(4M+1)^2`` plane, one ``np.matmul``.  Both precisions
    run the same code on numpy's BLAS; only the dtype differs.

    The buffers are sized once for ``(N, K, M, precision)`` and
    overwritten in full on every use; the views alias them, so a
    kernel serves one thread at a time.  ``window`` is the Gram window
    in bin order; ``grid`` is the DSCF grid as a strided view of the
    products, ``S[f', a'] = G[f'+a', f'-a'+2M]`` (in the parity layout
    a step in ``f'`` moves ``n+1`` elements and one in ``a'`` moves
    ``n``; in the full plane one row and one column on, or one row on
    and one column back), except for the few cells that read a tail
    bin of the parity layout, which :meth:`values` and
    :meth:`magnitude` gather by index; ``value`` holds the grid scaled
    by ``1/N``; ``mean_square`` is the window's block-mean power
    ``P``, read through its :func:`hankel_views` ``plus`` and
    ``minus``.
    """

    def __init__(
        self, num_blocks: int, fft_size: int, m: int, precision: str
    ) -> None:
        cdtype, rdtype = complex_dtype(precision), real_dtype(precision)
        extent, width = 2 * m + 1, 4 * m + 1
        center = fft_size // 2
        self.bins = slice(center - 2 * m, center + 2 * m + 1)
        self._num_blocks = num_blocks
        # 1/N as complex division by N computes it, in the real dtype.
        self._scale = rdtype.type(1) / rdtype.type(num_blocks)
        self.window = np.empty((num_blocks, width), cdtype)
        self._columns = None
        if pin_blas_thread() and parity_split(m):
            self._columns, self._cells, self._sources = parity_layout(m)
            side = len(self._columns) // 2
            self._sides = np.empty((num_blocks, 2 * side), cdtype)
            self.conjugate = np.empty_like(self._sides)
            self._products = np.empty(side * (2 * side + 1), cdtype)
            item = self._products.itemsize
            planes = as_strided(
                self._products,
                shape=(2, side, side),
                strides=((side + 1) * item, (2 * side + 1) * item, item),
            )
            halves = (num_blocks, 2, side)
            self._operands = (
                self._sides.reshape(halves).transpose(1, 2, 0),
                self.conjugate.reshape(halves).transpose(1, 0, 2),
                planes,
            )
            self.grid = as_strided(
                self._products[m:],
                shape=(extent, extent),
                strides=((side + 1) * item, side * item),
            )
        else:
            self.conjugate = np.empty_like(self.window)
            self._products = np.empty((width, width), cdtype)
            rows, columns = self._products.strides
            self.grid = as_strided(
                self._products[0, 2 * m :],
                shape=(extent, extent),
                strides=(rows + columns, rows - columns),
            )
        self.value = np.empty((extent, extent), cdtype)
        self.value_floats = self.value.view(rdtype)
        self.surface = np.empty((extent, extent), rdtype)
        self.denominator = np.empty((extent, extent), rdtype)
        self.column_max = np.empty(extent, rdtype)
        self.power = np.empty(self.window.shape, rdtype)
        self.mean_square = np.empty(width, rdtype)
        self.plus, self.minus = hankel_views(self.mean_square, m)

    def load(self, spectra: np.ndarray) -> None:
        """Copy the Gram window of one ``(N, K)`` centered spectra."""
        np.copyto(self.window, spectra[:, self.bins])

    def correlate(self, spectra: np.ndarray) -> None:
        """Load *spectra* and compute its Gram products (and ``grid``)."""
        self.load(spectra)
        if self._columns is not None:
            # Both parity sides in one gather, conjugated once, then
            # one batched product per side into the shared buffer.
            np.take(
                self.window, self._columns, axis=1, out=self._sides,
                mode="clip",
            )
            np.conjugate(self._sides, out=self.conjugate)
            left, right, planes = self._operands
            np.matmul(left, right, out=planes)
            return
        np.conjugate(self.window, out=self.conjugate)
        np.matmul(self.window.T, self.conjugate, out=self._products)

    def _read(self, out: np.ndarray) -> None:
        """The unscaled grid into *out*, tail-bin cells included."""
        np.copyto(out, self.grid)
        if self._columns is not None:
            np.put(out, self._cells, self._products.take(self._sources))

    def values(self, out: np.ndarray) -> None:
        """The DSCF grid ``S`` of the correlated spectra, into *out*."""
        self._read(out)
        out /= self._num_blocks

    def magnitude(self, out: np.ndarray) -> None:
        """``|S|`` of the correlated spectra, into *out*.

        The ``1/N`` scale is one real multiply on the float view of the
        grid.  Complex division by ``N`` (numpy's Smith algorithm)
        multiplies each part by the same ``1/N`` after adding the other
        part times zero, so for finite cells the two differ only in the
        sign of a zero and ``|S|`` is bit-identical.  Cells whose parts
        are both inf or NaN are where they would differ (NaN against
        inf, or another NaN payload), so when ``|S|`` holds any
        non-finite cell the plane is redone by complex division:
        overflowed inputs keep their exact results.
        """
        self._read(self.value)
        np.multiply(self.value_floats, self._scale, out=self.value_floats)
        np.abs(self.value, out=out)
        if not np.isfinite(out.max()):
            self.values(self.value)
            np.abs(self.value, out=out)

    def normalise(self, surface: np.ndarray) -> None:
        """Divide ``|S|`` in *surface* by the coherence denominator of
        the loaded window, in place.

        The window's block-mean power goes into ``mean_square`` (and so
        into the ``plus``/``minus`` views) first.
        """
        np.abs(self.window, out=self.power)
        np.square(self.power, out=self.power)
        # np.mean's sum and division, without its Python wrapper.
        np.add.reduce(self.power, axis=0, out=self.mean_square)
        np.divide(self.mean_square, len(self.power), out=self.mean_square)
        coherence_denominator(self.plus, self.minus, out=self.denominator)
        np.divide(surface, self.denominator, out=surface)


def hankel_views(power: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The coherence denominator's two Hankel views of a Gram window's
    ``4M+1`` bins of mean square power ``P``.

    ``plus[f', a'] = P[f'+a']`` (bin ``f+a``) is a sliding window of
    ``P``, and ``minus[f', a'] = P[f'+2M-a']`` (bin ``f-a``) the same
    window read backwards in ``a'``; neither copies ``P``.
    """
    extent, stride = 2 * m + 1, power.strides[0]
    plus = as_strided(
        power, shape=(extent, extent), strides=(stride, stride),
        writeable=False,
    )
    return plus, plus[:, ::-1]


def coherence_denominator(
    plus: np.ndarray, minus: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``sqrt(P[f+a] P[f-a])`` from :func:`hankel_views`, floored at
    :data:`COHERENCE_FLOOR`."""
    out = np.multiply(plus, minus, out=out)
    np.sqrt(out, out=out)
    np.maximum(out, COHERENCE_FLOOR, out=out)
    return out


def dscf(
    spectra: np.ndarray,
    m: int | None = None,
    precision: str = "float64",
) -> np.ndarray:
    """Vectorised DSCF over centered block spectra.

    Equivalent to :func:`dscf_reference`, evaluated by the Gram
    formulation of :class:`GramKernel`: BLAS products of the
    ``(N, 4M+1)`` Gram window with its conjugate (the full plane or
    its two same-parity products), read back as the ``(2M+1, 2M+1)``
    grid and divided by ``N``.  Besides the window
    copy, memory is O((4M+1)^2) whatever ``N``.  The grid is bit-for-bit
    the :class:`~repro.engine.plans.BatchExecutionPlan` ``dscf_values``
    of the same spectra, at either precision.

    ``precision="float32"`` runs the same products in complex64 and
    returns a complex64 grid; the default ``"float64"`` path is the
    bitwise parity reference.

    Returns the raw ``(2M+1, 2M+1)`` array; use :func:`compute_dscf`
    or :func:`dscf_from_signal` for a :class:`DSCFResult` wrapper.
    """
    cdtype = complex_dtype(precision)
    spectra = np.asarray(spectra, dtype=cdtype)
    num_blocks, fft_size = _validate_spectra(spectra)
    m = validate_m(fft_size, m)
    kernel = GramKernel(num_blocks, fft_size, m, precision)
    kernel.correlate(spectra)
    kernel.values(kernel.value)
    return kernel.value


def compute_dscf(
    spectra: np.ndarray,
    m: int | None = None,
    sample_rate_hz: float | None = None,
    precision: str = "float64",
) -> DSCFResult:
    """Vectorised DSCF wrapped in a :class:`DSCFResult`."""
    values = dscf(spectra, m, precision=precision)
    num_blocks, fft_size = np.shape(spectra)
    return DSCFResult(
        values=values,
        m=len(values) // 2,
        num_blocks=num_blocks,
        fft_size=fft_size,
        sample_rate_hz=sample_rate_hz,
    )


def dscf_from_signal(
    signal: SampledSignal | np.ndarray,
    fft_size: int,
    num_blocks: int | None = None,
    m: int | None = None,
    hop: int | None = None,
    window: str = "rectangular",
) -> DSCFResult:
    """End-to-end DSCF: block spectra (expr. 2) then correlation (expr. 3).

    This is the one-call estimator most examples use.

    Parameters
    ----------
    signal:
        Input signal (a :class:`SampledSignal` carries its sample rate
        into the result for physical-unit axes).
    fft_size:
        Block length K.
    num_blocks:
        Number of integration steps N (default: all complete blocks).
    m:
        Half-extent M (default: :func:`default_m`, i.e. 63 for K=256).
    hop:
        Block stride (default ``fft_size``: non-overlapping).
    window:
        Analysis window name (default rectangular, as the paper).
    """
    spectra = shared_block_spectra(
        signal, fft_size, num_blocks=num_blocks, hop=hop, window=window
    )
    sample_rate = (
        signal.sample_rate_hz if isinstance(signal, SampledSignal) else None
    )
    return compute_dscf(spectra, m=m, sample_rate_hz=sample_rate)


def spectral_coherence(result: DSCFResult, psd: np.ndarray) -> np.ndarray:
    """Normalise a DSCF into a spectral coherence in [0, 1].

    ``C_f^a = |S_f^a| / sqrt(PSD[f+a] * PSD[f-a])`` where *psd* is the
    centered K-point averaged power spectrum (e.g. from
    :func:`repro.core.fourier.power_spectral_density` scaled by K, i.e.
    ``mean |X|^2``).  The coherence is the detection statistic that is
    invariant to the absolute noise level.  The denominator
    (:func:`coherence_denominator`) is floored at
    :data:`COHERENCE_FLOOR` so empty bins do not divide by zero.

    Parameters
    ----------
    result:
        A :class:`DSCFResult`.
    psd:
        Centered per-bin mean squared spectrum ``mean_n |X[n, v]|^2``,
        length K.
    """
    psd = np.asarray(psd, dtype=np.float64)
    if psd.shape != (result.fft_size,):
        raise ConfigurationError(
            f"psd must have shape ({result.fft_size},), got {psd.shape}"
        )
    m = result.m
    center = result.fft_size // 2
    plus, minus = hankel_views(psd[center - 2 * m : center + 2 * m + 1], m)
    return np.abs(result.values) / coherence_denominator(plus, minus)
