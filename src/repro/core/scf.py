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

Three estimators are provided and verified against each other:

``dscf_reference``
    Literal triple loop over (f, a, n); slow, exact, countable.
``dscf``
    Vectorised numpy implementation for production use.
``StreamingDSCF``
    Block-at-a-time accumulator mirroring the hardware integration step
    (Figure 3: multiply + running sum in a register/memory).

All three (plus the cycle-level SoC emulation) are registered as named
estimator backends behind :mod:`repro.pipeline` — the recommended API:
``DetectionPipeline`` selects a substrate by name, and the
:class:`~repro.engine.Engine` evaluates many trials in one vectorised
pass.  The functions here
remain the single-shot building blocks those backends adapt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._compute import complex_dtype
from .._util import require, require_non_negative_int, require_positive_int
from ..errors import ConfigurationError, SignalError
from .fourier import block_spectra
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


def dscf(
    spectra: np.ndarray,
    m: int | None = None,
    chunk_blocks: int = 128,
    precision: str = "float64",
) -> np.ndarray:
    """Vectorised DSCF over centered block spectra.

    Equivalent to :func:`dscf_reference` but evaluated with numpy fancy
    indexing, chunked over blocks to bound peak memory at roughly
    ``chunk_blocks * (2M+1)^2`` complex values.

    ``precision="float32"`` runs the whole correlation in complex64 —
    half the memory traffic through the gather/einsum hot loop — and
    returns a complex64 grid; the default ``"float64"`` path is the
    bitwise parity reference.

    Returns the raw ``(2M+1, 2M+1)`` array; use :func:`compute_dscf`
    or :func:`dscf_from_signal` for a :class:`DSCFResult` wrapper.
    """
    cdtype = complex_dtype(precision)
    spectra = np.asarray(spectra, dtype=cdtype)
    num_blocks, fft_size = _validate_spectra(spectra)
    m = validate_m(fft_size, m)
    chunk_blocks = require_positive_int(chunk_blocks, "chunk_blocks")
    center = fft_size // 2
    offsets = np.arange(-m, m + 1)
    # index grids: rows sweep f, columns sweep a
    plus_index = center + offsets[:, None] + offsets[None, :]   # f + a
    minus_index = center + offsets[:, None] - offsets[None, :]  # f - a
    accumulator = np.zeros((2 * m + 1, 2 * m + 1), dtype=cdtype)
    for start in range(0, num_blocks, chunk_blocks):
        chunk = spectra[start : start + chunk_blocks]
        accumulator += np.einsum(
            "nfa,nfa->fa", chunk[:, plus_index], np.conj(chunk[:, minus_index])
        )
    return accumulator / num_blocks


def compute_dscf(
    spectra: np.ndarray,
    m: int | None = None,
    sample_rate_hz: float | None = None,
    precision: str = "float64",
) -> DSCFResult:
    """Vectorised DSCF wrapped in a :class:`DSCFResult`."""
    spectra = np.asarray(spectra, dtype=complex_dtype(precision))
    num_blocks, fft_size = _validate_spectra(spectra)
    m = validate_m(fft_size, m)
    values = dscf(spectra, m, precision=precision)
    return DSCFResult(
        values=values,
        m=m,
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
    spectra = block_spectra(
        signal, fft_size, num_blocks=num_blocks, hop=hop, window=window
    )
    sample_rate = (
        signal.sample_rate_hz if isinstance(signal, SampledSignal) else None
    )
    return compute_dscf(spectra, m=m, sample_rate_hz=sample_rate)


class StreamingDSCF:
    """Block-at-a-time DSCF accumulator, cumulative or sliding-window.

    Mirrors the hardware integration structure of Figure 3/4: each call
    to :meth:`update` feeds one block spectrum (one value of ``n``) into
    the running estimate, exactly as the Montium's multiply-accumulate
    loop adds into its integration memories.

    Two accumulation modes exist:

    * **cumulative** (``window_blocks=None``, the legacy behaviour):
      every update multiplies and adds into one running sum; after N
      updates :meth:`result` divides by N.  Numerically identical (up
      to float associativity) to :func:`dscf` over the same spectra,
      which the tests assert.
    * **sliding window** (``window_blocks=W``): the last W spectra are
      retained in a ring buffer and the estimate always covers exactly
      the most recent ``min(count, W)`` blocks.  Eviction is *exact*:
      an evicted block simply leaves the ring, and the window estimate
      is evaluated over the surviving spectra with the same chunked
      arithmetic as :func:`dscf` — **bitwise** equal to
      ``dscf(window_spectra())`` at every step.  (A subtract-the-old-
      term running sum would be cheaper per result but accumulates
      rounding drift and can never be bitwise against the batch
      estimator; this repo pins bitwise parity everywhere, so the ring
      recompute — lazily cached until the next update — is the
      contract.)  This is the online path the serve sessions
      (:mod:`repro.serve`) stream unbounded captures through.

    The full accumulator state round-trips bitwise through
    :meth:`state`/:meth:`from_state`, so a live stream can be
    suspended, migrated to another process, or recovered after a crash
    without perturbing a single bit of any subsequent result.
    """

    def __init__(
        self,
        fft_size: int,
        m: int | None = None,
        window_blocks: int | None = None,
    ) -> None:
        self._fft_size = require_positive_int(fft_size, "fft_size")
        self._m = validate_m(fft_size, m)
        offsets = np.arange(-self._m, self._m + 1)
        center = fft_size // 2
        self._plus_index = center + offsets[:, None] + offsets[None, :]
        self._minus_index = center + offsets[:, None] - offsets[None, :]
        extent = 2 * self._m + 1
        self._window = (
            None
            if window_blocks is None
            else require_positive_int(window_blocks, "window_blocks")
        )
        self._sum = np.zeros((extent, extent), dtype=np.complex128)
        self._ring = (
            None
            if self._window is None
            else np.zeros((self._window, fft_size), dtype=np.complex128)
        )
        self._count = 0
        self._cached: tuple[int, np.ndarray] | None = None

    @property
    def m(self) -> int:
        """Half-extent M of the accumulated grid."""
        return self._m

    @property
    def fft_size(self) -> int:
        """Block length K."""
        return self._fft_size

    @property
    def window_blocks(self) -> int | None:
        """Sliding-window length W (``None`` = cumulative)."""
        return self._window

    @property
    def total_blocks(self) -> int:
        """Blocks ever fed through :meth:`update` (never retired)."""
        return self._count

    @property
    def num_blocks(self) -> int:
        """Blocks contributing to the current estimate.

        Equal to :attr:`total_blocks` in cumulative mode; capped at
        :attr:`window_blocks` once a sliding window fills.
        """
        if self._window is None:
            return self._count
        return min(self._count, self._window)

    def update(self, spectrum: np.ndarray) -> None:
        """Feed one centered K-point spectrum (one value of n).

        Cumulative mode multiply-accumulates into the running sum;
        window mode writes the spectrum over the ring slot of the block
        it retires (O(K), no DSCF arithmetic until a result is asked
        for).
        """
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        if spectrum.shape != (self._fft_size,):
            raise ConfigurationError(
                f"spectrum must have shape ({self._fft_size},), got "
                f"{spectrum.shape}"
            )
        if self._ring is None:
            self._sum += spectrum[self._plus_index] * np.conj(
                spectrum[self._minus_index]
            )
        else:
            self._ring[self._count % self._window] = spectrum
        self._count += 1
        self._cached = None

    def window_spectra(self, phase: np.ndarray | None = None) -> np.ndarray:
        """The in-window spectra in arrival order (oldest first).

        Only meaningful in window mode; shape
        ``(min(count, W), fft_size)``.  With *phase* — a
        ``(min(count, W), fft_size)`` table — each spectrum is
        multiplied elementwise by its row on the way out, fused into
        the ring copy (one pass instead of copy-then-multiply) but
        bitwise equal to ``window_spectra() * phase``.  The serve
        sessions use this to reconcile ring spectra to the batch phase
        convention on the spectra-reuse detection fast path (see
        :meth:`repro.serve.SensingSession.window_spectra`).
        """
        if self._ring is None:
            raise ConfigurationError(
                "window_spectra requires a sliding-window StreamingDSCF "
                "(window_blocks was None)"
            )
        count = min(self._count, self._window)
        if phase is not None and phase.shape != (count, self._fft_size):
            raise ConfigurationError(
                f"phase must have shape ({count}, {self._fft_size}) to "
                f"match the current window, got {phase.shape}"
            )
        if self._count <= self._window:
            live = self._ring[: self._count]
            return live.copy() if phase is None else live * phase
        cut = self._count % self._window
        if phase is None:
            return np.concatenate([self._ring[cut:], self._ring[:cut]])
        out = np.empty_like(self._ring)
        head = self._window - cut
        np.multiply(self._ring[cut:], phase[:head], out=out[:head])
        np.multiply(self._ring[:cut], phase[head:], out=out[head:])
        return out

    def _values(self) -> np.ndarray:
        if self._ring is None:
            return self._sum / self._count
        if self._cached is not None and self._cached[0] == self._count:
            return self._cached[1]
        # Exactly the batch estimator over the surviving window — this
        # is what makes window results bitwise equal to dscf().
        values = dscf(self.window_spectra(), m=self._m)
        self._cached = (self._count, values)
        return values

    def result(self, sample_rate_hz: float | None = None) -> DSCFResult:
        """The DSCF over the current window (or everything, cumulative)."""
        if self._count == 0:
            raise SignalError("StreamingDSCF has accumulated no blocks yet")
        return DSCFResult(
            values=self._values(),
            m=self._m,
            num_blocks=self.num_blocks,
            fft_size=self._fft_size,
            sample_rate_hz=sample_rate_hz,
        )

    def reset(self) -> None:
        """Clear the accumulator (ring, running sum and counters)."""
        self._sum[:] = 0
        if self._ring is not None:
            self._ring[:] = 0
        self._count = 0
        self._cached = None

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """An exact (bitwise) checkpoint of the accumulator.

        The returned dict owns copies of every array, so it stays valid
        after further updates and pickles cleanly across processes.
        Restore with :meth:`from_state`.
        """
        state = {
            "fft_size": self._fft_size,
            "m": self._m,
            "window_blocks": self._window,
            "count": self._count,
        }
        if self._ring is None:
            state["sum"] = self._sum.copy()
        else:
            state["ring"] = self._ring.copy()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "StreamingDSCF":
        """Rebuild an accumulator from a :meth:`state` checkpoint.

        Every subsequent :meth:`update`/:meth:`result` is bitwise
        identical to the sequence the checkpointed instance would have
        produced.
        """
        try:
            accumulator = cls(
                state["fft_size"],
                m=state["m"],
                window_blocks=state["window_blocks"],
            )
            count = require_non_negative_int(state["count"], "count")
            payload_key = "sum" if state["window_blocks"] is None else "ring"
            payload = np.asarray(state[payload_key], dtype=np.complex128)
        except KeyError as error:
            raise ConfigurationError(
                f"StreamingDSCF state is missing field {error}"
            ) from None
        target = (
            accumulator._sum if accumulator._ring is None
            else accumulator._ring
        )
        if payload.shape != target.shape:
            raise ConfigurationError(
                f"StreamingDSCF state {payload_key!r} must have shape "
                f"{target.shape}, got {payload.shape}"
            )
        target[...] = payload
        accumulator._count = count
        return accumulator


def spectral_coherence(
    result: DSCFResult, psd: np.ndarray, floor: float = COHERENCE_FLOOR
) -> np.ndarray:
    """Normalise a DSCF into a spectral coherence in [0, 1].

    ``C_f^a = |S_f^a| / sqrt(PSD[f+a] * PSD[f-a])`` where *psd* is the
    centered K-point averaged power spectrum (e.g. from
    :func:`repro.core.fourier.power_spectral_density` scaled by K, i.e.
    ``mean |X|^2``).  The coherence is the detection statistic that is
    invariant to the absolute noise level.

    Parameters
    ----------
    result:
        A :class:`DSCFResult`.
    psd:
        Centered per-bin mean squared spectrum ``mean_n |X[n, v]|^2``,
        length K.
    floor:
        Denominator floor to avoid division by zero in empty bins.
    """
    psd = np.asarray(psd, dtype=np.float64)
    if psd.shape != (result.fft_size,):
        raise ConfigurationError(
            f"psd must have shape ({result.fft_size},), got {psd.shape}"
        )
    m = result.m
    center = result.fft_size // 2
    offsets = np.arange(-m, m + 1)
    plus_index = center + offsets[:, None] + offsets[None, :]
    minus_index = center + offsets[:, None] - offsets[None, :]
    denominator = np.sqrt(psd[plus_index] * psd[minus_index])
    denominator = np.maximum(denominator, floor)
    return np.abs(result.values) / denominator
