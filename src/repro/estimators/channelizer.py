"""Shared channelizer front-end for the full-plane estimators.

Both FAM and SSCA start from the same primitive: the sequence of
**complex demodulates** ``X_T[p, k]`` — windowed N'-point short-time
spectra whose phase is referenced to *absolute* sample time, so each
channel is mixed down to baseband.  This is exactly the paper's
expression 2 evaluated at block length N' with an arbitrary hop
(see :func:`repro.core.fourier.block_spectra`); the plan below is
bit-for-bit equal to that function for ``center=False`` and adds

* a **decimation plan** — frame starts every ``hop`` samples (L = N'/4
  for FAM's channelizer, L = 1 for SSCA's full-rate strips);
* **centered frames** (``center=True``) — frame ``p`` spans
  ``[p*hop - N'/2, p*hop + N'/2)`` with zero padding at the edges, the
  alignment SSCA needs so each demodulate is time-registered to the
  full-rate sample it is conjugate-multiplied with;
* a **batched path** — one bulk FFT over every frame of every trial,
  mirroring :meth:`repro.engine.BatchExecutionPlan.block_spectra`.

The demodulate of channel ``k`` (centered bin, column ``k + N'/2``) is

    X_T[p, k] = sum_m w[m] x[s_p + m] e^{-j 2 pi k (s_p + m) / N'}

with ``s_p`` the frame start; the absolute-time factor
``e^{-j 2 pi k s_p / N'}`` is what removes the per-frame carrier and
makes the sequence a baseband time series per channel.
"""

from __future__ import annotations

import numpy as np

from .._compute import (
    complex_dtype,
    fft_fast_kwargs,
    fft_namespace,
    tile_trials,
)
from .._util import require_positive_int
from ..core.sampling import SampledSignal
from ..core.windows import get_window
from ..errors import ConfigurationError, SignalError


class ChannelizerPlan:
    """Precomputed demodulate plan for one (N', hop, window) geometry.

    Parameters
    ----------
    num_channels:
        Channelizer FFT length N' (one output channel per bin).
    hop:
        Decimation between successive frames (L); FAM conventionally
        uses ``N'/4``, SSCA uses 1.
    window:
        Analysis-window name (see :mod:`repro.core.windows`).
    center:
        If True, frame ``p`` is centered on sample ``p*hop`` (zero
        padded at the signal edges) rather than starting there; the
        demodulate phase still references true sample time, so
        centering changes alignment, not calibration.
    precision:
        ``"float64"`` (default, the bitwise parity reference) or
        ``"float32"`` — the complex64 fast path: frames are processed
        in cache-sized trial tiles through the single-precision FFT
        namespace (see :mod:`repro._compute`).
    """

    def __init__(
        self,
        num_channels: int,
        hop: int = 1,
        window: str = "hann",
        center: bool = False,
        precision: str = "float64",
    ) -> None:
        self.num_channels = require_positive_int(num_channels, "num_channels")
        self.hop = require_positive_int(hop, "hop")
        self.window = window
        self.center = bool(center)
        self.precision = precision
        self._cdtype = complex_dtype(precision)
        self._fft = fft_namespace(precision)
        self._taper = get_window(window, self.num_channels)
        self._gain = float(np.sum(self._taper))
        if self._gain == 0.0:
            raise ConfigurationError("channelizer window must have non-zero sum")
        if precision == "float32":
            self._taper = self._taper.astype(np.float32)

    @property
    def taper(self) -> np.ndarray:
        """The analysis window applied to every frame."""
        return self._taper.copy()

    @property
    def coherent_gain(self) -> float:
        """``sum(w)`` — divides demodulates into amplitude units."""
        return self._gain

    def num_frames(self, num_samples: int) -> int:
        """Demodulate count P available from *num_samples* samples."""
        num_samples = require_positive_int(num_samples, "num_samples")
        if self.center:
            # One frame per hop position whose center lies in-signal.
            return (num_samples - 1) // self.hop + 1
        if num_samples < self.num_channels:
            return 0
        return (num_samples - self.num_channels) // self.hop + 1

    def channels(self) -> np.ndarray:
        """Centered channel bins ``k = -N'/2 .. N'/2 - 1``."""
        return np.arange(self.num_channels) - self.num_channels // 2

    def channel_freqs(self, sample_rate_hz: float = 1.0) -> np.ndarray:
        """Channel center frequencies ``k fs / N'``."""
        return self.channels() * float(sample_rate_hz) / self.num_channels

    # ------------------------------------------------------------------
    # Demodulates
    # ------------------------------------------------------------------
    def _frame_geometry(
        self, num_samples: int, num_frames: int | None
    ) -> tuple[np.ndarray, int]:
        """Resolve (frame start times, pad) and validate the frame count."""
        available = self.num_frames(num_samples)
        if num_frames is None:
            num_frames = available
        else:
            num_frames = require_positive_int(num_frames, "num_frames")
        if num_frames > available or available == 0:
            raise SignalError(
                f"channelizer needs {self.num_channels} samples per frame "
                f"(hop {self.hop}): {num_samples} samples yield "
                f"{available} frames, {num_frames} requested"
            )
        pad = self.num_channels // 2 if self.center else 0
        starts = np.arange(num_frames) * self.hop - pad
        return starts, pad

    def demodulates_batch(
        self, signals: np.ndarray, num_frames: int | None = None
    ) -> np.ndarray:
        """Complex demodulates of every trial: one bulk FFT.

        Parameters
        ----------
        signals:
            ``(trials, samples)`` complex array (a single 1-D signal is
            promoted to a batch of one).
        num_frames:
            Demodulate count P (default: every available frame).

        Returns
        -------
        numpy.ndarray
            ``(trials, P, N')`` tensor; channel ``k`` (centered) sits
            at column ``k + N'/2``.
        """
        batch = np.asarray(signals, dtype=self._cdtype)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2:
            raise ConfigurationError(
                f"signals must be a (trials, samples) array, got shape "
                f"{batch.shape}"
            )
        starts, pad = self._frame_geometry(batch.shape[1], num_frames)
        if pad:
            padded = np.zeros(
                (batch.shape[0], batch.shape[1] + 2 * pad), dtype=self._cdtype
            )
            padded[:, pad:-pad] = batch
            batch = padded
        gather = (starts + pad)[:, None] + np.arange(self.num_channels)[None, :]
        # Absolute-time phase reference (expression 2): demodulates each
        # channel to baseband.  Well defined under fftshift because the
        # starts are integers, making the factor N'-periodic in k.
        phase = np.exp(
            -2j
            * np.pi
            * np.outer(starts, np.arange(self.num_channels))
            / self.num_channels
        )
        if self.precision == "float64":
            frames = batch[:, gather] * self._taper
            spectra = np.fft.fft(frames, axis=2)
            spectra = spectra * phase
            return np.fft.fftshift(spectra, axes=2)
        # float32 fast path: cache-sized trial tiles through the
        # single-precision FFT namespace.  Every pass over the tile is
        # in place (taper multiply, FFT, phase), and the final
        # fftshift is two direct slice assignments into the output
        # instead of a shifted temporary.
        phase = phase.astype(np.complex64)
        trials = batch.shape[0]
        out = np.empty(
            (trials, gather.shape[0], self.num_channels), dtype=self._cdtype
        )
        tile = tile_trials(3 * gather.size * out.itemsize)
        shift = self.num_channels // 2
        for lo in range(0, trials, tile):
            hi = min(lo + tile, trials)
            frames = batch[lo:hi, gather]
            frames *= self._taper
            spectra = self._fft.fft(
                frames, axis=2, **fft_fast_kwargs(self._fft)
            )
            spectra *= phase
            out[lo:hi, :, shift:] = spectra[:, :, : self.num_channels - shift]
            out[lo:hi, :, :shift] = spectra[:, :, self.num_channels - shift:]
        return out

    def demodulates(
        self,
        signal: SampledSignal | np.ndarray,
        num_frames: int | None = None,
    ) -> np.ndarray:
        """Demodulates ``(P, N')`` of one signal (batch of one)."""
        samples = (
            signal.samples
            if isinstance(signal, SampledSignal)
            else np.asarray(signal)
        )
        if samples.ndim != 1:
            raise ConfigurationError(
                f"signal must be 1-D, got a {samples.ndim}-D array"
            )
        return self.demodulates_batch(samples[None], num_frames=num_frames)[0]
