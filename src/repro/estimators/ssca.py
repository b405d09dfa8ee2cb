"""Strip Spectral Correlation Analyzer (SSCA) — full-plane estimator.

Where FAM correlates every channelizer pair, the SSCA conjugate-
multiplies each channel's demodulate **against the full-rate signal
itself** and resolves the product with one long FFT per strip:

1. **channelize** — hop-1, centered N'-point demodulates
   ``X_T[n, k]`` (one per input sample, time-registered to ``x[n]``;
   see :mod:`repro.estimators.channelizer`);
2. **strip products** — ``y[n, k] = X_T[n, k] * conj(x[n])``;
3. **strip FFTs** — an N-point FFT over ``n`` for every strip ``k``.

Coefficient ``(q, k)`` estimates the cyclic spectrum at

    alpha = f_k + q~ fs / N          (resolution fs / N)
    f     = (f_k - q~ fs / N) / 2    (strip bandwidth fs / N')

with ``f_k = k fs / N'`` the strip center and ``q~`` the centered strip
FFT bin: each strip sweeps a diagonal line across the (f, alpha) plane,
and the N' strips together cover ``alpha`` over (-fs, fs) at the finest
cyclic resolution an N-sample observation supports.  SSCA is the
classic choice for exhaustive blind search: O(N N' log N) total work
for N alpha-bins per strip, against FAM's denser sampling of a coarser
alpha set.

:class:`SSCAEstimator` produces full-plane
:class:`~repro.estimators.result.CyclicSpectrum` estimates;
:class:`BatchedSSCA` executes many trials at once behind the ``ssca``
pipeline backend, with the strip products evaluated as one broadcast
multiply + bulk FFT per trial slab and a precomputed DSCF-grid
projection.
"""

from __future__ import annotations

import numpy as np

from .._compute import (
    SLAB_TRIALS,
    complex_dtype,
    fft_fast_kwargs,
    fft_namespace,
    real_dtype,
)
from .._util import require_positive_int
from ..core.sampling import SampledSignal
from ..core.scf import COHERENCE_FLOOR
from ..errors import ConfigurationError
from .channelizer import ChannelizerPlan
from .grid import LatticeProjection, bin_to_plane
from .result import CyclicSpectrum


class SSCAEstimator:
    """Strip Spectral Correlation Analyzer for one channelizer geometry.

    Parameters
    ----------
    num_channels:
        Channelizer length N' (number of strips; strip bandwidth is
        fs/N').
    window:
        Channelizer analysis window (default Hann).
    sample_rate_hz:
        Default sampling frequency for physical axes (overridden by a
        :class:`~repro.core.sampling.SampledSignal` input).
    """

    name = "ssca"

    def __init__(
        self,
        num_channels: int = 64,
        window: str = "hann",
        sample_rate_hz: float | None = None,
        precision: str = "float64",
    ) -> None:
        num_channels = require_positive_int(num_channels, "num_channels")
        if num_channels < 4:
            raise ConfigurationError(
                f"SSCA needs at least 4 strips, got {num_channels}"
            )
        self.channelizer = ChannelizerPlan(
            num_channels, hop=1, window=window, center=True,
            precision=precision,
        )
        self.sample_rate_hz = sample_rate_hz

    @property
    def num_channels(self) -> int:
        """Channelizer length N' (strip count)."""
        return self.channelizer.num_channels

    def freq_resolution(self, sample_rate_hz: float = 1.0) -> float:
        """Strip bandwidth ``fs / N'``."""
        return float(sample_rate_hz) / self.num_channels

    def alpha_resolution(
        self, num_samples: int, sample_rate_hz: float = 1.0
    ) -> float:
        """Cyclic resolution ``fs / N`` of an N-sample observation."""
        num_samples = require_positive_int(num_samples, "num_samples")
        return float(sample_rate_hz) / num_samples

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def strip_spectra_batch(self, signals: np.ndarray) -> np.ndarray:
        """Strip FFTs of every trial: ``(trials, N, N')``.

        Axis 1 is the centered strip-FFT bin ``q~``, axis 2 the
        centered strip (channel) index.
        """
        batch = np.asarray(signals, dtype=np.complex128)
        if batch.ndim == 1:
            batch = batch[None, :]
        demodulates = self.channelizer.demodulates_batch(batch)
        demodulates = demodulates / self.channelizer.coherent_gain
        num_samples = batch.shape[1]
        products = demodulates * np.conj(batch)[:, :, None]
        spectra = np.fft.fft(products, axis=1) / num_samples
        return np.fft.fftshift(spectra, axes=1)

    def lattice(self, num_samples: int) -> tuple[np.ndarray, np.ndarray]:
        """Flattened normalized plane coordinates of every coefficient.

        Matches ``strip_spectra_batch`` output raveled over its last
        two axes: returns ``(f_norm, alpha_norm)``, each of length
        ``N * N'``, in cycles/sample.
        """
        num_samples = require_positive_int(num_samples, "num_samples")
        strip_freqs = self.channelizer.channels() / self.num_channels
        bins = np.fft.fftshift(np.fft.fftfreq(num_samples))
        alpha_norm = (strip_freqs[None, :] + bins[:, None]).ravel()
        f_norm = ((strip_freqs[None, :] - bins[:, None]) / 2.0).ravel()
        return f_norm, alpha_norm

    # ------------------------------------------------------------------
    # Full-plane estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        signal: SampledSignal | np.ndarray,
        sample_rate_hz: float | None = None,
    ) -> CyclicSpectrum:
        """Estimate the full (f, alpha)-plane cyclic spectrum.

        The plane is rasterised at Delta-f = fs/(2 N') and
        Delta-alpha = fs/N; each cell holds its strongest coefficient.
        """
        if isinstance(signal, SampledSignal):
            sample_rate = signal.sample_rate_hz
            samples = signal.samples
        else:
            sample_rate = (
                sample_rate_hz
                if sample_rate_hz is not None
                else (self.sample_rate_hz or 1.0)
            )
            samples = np.asarray(signal)
        spectra = self.strip_spectra_batch(samples[None])[0]
        num_samples = spectra.shape[0]
        f_norm, alpha_norm = self.lattice(num_samples)
        return bin_to_plane(
            f_norm,
            alpha_norm,
            spectra.ravel(),
            freq_step=1.0 / (2 * self.num_channels),
            alpha_step=1.0 / num_samples,
            sample_rate_hz=float(sample_rate),
            estimator=self.name,
        )


class BatchedSSCA:
    """Vectorised multi-trial SSCA executor projected onto the DSCF grid.

    Mirrors :class:`~repro.estimators.fam.BatchedFAM`: geometry-only
    tables (channelizer plan, strip lattice in natural second-FFT bin
    order, DSCF projection, coherence strip-pair map) are built once
    per configuration, and every call runs the channelizer as bulk
    FFTs over :data:`~repro._compute.SLAB_TRIALS` slabs with the
    memory-heavy strip FFTs streaming trial-at-a-time in
    squared-magnitude arithmetic (one small square root on the
    projected grid at the end).
    """

    estimator_name = "ssca"

    def __init__(
        self,
        samples_per_decision: int,
        fft_size: int,
        m: int,
        num_channels: int = 64,
        window: str = "hann",
        normalize: bool = True,
        precision: str = "float64",
    ) -> None:
        self.precision = precision
        self._cdtype = complex_dtype(precision)
        self._rdtype = real_dtype(precision)
        self._fft = fft_namespace(precision)
        self.estimator = SSCAEstimator(
            num_channels=num_channels, window=window, precision=precision
        )
        self.samples_per_decision = require_positive_int(
            samples_per_decision, "samples_per_decision"
        )
        self.normalize = bool(normalize)
        # Strip-major lattice in natural (unshifted) second-FFT bin
        # order, matching the fused per-trial (N', N) layout below.
        strips = self.estimator.channelizer.channels()
        strip_freqs = strips / self.estimator.num_channels
        bins = np.fft.fftfreq(samples_per_decision)
        alpha_norm = (strip_freqs[:, None] + bins[None, :]).ravel()
        f_norm = ((strip_freqs[:, None] - bins[None, :]) / 2.0).ravel()
        self.projection = LatticeProjection(f_norm, alpha_norm, fft_size, m)
        # Coherence geometry: coefficient (k, q) correlates strip k
        # (f1 = f_k) with full-rate content at f2 = -q~ fs / N; its
        # denominator uses the strip powers at f1 and at the strip
        # nearest f2 — precomputed as an index map over q.
        nearest = np.rint(-bins * self.estimator.num_channels).astype(np.int64)
        nearest = np.clip(nearest, strips[0], strips[-1])
        self._partner = nearest + self.estimator.num_channels // 2

    @property
    def averaging_length(self) -> int:
        """Samples averaged per estimate (the strip-FFT length N)."""
        return self.samples_per_decision

    def _trial_magnitudes_squared(
        self, samples: np.ndarray, demodulates: np.ndarray, normalize: bool
    ) -> np.ndarray:
        """``|Z|^2`` over one trial's strips, raveled strip-major."""
        if self.precision == "float64":
            products = np.ascontiguousarray(
                (demodulates * np.conj(samples)[:, None]).T
            )
            # numpy.fft: the bitwise parity reference.
            spectra = self._fft.fft(products, axis=-1)
            spectra /= self.samples_per_decision
            squared = np.square(spectra.real) + np.square(spectra.imag)
        else:
            # float32 fast path: the strip-major product tensor is
            # built directly in its final (N', N) layout (no transpose
            # copy), the strip FFTs run in place (the products are
            # dead after them), and the 1/N normalisation is deferred
            # onto the real-valued squared magnitudes — half the bytes
            # of a complex-plane pass.
            products = demodulates.T * np.conj(samples)[None, :]
            spectra = self._fft.fft(
                products, axis=-1, **fft_fast_kwargs(self._fft)
            )
            squared = np.abs(spectra)
            np.square(squared, out=squared)
            squared *= np.float32(1.0 / self.samples_per_decision**2)
        if normalize:
            strip_power = np.mean(
                np.square(demodulates.real) + np.square(demodulates.imag),
                axis=0,
            )
            denominator = strip_power[:, None] * strip_power[self._partner][None, :]
            squared /= np.maximum(denominator, COHERENCE_FLOOR)
        return squared.ravel()

    def _project(self, signals: np.ndarray, normalize: bool) -> np.ndarray:
        batch = np.asarray(signals, dtype=self._cdtype)
        if batch.shape[1] != self.samples_per_decision:
            # The strip-FFT length fixes the lattice: longer trials
            # would silently change the alpha resolution, so truncate
            # to the planned decision length.
            batch = batch[:, : self.samples_per_decision]
        trials = batch.shape[0]
        extent = self.projection.extent
        out = np.empty((trials, extent, extent), dtype=self._rdtype)
        gain = self.estimator.channelizer.coherent_gain
        for start in range(0, trials, SLAB_TRIALS):
            slab = batch[start : start + SLAB_TRIALS]
            demodulates = self.estimator.channelizer.demodulates_batch(slab)
            demodulates /= gain
            for offset in range(slab.shape[0]):
                out[start + offset] = self.projection.project(
                    self._trial_magnitudes_squared(
                        slab[offset], demodulates[offset], normalize
                    )
                )
        return np.sqrt(out, out=out)

    def magnitudes(self, signals: np.ndarray) -> np.ndarray:
        """Raw ``|S|`` projected onto the DSCF grid, per trial."""
        return self._project(signals, normalize=False)

    def surfaces(self, signals: np.ndarray) -> np.ndarray:
        """Detection surfaces on the DSCF grid: the spectral coherence
        ``|Z| / sqrt(P_k P_partner)`` when ``normalize`` is set, raw
        ``|Z|`` otherwise."""
        return self._project(signals, normalize=self.normalize)
