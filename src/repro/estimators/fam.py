"""FFT Accumulation Method (FAM) — full-plane cyclic-spectrum estimator.

FAM covers the bi-frequency plane in three stages:

1. **channelize** — N'-point windowed, hop-L (= N'/4) short-time FFTs
   produce the complex demodulate sequence ``X_T[p, k]`` (baseband per
   channel, see :mod:`repro.estimators.channelizer`);
2. **correlate** — every channel pair forms the product sequence
   ``D[p, i, j] = X_T[p, i] * conj(X_T[p, j])``;
3. **accumulate** — a P-point FFT over the block index ``p`` resolves
   each product into fine cyclic-frequency bins.

Coefficient ``(q, i, j)`` estimates the cyclic spectrum at

    f     = (f_i + f_j) / 2                     (resolution fs / N')
    alpha = (f_i - f_j) + q~ * fs / (P L)       (resolution fs / (P L))

where ``f_i = k_i fs / N'`` are the channel centers and ``q~`` the
centered second-FFT bin — the classic diamond tiling of the (f, alpha)
plane.  Compared with the paper's DSCF at the same observation length,
FAM trades spectral resolution (fs/N' vs fs/K) for a much finer cyclic
resolution (fs/(P L) vs 2 fs/K) and full-plane coverage — the right
tool for blind searches where the licensed user's symbol rate (hence
alpha) is unknown.

:class:`FAMEstimator` produces full-plane
:class:`~repro.estimators.result.CyclicSpectrum` estimates;
:class:`BatchedFAM` is the vectorised multi-trial executor behind the
``fam`` pipeline backend — bulk channelizer FFT across all trials,
broadcast channel-pair products, and a precomputed projection onto the
DSCF grid (see :mod:`repro.estimators.grid`).
"""

from __future__ import annotations

import numpy as np

from .._compute import (
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


class FAMEstimator:
    """FFT Accumulation Method estimator for one channelizer geometry.

    Parameters
    ----------
    num_channels:
        Channelizer length N' (the spectral resolution is fs/N').
    hop:
        Channelizer decimation L; defaults to ``N' // 4``, the standard
        75%-overlap FAM operating point.
    num_blocks:
        Demodulate count P fed to the second FFT; ``None`` uses every
        complete frame of the signal.
    window:
        Channelizer analysis window (default Hann, the usual choice for
        overlapped channelizers).
    sample_rate_hz:
        Default sampling frequency for physical axes (overridden by a
        :class:`~repro.core.sampling.SampledSignal` input).
    """

    name = "fam"

    def __init__(
        self,
        num_channels: int = 64,
        hop: int | None = None,
        num_blocks: int | None = None,
        window: str = "hann",
        sample_rate_hz: float | None = None,
        precision: str = "float64",
    ) -> None:
        num_channels = require_positive_int(num_channels, "num_channels")
        if num_channels < 4:
            raise ConfigurationError(
                f"FAM needs at least 4 channels, got {num_channels}"
            )
        if hop is None:
            hop = max(1, num_channels // 4)
        self.channelizer = ChannelizerPlan(
            num_channels, hop=hop, window=window, center=False,
            precision=precision,
        )
        self.num_blocks = (
            None if num_blocks is None
            else require_positive_int(num_blocks, "num_blocks")
        )
        self.sample_rate_hz = sample_rate_hz

    @property
    def num_channels(self) -> int:
        """Channelizer length N'."""
        return self.channelizer.num_channels

    @property
    def hop(self) -> int:
        """Channelizer decimation L."""
        return self.channelizer.hop

    def freq_resolution(self, sample_rate_hz: float = 1.0) -> float:
        """Spectral resolution ``fs / N'``."""
        return float(sample_rate_hz) / self.num_channels

    def alpha_resolution(
        self, num_blocks: int, sample_rate_hz: float = 1.0
    ) -> float:
        """Cyclic resolution ``fs / (P L)`` for a P-block accumulation."""
        num_blocks = require_positive_int(num_blocks, "num_blocks")
        return float(sample_rate_hz) / (num_blocks * self.hop)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def demodulate_products_batch(self, signals: np.ndarray) -> np.ndarray:
        """Second-FFT cyclic periodograms of every trial.

        Returns the ``(trials, P, N', N')`` tensor ``E`` described in
        the module docstring: axis 1 is the centered second-FFT bin
        ``q~``, axes 2/3 the centered channel pair ``(i, j)``.
        """
        demodulates = self.channelizer.demodulates_batch(
            signals, num_frames=self.num_blocks
        )
        demodulates = demodulates / self.channelizer.coherent_gain
        num_frames = demodulates.shape[1]
        # Channel-pair products, broadcast over the block axis
        # (einsum 'tpi,tpj->tpij' without materialising an index map).
        products = demodulates[:, :, :, None] * np.conj(
            demodulates[:, :, None, :]
        )
        accumulated = np.fft.fft(products, axis=1) / num_frames
        return np.fft.fftshift(accumulated, axes=1)

    def lattice(self, num_frames: int) -> tuple[np.ndarray, np.ndarray]:
        """Flattened normalized plane coordinates of every coefficient.

        Matches ``demodulate_products_batch`` output raveled over its
        last three axes: returns ``(f_norm, alpha_norm)``, each of
        length ``P * N' * N'``, in cycles/sample.
        """
        num_frames = require_positive_int(num_frames, "num_frames")
        channels = self.channelizer.channels()
        spacing = 1.0 / self.num_channels
        eps = np.fft.fftshift(np.fft.fftfreq(num_frames)) / self.hop
        f_pairs = (channels[:, None] + channels[None, :]) * (spacing / 2.0)
        alpha_pairs = (channels[:, None] - channels[None, :]) * spacing
        f_norm = np.broadcast_to(
            f_pairs, (num_frames,) + f_pairs.shape
        ).ravel()
        alpha_norm = (alpha_pairs[None, :, :] + eps[:, None, None]).ravel()
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

        The plane is rasterised at Delta-f = fs/(2 N') — the channel-
        pair midpoints fall on the half-channel lattice, though the
        physical spectral resolution remains the channel bandwidth
        fs/N' — and Delta-alpha = fs/(P L); each cell holds its
        strongest coefficient.
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
        accumulated = self.demodulate_products_batch(samples[None])[0]
        num_frames = accumulated.shape[0]
        f_norm, alpha_norm = self.lattice(num_frames)
        return bin_to_plane(
            f_norm,
            alpha_norm,
            accumulated.ravel(),
            freq_step=1.0 / (2 * self.num_channels),
            alpha_step=1.0 / (num_frames * self.hop),
            sample_rate_hz=float(sample_rate),
            estimator=self.name,
        )


class BatchedFAM:
    """Vectorised multi-trial FAM executor projected onto the DSCF grid.

    The execution plan behind the ``fam`` pipeline backend.  Geometry
    (channelizer tables, channel-pair lattice, DSCF-grid projection) is
    built once per configuration; every call then runs

    * **one bulk channelizer FFT** across all trials (the demodulate
      tensor is small — P x N' per trial);
    * a **half-plane second-FFT sweep** per trial: only the upper
      channel-pair triangle is formed and FFT'd, and the Hermitian
      mirror ``|E[-q, j, i]| = |E[q, i, j]|`` projects each coefficient
      onto both alpha signs via the projection's point map — half the
      products, half the FFTs, half the squared magnitudes;
    * squared-magnitude arithmetic throughout, with one small square
      root on the projected ``(2M+1)^2`` grid at the end.

    The memory-heavy stages run trial-at-a-time on purpose: a single
    trial's ``(pairs, P)`` product block stays cache-resident, which
    profiles faster than stacking trials into larger tensors — the
    batching win here is plan amortisation plus the fused passes, and
    it is what makes the ``fam`` Monte-Carlo path beat a build-per-
    decision loop by well over 3x (see ``BENCH_fam_ssca.json``).
    """

    estimator_name = "fam"

    def __init__(
        self,
        samples_per_decision: int,
        fft_size: int,
        m: int,
        num_channels: int = 64,
        hop: int | None = None,
        num_blocks: int | None = None,
        window: str = "hann",
        normalize: bool = True,
        precision: str = "float64",
    ) -> None:
        self.precision = precision
        self._cdtype = complex_dtype(precision)
        self._rdtype = real_dtype(precision)
        self._fft = fft_namespace(precision)
        self.estimator = FAMEstimator(
            num_channels=num_channels,
            hop=hop,
            num_blocks=num_blocks,
            window=window,
            precision=precision,
        )
        self.samples_per_decision = require_positive_int(
            samples_per_decision, "samples_per_decision"
        )
        self.normalize = bool(normalize)
        available = self.estimator.channelizer.num_frames(samples_per_decision)
        self.num_frames = (
            available if num_blocks is None else int(num_blocks)
        )
        if self.num_frames < 1 or self.num_frames > max(available, 0):
            raise ConfigurationError(
                f"FAM needs {self.num_frames} demodulate frames of "
                f"{self.estimator.num_channels} samples (hop "
                f"{self.estimator.hop}) but {samples_per_decision} samples "
                f"per decision yield only {available}"
            )
        # Pin the frame count so trials longer than one decision still
        # produce the geometry the projection below was planned for.
        self.estimator.num_blocks = self.num_frames

        # Upper-triangle channel pairs (i <= j) and their plane lines.
        size = self.estimator.num_channels
        self._upper_i, self._upper_j = np.triu_indices(size)
        self._is_diagonal = self._upper_i == self._upper_j
        channels = self.estimator.channelizer.channels()
        spacing = 1.0 / size
        pair_f = (channels[self._upper_i] + channels[self._upper_j]) * (
            spacing / 2.0
        )
        pair_alpha = (channels[self._upper_i] - channels[self._upper_j]) * spacing
        # Natural (unshifted) second-FFT bins: the shift is folded into
        # the lattice instead of copying the product tensor.
        eps = np.fft.fftfreq(self.num_frames) / self.estimator.hop
        alpha_upper = (pair_alpha[:, None] + eps[None, :]).ravel()
        f_upper = np.repeat(pair_f, self.num_frames)
        # Hermitian mirror: coefficient (q, i, j) also estimates the
        # (f, -alpha) cell (as |E[-q, j, i]|), so each magnitude entry
        # appears twice in the lattice via the point map.
        entries = f_upper.size
        self.projection = LatticeProjection(
            np.concatenate([f_upper, f_upper]),
            np.concatenate([alpha_upper, -alpha_upper]),
            fft_size,
            m,
            point_map=np.concatenate([np.arange(entries), np.arange(entries)]),
            num_points=entries,
        )

    @property
    def averaging_length(self) -> int:
        """Blocks averaged per estimate (the second-FFT length P)."""
        return self.num_frames

    def _trial_magnitudes_squared(
        self, demodulates: np.ndarray, normalize: bool
    ) -> np.ndarray:
        """``|E|^2`` over the upper channel-pair triangle of one trial.

        *demodulates* is one trial's ``(P, N')`` tensor; returns the
        raveled ``(pairs * P,)`` squared magnitudes (coherence-squared
        when *normalize* is set), matching the projection's point
        order.
        """
        by_channel = np.ascontiguousarray(demodulates.T)
        if self.precision == "float64":
            products = by_channel[self._upper_i] * np.conj(
                by_channel[self._upper_j]
            )
            # numpy.fft: the bitwise parity reference.
            accumulated = self._fft.fft(products, axis=-1)
            accumulated /= self.num_frames
            squared = np.square(accumulated.real) + np.square(
                accumulated.imag
            )
        else:
            # float32 fast path over the (pairs, P) product tensor:
            # conjugate written once into the output buffer, FFT in
            # place (the products are dead after it), and the 1/P
            # second-FFT normalisation deferred onto the real-valued
            # squared magnitudes (half the bytes of a complex pass).
            products = np.conj(by_channel[self._upper_j])
            products *= by_channel[self._upper_i]
            accumulated = self._fft.fft(
                products, axis=-1, **fft_fast_kwargs(self._fft)
            )
            squared = np.abs(accumulated)
            np.square(squared, out=squared)
            squared *= np.float32(1.0 / self.num_frames**2)
        if normalize:
            # Channel powers: the DC second-FFT bin of the diagonal
            # pairs is exactly mean_p |X_T[p, k]|^2.
            power = np.sqrt(squared[self._is_diagonal, 0])
            denominator = power[self._upper_i] * power[self._upper_j]
            squared /= np.maximum(
                denominator[:, None], COHERENCE_FLOOR
            )
        return squared.ravel()

    def _project(self, signals: np.ndarray, normalize: bool) -> np.ndarray:
        batch = np.asarray(signals, dtype=self._cdtype)
        demodulates = self.estimator.channelizer.demodulates_batch(
            batch, num_frames=self.num_frames
        )
        demodulates /= self.estimator.channelizer.coherent_gain
        trials = batch.shape[0]
        extent = self.projection.extent
        out = np.empty((trials, extent, extent), dtype=self._rdtype)
        for trial in range(trials):
            out[trial] = self.projection.project(
                self._trial_magnitudes_squared(demodulates[trial], normalize)
            )
        return np.sqrt(out, out=out)

    def magnitudes(self, signals: np.ndarray) -> np.ndarray:
        """Raw ``|S|`` projected onto the DSCF grid, per trial."""
        return self._project(signals, normalize=False)

    def surfaces(self, signals: np.ndarray) -> np.ndarray:
        """Detection surfaces on the DSCF grid: the spectral coherence
        ``|S| / sqrt(P_i P_j)`` when ``normalize`` is set (the same
        noise-level invariance the DSCF path gets from
        :func:`repro.core.scf.spectral_coherence`), raw ``|S|``
        otherwise."""
        return self._project(signals, normalize=self.normalize)
