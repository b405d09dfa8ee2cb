"""Spectrum-sensing detectors.

The paper motivates CFD as the most capable (and most computationally
demanding) of the spectrum-sensing alternatives surveyed in its
reference [7]: energy detection, matched filtering, and cyclostationary
feature detection.  This module implements all three so the library can
reproduce the motivating comparison (experiment X1):

* :class:`EnergyDetector` — radiometer; optimal with perfectly known
  noise power but collapses under noise-level uncertainty (the "SNR
  wall").
* :class:`MatchedFilterDetector` — coherent reference detector; needs
  the licensed user's waveform, which a cognitive radio does not have.
* :class:`CyclostationaryFeatureDetector` — the paper's subject: builds
  the DSCF and tests for spectral-correlation features at non-zero
  cyclic offsets, which noise (not cyclostationary) cannot produce.

All detectors expose the same two-method protocol:

``statistic(signal)``
    A scalar test statistic, monotone in "licensed user present".
``detect(signal, threshold)``
    Statistic + binary decision wrapped in a :class:`DetectionReport`.

Thresholds are set either analytically (energy detector, via the
Gaussian approximation to the chi-square statistic) or by Monte-Carlo
calibration on noise-only trials: the ``(1 - pfa)`` quantile rule
:func:`calibration_quantile`, applied by
:meth:`repro.engine.Engine.calibrate_threshold` (wrap an ad-hoc
detector's statistic in a :class:`~repro.engine.CallableStatisticPlan`
and collect its noise-only statistics with
:meth:`repro.engine.Engine.monte_carlo_statistics`).

For cyclostationary sensing the recommended entry points live in
:mod:`repro.pipeline`: ``DetectionPipeline`` composes scenario ->
channel -> estimator backend -> detector behind one ``PipelineConfig``
(selectable substrate, same statistic as
:class:`CyclostationaryFeatureDetector`), and calibrates through the
engine as one vectorised pass instead of a per-trial loop.  The
classes here remain the per-decision building blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .._util import require_positive_float, require_positive_int
from ..errors import CalibrationWarning, ConfigurationError, SignalError
from .sampling import SampledSignal
from .scf import dscf_from_signal, spectral_coherence
from .fourier import block_spectra


def inverse_q_function(probability: float) -> float:
    """Inverse of the Gaussian tail function ``Q(x) = P(N(0,1) > x)``.

    Implemented with Acklam's rational approximation of the standard
    normal quantile (relative error below 1.15e-9), so the core library
    needs nothing beyond numpy.
    """
    p = 1.0 - probability  # quantile of the CDF
    if not 0.0 < p < 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1), got {probability}"
        )
    # Coefficients for Acklam's approximation.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = np.sqrt(-2.0 * np.log(p))
        numerator = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        denominator = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return float(numerator / denominator)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        numerator = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        denominator = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        return float(numerator / denominator)
    q = np.sqrt(-2.0 * np.log(1.0 - p))
    numerator = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    denominator = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    return float(-numerator / denominator)


def validate_pfa(pfa: float) -> float:
    """Validate a false-alarm probability (must lie strictly in (0, 1))."""
    if not 0.0 < pfa < 1.0:
        raise ConfigurationError(f"pfa must be in (0, 1), got {pfa}")
    return float(pfa)


def validate_cyclic_bins(
    cyclic_bins, m: int
) -> tuple[int, ...] | None:
    """Validate (or pass through ``None``) a searched cyclic-offset set.

    Offsets must be non-zero (``a = 0`` is the PSD, present for any
    signal) and lie within the computed grid ``[-M, M]``.  The single
    source of this rule for the detector, ``PipelineConfig`` and the
    execution plans.
    """
    if cyclic_bins is None:
        return None
    cyclic_bins = tuple(int(a) for a in cyclic_bins)
    for a in cyclic_bins:
        if a == 0:
            raise ConfigurationError(
                "cyclic_bins must not contain 0 (a=0 is the PSD, "
                "present for any signal)"
            )
        if not -m <= a <= m:
            raise ConfigurationError(
                f"cyclic bin {a} outside [-{m}, {m}]"
            )
    return cyclic_bins


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a single sensing decision."""

    statistic: float
    threshold: float
    detected: bool
    detector: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "OCCUPIED" if self.detected else "vacant"
        return (
            f"[{self.detector}] statistic={self.statistic:.6g} "
            f"threshold={self.threshold:.6g} -> {verdict}"
        )


class EnergyDetector:
    """Radiometer: compares received energy against a noise-floor threshold.

    Parameters
    ----------
    noise_power:
        The detector's *belief* about the noise power (per complex
        sample).  Real deployments only know this to within some
        uncertainty; pass ``noise_uncertainty_db`` to model a worst-case
        calibration error, which produces the well-known SNR wall that
        motivates CFD.
    num_samples:
        Number of samples integrated per decision.
    noise_uncertainty_db:
        Peak noise-level uncertainty rho in dB; the detector must set
        its threshold against the *highest* plausible noise level
        ``noise_power * 10^(rho/10)`` to keep its false-alarm promise.
    """

    name = "energy"

    def __init__(
        self,
        noise_power: float,
        num_samples: int,
        noise_uncertainty_db: float = 0.0,
    ) -> None:
        self._noise_power = require_positive_float(noise_power, "noise_power")
        self._num_samples = require_positive_int(num_samples, "num_samples")
        if noise_uncertainty_db < 0.0:
            raise ConfigurationError(
                "noise_uncertainty_db must be >= 0, got "
                f"{noise_uncertainty_db}"
            )
        self._uncertainty_factor = float(10.0 ** (noise_uncertainty_db / 10.0))

    @property
    def num_samples(self) -> int:
        """Samples integrated per decision."""
        return self._num_samples

    def statistic(self, signal: SampledSignal | np.ndarray) -> float:
        """Average received power over the first ``num_samples`` samples."""
        samples = (
            signal.samples if isinstance(signal, SampledSignal) else np.asarray(signal)
        )
        if samples.size < self._num_samples:
            raise SignalError(
                f"energy detector needs {self._num_samples} samples, got "
                f"{samples.size}"
            )
        window = samples[: self._num_samples]
        return float(np.mean(np.abs(window) ** 2))

    def threshold_for_pfa(self, pfa: float) -> float:
        """Analytic threshold for false-alarm probability *pfa*.

        Under H0 the statistic is the mean of ``num_samples``
        exponential variables; by the CLT it is approximately Gaussian
        with mean ``sigma^2`` and standard deviation
        ``sigma^2 / sqrt(num_samples)``.  With noise uncertainty the
        threshold is referenced to the worst-case noise level.
        """
        worst_noise = self._noise_power * self._uncertainty_factor
        deviation = inverse_q_function(pfa) / np.sqrt(self._num_samples)
        return float(worst_noise * (1.0 + deviation))

    def detect(
        self, signal: SampledSignal | np.ndarray, pfa: float = 0.01
    ) -> DetectionReport:
        """Decide occupancy with the analytic threshold at *pfa*."""
        threshold = self.threshold_for_pfa(pfa)
        statistic = self.statistic(signal)
        return DetectionReport(
            statistic=statistic,
            threshold=threshold,
            detected=statistic > threshold,
            detector=self.name,
        )


class MatchedFilterDetector:
    """Coherent detector correlating against a known reference waveform.

    The statistic is ``|<x, s>|^2 / (||s||^2)``, the energy at the
    output of the filter matched to template ``s``.  It is the optimal
    detector when the licensed signal is known exactly — the paper's
    point is that in Cognitive Radio it is not, which is why CFD earns
    its computational cost.
    """

    name = "matched-filter"

    def __init__(self, template: np.ndarray) -> None:
        template = np.asarray(template, dtype=np.complex128)
        if template.ndim != 1 or template.size == 0:
            raise ConfigurationError("template must be a non-empty 1-D array")
        energy = float(np.sum(np.abs(template) ** 2))
        if energy == 0.0:
            raise ConfigurationError("template must have non-zero energy")
        self._template = template
        self._energy = energy

    @property
    def template_length(self) -> int:
        """Length of the reference waveform."""
        return int(self._template.size)

    def statistic(self, signal: SampledSignal | np.ndarray) -> float:
        """Matched-filter output energy against the template."""
        samples = (
            signal.samples if isinstance(signal, SampledSignal) else np.asarray(signal)
        )
        if samples.size < self._template.size:
            raise SignalError(
                f"matched filter needs {self._template.size} samples, got "
                f"{samples.size}"
            )
        window = samples[: self._template.size]
        correlation = np.vdot(self._template, window)
        return float(np.abs(correlation) ** 2 / self._energy)

    def detect(
        self, signal: SampledSignal | np.ndarray, threshold: float
    ) -> DetectionReport:
        """Decide occupancy against a pre-calibrated *threshold*."""
        statistic = self.statistic(signal)
        return DetectionReport(
            statistic=statistic,
            threshold=float(threshold),
            detected=statistic > threshold,
            detector=self.name,
        )


class CyclostationaryFeatureDetector:
    """The paper's detector: DSCF magnitude at non-zero cyclic offsets.

    Pipeline per decision (Section 2): split the observation into N
    blocks of K samples, FFT each block (expr. 2), accumulate the DSCF
    (expr. 3), then reduce the ``a != 0`` region to a scalar feature
    statistic.  Noise has no spectral correlation at ``a != 0``, so the
    statistic separates cyclostationary communication signals from the
    noise floor even when the absolute noise level is unknown — the
    property that defeats the energy detector's SNR wall.

    Parameters
    ----------
    fft_size:
        Block length K (paper: 256).
    num_blocks:
        Integration length N.
    m:
        DSCF half-extent (default: 63 for K=256, the paper's 127x127).
    cyclic_bins:
        Optional iterable of offsets ``a`` to search.  When the symbol
        rate of the licensed user is unknown (the Cognitive Radio case)
        leave this ``None`` to scan every non-zero offset.
    normalize:
        If True (default) use the spectral coherence (scale-invariant);
        if False use raw ``|S_f^a|``.
    """

    name = "cyclostationary"

    def __init__(
        self,
        fft_size: int,
        num_blocks: int,
        m: int | None = None,
        cyclic_bins: tuple[int, ...] | None = None,
        normalize: bool = True,
    ) -> None:
        self._fft_size = require_positive_int(fft_size, "fft_size")
        self._num_blocks = require_positive_int(num_blocks, "num_blocks")
        from .scf import validate_m  # local import avoids cycle at module load

        self._m = validate_m(fft_size, m)
        self._cyclic_bins = validate_cyclic_bins(cyclic_bins, self._m)
        self._normalize = bool(normalize)

    @property
    def fft_size(self) -> int:
        """Block length K."""
        return self._fft_size

    @property
    def num_blocks(self) -> int:
        """Integration length N."""
        return self._num_blocks

    @property
    def m(self) -> int:
        """DSCF half-extent M."""
        return self._m

    @property
    def samples_required(self) -> int:
        """Total observation length ``N * K`` consumed per decision."""
        return self._fft_size * self._num_blocks

    def statistic(self, signal: SampledSignal | np.ndarray) -> float:
        """Peak feature magnitude over the searched cyclic offsets."""
        surface = self.feature_surface(signal)
        columns = self._searched_columns()
        return float(surface[:, columns].max())

    def feature_surface(self, signal: SampledSignal | np.ndarray) -> np.ndarray:
        """The (2M+1, 2M+1) detection surface (coherence or |S|)."""
        result = dscf_from_signal(
            signal,
            self._fft_size,
            num_blocks=self._num_blocks,
            m=self._m,
        )
        if not self._normalize:
            return result.magnitude()
        samples = (
            signal.samples if isinstance(signal, SampledSignal) else np.asarray(signal)
        )
        spectra = block_spectra(
            samples, self._fft_size, num_blocks=self._num_blocks
        )
        mean_square = np.mean(np.abs(spectra) ** 2, axis=0)
        return spectral_coherence(result, mean_square)

    def _searched_columns(self) -> np.ndarray:
        if self._cyclic_bins is not None:
            return np.asarray([a + self._m for a in self._cyclic_bins])
        columns = np.arange(2 * self._m + 1)
        return columns[columns != self._m]  # exclude a = 0

    def detect(
        self, signal: SampledSignal | np.ndarray, threshold: float
    ) -> DetectionReport:
        """Decide occupancy against a pre-calibrated *threshold*."""
        statistic = self.statistic(signal)
        return DetectionReport(
            statistic=statistic,
            threshold=float(threshold),
            detected=statistic > threshold,
            detector=self.name,
        )


def calibration_quantile(statistics: np.ndarray, pfa: float) -> float:
    """The ``(1 - pfa)`` threshold quantile of noise-only statistics.

    The one quantile rule every Monte-Carlo calibration shares —
    :meth:`repro.engine.Engine.calibrate_threshold` and the engine's
    sweeps route through here, so thresholds are bit-identical for the
    same trial set wherever they are calibrated.

    An under-sampled calibration (``trials * pfa < 1``) emits a
    :class:`~repro.errors.CalibrationWarning`: the empirical quantile
    then interpolates inside the top order statistic and the realized
    false-alarm rate is unconstrained by the data.  The extrapolated
    quantile is still returned (some smoke paths accept it knowingly);
    callers who need a trustworthy tail should raise the trial count or
    use the closed-form ``calibration="analytic"`` policy
    (:mod:`repro.core.cfar`).
    """
    pfa = validate_pfa(pfa)
    statistics = np.asarray(statistics)
    if statistics.size * pfa < 1.0:
        warnings.warn(
            f"calibration is under-sampled: {statistics.size} trials at "
            f"pfa={pfa:g} put the (1 - pfa) quantile beyond the top "
            f"order statistic ({statistics.size} * {pfa:g} = "
            f"{statistics.size * pfa:.3g} < 1); the threshold "
            f"extrapolates near the sample maximum. Increase trials to "
            f"at least {int(np.ceil(1.0 / pfa))}, or use "
            f"calibration='analytic' for a zero-trial closed-form "
            f"threshold",
            CalibrationWarning,
            stacklevel=2,
        )
    return float(np.quantile(statistics, 1.0 - pfa))
