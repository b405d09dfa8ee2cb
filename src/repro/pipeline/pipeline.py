"""The detection pipeline: scenario -> channel -> backend -> decision.

:class:`DetectionPipeline` composes the full sensing chain behind one
typed :class:`~repro.pipeline.config.PipelineConfig`:

1. a signal source — raw samples, a
   :class:`~repro.core.sampling.SampledSignal`, or a
   :class:`~repro.signals.scenario.BandScenario` realisation;
2. an optional channel stage (any ``SampledSignal -> SampledSignal``
   callable, e.g. :func:`repro.signals.channel.apply_cfo`);
3. a named :class:`~repro.pipeline.backends.EstimatorBackend` producing
   the DSCF;
4. the cyclostationary detection statistic and threshold test,
   yielding a :class:`~repro.core.detection.DetectionReport`.

Statistics, detection surfaces and threshold calibration all run
through the pipeline's :class:`~repro.engine.Engine` and its cached
execution plan, so a single decision and a Monte-Carlo batch share one
implementation (and are therefore bit-for-bit consistent).

>>> from repro.pipeline import DetectionPipeline, PipelineConfig
>>> pipeline = DetectionPipeline(PipelineConfig(fft_size=32,
...                                             num_blocks=16,
...                                             calibration_trials=20))
>>> threshold = pipeline.calibrate()
>>> report = pipeline.detect(some_samples)           # doctest: +SKIP
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.detection import DetectionReport
from ..core.sampling import SampledSignal
from ..core.scf import DSCFResult
from ..engine import Engine
from ..errors import ConfigurationError
from ..signals.scenario import BandOccupancy, BandScenario
from .backends import EstimatorBackend, get_backend
from .config import PipelineConfig

Channel = Callable[[SampledSignal], SampledSignal]


def _samples_of(signal: SampledSignal | np.ndarray) -> np.ndarray:
    return (
        signal.samples if isinstance(signal, SampledSignal) else np.asarray(signal)
    )


class DetectionPipeline:
    """One configured sensing chain, executable on any backend.

    Parameters
    ----------
    config:
        The pipeline's operating point (defaults to the paper's
        vectorised K = 256 configuration).
    channel:
        Optional impairment stage applied to scenario realisations
        before estimation (see :mod:`repro.signals.channel`).
    engine:
        Optional :class:`~repro.engine.Engine` executing the
        pipeline's statistics and threshold calibration.  With
        ``Engine(jobs=N)`` calibration shards across worker processes
        — bitwise equal to the serial path.  ``None`` (default) uses
        an in-process ``Engine()`` on the shared plan cache.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        channel: Channel | None = None,
        engine=None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.channel = channel
        self.engine = engine if engine is not None else Engine()
        registered = get_backend(self.config.backend)
        # Backends with per-run state (e.g. SoCBackend.last_run) expose
        # fresh() so each pipeline gets a private instance; registered
        # instances without it are used as-is, preserving whatever
        # configuration the extension author gave them.
        fresh = getattr(registered, "fresh", None)
        self._backend: EstimatorBackend = fresh() if callable(fresh) else registered
        self._threshold: float | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> EstimatorBackend:
        """The estimator backend the pipeline executes on."""
        return self._backend

    @property
    def detector_name(self) -> str:
        """Label used in detection reports."""
        return f"cyclostationary/{self._backend.name}"

    @property
    def threshold(self) -> float | None:
        """The calibrated threshold, if :meth:`calibrate` has run."""
        return self._threshold

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _apply_channel(
        self, signal: SampledSignal | np.ndarray
    ) -> SampledSignal | np.ndarray:
        if self.channel is None:
            return signal
        if not isinstance(signal, SampledSignal):
            sample_rate = self.config.sample_rate_hz
            if sample_rate is None:
                raise ConfigurationError(
                    "a channel stage needs a SampledSignal (or a "
                    "config.sample_rate_hz to wrap raw samples)"
                )
            signal = SampledSignal(np.asarray(signal), sample_rate)
        return self.channel(signal)

    def compute(self, signal: SampledSignal | np.ndarray) -> DSCFResult:
        """Run source -> channel -> backend, returning the DSCF."""
        return self._backend.compute(self._apply_channel(signal), self.config)

    def feature_surface(self, signal: SampledSignal | np.ndarray) -> np.ndarray:
        """The ``(2M+1, 2M+1)`` detection surface on this backend."""
        samples = _samples_of(self._apply_channel(signal))
        plan = self.engine.plan(self.config)
        return plan.surfaces(samples[None])[0]

    def statistic(self, signal: SampledSignal | np.ndarray) -> float:
        """Scalar test statistic: peak surface over searched offsets."""
        samples = _samples_of(self._apply_channel(signal))
        statistics = self.engine.statistics(samples[None], config=self.config)
        return float(statistics[0])

    # ------------------------------------------------------------------
    # Calibration and decision
    # ------------------------------------------------------------------
    def calibrate(
        self,
        noise_factory: Callable[[int], np.ndarray] | None = None,
        trials: int | None = None,
    ) -> float:
        """Threshold at ``config.pfa``, cached on the pipeline.

        One :meth:`repro.engine.Engine.calibrate_threshold` call: under
        ``calibration="monte-carlo"`` (default) the noise-only trials
        run through the same plan as :meth:`statistic`, so the
        threshold matches the statistics the backend will produce.

        Under ``calibration="analytic"``: the closed-form CFAR
        threshold (:func:`repro.core.cfar.analytic_threshold`) — zero
        noise trials, *noise_factory* and *trials* ignored (the
        coherence statistic's null law is noise-power invariant).
        Callers whose calibration noise is *not* white at the
        estimator input (e.g. channelized sub-band noise) must stay on
        Monte-Carlo; the scanner enforces this.

        The channel stage is *not* applied to the calibration noise on
        either path: it models the licensed user's propagation, while
        the factory's realisations stand for noise added at the
        receiver itself.
        """
        self._threshold = self.engine.calibrate_threshold(
            self.config, noise_factory=noise_factory, trials=trials
        )
        return self._threshold

    def detect(
        self,
        signal: SampledSignal | np.ndarray,
        threshold: float | None = None,
    ) -> DetectionReport:
        """Full decision: statistic vs (given or calibrated) threshold."""
        if threshold is None:
            threshold = self._threshold
        if threshold is None:
            threshold = self.calibrate()
        statistic = self.statistic(signal)
        return DetectionReport(
            statistic=statistic,
            threshold=float(threshold),
            detected=statistic > threshold,
            detector=self.detector_name,
        )

    def sense(
        self,
        scenario: BandScenario,
        active: tuple[str, ...] | None = None,
        seed: int | None = None,
        threshold: float | None = None,
    ) -> tuple[DetectionReport, BandOccupancy]:
        """Sense one scenario realisation end to end.

        Draws a realisation (source), applies the channel stage, runs
        the backend and the threshold test; returns the decision plus
        the ground-truth occupancy for scoring.
        """
        signal, occupancy = scenario.realize(
            self.config.samples_per_decision, active=active, seed=seed
        )
        return self.detect(signal, threshold=threshold), occupancy
