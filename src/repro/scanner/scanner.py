"""The blind band scanner: channelize, detect per band, aggregate.

:class:`BandScanner` composes the wideband sensing chain:

1. a :class:`~repro.scanner.channelize.ScannerChannelizer` splits the
   capture into ``C`` critically-sampled sub-bands;
2. every sub-band series runs the configured estimator backend at the
   *sub-band* operating point — through one
   :class:`~repro.pipeline.DetectionPipeline`, so any registered
   backend (``reference``/``vectorized``/``soc``/``fam``/``ssca``)
   works unchanged;
3. per-band statistics are compared against one noise-calibrated
   threshold and aggregated into an
   :class:`~repro.scanner.occupancy.OccupancyMap`, with blind
   modulation-class attribution of the occupied bands.

All sub-bands (and, in :meth:`BandScanner.scan_many`, all captures)
stack into a single :meth:`~repro.engine.Engine.statistics` pass — one
bulk FFT across sub-bands x trials on batch-capable backends, a
per-trial loop on the rest.  Every per-band statistic is bit-for-bit
identical to scanning that band alone through the pipeline (the
plan's batch == singleton guarantee), on *every* registered backend.
"""

from __future__ import annotations

import numpy as np

from .._util import require_positive_int, spawn_substreams
from ..core.sampling import SampledSignal
from ..errors import ConfigurationError, SignalError
from ..pipeline import DetectionPipeline, PipelineConfig
from ..signals.noise import awgn
from .channelize import ScannerChannelizer
from .classify import classify_modulation
from .occupancy import BandDecision, OccupancyMap


class BandScanner:
    """Blind occupancy scanning of a wideband capture.

    Parameters
    ----------
    config:
        The **sub-band** operating point (fft_size, num_blocks,
        backend, pfa, ...).  ``config.scan_bands`` sets the sub-band
        count unless *num_bands* overrides it; ``config.sample_rate_hz``
        — when given — is interpreted as the *capture* rate, and the
        per-band pipeline runs at ``sample_rate_hz / num_bands``.
    num_bands:
        Optional override of ``config.scan_bands``.
    taps_per_band:
        Channelizer prototype length multiplier (see
        :class:`~repro.scanner.channelize.ScannerChannelizer`).
    noise_power:
        The capture's noise-floor power per sample, used by threshold
        calibration and the modulation classifier.
    leak_margin:
        Multiplicative guard on the noise-calibrated threshold
        (default 1.0 = pure CFAR).  The detection statistic is a
        *coherence* — scale-invariant — so a strong emitter's
        channelizer-sidelobe leakage into an adjacent band is detected
        as soon as it rises above that band's noise floor, however
        weak it is in absolute terms.  A margin of ~1.5 rejects
        sidelobe-level leakage (the rectangular bank's first sidelobe
        is ~-13 dB) while keeping in-band features, whose coherence
        sits far above the calibrated noise quantile, comfortably
        detected.
    engine:
        Optional :class:`~repro.engine.Engine` executing the per-band
        statistics and calibration.  The scanner always reuses one
        cached plan across sub-bands x trials (the shared plan cache);
        an engine with ``jobs > 1`` additionally shards the stacked
        sub-band series across worker processes — bitwise equal to the
        serial scan.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        num_bands: int | None = None,
        taps_per_band: int = 1,
        noise_power: float = 1.0,
        leak_margin: float = 1.0,
        engine=None,
    ) -> None:
        config = config if config is not None else PipelineConfig()
        self.num_bands = require_positive_int(
            config.scan_bands if num_bands is None else num_bands, "num_bands"
        )
        if config.sample_rate_hz is not None:
            from dataclasses import replace

            config = replace(
                config, sample_rate_hz=config.sample_rate_hz / self.num_bands
            )
        self.config = config
        self.noise_power = float(noise_power)
        if not self.noise_power > 0.0:
            raise ConfigurationError(
                f"noise_power must be positive, got {noise_power}"
            )
        self.leak_margin = float(leak_margin)
        if not self.leak_margin >= 1.0:
            raise ConfigurationError(
                f"leak_margin must be >= 1.0, got {leak_margin}"
            )
        self.channelizer = ScannerChannelizer(
            self.num_bands, taps_per_band=taps_per_band
        )
        self.engine = engine
        self.pipeline = DetectionPipeline(config, engine=engine)
        self._threshold: float | None = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def band_samples(self) -> int:
        """Sub-band series length consumed per band decision."""
        return self.config.samples_per_decision

    @property
    def required_samples(self) -> int:
        """Capture length one :meth:`scan` consumes."""
        return self.channelizer.required_samples(self.band_samples)

    @property
    def band_sample_rate_hz(self) -> float | None:
        """Sub-band sample rate ``fs / C``, when the capture rate is known."""
        return self.config.sample_rate_hz

    @property
    def threshold(self) -> float | None:
        """The calibrated per-band threshold, if :meth:`calibrate` has run."""
        return self._threshold

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, trials: int | None = None) -> float:
        """Noise-only Monte-Carlo threshold at ``config.pfa``.

        With the default rectangular channelizer (``taps_per_band=1``)
        the bank partitions exactly: white capture noise stays white at
        the same per-sample power in every sub-band, so calibration
        draws AWGN directly at the sub-band rate.  Overlapping
        prototypes (``taps_per_band > 1``) colour the sub-band noise,
        so calibration instead channelizes wideband noise captures and
        threshold-matches the statistics the scan itself will see —
        every sub-band of each capture serves as one calibration trial
        (the uniform bank gives all bands identical noise statistics),
        so one channelizer pass feeds C trials.  The stored threshold
        is the calibrated quantile scaled by ``leak_margin``.

        Under ``calibration="analytic"`` the per-band threshold comes
        from the closed-form null law instead (zero noise trials,
        scaled by the same ``leak_margin``) — valid for the
        partitioning rectangular bank only: white capture noise stays
        white per sub-band, matching the analytic model's white-noise
        null (the coherence statistic is scale-invariant, so
        ``noise_power`` drops out).  Overlapping prototypes colour the
        sub-band noise, so ``taps_per_band > 1`` with analytic
        calibration is rejected.
        """
        if self.config.calibration == "analytic":
            if self.channelizer.taps_per_band > 1:
                raise ConfigurationError(
                    f"calibration='analytic' models white sub-band "
                    f"noise; an overlapping prototype "
                    f"(taps_per_band={self.channelizer.taps_per_band}) "
                    f"colours it. Use calibration='monte-carlo' for "
                    f"this channelizer, or taps_per_band=1"
                )
            self._threshold = (
                self.pipeline.calibrate(trials=trials) * self.leak_margin
            )
            return self._threshold
        base = self.config.calibration_seed
        needed = self.band_samples
        power = self.noise_power

        if self.channelizer.taps_per_band == 1:
            def factory(trial: int) -> np.ndarray:
                seed = int(
                    spawn_substreams(1, base_seed=base, start=trial)[0]
                )
                return awgn(needed, power=power, seed=seed)
        else:
            capture_length = self.required_samples
            num_bands = self.num_bands
            cache: dict = {}

            def factory(trial: int) -> np.ndarray:
                capture_index, band = divmod(trial, num_bands)
                if cache.get("index") != capture_index:
                    seed = int(
                        spawn_substreams(
                            1, base_seed=base, start=capture_index
                        )[0]
                    )
                    wideband = awgn(capture_length, power=power, seed=seed)
                    cache["index"] = capture_index
                    cache["bands"] = self.channelizer.split(
                        wideband, band_samples=needed
                    )
                return cache["bands"][band]

        self._threshold = (
            self.pipeline.calibrate(noise_factory=factory, trials=trials)
            * self.leak_margin
        )
        return self._threshold

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def channelize(
        self, signal: SampledSignal | np.ndarray
    ) -> np.ndarray:
        """The capture's ``(num_bands, band_samples)`` sub-band series."""
        samples = (
            signal.samples
            if isinstance(signal, SampledSignal)
            else np.asarray(signal)
        )
        if samples.ndim != 1:
            raise ConfigurationError(
                f"a capture must be 1-D, got a {samples.ndim}-D array"
            )
        if samples.size < self.required_samples:
            raise SignalError(
                f"scan needs {self.required_samples} capture samples for "
                f"{self.num_bands} bands x {self.band_samples} sub-band "
                f"samples, got {samples.size}"
            )
        return self.channelizer.split(
            samples, band_samples=self.band_samples
        )

    def band_statistics(self, bands: np.ndarray) -> np.ndarray:
        """Detection statistic of every sub-band series in *bands*.

        *bands* is a ``(num_series, band_samples)`` array, scored in
        one engine pass (sharded across the engine's workers when it
        carries ``jobs > 1``).  Each statistic is bit-for-bit the
        pipeline's per-band :meth:`~repro.pipeline.DetectionPipeline.
        statistic` on that series — asserted by the scanner parity
        tests.
        """
        bands = np.asarray(bands, dtype=np.complex128)
        if bands.ndim != 2:
            raise ConfigurationError(
                f"bands must be a (num_series, band_samples) array, got "
                f"shape {bands.shape}"
            )
        return self.pipeline.engine.statistics(bands, config=self.config)

    def _decide(
        self,
        statistics: np.ndarray,
        bands: np.ndarray,
        threshold: float,
        classify: bool,
    ) -> OccupancyMap:
        sample_rate = (
            None
            if self.config.sample_rate_hz is None
            else self.config.sample_rate_hz * self.num_bands
        )
        edges = (
            self.channelizer.band_edges(sample_rate)
            if sample_rate is not None
            else None
        )
        decisions = []
        for index in range(self.num_bands):
            occupied = bool(statistics[index] > threshold)
            label = None
            if occupied and classify:
                label = classify_modulation(
                    bands[index], noise_power=self.noise_power
                ).label
            low, high = edges[index] if edges is not None else (None, None)
            decisions.append(
                BandDecision(
                    index=index,
                    f_low_hz=low,
                    f_high_hz=high,
                    statistic=float(statistics[index]),
                    occupied=occupied,
                    label=label,
                )
            )
        return OccupancyMap(
            bands=tuple(decisions),
            threshold=float(threshold),
            backend=self.pipeline.backend.name,
            sample_rate_hz=sample_rate,
        )

    def scan(
        self,
        signal: SampledSignal | np.ndarray,
        classify: bool = True,
        threshold: float | None = None,
    ) -> OccupancyMap:
        """Blindly scan one wideband capture.

        Channelizes, runs every sub-band through the configured
        backend in one engine pass, thresholds, and attributes a
        modulation class to each occupied band.
        """
        bands = self.channelize(signal)
        if threshold is None:
            threshold = self._threshold
        if threshold is None:
            threshold = self.calibrate()
        statistics = self.band_statistics(bands)
        return self._decide(statistics, bands, threshold, classify)

    def scan_many(
        self,
        signals,
        classify: bool = False,
        threshold: float | None = None,
    ) -> list[OccupancyMap]:
        """Scan a batch of captures in one vectorised pass.

        All captures' sub-bands stack into a single
        ``(trials * num_bands, band_samples)`` statistics call — the
        sub-bands x trials bulk FFT — on batch-capable backends.
        Classification defaults off for Monte-Carlo workloads.
        """
        stack = np.asarray(signals, dtype=np.complex128)
        if stack.ndim == 1:
            stack = stack[None, :]
        if stack.ndim != 2:
            raise ConfigurationError(
                f"signals must be a (trials, samples) array, got shape "
                f"{stack.shape}"
            )
        if stack.shape[1] < self.required_samples:
            raise SignalError(
                f"each capture needs {self.required_samples} samples, got "
                f"{stack.shape[1]}"
            )
        if threshold is None:
            threshold = self._threshold
        if threshold is None:
            threshold = self.calibrate()
        banded = self.channelizer.split_batch(
            stack, band_samples=self.band_samples
        )
        trials = banded.shape[0]
        flat = banded.reshape(trials * self.num_bands, self.band_samples)
        statistics = self.band_statistics(flat)
        statistics = statistics.reshape(trials, self.num_bands)
        return [
            self._decide(statistics[t], banded[t], threshold, classify)
            for t in range(trials)
        ]
