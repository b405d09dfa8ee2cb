"""Typed configuration driving the estimator/detection pipeline.

One :class:`PipelineConfig` carries every knob of a sensing deployment
— the DSCF operating point (K, N, M, hop, window), the estimator
backend to execute on, the detection statistic options, and the
Monte-Carlo calibration policy — so every consumer (CLI, analysis
sweeps, examples, benchmarks) is driven by the same object instead of
loose keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .._compute import validate_precision
from .._util import (
    require_non_negative_int,
    require_positive_float,
    require_positive_int,
)
from ..core.detection import validate_cyclic_bins, validate_pfa
from ..core.scf import validate_m
from ..core.windows import get_window
from ..errors import ConfigurationError

#: Backends with a single-precision (complex64) fast path.  The
#: ``reference`` backend is the double-precision parity oracle and
#: ``soc`` is fixed-point, so they reject float32.
FLOAT32_BACKENDS = ("vectorized", "fam", "ssca")


@dataclass(frozen=True)
class PipelineConfig:
    """Operating point of a :class:`~repro.pipeline.DetectionPipeline`.

    Parameters
    ----------
    fft_size:
        Block length K (paper: 256).
    num_blocks:
        Integration length N (blocks averaged per decision).
    m:
        DSCF half-extent M; ``None`` resolves to
        :func:`repro.core.scf.default_m` (63 for K = 256, the paper's
        127 x 127 grid).
    hop:
        Block stride; ``None`` means ``fft_size`` (non-overlapping, the
        paper's operating point).
    window:
        Analysis window name (default rectangular, as the paper).
    backend:
        Registered :class:`~repro.pipeline.backends.EstimatorBackend`
        name — one of ``reference``, ``vectorized``, ``soc``, ``fam``,
        ``ssca`` (see :func:`~repro.pipeline.backends.available_backends`).
    normalize:
        If True (default) the detection statistic uses the spectral
        coherence (scale-invariant); if False the raw ``|S_f^a|``.
    cyclic_bins:
        Optional tuple of non-zero offsets ``a`` to search; ``None``
        scans every non-zero offset (the Cognitive-Radio case where the
        licensed user's symbol rate is unknown).
    pfa:
        Target false-alarm probability for threshold calibration.
    calibration:
        Threshold-calibration policy — ``"monte-carlo"`` (default, the
        ``(1 - pfa)`` quantile of noise-only trials) or ``"analytic"``
        (closed-form CFAR thresholds from the coherence statistic's
        null distribution, zero calibration trials; see
        :mod:`repro.core.cfar` for the supported geometries per
        backend).
    calibration_trials:
        Noise-only Monte-Carlo trials used by
        :meth:`~repro.pipeline.DetectionPipeline.calibrate` (unused
        under ``calibration="analytic"``).
    calibration_seed:
        Base seed for the default calibration noise factory (trial *t*
        uses ``calibration_seed + t``).
    sample_rate_hz:
        Optional sampling frequency carried into results for
        physical-unit axes.
    soc_tiles:
        Tile count Q used when ``backend="soc"`` (paper: 4).
    soc_compiled:
        If True, ``backend="soc"`` executes on the trace-compiled
        engine (:mod:`repro.soc.compiled`): the Montium programs are
        interpreted once per configuration and replayed as vectorised
        NumPy operations — bit-for-bit the interpreter's results
        (values, cycles, energy) at a fraction of the cost — and the
        backend hands the engine's
        :class:`~repro.engine.BatchExecutionPlan` a batched multi-trial
        executor, so soc Monte-Carlo sweeps run like the DSCF batch
        paths.  Default False (instruction-level
        interpretation).
    fam_channels:
        Channelizer length N' for ``backend="fam"``; ``None`` derives
        ``clamp(fft_size // 4, 8, 64)`` (64 at the paper's K = 256).
    fam_hop:
        FAM channelizer decimation L; ``None`` means ``N' // 4``.
    fam_blocks:
        Demodulate count P for FAM's second FFT; ``None`` uses every
        complete frame of the decision window.
    ssca_channels:
        Strip count N' for ``backend="ssca"``; ``None`` derives the
        same default as ``fam_channels``.
    scan_bands:
        Sub-band count C used by :class:`~repro.scanner.BandScanner`
        when this configuration drives a wideband scan; the rest of
        the configuration then describes the *per-sub-band* operating
        point (and ``sample_rate_hz``, when given, the capture rate).
    estimator_window:
        Analysis window of the FAM/SSCA channelizer front-end (default
        Hann — overlapped channelizers want a taper even though the
        paper's DSCF blocks are rectangular).
    precision:
        Estimator arithmetic precision — ``"float64"`` (default, the
        bitwise parity reference) or ``"float32"`` (complex64 fast
        paths; supported by the batch-capable backends listed in
        :data:`FLOAT32_BACKENDS`).  The ``reference`` backend stays
        double precision by design (it is the NumPy-literal parity
        oracle) and ``soc`` is fixed-point with
        bitwise-pinned traces, so float32 is rejected there.
    serve_path:
        Detection route for serve-session detects (ignored offline) —
        ``"auto"`` (default: the session-resident spectra fast path
        whenever the backend supports it, the engine sample path
        otherwise), ``"engine"`` (always re-run the full block-FFT
        front-end on the raw window — the parity oracle), or
        ``"spectra"`` (require the fast path).  Both routes are bitwise
        identical; the knob only chooses what gets recomputed.
        Eligibility is one rule,
        :func:`repro.engine.plans.spectra_refusal` (a backend accepting
        precomputed spectra, float64);
        :meth:`repro.serve.SensingService.resolve_serve_path` applies it
        and raises :class:`~repro.errors.ConfigurationError` for
        ``"spectra"`` on an ineligible configuration at service
        construction, ``open_session`` or ``restore_session`` — before
        the first detect.
    """

    fft_size: int = 256
    num_blocks: int = 8
    m: int | None = None
    hop: int | None = None
    window: str = "rectangular"
    backend: str = "vectorized"
    normalize: bool = True
    cyclic_bins: tuple[int, ...] | None = None
    pfa: float = 0.05
    calibration: str = "monte-carlo"
    calibration_trials: int = 50
    calibration_seed: int = 10_000
    sample_rate_hz: float | None = None
    soc_tiles: int = 4
    soc_compiled: bool = False
    fam_channels: int | None = None
    fam_hop: int | None = None
    fam_blocks: int | None = None
    ssca_channels: int | None = None
    scan_bands: int = 8
    estimator_window: str = "hann"
    precision: str = "float64"
    serve_path: str = "auto"

    def __post_init__(self) -> None:
        require_positive_int(self.fft_size, "fft_size")
        require_positive_int(self.num_blocks, "num_blocks")
        object.__setattr__(self, "m", validate_m(self.fft_size, self.m))
        object.__setattr__(
            self,
            "hop",
            self.fft_size
            if self.hop is None
            else require_positive_int(self.hop, "hop"),
        )
        get_window(self.window, self.fft_size)  # validates the name
        get_window(self.estimator_window, 8)  # validates the name
        for field_name in ("fam_channels", "fam_hop", "fam_blocks",
                           "ssca_channels"):
            value = getattr(self, field_name)
            if value is not None:
                require_positive_int(value, field_name)
        require_positive_int(self.scan_bands, "scan_bands")
        require_positive_int(self.soc_tiles, "soc_tiles")
        require_positive_int(self.calibration_trials, "calibration_trials")
        # Every validation raises ConfigurationError — no bare
        # ValueError escapes a PipelineConfig constructor.
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"backend must be a registered backend name, got "
                f"{self.backend!r}"
            )
        require_non_negative_int(self.calibration_seed, "calibration_seed")
        if self.sample_rate_hz is not None:
            require_positive_float(self.sample_rate_hz, "sample_rate_hz")
        validate_pfa(self.pfa)
        validate_precision(self.precision)
        if (
            self.precision == "float32"
            and self.backend not in FLOAT32_BACKENDS
        ):
            raise ConfigurationError(
                f"precision='float32' is only supported by the batch "
                f"backends {FLOAT32_BACKENDS}; backend {self.backend!r} "
                f"is a double-precision parity reference "
                f"(or fixed-point, for 'soc')"
            )
        if self.calibration not in ("monte-carlo", "analytic"):
            raise ConfigurationError(
                f"calibration must be 'monte-carlo' or 'analytic', got "
                f"{self.calibration!r}"
            )
        if self.serve_path not in ("auto", "engine", "spectra"):
            raise ConfigurationError(
                f"serve_path must be 'auto', 'engine' or 'spectra', got "
                f"{self.serve_path!r}"
            )
        object.__setattr__(
            self, "cyclic_bins", validate_cyclic_bins(self.cyclic_bins, self.m)
        )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def extent(self) -> int:
        """DSCF side length ``2M + 1`` (127 for the paper)."""
        return 2 * self.m + 1

    @property
    def samples_per_decision(self) -> int:
        """Observation length consumed by one sensing decision."""
        return (self.num_blocks - 1) * self.hop + self.fft_size

    @cached_property
    def plan_key(self) -> tuple:
        """The :data:`~repro.engine.cache.PLAN_KEY_FIELDS` values, built
        on first use and kept (the config is frozen, so they never
        change) — see :func:`repro.engine.cache.plan_key`."""
        # Deferred: the engine package imports this module.
        from ..engine.cache import PLAN_KEY_FIELDS

        return tuple(getattr(self, field) for field in PLAN_KEY_FIELDS)

    def with_backend(self, backend: str) -> "PipelineConfig":
        """A copy of this configuration on a different backend."""
        return replace(self, backend=backend)
