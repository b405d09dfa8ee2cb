"""Closed-form CFAR thresholds for the coherence detection statistic.

Monte-Carlo calibration (the ``calibration="monte-carlo"`` policy) pays
hundreds of noise-only trials per operating point before a single
decision can be served.  This module derives the same constant-false-
alarm thresholds in closed form from the asymptotic null distribution
of the spectral-coherence statistic — the Dandawate–Giannakis-style
analysis of cyclic-domain noise (arXiv:0905.0024 and the asymptotic
test behind it), specialised to each execution substrate's geometry —
so ``calibration="analytic"`` needs **zero** calibration trials.

The statistic under test is the peak spectral coherence over the
searched cyclic offsets.  For unit-power white noise its null law
factors into two parts:

**Per-cell law.**  A coherence cell is the magnitude of a sample
correlation coefficient of two length-``n`` complex-Gaussian vectors,
so its square is ``Beta(1, n - 1)`` distributed:

    P(c > t) = (1 - t^2)^(n - 1)

exactly for the Gram (DSCF) substrate with rectangular windows and
non-overlapping blocks (``n = N`` block spectra per estimate), and
asymptotically for the channelizer substrates with ``n`` replaced by an
*effective* averaging length that discounts window overlap.

**Across cells.**  The statistic is the maximum over ``D`` cells; with
an effective count of independent cells,

    Pfa = 1 - (1 - (1 - t^2)^(n - 1))^D

which inverts in closed form to the threshold at a target Pfa:

    t = sqrt(1 - (1 - (1 - Pfa)^(1/D))^(1/(n - 1)))

Per-substrate effective constants (all derived from the configured
geometry, no fitted numbers):

``gram`` (vectorized / reference / soc):
    ``n = num_blocks``; ``D`` is the number of *distinct unordered*
    spectrum-bin pairs ``{f + a, f - a}`` over the searched columns —
    conjugate symmetry ``S(f, -a) = conj(S(f, a))`` makes mirrored
    cells identical, so the full search has ``(2M + 1) * M`` distinct
    cells, not ``(2M + 1) * 2M``.  Exact for rectangular windows and
    ``hop == fft_size`` (the paper's operating point), where distinct
    DFT bins of white noise are exactly independent.

``fam``:
    ``n = P / V_t`` with ``P`` the frame count and ``V_t`` the
    variance-inflation factor of overlapped frames,
    ``V_t = sum_k (r_w(k L) / r_w(0))^2`` over the window
    autocorrelation ``r_w`` at hop multiples; ``D`` is the searched
    coefficient count deflated by ``V_t * V_f^2``, where
    ``V_f = sum_d |FFT(w^2)[d] / sum(w^2)|^2`` measures spectral
    channel overlap (squared once per channel axis of the pair).

``ssca``:
    ``n = N * sum(w^2) / (sum w)^2`` — the strip products
    ``d_k[n] conj(x[n])`` decorrelate across time (the full-rate
    conjugate whitens the slow channelizer output), leaving the
    window's equivalent-independence fraction of the ``N`` samples;
    ``D`` is the raw searched coefficient count (strip coefficients of
    whitened products are effectively independent).

The models are validated against Monte-Carlo realized false-alarm
rates per backend and precision in ``tests/test_cfar.py``; the Gram
law is exact, the channelizer laws are mildly conservative (realized
Pfa at or just under target) because residual inter-cell dependence is
bounded from above.  The ``soc`` substrate computes the same DSCF in
fixed point, so the Gram threshold applies to within quantization
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .detection import validate_pfa
from .windows import get_window

#: Backends whose statistic is the Gram-matrix DSCF coherence (the
#: host mathematics of BatchExecutionPlan, which the loop substrates
#: and the fixed-point SoC reproduce).
GRAM_BACKENDS = ("vectorized", "reference", "soc")


@dataclass(frozen=True)
class NullModel:
    """The null law of one operating point's detection statistic.

    ``coherence^2`` of each of the ``cells`` effectively-independent
    cells is ``Beta(1, averaging - 1)``; the statistic is their
    maximum.
    """

    cells: float
    averaging: float
    backend: str
    family: str

    def cell_exceedance(self, threshold: float) -> float:
        """Per-cell tail ``P(c > threshold)``."""
        threshold = float(threshold)
        if threshold >= 1.0:
            return 0.0
        if threshold <= 0.0:
            return 1.0
        return float(
            (1.0 - threshold * threshold) ** (self.averaging - 1.0)
        )

    def threshold(self, pfa: float) -> float:
        """The closed-form CFAR threshold at target *pfa*."""
        pfa = validate_pfa(pfa)
        per_cell = 1.0 - (1.0 - pfa) ** (1.0 / self.cells)
        squared = 1.0 - per_cell ** (1.0 / (self.averaging - 1.0))
        return float(np.sqrt(min(max(squared, 0.0), 1.0)))

    def realized_pfa(self, threshold: float) -> float:
        """The model's false-alarm probability at a given threshold."""
        per_cell = self.cell_exceedance(threshold)
        return float(1.0 - (1.0 - per_cell) ** self.cells)


def _require(config, condition: bool, requirement: str) -> None:
    if not condition:
        raise ConfigurationError(
            f"calibration='analytic' has no null model for this "
            f"configuration: {requirement} (backend "
            f"{config.backend!r}). Use calibration='monte-carlo' here"
        )


def _searched_offsets(config) -> np.ndarray:
    if config.cyclic_bins is not None:
        return np.asarray(config.cyclic_bins, dtype=np.int64)
    offsets = np.arange(-config.m, config.m + 1, dtype=np.int64)
    return offsets[offsets != 0]


def _gram_model(config) -> NullModel:
    _require(
        config,
        config.normalize,
        "the raw |S| statistic scales with noise power; the analytic "
        "law needs the coherence statistic (normalize=True)",
    )
    _require(
        config,
        config.window == "rectangular",
        "a non-rectangular block taper correlates neighbouring DFT "
        "bins, breaking the exact per-cell Beta law (window must be "
        "'rectangular')",
    )
    _require(
        config,
        config.hop == config.fft_size,
        "overlapping blocks (hop < fft_size) correlate the averaged "
        "spectra (hop must equal fft_size)",
    )
    _require(
        config,
        config.num_blocks >= 2,
        "the coherence of a single block is identically 1 "
        "(num_blocks must be >= 2)",
    )
    offsets = _searched_offsets(config)
    f_bins = np.arange(-config.m, config.m + 1, dtype=np.int64)
    u = f_bins[:, None] + offsets[None, :]
    v = f_bins[:, None] - offsets[None, :]
    # Distinct unordered pairs {u, v}: conjugate-symmetric cells share
    # one coherence value, and the encoding is collision-free because
    # both bins live in [-2M, 2M].
    span = 4 * config.m + 2
    encoded = (
        np.minimum(u, v) * span + np.maximum(u, v)
    ).ravel()
    cells = int(np.unique(encoded).size)
    return NullModel(
        cells=float(cells),
        averaging=float(config.num_blocks),
        backend=config.backend,
        family="gram",
    )


def _lattice_searched_points(config, plan) -> int:
    executor = plan.executor
    points = executor.projection.points_in_columns(plan.searched_columns)
    _require(
        config,
        points > 0,
        "no estimator coefficient maps into the searched columns",
    )
    return points


def _fam_model(config, plan) -> NullModel:
    _require(
        config,
        config.normalize,
        "the analytic law needs the coherence statistic "
        "(normalize=True)",
    )
    executor = plan.executor
    num_channels = executor.estimator.num_channels
    hop = executor.estimator.hop
    frames = executor.num_frames
    window = get_window(config.estimator_window, num_channels)
    r0 = float(np.sum(window * window))
    # Frame-overlap variance inflation: frames hop L apart see
    # correlated noise through the shared window support.
    vif_frames = 1.0
    lag = hop
    while lag < num_channels:
        r_lag = float(np.sum(window[: num_channels - lag] * window[lag:]))
        vif_frames += 2.0 * (r_lag / r0) ** 2
        lag += hop
    # Channel-overlap variance inflation: spectrally adjacent channels
    # correlate through the window's squared transform (applied once
    # per channel axis of the correlated pair).
    rho = np.abs(np.fft.fft(window * window)) / r0
    vif_channels = float(np.sum(rho * rho))
    averaging = frames / vif_frames
    _require(
        config,
        averaging > 1.0,
        "too few effective FAM frames for a closed-form threshold "
        "(need P / V_t > 1; lengthen the decision window)",
    )
    points = _lattice_searched_points(config, plan)
    cells = points / (vif_frames * vif_channels * vif_channels)
    return NullModel(
        cells=float(cells),
        averaging=float(averaging),
        backend=config.backend,
        family="fam",
    )


def _ssca_model(config, plan) -> NullModel:
    _require(
        config,
        config.normalize,
        "the analytic law needs the coherence statistic "
        "(normalize=True)",
    )
    executor = plan.executor
    num_channels = executor.estimator.num_channels
    window = get_window(config.estimator_window, num_channels)
    window_sum = float(np.sum(window))
    window_energy = float(np.sum(window * window))
    averaging = (
        executor.samples_per_decision * window_energy
        / (window_sum * window_sum)
    )
    _require(
        config,
        averaging > 1.0,
        "too few effective SSCA averages for a closed-form threshold "
        "(need N * sum(w^2) / (sum w)^2 > 1; lengthen the decision "
        "window)",
    )
    points = _lattice_searched_points(config, plan)
    return NullModel(
        cells=float(points),
        averaging=float(averaging),
        backend=config.backend,
        family="ssca",
    )


def null_model(config, plan=None) -> NullModel:
    """The analytic null model of *config*'s detection statistic.

    Dispatches on the backend family (see module docstring).  The
    channelizer substrates need their execution plan's lattice
    geometry; *plan* may supply one already in hand, otherwise it is
    resolved through the shared plan cache (a hit everywhere the
    operating point is also executed).
    """
    backend = config.backend
    if backend in GRAM_BACKENDS:
        return _gram_model(config)
    if backend in ("fam", "ssca"):
        if plan is None:
            from ..engine.cache import shared_plan_cache

            plan = shared_plan_cache().get(config)
        if getattr(plan, "executor", None) is None:
            raise ConfigurationError(
                f"backend {backend!r} produced a plan without a "
                f"lattice executor; cannot size its analytic null model"
            )
        if backend == "fam":
            return _fam_model(config, plan)
        return _ssca_model(config, plan)
    raise ConfigurationError(
        f"calibration='analytic' knows no null model for backend "
        f"{backend!r}; registered models cover {GRAM_BACKENDS + ('fam', 'ssca')}. "
        f"Use calibration='monte-carlo'"
    )


def analytic_threshold(config, pfa: float | None = None, plan=None) -> float:
    """The closed-form CFAR threshold for *config* — zero noise trials.

    *pfa* overrides ``config.pfa`` (the engine's sweeps calibrate at
    their own target).  Raises :class:`~repro.errors.ConfigurationError`
    for geometries outside the validated models (non-rectangular Gram
    windows, overlapping blocks, unnormalized statistics, unknown
    backends) rather than returning an uncontrolled threshold.
    """
    target = config.pfa if pfa is None else pfa
    return null_model(config, plan=plan).threshold(target)
