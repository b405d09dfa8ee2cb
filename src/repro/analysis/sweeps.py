"""Detection-performance sweeps: Pd-vs-SNR curves.

Builds the classic sensing characterisation — detection probability at
a fixed false-alarm rate as a function of SNR.  Sweeps are computed by
:meth:`repro.engine.Engine.map_operating_points`, either on a
configuration's cached plan (vectorised, sharded when the engine
carries ``jobs > 1``) or on an ad-hoc detector wrapped in
:class:`~repro.engine.CallableStatisticPlan`; this module holds the
result types and :func:`pd_vs_snr_by_backend`, the multi-backend loop
behind the CLI sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SweepPoint:
    """Detection probability at one SNR."""

    snr_db: float
    pd: float
    threshold: float


@dataclass(frozen=True)
class DetectionSweep:
    """A Pd-vs-SNR curve at a fixed false-alarm rate."""

    detector_name: str
    pfa: float
    points: tuple

    def snrs_db(self) -> np.ndarray:
        """The sweep's SNR axis."""
        return np.array([point.snr_db for point in self.points])

    def pds(self) -> np.ndarray:
        """Detection probabilities along the sweep."""
        return np.array([point.pd for point in self.points])

    def snr_for_pd(self, target_pd: float) -> float:
        """Interpolated SNR where the curve crosses *target_pd*.

        The sensing sensitivity figure: e.g. "the detector needs
        -2.5 dB for Pd = 0.9".
        """
        if not 0.0 < target_pd < 1.0:
            raise ConfigurationError(
                f"target_pd must be in (0, 1), got {target_pd}"
            )
        snrs = self.snrs_db()
        pds = self.pds()
        order = np.argsort(snrs)
        return float(np.interp(target_pd, pds[order], snrs[order]))


def pd_vs_snr_by_backend(
    config,
    h0_factory: Callable[[int], np.ndarray],
    h1_factory: Callable[[float, int], np.ndarray],
    snrs_db,
    backends: tuple[str, ...] = ("vectorized", "fam", "ssca"),
    pfa: float = 0.1,
    trials: int = 40,
    jobs: int = 1,
    engine=None,
) -> dict:
    """One Pd-vs-SNR sweep per estimator backend, batched.

    Runs :meth:`repro.engine.Engine.map_operating_points` once per
    name in *backends*, each on that backend's cached execution plan —
    the direct way to compare the paper's DSCF detector against the
    full-plane FAM/SSCA estimators on identical realisations (the
    factories are re-invoked with the same trial indices for every
    backend, so seeded factories give a paired comparison).

    Parameters
    ----------
    config:
        A :class:`repro.pipeline.PipelineConfig`; its ``backend`` field
        is overridden per sweep.  With ``soc_compiled=True`` the
        ``"soc"`` backend may be swept too: the cycle-exact platform
        model runs as batched trace replay (see
        ``examples/soc_roc_sweep.py``), which an interpreted soc sweep
        is far too slow for.
    backends:
        Registered backend names to sweep (each must either advertise
        ``supports_batch`` or hand the engine a batched executor, like
        the compiled soc backend).
    jobs:
        Worker processes for sharded execution (ignored when *engine*
        is given); every backend's sweep reuses one pool.
    engine:
        Optional pre-built :class:`~repro.engine.Engine` to execute
        on (kept open for the caller).

    Returns
    -------
    dict
        ``{backend_name: DetectionSweep}`` in *backends* order.
    """
    # Deferred: analysis stays importable without the pipeline package.
    from ..engine import BatchExecutionPlan, Engine

    own_engine = engine is None
    if engine is None:
        engine = Engine(jobs=jobs)
    sweeps = {}
    try:
        for name in backends:
            swept = config.with_backend(name)
            plan = engine.plan(swept)
            if not isinstance(plan, BatchExecutionPlan):
                # Without this guard a sequential backend would sweep
                # through the per-trial loop plan — technically correct
                # but catastrophically slow for the cycle-level soc
                # interpreter, and historically a silent-fallback trap.
                raise ConfigurationError(
                    f"backend {name!r} has no batched executor at this "
                    "configuration; the cycle-level soc backend requires "
                    "soc_compiled=True to be swept"
                )
            sweeps[name] = engine.map_operating_points(
                h0_factory,
                h1_factory,
                snrs_db,
                config=swept,
                pfa=pfa,
                trials=trials,
                detector_name=f"cyclostationary/{name}",
            )
    finally:
        if own_engine:
            engine.close()
    return sweeps
