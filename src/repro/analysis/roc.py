"""Receiver-operating-characteristic machinery for detector comparison.

Experiment X1 compares the paper's cyclostationary detector against the
energy-detector baseline by sweeping a threshold over Monte-Carlo trial
statistics gathered under both hypotheses (H0: noise only, H1: licensed
user present).

Statistics come from :meth:`repro.engine.Engine.monte_carlo_statistics`:
``config=`` pushes every realisation through the configuration's
cached plan in one vectorised pass (sharded when the engine carries
``jobs > 1``, bitwise equal to the serial pass), while
``plan=CallableStatisticPlan(fn)`` runs any ad-hoc detector callable
per trial.  The plan executes whichever estimator backend its
configuration names, so ROC curves for the full-plane ``fam``/``ssca``
estimators come from the same machinery as the DSCF's: pass
``config.with_backend("fam")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RocCurve:
    """A sampled ROC curve: matched arrays of (Pfa, Pd) points."""

    pfa: np.ndarray
    pd: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        if not (self.pfa.shape == self.pd.shape == self.thresholds.shape):
            raise ConfigurationError(
                "pfa, pd and thresholds must have identical shapes"
            )

    def area(self) -> float:
        """Area under the curve (trapezoidal)."""
        return auc(self.pfa, self.pd)

    def pd_at_pfa(self, target_pfa: float) -> float:
        """Interpolated detection probability at a target false-alarm rate."""
        if not 0.0 <= target_pfa <= 1.0:
            raise ConfigurationError(
                f"target_pfa must be in [0, 1], got {target_pfa}"
            )
        order = np.argsort(self.pfa)
        return float(np.interp(target_pfa, self.pfa[order], self.pd[order]))


def roc_curve(h0_statistics: np.ndarray, h1_statistics: np.ndarray) -> RocCurve:
    """Build a ROC curve from statistics observed under H0 and H1.

    Every distinct statistic value (from both collections) is used as a
    candidate threshold; for each, Pfa is the fraction of H0 statistics
    exceeding it and Pd the fraction of H1 statistics exceeding it.
    """
    h0 = np.asarray(h0_statistics, dtype=np.float64)
    h1 = np.asarray(h1_statistics, dtype=np.float64)
    if h0.size == 0 or h1.size == 0:
        raise ConfigurationError("both H0 and H1 statistics must be non-empty")
    thresholds = np.unique(np.concatenate([h0, h1]))
    # Add sentinels so the curve spans (0,0) .. (1,1).
    lo = thresholds[0] - 1.0
    hi = thresholds[-1] + 1.0
    thresholds = np.concatenate([[lo], thresholds, [hi]])
    pfa = np.array([(h0 > t).mean() for t in thresholds])
    pd = np.array([(h1 > t).mean() for t in thresholds])
    return RocCurve(pfa=pfa, pd=pd, thresholds=thresholds)


def auc(pfa: np.ndarray, pd: np.ndarray) -> float:
    """Trapezoidal area under a (Pfa, Pd) curve."""
    pfa = np.asarray(pfa, dtype=np.float64)
    pd = np.asarray(pd, dtype=np.float64)
    if pfa.shape != pd.shape or pfa.size < 2:
        raise ConfigurationError(
            "auc needs matched pfa/pd arrays with at least two points"
        )
    # lexsort keeps tied-pfa points ordered by pd, so the staircase's
    # vertical segments are traversed bottom-to-top and the transition
    # to the next pfa leaves from the top of the step
    order = np.lexsort((pd, pfa))
    return float(np.trapezoid(pd[order], pfa[order]))


def detection_probability(statistics: np.ndarray, threshold: float) -> float:
    """Fraction of trial statistics exceeding *threshold*."""
    statistics = np.asarray(statistics, dtype=np.float64)
    if statistics.size == 0:
        raise ConfigurationError("statistics must be non-empty")
    return float((statistics > threshold).mean())
