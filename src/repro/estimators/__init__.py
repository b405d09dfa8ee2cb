"""Full-plane cyclic-spectrum estimator family (FAM, SSCA).

The paper's detector evaluates the DSCF — spectral correlation on a
K-bin square grid, sized for a handful of candidate cycle frequencies.
This package adds the two standard **full (f, alpha)-plane** estimators
from the cognitive-radio literature, sharing one channelizer front-end:

* :mod:`repro.estimators.channelizer` — windowed, overlapped N'-point
  complex demodulates with decimation plans (expression 2 at block
  length N');
* :mod:`repro.estimators.fam` — the FFT Accumulation Method: channel-
  pair products resolved by a P-point second FFT
  (Delta-alpha = fs/(P L));
* :mod:`repro.estimators.ssca` — the Strip Spectral Correlation
  Analyzer: strip-wise conjugate multiply against the full-rate signal,
  one N-point FFT per strip (Delta-alpha = fs/N);
* :mod:`repro.estimators.result` — :class:`CyclicSpectrum`, the common
  physical-axis result type with peak extraction and DSCF-compatible
  alpha profiles;
* :mod:`repro.estimators.grid` — lattice rasterisation and the
  DSCF-grid projection that lets both estimators serve as pipeline
  backends;
* :mod:`repro.estimators.backends` — the registered ``fam`` / ``ssca``
  :class:`~repro.pipeline.backends.EstimatorBackend` adapters with
  batched multi-trial executors.

Quickstart
----------
>>> from repro.estimators import FAMEstimator
>>> spectrum = FAMEstimator(num_channels=64).estimate(samples)  # doctest: +SKIP
>>> spectrum.peak(min_alpha_hz=1e3)                             # doctest: +SKIP
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backends": (
            "FAMBackend",
            "SSCABackend",
            "default_estimator_channels",
            "fam_plan",
            "ssca_plan",
        ),
        ".channelizer": ("ChannelizerPlan",),
        ".fam": ("BatchedFAM", "FAMEstimator"),
        ".grid": ("LatticeProjection", "bin_to_plane"),
        ".result": ("CyclicPeak", "CyclicSpectrum"),
        ".ssca": ("BatchedSSCA", "SSCAEstimator"),
    },
)

__all__ = [
    "BatchedFAM",
    "BatchedSSCA",
    "ChannelizerPlan",
    "CyclicPeak",
    "CyclicSpectrum",
    "FAMBackend",
    "FAMEstimator",
    "LatticeProjection",
    "SSCABackend",
    "SSCAEstimator",
    "bin_to_plane",
    "default_estimator_channels",
    "fam_plan",
    "ssca_plan",
]
