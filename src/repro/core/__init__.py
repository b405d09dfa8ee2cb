"""Core signal-processing layer: sampling, Fourier analysis and the DSCF.

This package implements Section 2 of the paper — the Discrete
Cyclostationary Feature Detection (DCFD) pipeline:

1. sampling (expression 1)            -> :mod:`repro.core.sampling`
2. block spectra / DFT (expression 2) -> :mod:`repro.core.fourier`
3. DSCF (expression 3)                -> :mod:`repro.core.scf`
4. detection statistics               -> :mod:`repro.core.detection`
5. complexity accounting (Section 2)  -> :mod:`repro.core.complexity`
"""

from .complexity import (
    dscf_complex_multiplications,
    dscf_to_fft_ratio,
    fft_complex_multiplications,
)
from .cyclic_autocorrelation import (
    CAFResult,
    cyclic_autocorrelation,
    estimate_symbol_rate,
    symbol_rate_alpha_grid,
)
from .io import load_dscf, save_dscf
from .detection import (
    CyclostationaryFeatureDetector,
    EnergyDetector,
    MatchedFilterDetector,
)
from .fourier import block_spectra, dft, fft_radix2
from .sampling import SampledSignal
from .scf import (
    DSCFResult,
    default_m,
    dscf,
    dscf_from_signal,
    dscf_reference,
    spectral_coherence,
)

__all__ = [
    "CAFResult",
    "CyclostationaryFeatureDetector",
    "DSCFResult",
    "EnergyDetector",
    "MatchedFilterDetector",
    "SampledSignal",
    "block_spectra",
    "cyclic_autocorrelation",
    "default_m",
    "dft",
    "dscf",
    "estimate_symbol_rate",
    "load_dscf",
    "save_dscf",
    "symbol_rate_alpha_grid",
    "dscf_complex_multiplications",
    "dscf_from_signal",
    "dscf_reference",
    "dscf_to_fft_ratio",
    "fft_complex_multiplications",
    "fft_radix2",
    "spectral_coherence",
]
