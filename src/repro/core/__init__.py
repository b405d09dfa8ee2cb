"""Core signal-processing layer: sampling, Fourier analysis and the DSCF.

This package implements Section 2 of the paper — the Discrete
Cyclostationary Feature Detection (DCFD) pipeline:

1. sampling (expression 1)            -> :mod:`repro.core.sampling`
2. block spectra / DFT (expression 2) -> :mod:`repro.core.fourier`
3. DSCF (expression 3)                -> :mod:`repro.core.scf`
4. detection statistics               -> :mod:`repro.core.detection`
5. complexity accounting (Section 2)  -> :mod:`repro.core.complexity`
"""

from .._lazy import lazy_exports

# Bound eagerly: this function shares its module's name, and the import
# system binds that name to the submodule when the submodule first
# loads, which a lazy binding made after it would lose to.
from .cyclic_autocorrelation import cyclic_autocorrelation

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".complexity": (
            "dscf_complex_multiplications",
            "dscf_to_fft_ratio",
            "fft_complex_multiplications",
        ),
        ".cyclic_autocorrelation": (
            "CAFResult",
            "estimate_symbol_rate",
            "symbol_rate_alpha_grid",
        ),
        ".detection": (
            "CyclostationaryFeatureDetector",
            "EnergyDetector",
            "MatchedFilterDetector",
        ),
        ".fourier": ("block_spectra", "dft", "fft_radix2"),
        ".io": ("load_dscf", "save_dscf"),
        ".sampling": ("SampledSignal",),
        ".scf": (
            "DSCFResult",
            "default_m",
            "dscf",
            "dscf_from_signal",
            "dscf_reference",
            "spectral_coherence",
        ),
    },
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
