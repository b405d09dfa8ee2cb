"""Blind wideband band scanning.

The paper's pipeline answers "is *this* band occupied?".  A cognitive
radio needs the wideband question: "which of these C sub-bands are
occupied, and by what?".  This package answers it on top of the
estimator-backend pipeline:

* :mod:`repro.scanner.channelize` — a critically-sampled polyphase
  filterbank splitting one capture into per-band baseband series;
* :mod:`repro.scanner.scanner` — :class:`BandScanner`, fanning every
  sub-band through any registered estimator backend (batched across
  sub-bands x trials where the backend allows);
* :mod:`repro.scanner.classify` — blind modulation-class attribution
  of occupied bands (conjugate/4th-order cyclic lines plus
  noise-corrected kurtosis);
* :mod:`repro.scanner.occupancy` — :class:`OccupancyMap`, the
  aggregated verdict, scored against ground truth by
  :mod:`repro.analysis.occupancy`.

Quickstart
----------
>>> from repro.pipeline import PipelineConfig
>>> from repro.scanner import BandScanner
>>> from repro.signals import scenario_preset
>>> scenario, bands = scenario_preset("linear-pair")
>>> scanner = BandScanner(PipelineConfig(fft_size=64, num_blocks=32,
...                                      scan_bands=bands,
...                                      sample_rate_hz=8e6))
>>> capture, truth = scenario.realize(scanner.required_samples, seed=1)
>>> occupancy = scanner.scan(capture)                    # doctest: +SKIP
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".channelize": ("ScannerChannelizer",),
        ".classify": (
            "ModulationGuess",
            "classify_modulation",
            "spectral_line_ratio",
        ),
        ".occupancy": ("BandDecision", "OccupancyMap"),
        ".scanner": ("BandScanner",),
    },
)

__all__ = [
    "BandDecision",
    "BandScanner",
    "ModulationGuess",
    "OccupancyMap",
    "ScannerChannelizer",
    "classify_modulation",
    "spectral_line_ratio",
]
