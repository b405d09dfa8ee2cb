"""Blind wideband scan: recover a 5-emitter band plan from one capture.

A cognitive radio watches 8 MHz of spectrum holding five independent
emitters it knows nothing about — BPSK, QPSK, cyclic-prefixed OFDM,
SC-FDMA-style DFT-spread OFDM, and a duty-cycled BPSK burster — each
at its own centre frequency and SNR over a common noise floor (the
``five-emitter`` preset of :mod:`repro.signals.wideband`).

The :class:`~repro.scanner.BandScanner` recovers the plan blind:

1. a critically-sampled polyphase channelizer splits the capture into
   8 sub-bands;
2. every sub-band runs the paper's cyclostationary detector at the
   sub-band operating point, batched through the estimator pipeline
   (one bulk FFT across all sub-bands);
3. occupied bands get a blind modulation-class attribution from their
   conjugate/4th-order cyclic lines and noise-corrected kurtosis.

The script asserts full recovery — every planted emitter's band
detected *and* its modulation class named — plus two structural
guarantees: the batched scan is bit-for-bit the per-band pipeline
loop, and the cycle-exact SoC backend reaches the same occupancy
decisions as the vectorised software estimator.

Run:  python examples/wideband_scan.py
"""

from dataclasses import replace

import numpy as np

from repro.analysis.occupancy import (
    attribute_emitters,
    format_attribution,
    occupancy_confusion,
)
from repro.pipeline import PipelineConfig
from repro.scanner import BandScanner
from repro.signals import scenario_preset

SAMPLE_RATE_HZ = 8e6
FFT_SIZE = 64          # per-sub-band DSCF block length
NUM_BLOCKS = 64        # per-sub-band integration length
LEAK_MARGIN = 1.6      # rejects channelizer-sidelobe leakage
SEED = 7


def main() -> None:
    scenario, num_bands = scenario_preset(
        "five-emitter", sample_rate_hz=SAMPLE_RATE_HZ
    )
    config = PipelineConfig(
        fft_size=FFT_SIZE,
        num_blocks=NUM_BLOCKS,
        scan_bands=num_bands,
        sample_rate_hz=SAMPLE_RATE_HZ,
        calibration_trials=40,
    )
    scanner = BandScanner(config, leak_margin=LEAK_MARGIN)
    capture, truth = scenario.realize(scanner.required_samples, seed=SEED)
    print(
        f"one {scanner.required_samples}-sample capture at "
        f"{SAMPLE_RATE_HZ / 1e6:.0f} MHz; {num_bands} sub-bands of "
        f"{SAMPLE_RATE_HZ / num_bands / 1e6:.0f} MHz, "
        f"{scanner.band_samples} samples per band decision\n"
    )

    occupancy = scanner.scan(capture)
    print(occupancy.summary())
    print()

    # ------------------------------------------------------------------
    # Score against the (withheld) ground truth
    # ------------------------------------------------------------------
    attributions = attribute_emitters(truth, occupancy)
    print(format_attribution(attributions))
    confusion = occupancy_confusion(
        truth.band_mask(num_bands), occupancy.decisions
    )
    print(
        f"band confusion: tp={confusion.true_positive} "
        f"fp={confusion.false_positive} fn={confusion.false_negative} "
        f"tn={confusion.true_negative} -> f1 {confusion.f1:.2f}\n"
    )
    assert confusion.false_positive == 0 and confusion.false_negative == 0
    assert all(entry.recovered for entry in attributions), (
        "every planted emitter must be recovered (band + modulation class)"
    )

    # ------------------------------------------------------------------
    # Structural guarantee 1: batched == per-band, bit for bit
    # ------------------------------------------------------------------
    per_band = [
        scanner.pipeline.statistic(series)
        for series in scanner.channelize(capture)
    ]
    assert np.array_equal(occupancy.statistics, per_band)
    print("batched scan is bit-for-bit the per-band pipeline loop")

    # ------------------------------------------------------------------
    # Structural guarantee 2: the tiled-SoC platform concurs
    # ------------------------------------------------------------------
    soc_config = replace(config, backend="soc")
    soc_scanner = BandScanner(soc_config, leak_margin=LEAK_MARGIN)
    soc_occupancy = soc_scanner.scan(capture, classify=False)
    assert np.array_equal(soc_occupancy.decisions, occupancy.decisions), (
        "SoC occupancy decisions must match the software estimator"
    )
    print("cycle-exact SoC backend reaches the same occupancy decisions")
    print("\nall 5 emitters recovered blind - band plan + modulation classes")


if __name__ == "__main__":
    main()
