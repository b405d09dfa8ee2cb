"""Band scanner — batched vs per-band sub-band statistics.

Not a paper artifact: times the wideband :class:`~repro.scanner.BandScanner`
on the capture ``repro scan --smoke`` scans (the ``linear-pair`` preset,
four sub-bands of K = 32, N = 32 at 8 MHz) and emits the
machine-readable ``BENCH_scanner.json`` at the repo root, guarded by
``benchmarks/check_perf_regression.py``.  ``batched`` scores every
sub-band in one engine batch, ``per_band`` one band at a time; the two
are called in turn on the same sub-band series, their statistics must
be bit-for-bit equal, and each timing is a budget median taken by
``benchmarks/_timing.py``.

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_scanner.py
"""

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from repro.pipeline import PipelineConfig
from repro.scanner import BandScanner
from repro.signals.wideband import scenario_preset

from _timing import call_seconds

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_scanner.json"

#: ``repro scan --smoke``'s scenario, geometry and capture seed: the
#: ``--smoke`` defaults of ``_cmd_scan`` in ``src/repro/cli.py`` (its
#: ``preset_default``/``geometry_default``) and the ``--sample-rate-mhz``
#: and ``--seed`` defaults of its parser.  A change there must be made
#: here too, or this file times a different capture than CI scans.
PRESET = "linear-pair"
SAMPLE_RATE_HZ = 8e6
FFT_SIZE = 32
NUM_BLOCKS = 32
SEED = 7


def main() -> int:
    scenario, num_bands = scenario_preset(
        PRESET, sample_rate_hz=SAMPLE_RATE_HZ
    )
    config = PipelineConfig(
        fft_size=FFT_SIZE,
        num_blocks=NUM_BLOCKS,
        scan_bands=num_bands,
        sample_rate_hz=SAMPLE_RATE_HZ,
    )
    scanner = BandScanner(config)
    capture, _ = scenario.realize(scanner.required_samples, seed=SEED)
    bands = scanner.channelize(capture)
    batched, per_band = (
        scanner.band_statistics(bands, batched=mode) for mode in (True, False)
    )
    if not np.array_equal(batched.view(np.uint64), per_band.view(np.uint64)):
        print("FAIL: batched and per-band statistics differ", file=sys.stderr)
        return 1
    seconds = np.median(
        call_seconds(
            *(
                partial(scanner.band_statistics, bands, batched=mode)
                for mode in (True, False)
            )
        ),
        axis=0,
    )
    point = {
        "fft_size": FFT_SIZE,
        "num_blocks": NUM_BLOCKS,
        "num_samples": scanner.band_samples,
        "trials": num_bands,
    }
    rows = {
        mode: {
            **point,
            "seconds_per_estimate": scan / num_bands,
            "seconds_per_scan": scan,
        }
        for mode, scan in zip(("batched", "per_band"), seconds.tolist())
    }
    payload = {
        "scanner": {
            "preset": PRESET,
            "backend": config.backend,
            "num_bands": num_bands,
            **rows,
            "speedup": rows["per_band"]["seconds_per_scan"]
            / rows["batched"]["seconds_per_scan"],
            "bitwise_equal": True,  # checked above
        }
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {BENCH_JSON}: batched {seconds[0] * 1e3:.3f} ms vs per-band "
        f"{seconds[1] * 1e3:.3f} ms per scan "
        f"({payload['scanner']['speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
