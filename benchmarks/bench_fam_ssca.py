"""Harness health — throughput of the full-plane estimators (FAM, SSCA).

Not a paper artifact: measures the host-side cost of the
:mod:`repro.estimators` subsystem and emits the machine-readable
``BENCH_fam_ssca.json`` at the repo root so the performance trajectory
of the batched full-plane paths is tracked across PRs.

The headline figure is the **batched-vs-per-trial FAM speedup** at the
paper-adjacent operating point (K = 256 DSCF grid, N' = 64 channels,
P = 64 second-FFT blocks, 32 Monte-Carlo trials):

* the *per-trial loop* builds the FAM execution plan per decision —
  channelizer tables, channel-pair lattice, DSCF-grid projection —
  and runs a batch of one, exactly what a naive per-decision
  integration does;
* the *batched path* is the engine plan's ``statistics``: the plan is built
  once, the channelizer runs as one bulk FFT across all trials, and
  the fused half-plane sweep streams the trials through it.

Both paths execute the same fused kernels, so their statistics are
bit-for-bit identical — the JSON records that, too.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_fam_ssca.py --benchmark-only -s

regenerate just the JSON::

    PYTHONPATH=src python benchmarks/bench_fam_ssca.py

or exercise the batched paths at tiny sizes (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_fam_ssca.py --smoke
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.estimators import FAMEstimator, SSCAEstimator
from repro.estimators.backends import fam_plan, ssca_plan
from repro.engine import Engine
from repro.pipeline import PipelineConfig
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_fam_ssca.json"

# The acceptance operating point: the paper's K = 256 DSCF grid with
# the standard N' = 64 / P = 64 FAM geometry (hop L = N'/4 = 16).
MC_CONFIG = PipelineConfig(
    fft_size=256,
    num_blocks=8,
    backend="fam",
    fam_channels=64,
    fam_hop=16,
    fam_blocks=64,
)
MC_TRIALS = 32

# Tiny --smoke geometry: exercises every batched code path in well
# under a second so CI can gate on "it runs and emits JSON".
SMOKE_CONFIG = PipelineConfig(
    fft_size=64,
    num_blocks=4,
    backend="fam",
    fam_channels=16,
    fam_hop=4,
    fam_blocks=16,
)
SMOKE_TRIALS = 8


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _noise_trials(config: PipelineConfig, trials: int) -> np.ndarray:
    return np.stack(
        [awgn(config.samples_per_decision, seed=70 + t) for t in range(trials)]
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (small sizes)
# ----------------------------------------------------------------------
def test_fam_full_plane(benchmark):
    signal = awgn(2048, seed=41)
    estimator = FAMEstimator(num_channels=32)
    spectrum = benchmark(estimator.estimate, signal)
    assert spectrum.estimator == "fam"


def test_ssca_full_plane(benchmark):
    signal = awgn(2048, seed=42)
    estimator = SSCAEstimator(num_channels=32)
    spectrum = benchmark(estimator.estimate, signal)
    assert spectrum.estimator == "ssca"


def test_fam_batched_statistics(benchmark):
    plan = Engine().plan(SMOKE_CONFIG)
    signals = _noise_trials(SMOKE_CONFIG, SMOKE_TRIALS)
    statistics = benchmark(plan.statistics, signals)
    assert statistics.shape == (SMOKE_TRIALS,)


def test_ssca_batched_statistics(benchmark):
    plan = Engine().plan(SMOKE_CONFIG.with_backend("ssca"))
    signals = _noise_trials(SMOKE_CONFIG, SMOKE_TRIALS)
    statistics = benchmark(plan.statistics, signals)
    assert statistics.shape == (SMOKE_TRIALS,)


# ----------------------------------------------------------------------
# Machine-readable benchmark emission
# ----------------------------------------------------------------------
def _batch_vs_loop(
    config: PipelineConfig, trials: int, plan_factory, label: str
) -> dict:
    """Batched Monte-Carlo statistics vs the build-per-decision loop."""
    batch_plan = Engine().plan(config)
    signals = _noise_trials(config, trials)
    columns = batch_plan.searched_columns

    def per_trial_loop():
        return np.array(
            [
                plan_factory(config).surfaces(signal[None])[0][:, columns].max()
                for signal in signals
            ]
        )

    batch_plan.statistics(signals[: min(4, trials)])  # warm-up
    per_trial_loop()
    batch_seconds = _median_seconds(lambda: batch_plan.statistics(signals), 5)
    loop_seconds = _median_seconds(per_trial_loop, 3)
    batched = batch_plan.statistics(signals)
    looped = per_trial_loop()
    singletons = np.array(
        [batch_plan.statistics(signal[None])[0] for signal in signals]
    )
    plan = batch_plan.executor
    return {
        "estimator": label,
        "fft_size": config.fft_size,
        "dscf_grid": f"{config.extent}x{config.extent}",
        "num_channels": plan.estimator.num_channels,
        "averaging_length": plan.averaging_length,
        "trials": trials,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "loop_seconds_per_trial": loop_seconds / trials,
        "batch_seconds_per_trial": batch_seconds / trials,
        "batch_bitwise_equals_loop": bool((batched == looped).all()),
        "batch_bitwise_equals_singletons": bool((batched == singletons).all()),
    }


def _full_plane_throughput(config: PipelineConfig) -> dict:
    """Seconds per full-plane estimate, plus a blind-search sanity peak."""
    num_samples = config.samples_per_decision
    sps = 8
    signal = (
        bpsk_signal(num_samples, 1.0, samples_per_symbol=sps, seed=43).samples
        + awgn(num_samples, seed=44)
    )
    rows = {}
    channels = (
        config.fam_channels
        if config.fam_channels is not None
        else 64
    )
    for estimator in (
        FAMEstimator(num_channels=channels),
        SSCAEstimator(num_channels=channels),
    ):
        estimator.estimate(signal)  # warm-up
        seconds = _median_seconds(lambda: estimator.estimate(signal), 3)
        spectrum = estimator.estimate(signal)
        peak = spectrum.peak(min_alpha_hz=16 * spectrum.alpha_resolution_hz)
        rows[estimator.name] = {
            "num_samples": num_samples,
            "num_channels": estimator.num_channels,
            "plane_cells": int(np.prod(spectrum.shape)),
            "alpha_resolution": spectrum.alpha_resolution_hz,
            "seconds_per_estimate": seconds,
            "blind_peak_alpha": peak.alpha_hz,
            "blind_peak_expected_alpha": 1.0 / sps,
            "blind_peak_on_symbol_rate": bool(
                abs(abs(peak.alpha_hz) - 1.0 / sps)
                <= 2 * spectrum.alpha_resolution_hz
            ),
        }
    return rows


def collect_metrics(smoke: bool = False) -> dict:
    """Gather the benchmark record written to BENCH_fam_ssca.json."""
    config = SMOKE_CONFIG if smoke else MC_CONFIG
    trials = SMOKE_TRIALS if smoke else MC_TRIALS
    return {
        "benchmark": "bench_fam_ssca",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "full_plane": _full_plane_throughput(config),
        "fam_batch_vs_loop": _batch_vs_loop(
            config, trials, fam_plan, "fam"
        ),
        "ssca_batch_vs_loop": _batch_vs_loop(
            config.with_backend("ssca"), trials, ssca_plan, "ssca"
        ),
    }


def emit_benchmark_json(path: Path = BENCH_JSON, smoke: bool = False) -> dict:
    metrics = collect_metrics(smoke=smoke)
    path.write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def test_emit_benchmark_json():
    """Write BENCH_fam_ssca.json and gate the batched FAM speedup.

    The acceptance bar is >= 3x over the build-per-decision loop at
    K = 256, N' = 64, P = 64, 32 trials; measured headroom is ~3.5x on
    a quiet box, and the JSON records the actual figure.
    """
    metrics = emit_benchmark_json()
    record = metrics["fam_batch_vs_loop"]
    print(
        f"\nFAM batch vs per-trial loop at K={record['fft_size']}, "
        f"N'={record['num_channels']}, P={record['averaging_length']}, "
        f"T={record['trials']}: {record['speedup']:.1f}x "
        f"(loop {record['loop_seconds'] * 1e3:.0f} ms, "
        f"batch {record['batch_seconds'] * 1e3:.0f} ms)"
    )
    assert record["batch_bitwise_equals_loop"]
    assert record["batch_bitwise_equals_singletons"]
    assert metrics["ssca_batch_vs_loop"]["batch_bitwise_equals_singletons"]
    assert metrics["full_plane"]["fam"]["blind_peak_on_symbol_rate"]
    assert metrics["full_plane"]["ssca"]["blind_peak_on_symbol_rate"]
    assert record["speedup"] >= 3.0, (
        "batched FAM Monte-Carlo path lost its speedup: "
        f"{record['speedup']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the batched paths at tiny sizes (fast CI artifact run; "
        "no speedup gate)",
    )
    args = parser.parse_args(argv)
    metrics = emit_benchmark_json(smoke=args.smoke)
    print(json.dumps(metrics, indent=2))
    record = metrics["fam_batch_vs_loop"]
    print(
        f"\nFAM batch-vs-loop speedup: {record['speedup']:.1f}x "
        f"({'smoke geometry, not gated' if args.smoke else 'acceptance bar 3x'})"
    )
    if args.smoke:
        return 0
    return 0 if record["speedup"] >= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
