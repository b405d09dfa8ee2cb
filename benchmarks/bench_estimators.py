"""Harness health — throughput of the DSCF estimator backends.

Not a paper artifact: measures the host-side cost of the equivalent
estimator substrates (literal triple loop, vectorised numpy, streaming
accumulator, batched Gram-matrix pipeline) so regressions in the
reference implementations are visible, and emits the machine-readable
``BENCH_estimators.json`` at the repo root so the performance
trajectory — in particular the batch-vs-loop Monte-Carlo speedup at
the paper's K = 256, 127 x 127 operating point — is tracked across
PRs.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_estimators.py --benchmark-only -s

or regenerate just the JSON without pytest::

    PYTHONPATH=src python benchmarks/bench_estimators.py

``--smoke`` runs the batched paths at tiny sizes and skips the speedup
exit gate — what the CI benchmark-smoke job uses to produce artifact
JSON quickly on shared runners.
"""

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.detection import CyclostationaryFeatureDetector
from repro.core.fourier import block_spectra
from repro.core.scf import StreamingDSCF, dscf, dscf_reference
from repro.engine import Engine, default_noise_factory
from repro.pipeline import PipelineConfig, available_backends, get_backend
from repro.signals.noise import awgn

K = 64
BLOCKS = 16
SPECTRA = block_spectra(awgn(K * BLOCKS, seed=70), K)
M = 7  # small m so the literal loop stays affordable

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_estimators.json"

# The Monte-Carlo operating point of the emitted speedup figure: the
# paper's K = 256 / 127 x 127 grid, a realistic integration length
# (the CLI's `sense` default is 64 blocks) and a calibration-sized
# trial count.
MC_CONFIG = PipelineConfig(fft_size=256, num_blocks=32, trial_chunk=4)
MC_TRIALS = 64

# Tiny --smoke geometry (CI artifact run, no gating).
SMOKE_MC_CONFIG = PipelineConfig(fft_size=32, num_blocks=8, trial_chunk=4)
SMOKE_MC_TRIALS = 8


def test_vectorised_estimator(benchmark):
    values = benchmark(dscf, SPECTRA, M)
    assert values.shape == (15, 15)


def test_reference_estimator(benchmark):
    values = benchmark.pedantic(
        dscf_reference, args=(SPECTRA, M), rounds=2, iterations=1
    )
    assert np.allclose(values, dscf(SPECTRA, M))


def test_streaming_estimator(benchmark):
    def run():
        streaming = StreamingDSCF(K, M)
        for spectrum in SPECTRA:
            streaming.update(spectrum)
        return streaming.result()

    result = benchmark(run)
    assert np.allclose(result.values, dscf(SPECTRA, M))


def test_paper_grid_vectorised(benchmark):
    """The full 127 x 127 grid at K = 256 (the platform's workload)."""
    spectra = block_spectra(awgn(256 * 8, seed=71), 256)
    values = benchmark(dscf, spectra, 63)
    assert values.shape == (127, 127)


def test_batched_monte_carlo(benchmark):
    """Batched threshold calibration at the paper's operating point."""
    plan = Engine().plan(MC_CONFIG)
    signals = np.stack(
        [awgn(MC_CONFIG.samples_per_decision, seed=70 + t) for t in range(16)]
    )
    statistics = benchmark(plan.statistics, signals)
    assert statistics.shape == (16,)


# ----------------------------------------------------------------------
# Machine-readable benchmark emission
# ----------------------------------------------------------------------
def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _measure_backend(backend, config: PipelineConfig, repeats: int = 3) -> dict:
    signal = awgn(config.samples_per_decision, seed=72)
    backend.compute(signal, config)  # warm-up
    seconds = _median_seconds(
        lambda: backend.compute(signal, config), repeats=repeats
    )
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "seconds_per_estimate": seconds,
        "estimates_per_second": 1.0 / seconds if seconds > 0 else None,
    }


def _backend_throughput() -> dict:
    """Seconds per DSCF estimate for every registered backend.

    Every backend — including the cycle-level ``soc`` substrate and
    its trace-compiled mode — is measured at the *same* small
    operating point (K = 64, N = 16, M = 7), so the reported speedups
    are directly comparable.  The cycle-accurate rows additionally
    record a tiny (K = 16, N = 4) point under ``<name>@tiny``: the
    historical soc measurement geometry, kept so the trend line
    survives, and cheap enough for constrained CI runners.
    """
    rows = {}
    small = PipelineConfig(fft_size=K, num_blocks=BLOCKS, m=M)
    tiny = PipelineConfig(fft_size=16, num_blocks=4, m=3, soc_tiles=2)
    for name in available_backends():
        backend = get_backend(name)
        rows[name] = _measure_backend(backend, small)
        if backend.capabilities.cycle_accurate:
            rows[f"{name}@tiny"] = _measure_backend(backend, tiny)
    soc = get_backend("soc")
    rows["soc-compiled"] = _measure_backend(
        soc, replace(small, soc_compiled=True)
    )
    rows["soc-compiled@tiny"] = _measure_backend(
        soc, replace(tiny, soc_compiled=True)
    )
    return rows


def _batch_vs_loop(
    config: PipelineConfig = MC_CONFIG, trials: int = MC_TRIALS
) -> dict:
    """Monte-Carlo calibration: the batch plan vs the per-trial loop."""
    plan = Engine().plan(config)
    detector = CyclostationaryFeatureDetector(
        config.fft_size, config.num_blocks, m=config.m
    )
    factory = default_noise_factory(config)
    signals = np.stack([factory(t) for t in range(trials)])
    plan.statistics(signals[:4])  # warm-up
    detector.statistic(signals[0])

    loop_seconds = _median_seconds(
        lambda: [detector.statistic(s) for s in signals], repeats=3
    )
    batch_seconds = _median_seconds(
        lambda: plan.statistics(signals), repeats=5
    )
    batch_stats = plan.statistics(signals)
    loop_stats = np.array([detector.statistic(s) for s in signals])
    per_trial = np.array([plan.statistics(s[None])[0] for s in signals])
    return {
        "fft_size": config.fft_size,
        "dscf_grid": f"{config.extent}x{config.extent}",
        "num_blocks": config.num_blocks,
        "trials": trials,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "loop_seconds_per_trial": loop_seconds / trials,
        "batch_seconds_per_trial": batch_seconds / trials,
        "batch_matches_detector_loop": bool(
            np.allclose(batch_stats, loop_stats, rtol=1e-9)
        ),
        "batch_bitwise_equals_per_trial_runner": bool(
            (batch_stats == per_trial).all()
        ),
    }


def collect_metrics(smoke: bool = False) -> dict:
    """Gather the full benchmark record written to BENCH_estimators.json."""
    if smoke:
        batch_vs_loop = _batch_vs_loop(SMOKE_MC_CONFIG, SMOKE_MC_TRIALS)
    else:
        batch_vs_loop = _batch_vs_loop()
    return {
        "benchmark": "bench_estimators",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": _backend_throughput(),
        "batch_vs_loop": batch_vs_loop,
    }


def emit_benchmark_json(path: Path = BENCH_JSON, smoke: bool = False) -> dict:
    metrics = collect_metrics(smoke=smoke)
    path.write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def test_emit_benchmark_json():
    """Write BENCH_estimators.json and gate the batched speedup.

    The acceptance bar is >= 5x at the K = 256, 127 x 127 operating
    point; the assertion keeps a safety margin for noisy CI boxes
    while the JSON records the actual figure.
    """
    metrics = emit_benchmark_json()
    record = metrics["batch_vs_loop"]
    print(
        f"\nbatch vs loop at K=256, {record['dscf_grid']}, "
        f"N={record['num_blocks']}, T={record['trials']}: "
        f"{record['speedup']:.1f}x "
        f"(loop {record['loop_seconds'] * 1e3:.0f} ms, "
        f"batch {record['batch_seconds'] * 1e3:.0f} ms)"
    )
    assert record["batch_matches_detector_loop"]
    assert record["batch_bitwise_equals_per_trial_runner"]
    assert record["speedup"] >= 3.0, (
        "batched Monte-Carlo calibration lost its speedup: "
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
    record = metrics["batch_vs_loop"]
    if args.smoke:
        print(
            f"\nbatch-vs-loop speedup: {record['speedup']:.1f}x "
            "(smoke geometry, not gated)"
        )
        return 0
    meets_bar = record["speedup"] >= 5.0
    print(
        f"\nbatch-vs-loop speedup: {record['speedup']:.1f}x "
        f"({'meets' if meets_bar else 'BELOW'} the 5x acceptance bar)"
    )
    # Exit-gate with the same 3x margin as the pytest assertion so a
    # noisy shared CI box doesn't fail unrelated PRs; the JSON records
    # the actual figure either way.
    return 0 if record["speedup"] >= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
