"""Harness health — throughput of the DSCF estimator backends.

Not a paper artifact: measures the host-side cost of the equivalent
estimator substrates (literal triple loop, vectorised Gram kernel,
batched Gram-matrix pipeline) so regressions in the reference
implementations are visible, and emits the
machine-readable ``BENCH_estimators.json`` at the repo root so the
performance trajectory — in particular the batched Monte-Carlo time
per trial at the paper's K = 256, 127 x 127 operating point — is
tracked across PRs.

The batch-vs-loop rows time the batch plan against a per-trial loop of
:class:`~repro.core.detection.CyclostationaryFeatureDetector`.  Both
score through the same Gram kernel, so the loop's statistics must equal
the batch's bit for bit; the ratio of their times is reported, not
gated (it measures the loop's per-call overhead, not the batch).
``batch_seconds_per_trial`` is what the perf guard
(``check_perf_regression.py``) compares.  Full runs record the
``--smoke`` row too, so the guard's CI smoke run has a baseline.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_estimators.py --benchmark-only -s

or regenerate just the JSON without pytest::

    PYTHONPATH=src python benchmarks/bench_estimators.py

``--smoke`` runs the batch-vs-loop row at its tiny geometry only —
what the CI benchmark-smoke job uses to produce artifact JSON quickly
on shared runners.  Either run exits non-zero when a bitwise check
fails.
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
from repro.core.scf import dscf, dscf_reference
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
MC_CONFIG = PipelineConfig(fft_size=256, num_blocks=32)
MC_TRIALS = 64

# Tiny --smoke geometry (CI artifact run), also recorded by full runs.
SMOKE_MC_CONFIG = PipelineConfig(fft_size=32, num_blocks=8)
SMOKE_MC_TRIALS = 8


def test_vectorised_estimator(benchmark):
    values = benchmark(dscf, SPECTRA, M)
    assert values.shape == (15, 15)


def test_reference_estimator(benchmark):
    values = benchmark.pedantic(
        dscf_reference, args=(SPECTRA, M), rounds=2, iterations=1
    )
    assert np.allclose(values, dscf(SPECTRA, M))


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


#: A backend row is the median of as many calls as fill this budget,
#: and of at least :data:`BACKEND_MIN_CALLS`: a ~3 ms row takes about
#: 65 calls, so one noisy call cannot move it (a median of 3 calls
#: once read the compiled soc row 2.26x slow with no code change).
BACKEND_BUDGET_SECONDS = 0.2
BACKEND_MIN_CALLS = 3


def _budget_median_seconds(fn) -> float:
    times = []
    deadline = time.perf_counter() + BACKEND_BUDGET_SECONDS
    while len(times) < BACKEND_MIN_CALLS or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _measure_backend(backend, config: PipelineConfig) -> dict:
    signal = awgn(config.samples_per_decision, seed=72)
    backend.compute(signal, config)  # warm-up
    seconds = _budget_median_seconds(lambda: backend.compute(signal, config))
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
        "batch_bitwise_equals_detector_loop": bool(
            (batch_stats.view(np.uint64) == loop_stats.view(np.uint64)).all()
        ),
        "batch_bitwise_equals_per_trial_runner": bool(
            (batch_stats == per_trial).all()
        ),
    }


def collect_metrics(smoke: bool = False) -> dict:
    """Gather the full benchmark record written to BENCH_estimators.json."""
    points = [(SMOKE_MC_CONFIG, SMOKE_MC_TRIALS)]
    if not smoke:
        points.append((MC_CONFIG, MC_TRIALS))
    batch_vs_loop = {
        f"fft_size={config.fft_size}": _batch_vs_loop(config, trials)
        for config, trials in points
    }
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


def _bitwise_failures(metrics: dict) -> list[str]:
    """The batch-vs-loop rows whose bitwise checks failed."""
    return [
        f"{label}: {check}"
        for label, record in metrics["batch_vs_loop"].items()
        for check in (
            "batch_bitwise_equals_detector_loop",
            "batch_bitwise_equals_per_trial_runner",
        )
        if not record[check]
    ]


def _report(metrics: dict) -> None:
    for label, record in metrics["batch_vs_loop"].items():
        print(
            f"batch vs loop [{label}], {record['dscf_grid']}, "
            f"N={record['num_blocks']}, T={record['trials']}: "
            f"batch {record['batch_seconds_per_trial'] * 1e3:.3f} ms per "
            f"trial, loop {record['loop_seconds_per_trial'] * 1e3:.3f} ms "
            f"({record['speedup']:.1f}x, reported only)"
        )


def test_emit_benchmark_json():
    """Write BENCH_estimators.json; the detector loop and the per-trial
    runner must equal the batch bit for bit."""
    metrics = emit_benchmark_json()
    _report(metrics)
    assert not _bitwise_failures(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the batch-vs-loop row at its tiny geometry only (fast CI "
        "artifact run)",
    )
    args = parser.parse_args(argv)
    metrics = emit_benchmark_json(smoke=args.smoke)
    print(json.dumps(metrics, indent=2))
    _report(metrics)
    failures = _bitwise_failures(metrics)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
