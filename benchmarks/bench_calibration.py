"""Calibration setup cost: analytic CFAR vs Monte-Carlo, pruned search.

Not a paper artifact: measures what the calibration-policy layer buys
and emits the machine-readable ``BENCH_calibration.json`` at the repo
root (tracked across PRs and guarded by
``benchmarks/check_perf_regression.py``):

* **calibration setup** — the wall-clock of producing a detection
  threshold at the paper's K = 256 operating point under each policy.
  ``calibration="monte-carlo"`` runs the full noise-only sweep (here
  with a warm plan cache, so the figure is the sweep itself);
  ``calibration="analytic"`` evaluates the closed-form Beta-law
  threshold and touches no signal at all.  The JSON records both
  thresholds and their relative difference alongside the speedup.
* **pruned cycle-frequency search** — batched statistics with the
  full (2M+1) x (2M+1) surface sweep versus the FFT-screened
  ``alpha_search="pruned"`` refinement on occupied-channel signals,
  where the two are required to agree on the decision statistic.

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_calibration.py

``--smoke`` runs a tiny geometry for CI artifact runs (no gating).
"""

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine import Engine
from repro.pipeline import PipelineConfig
from repro.signals.modulators import bpsk_signal
from repro.signals.noise import awgn

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_calibration.json"

#: Full geometry: the paper's K = 256 operating point.
FULL_CONFIG = PipelineConfig(fft_size=256, num_blocks=8, pfa=0.1)
FULL_TRIALS = 200
FULL_BATCH = 32

#: Tiny --smoke geometry (CI artifact run, no gating).
SMOKE_CONFIG = PipelineConfig(fft_size=32, num_blocks=8, pfa=0.1)
SMOKE_TRIALS = 20
SMOKE_BATCH = 8


def _best_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(min(times))


def _operating_point(config: PipelineConfig) -> dict:
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "backend": config.backend,
        "pfa": config.pfa,
    }


def _calibration_setup(
    config: PipelineConfig, trials: int, repeats: int
) -> dict:
    """Threshold setup cost per policy on a warm engine."""
    mc_config = dataclasses.replace(
        config, calibration="monte-carlo", calibration_trials=trials
    )
    analytic_config = dataclasses.replace(config, calibration="analytic")
    with Engine() as engine:
        # Warm the plan cache so the Monte-Carlo figure times the
        # noise-only sweep, not the one-off plan build.
        mc_threshold = engine.calibrate_threshold(mc_config)
        mc_seconds = _best_seconds(
            lambda: engine.calibrate_threshold(mc_config), repeats
        )
        analytic_threshold = engine.calibrate_threshold(analytic_config)
        analytic_seconds = _best_seconds(
            lambda: engine.calibrate_threshold(analytic_config), repeats
        )
    rel_diff = abs(analytic_threshold - mc_threshold) / mc_threshold
    return {
        "monte-carlo": {
            **_operating_point(config),
            "calibration": "monte-carlo",
            "trials": trials,
            "calibration_seconds": mc_seconds,
            "threshold": mc_threshold,
        },
        "analytic": {
            **_operating_point(config),
            "calibration": "analytic",
            "trials": 0,
            "calibration_seconds": analytic_seconds,
            "threshold": analytic_threshold,
        },
        "setup_speedup": (
            mc_seconds / analytic_seconds if analytic_seconds > 0 else None
        ),
        "threshold_rel_diff": rel_diff,
    }


def _occupied_batch(config: PipelineConfig, batch: int) -> np.ndarray:
    rng = np.random.default_rng(31_337)
    samples = config.samples_per_decision
    sps = max(2, config.fft_size // 16)
    signals = []
    for _ in range(batch):
        noise = awgn(samples, power=1.0, rng=rng)
        user = bpsk_signal(samples, 1e6, samples_per_symbol=sps, rng=rng)
        signals.append(noise + 2.0 * user.samples)
    return np.stack(signals)


def _alpha_search(config: PipelineConfig, batch: int, repeats: int) -> dict:
    """Batched statistics: full surface sweep vs the pruned search."""
    signals = _occupied_batch(config, batch)
    engine = Engine()
    full_plan = engine.plan(dataclasses.replace(config, alpha_search="full"))
    pruned_plan = engine.plan(
        dataclasses.replace(config, alpha_search="pruned")
    )
    full_statistics = full_plan.statistics(signals)  # warm plans
    pruned_statistics = pruned_plan.statistics(signals)
    agree = bool(
        np.allclose(full_statistics, pruned_statistics, rtol=1e-6)
    )
    full_seconds = _best_seconds(
        lambda: full_plan.statistics(signals), repeats
    )
    pruned_seconds = _best_seconds(
        lambda: pruned_plan.statistics(signals), repeats
    )
    return {
        "full": {
            **_operating_point(config),
            "alpha_search": "full",
            "trials": batch,
            "seconds_per_batch": full_seconds,
            "seconds_per_estimate": full_seconds / batch,
        },
        "pruned": {
            **_operating_point(config),
            "alpha_search": "pruned",
            "trials": batch,
            "seconds_per_batch": pruned_seconds,
            "seconds_per_estimate": pruned_seconds / batch,
        },
        "search_speedup": (
            full_seconds / pruned_seconds if pruned_seconds > 0 else None
        ),
        "statistics_agree": agree,
    }


def emit(smoke: bool, json_path: Path) -> dict:
    repeats = 2 if smoke else 3
    config = SMOKE_CONFIG if smoke else FULL_CONFIG
    trials = SMOKE_TRIALS if smoke else FULL_TRIALS
    batch = SMOKE_BATCH if smoke else FULL_BATCH
    payload = {
        "benchmark": "bench_calibration",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration": _calibration_setup(config, trials, repeats),
        "alpha_search": _alpha_search(config, batch, repeats),
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny geometry for CI artifact runs (no gates)",
    )
    parser.add_argument(
        "--json", type=Path, default=BENCH_JSON,
        help=f"output path (default {BENCH_JSON.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    payload = emit(args.smoke, args.json)
    setup = payload["calibration"]
    search = payload["alpha_search"]
    print(f"wrote {args.json}")
    print(
        f"  calibration: monte-carlo "
        f"{setup['monte-carlo']['calibration_seconds'] * 1e3:.1f} ms "
        f"({setup['monte-carlo']['trials']} trials) vs analytic "
        f"{setup['analytic']['calibration_seconds'] * 1e6:.1f} us "
        f"({setup['setup_speedup']:.0f}x setup speedup, thresholds "
        f"within {setup['threshold_rel_diff'] * 100:.2f}%)"
    )
    print(
        f"  alpha search: full "
        f"{search['full']['seconds_per_batch'] * 1e3:.1f} ms vs pruned "
        f"{search['pruned']['seconds_per_batch'] * 1e3:.1f} ms per batch "
        f"({search['search_speedup']:.2f}x, statistics "
        f"{'agree' if search['statistics_agree'] else 'DISAGREE'})"
    )

    if args.smoke:
        return 0
    failures = []
    if not search["statistics_agree"]:
        failures.append("pruned statistics diverged from the full sweep")
    if not setup["setup_speedup"] or setup["setup_speedup"] < 10.0:
        failures.append(
            f"analytic setup speedup {setup['setup_speedup']} < 10x over "
            f"the {setup['monte-carlo']['trials']}-trial Monte-Carlo sweep"
        )
    if setup["threshold_rel_diff"] > 0.05:
        failures.append(
            "analytic and Monte-Carlo thresholds differ by "
            f"{setup['threshold_rel_diff'] * 100:.2f}% (> 5%)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
