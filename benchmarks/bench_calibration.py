"""Calibration setup cost: analytic CFAR vs Monte-Carlo.

Not a paper artifact: measures what the calibration-policy layer buys
and emits the machine-readable ``BENCH_calibration.json`` at the repo
root (tracked across PRs and guarded by
``benchmarks/check_perf_regression.py``): the wall-clock of producing
a detection threshold at the paper's K = 256 operating point under
each policy.  ``calibration="monte-carlo"`` runs the full noise-only
sweep (here with a warm plan cache, so the figure is the sweep
itself); ``calibration="analytic"`` evaluates the closed-form Beta-law
threshold and touches no signal at all.  The JSON records both
thresholds and their relative difference alongside the speedup.

Every timing is a budget median taken by ``benchmarks/_timing.py``.
The rows sit in two sections: ``calibration.smoke`` at the tiny CI
geometry and ``calibration.full`` at the paper point.  A full run
writes both, so the perf guard compares CI's ``--smoke`` rows against
the committed baseline; ``--smoke`` writes only the smoke section (no
gating).

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_calibration.py
"""

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.engine import Engine
from repro.pipeline import PipelineConfig

from _timing import full_only, median_seconds

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_calibration.json"

#: Full geometry: the paper's K = 256 operating point.
FULL_CONFIG = PipelineConfig(fft_size=256, num_blocks=8, pfa=0.1)
FULL_TRIALS = 200

#: Tiny --smoke geometry (CI's run; full runs record it too).
SMOKE_CONFIG = PipelineConfig(fft_size=32, num_blocks=8, pfa=0.1)
SMOKE_TRIALS = 20


def _operating_point(config: PipelineConfig) -> dict:
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "backend": config.backend,
        "pfa": config.pfa,
    }


def _calibration_setup(config: PipelineConfig, trials: int) -> dict:
    """Threshold setup cost per policy on a warm engine."""
    mc_config = dataclasses.replace(
        config, calibration="monte-carlo", calibration_trials=trials
    )
    analytic_config = dataclasses.replace(config, calibration="analytic")
    with Engine() as engine:
        # Warm the plan cache so the Monte-Carlo figure times the
        # noise-only sweep, not the one-off plan build.
        mc_threshold = engine.calibrate_threshold(mc_config)
        mc_seconds = median_seconds(
            lambda: engine.calibrate_threshold(mc_config)
        )
        analytic_threshold = engine.calibrate_threshold(analytic_config)
        analytic_seconds = median_seconds(
            lambda: engine.calibrate_threshold(analytic_config)
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


def emit(smoke: bool, json_path: Path) -> dict:
    calibration = {"smoke": _calibration_setup(SMOKE_CONFIG, SMOKE_TRIALS)}
    if not smoke:
        calibration["full"] = full_only(
            _calibration_setup(FULL_CONFIG, FULL_TRIALS)
        )
    payload = {
        "benchmark": "bench_calibration",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration": calibration,
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
    print(f"wrote {args.json}")
    for section, setup in payload["calibration"].items():
        print(
            f"  {section} calibration: monte-carlo "
            f"{setup['monte-carlo']['calibration_seconds'] * 1e3:.1f} ms "
            f"({setup['monte-carlo']['trials']} trials) vs analytic "
            f"{setup['analytic']['calibration_seconds'] * 1e6:.1f} us "
            f"({setup['setup_speedup']:.0f}x setup speedup, thresholds "
            f"within {setup['threshold_rel_diff'] * 100:.2f}%)"
        )

    if args.smoke:
        return 0
    setup = payload["calibration"]["full"]
    failures = []
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
