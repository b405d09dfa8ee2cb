"""Harness health — the unified execution engine's two levers.

Not a paper artifact: measures what the PR-5 engine layer buys and
emits the machine-readable ``BENCH_engine.json`` at the repo root so
the trajectory is tracked across PRs (and guarded by
``benchmarks/check_perf_regression.py``):

* **plan-cache hit speedup** — the same Monte-Carlo sweep run with a
  disabled plan cache (every sweep rebuilds its execution plan: Gram
  index grids, channelizer banks, the compiled Montium schedule)
  versus the shared LRU cache (plan built once).  Most dramatic on the
  compiled SoC backend, where a plan build interprets the platform's
  full instruction stream;
* **sharded scaling** — batched statistics at the paper's K = 256,
  127 x 127 operating point with ``jobs = 1 / 2 / 4`` worker
  processes.  Results are bitwise identical across jobs (asserted
  here too); the wall-clock speedup depends on the cores actually
  available, so the emitted JSON records ``cpus`` alongside the
  timings and the >= 1.5x gate at jobs = 4 is enforced only when the
  machine has >= 4 usable cores;
* **per-trial scoring layers** — at the golden Pd point (N = 8, 48
  trials) and the paper point (N = 32, one trial), float64 and
  float32: the Gram stage alone (``GramKernel.correlate``, what the
  scoring loop runs per trial), against
  ``plan.statistics_from_spectra`` (Gram through peak).  Their
  difference is the scoring epilogue: grid, ``|S|``, coherence
  normalisation and peak;
* **large-trial calibration** — a 1000-trial Monte-Carlo calibration
  at the serve geometry (K = 256, N = 32, hop 64), also under
  ``--smoke``: its time per trial and its tracemalloc ``peak_bytes``.
  The batch path draws and scores in tile-sized slabs, so the peak
  does not grow with the trial count; the perf guard gates
  ``peak_bytes`` absolutely.

Every timing is a budget median taken by ``benchmarks/_timing.py``,
on one pinned CPU and one BLAS thread, except the sharding rows: their
pool starts and runs on every CPU the process started with (still one
BLAS thread), which is the ``cpus`` the JSON records and the jobs = 4
gate reads.  Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_engine.py

The plan-cache, sharding and scoring rows sit in two sections:
``engine.full`` at the operating points above, and ``engine.smoke`` at
tiny geometries with the ``jobs = 1 / 2`` ladder.  ``--smoke`` (the CI
artifact run) records only the smoke section and the calibration row;
a full run records both, so the perf guard compares every smoke row
against the committed baseline instead of skipping it.  ``--jobs``
overrides the full section's sharding ladder.
"""

import argparse
import json
import os
import platform
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.scf import GramKernel
from repro.engine import Engine, PlanCache
from repro.pipeline import PipelineConfig
from repro.signals.noise import awgn

from _timing import CPUS, all_cpus, full_only, median_seconds

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: Full-geometry operating points.
SHARD_CONFIG = PipelineConfig(fft_size=256, num_blocks=32)
SHARD_TRIALS = 32
CACHE_POINTS = {
    "dscf": (PipelineConfig(fft_size=256, num_blocks=32), 16),
    "soc-compiled": (
        PipelineConfig(fft_size=64, num_blocks=16, backend="soc"),
        16,
    ),
}

#: Scoring-layer points: (num_blocks, trials) at K = 256, M = 63 — the
#: golden Pd point's 48-trial Monte-Carlo batch and one paper-point
#: decision.
SCORING_POINTS = ((8, 48), (32, 1))

#: Large-trial calibration point: the serve geometry at 1000 trials
#: (about a second).  ``--smoke`` runs it too: a tiny geometry fits its
#: whole batch in one slab, so it could not show a whole-batch tensor,
#: and only a matching operating point lets the perf guard compare the
#: row against the committed baseline.
CALIBRATION_POINT = (PipelineConfig(fft_size=256, num_blocks=32, hop=64), 1000)

#: Tiny geometries of the smoke section (the CI artifact run; full
#: runs record them too).  The ladder is CI's ``--smoke --jobs 2``.
SMOKE_SHARD_CONFIG = PipelineConfig(fft_size=32, num_blocks=8)
SMOKE_SHARD_TRIALS = 8
SMOKE_JOBS_LADDER = (1, 2)
SMOKE_SCORING_POINTS = ((8, 4),)
SMOKE_CACHE_POINTS = {
    "dscf": (PipelineConfig(fft_size=32, num_blocks=8), 8),
    "soc-compiled": (
        PipelineConfig(
            fft_size=32, num_blocks=8, backend="soc", soc_tiles=2,
        ),
        8,
    ),
}


def _operating_point(config: PipelineConfig, trials: int) -> dict:
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "trials": trials,
    }


def _drop_cached_plans(config: PipelineConfig) -> None:
    """Make the next plan build genuinely cold.

    The engine's plan cache is bypassed with ``maxsize=0`` (it is the
    only plan cache: executors live inside the plans).  What remains
    is the Montium trace memo underneath the SoC compiler, cleared
    here so "no plan caching" also recompiles the soc schedule.
    """
    if config.backend == "soc":
        from repro.montium.compiler import clear_trace_cache

        clear_trace_cache()


def _plan_cache_point(config: PipelineConfig, trials: int) -> dict:
    """Repeated calibration sweeps: disabled caches vs the shared LRU."""

    def sweep(engine: Engine) -> None:
        engine.calibrate_threshold(config, trials=trials)

    cold_engine = Engine(cache=PlanCache(maxsize=0, name="bench-cold"))
    warm_engine = Engine(cache=PlanCache(name="bench-warm"))
    sweep(warm_engine)  # build once; subsequent sweeps are pure hits

    def cold_sweep() -> None:
        _drop_cached_plans(config)
        sweep(cold_engine)

    cold = median_seconds(cold_sweep)
    warm = median_seconds(lambda: sweep(warm_engine))
    stats = warm_engine.cache.stats
    return {
        **_operating_point(config, trials),
        "backend": config.backend,
        "cold_seconds_per_sweep": cold,
        "warm_seconds_per_sweep": warm,
        "seconds_per_estimate": warm / trials,
        "hit_speedup": cold / warm if warm > 0 else None,
        "warm_cache_hits": stats.hits,
        "warm_cache_misses": stats.misses,
    }


def _sharding_ladder(config: PipelineConfig, trials: int, jobs_ladder) -> dict:
    signals = np.stack(
        [
            awgn(config.samples_per_decision, seed=9000 + trial)
            for trial in range(trials)
        ]
    )
    rows = {}
    reference = None
    baseline_seconds = None
    for jobs in jobs_ladder:
        with all_cpus(), Engine(jobs=jobs) as engine:
            engine.statistics(signals, config=config)  # warm pool + plan
            seconds = median_seconds(
                lambda: engine.statistics(signals, config=config)
            )
            statistics = engine.statistics(signals, config=config)
        if reference is None:
            reference = statistics
            baseline_seconds = seconds
        bitwise = bool(np.array_equal(reference, statistics))
        rows[f"jobs={jobs}"] = {
            **_operating_point(config, trials),
            "jobs": jobs,
            "seconds_per_estimate": seconds / trials,
            "seconds_per_batch": seconds,
            "bitwise_equal_to_jobs1": bitwise,
            "speedup_vs_jobs1": (
                baseline_seconds / seconds if seconds > 0 else None
            ),
        }
        assert bitwise, f"jobs={jobs} diverged from the serial statistics"
    return rows


def _gram_replay(config: PipelineConfig, spectra: np.ndarray):
    """The scoring loop's Gram stage alone, per trial:
    :meth:`~repro.core.scf.GramKernel.correlate` (window load, the
    parity gather where the kernel splits the plane, and the BLAS
    products) on a kernel of the plan's geometry."""
    kernel = GramKernel(
        config.num_blocks, config.fft_size, config.m, config.precision
    )

    def replay() -> None:
        for rows in spectra:
            kernel.correlate(rows)

    return replay


def _scoring_layers(points) -> dict:
    """Per-trial Gram vs whole-statistic time at each scoring point."""
    engine = Engine(cache=PlanCache(name="bench-scoring"))
    rows = {}
    for num_blocks, trials in points:
        for precision in ("float64", "float32"):
            config = PipelineConfig(
                fft_size=256, num_blocks=num_blocks, precision=precision
            )
            plan = engine.plan(config)
            signals = np.stack(
                [
                    awgn(config.samples_per_decision, seed=9500 + trial)
                    for trial in range(trials)
                ]
            )
            spectra = plan.block_spectra(signals)
            plan.statistics_from_spectra(spectra)  # warm the scratch
            gram = median_seconds(_gram_replay(config, spectra))
            statistic = median_seconds(
                lambda: plan.statistics_from_spectra(spectra)
            )
            rows[f"N={num_blocks},{precision}"] = {
                **_operating_point(config, trials),
                "precision": precision,
                "gram_us_per_trial": gram / trials * 1e6,
                "statistic_us_per_trial": statistic / trials * 1e6,
                "epilogue_us_per_trial": (statistic - gram) / trials * 1e6,
                "epilogue_share": (statistic - gram) / statistic,
                "seconds_per_estimate": statistic / trials,
            }
    return rows


def _calibration_memory(config: PipelineConfig, trials: int) -> dict:
    """A large-trial calibration: median time and traced peak bytes."""
    engine = Engine(cache=PlanCache(name="bench-calibration"))

    def calibrate() -> None:
        engine.calibrate_threshold(config, trials=trials)

    calibrate()  # plan and scoring scratch
    seconds = median_seconds(calibrate)
    tracemalloc.start()
    try:
        calibrate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        **_operating_point(config, trials),
        "hop": config.hop,
        "seconds_per_estimate": seconds / trials,
        "peak_bytes": peak,
    }


def _section(
    cache_points, shard_config, shard_trials, jobs_ladder, scoring_points
) -> dict:
    """The plan-cache, sharding and scoring rows at one set of points."""
    return {
        "plan_cache": {
            name: _plan_cache_point(config, trials)
            for name, (config, trials) in cache_points.items()
        },
        "sharding": _sharding_ladder(shard_config, shard_trials, jobs_ladder),
        "scoring": _scoring_layers(scoring_points),
    }


def emit(smoke: bool, jobs_ladder, json_path: Path) -> dict:
    engine = {
        "smoke": _section(
            SMOKE_CACHE_POINTS, SMOKE_SHARD_CONFIG, SMOKE_SHARD_TRIALS,
            SMOKE_JOBS_LADDER, SMOKE_SCORING_POINTS,
        ),
    }
    if not smoke:
        engine["full"] = full_only(
            _section(
                CACHE_POINTS, SHARD_CONFIG, SHARD_TRIALS, jobs_ladder,
                SCORING_POINTS,
            )
        )
    engine["calibration"] = {
        "serve_geometry": _calibration_memory(*CALIBRATION_POINT),
    }
    payload = {
        "benchmark": "bench_engine",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": CPUS,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "engine": engine,
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny geometries for CI artifact runs (no speedup gates)",
    )
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=None,
        help="the full section's sharding ladder (default: 1 2 4; the "
        "smoke section always runs 1 2)",
    )
    parser.add_argument(
        "--json", type=Path, default=BENCH_JSON,
        help=f"output path (default {BENCH_JSON.name} at the repo root)",
    )
    args = parser.parse_args(argv)
    jobs_ladder = args.jobs if args.jobs else [1, 2, 4]
    # Ascending with jobs=1 always present: the first row is the
    # serial reference every speedup/bitwise field is computed against.
    jobs_ladder = sorted(set(jobs_ladder) | {1})

    payload = emit(args.smoke, jobs_ladder, args.json)
    cpus = payload["cpus"]
    print(f"wrote {args.json} (cpus={cpus})")
    for section in ("smoke", "full"):
        rows = payload["engine"].get(section)
        if rows is None:
            continue
        for name, row in rows["plan_cache"].items():
            print(
                f"  {section} plan cache [{name}]: cold "
                f"{row['cold_seconds_per_sweep'] * 1e3:.1f} ms vs warm "
                f"{row['warm_seconds_per_sweep'] * 1e3:.1f} ms per sweep "
                f"({row['hit_speedup']:.1f}x hit speedup)"
            )
        for label, row in rows["sharding"].items():
            print(
                f"  {section} sharding [{label}]: "
                f"{row['seconds_per_batch'] * 1e3:.1f} ms per batch "
                f"({row['speedup_vs_jobs1']:.2f}x vs jobs=1, bitwise "
                f"{'ok' if row['bitwise_equal_to_jobs1'] else 'MISMATCH'})"
            )
        for label, row in rows["scoring"].items():
            print(
                f"  {section} scoring [{label}]: Gram "
                f"{row['gram_us_per_trial']:.0f} us + epilogue "
                f"{row['epilogue_us_per_trial']:.0f} us = "
                f"{row['statistic_us_per_trial']:.0f} us per trial"
            )

    for label, row in payload["engine"]["calibration"].items():
        print(
            f"  calibration [{label}]: "
            f"{row['seconds_per_estimate'] * row['trials']:.3f} s, traced "
            f"peak {row['peak_bytes'] / 2**20:.1f} MiB"
        )

    if args.smoke:
        return 0
    failures = []
    # The gram plan builds in well under a millisecond, so its hit
    # speedup hovers at ~1x by design — the gate applies where plan
    # building is the documented cost: the compiled SoC schedule.
    full = payload["engine"]["full"]
    soc_row = full["plan_cache"].get("soc-compiled")
    if soc_row and (
        not soc_row["hit_speedup"] or soc_row["hit_speedup"] <= 1.0
    ):
        failures.append(
            "plan-cache hit speedup for soc-compiled not > 1.0x "
            f"({soc_row['hit_speedup']})"
        )
    top = max(j for j in jobs_ladder)
    top_row = full["sharding"].get(f"jobs={top}")
    if top_row and cpus >= top:
        if top_row["speedup_vs_jobs1"] < 1.5:
            failures.append(
                f"jobs={top} speedup {top_row['speedup_vs_jobs1']:.2f}x "
                f"< 1.5x on a {cpus}-cpu machine"
            )
    elif top_row:
        print(
            f"  note: jobs={top} >= 1.5x gate skipped — only {cpus} "
            f"usable cpu(s); speedup measured "
            f"{top_row['speedup_vs_jobs1']:.2f}x"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
