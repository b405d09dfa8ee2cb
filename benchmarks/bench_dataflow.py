"""Dataflow health — precision fast paths and shard transport cost.

Not a paper artifact: measures what the single-precision dataflow and
the zero-copy shard transport buy, and emits the machine-readable
``BENCH_dataflow.json`` at the repo root so the trajectory is tracked
across PRs (and guarded by ``benchmarks/check_perf_regression.py``):

* **precision throughput** — batched statistics at the paper's
  K = 256, 127 x 127 operating point on every float32-capable backend
  (``vectorized``/dscf, ``fam``, ``ssca``), run at ``float64`` (the
  bitwise parity reference) and ``float32`` (the tiled complex64 fast
  path).  The JSON records estimates/second per (backend, precision)
  and the float32-over-float64 speedup; the non-smoke gate requires
  >= 2x on at least two backends;
* **shard transport payload** — the bytes pickled per worker
  submission for a ``jobs = 2`` shard of the same trial block under
  the engine's shared-memory transport (the parent publishes the block
  once via POSIX shared memory and each worker receives only a
  descriptor + slice bounds: O(config) bytes), next to what pickling
  the shard array itself would cost.  The shared transport is also
  timed end to end and pinned bitwise equal to the serial run.

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_dataflow.py

``--smoke`` runs tiny geometries for CI artifact runs (no gating).
"""

import argparse
import json
import pickle
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine import Engine, available_cpus
from repro.engine.shm import SharedArraySegment
from repro.pipeline import PipelineConfig
from repro.pipeline.config import FLOAT32_BACKENDS
from repro.signals.noise import awgn

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_dataflow.json"

#: Full geometry: the paper operating point (K=256, N=32 -> 127x127).
FULL_GEOMETRY = dict(fft_size=256, num_blocks=32)
FULL_TRIALS = 16

#: Tiny --smoke geometry (CI artifact run, no gating).
SMOKE_GEOMETRY = dict(fft_size=32, num_blocks=8)
SMOKE_TRIALS = 8

#: Non-smoke gates: float32 must deliver >= MIN_SPEEDUP estimates/sec
#: over float64 on >= MIN_FAST_BACKENDS backends, and a shared-memory
#: shard submission must pickle to no more than MAX_SHARED_BYTES.
MIN_SPEEDUP = 2.0
MIN_FAST_BACKENDS = 2
MAX_SHARED_BYTES = 16 * 1024


def _best_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(min(times))


def _trial_block(config: PipelineConfig, trials: int) -> np.ndarray:
    return np.stack(
        [
            awgn(config.samples_per_decision, seed=9000 + trial)
            for trial in range(trials)
        ]
    )


def _operating_point(config: PipelineConfig, trials: int) -> dict:
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "trials": trials,
    }


def _precision_rows(geometry: dict, trials: int, repeats: int) -> dict:
    """estimates/sec per (backend, precision) on one trial block."""
    rows = {}
    for backend in FLOAT32_BACKENDS:
        rows[backend] = {}
        baseline = None
        for precision in ("float64", "float32"):
            config = PipelineConfig(
                backend=backend, precision=precision, **geometry
            )
            signals = _trial_block(config, trials)
            with Engine() as engine:
                engine.statistics(signals, config=config)  # warm plan
                seconds = _best_seconds(
                    lambda: engine.statistics(signals, config=config),
                    repeats,
                )
            row = {
                **_operating_point(config, trials),
                "backend": backend,
                "precision": precision,
                "seconds_per_estimate": seconds / trials,
                "estimates_per_second": trials / seconds,
            }
            if precision == "float64":
                baseline = seconds
            else:
                row["speedup_vs_float64"] = (
                    baseline / seconds if seconds > 0 else None
                )
            rows[backend][precision] = row
    return rows


def _transport_rows(
    geometry: dict, trials: int, jobs: int, repeats: int
) -> dict:
    """Per-shard pickled payload, and the shared transport's timing."""
    config = PipelineConfig(**geometry)
    signals = _trial_block(config, trials)
    bounds = np.array_split(np.arange(trials), jobs)

    # What rides the worker pipe per submission: the shared transport
    # pickles (config, descriptor, start, stop, use_cache); shipping
    # the rows themselves would pickle (config, shard_array, use_cache).
    shard = signals[bounds[0][0] : bounds[0][-1] + 1]
    pickle_bytes = len(pickle.dumps((config, shard, True)))
    with SharedArraySegment(signals) as segment:
        shared_bytes = len(
            pickle.dumps(
                (config, segment.descriptor, 0, int(bounds[0][-1]) + 1, True)
            )
        )

    with Engine() as serial:
        reference = serial.statistics(signals, config=config)
    with Engine(jobs=jobs) as engine:
        engine.statistics(signals, config=config)  # warm pool + plan
        seconds = _best_seconds(
            lambda: engine.statistics(signals, config=config), repeats
        )
        statistics = engine.statistics(signals, config=config)
    bitwise = bool(np.array_equal(reference, statistics))
    assert bitwise, "sharded statistics diverged from serial"
    common = {
        **_operating_point(config, trials),
        "backend": config.backend,
        "jobs": jobs,
    }
    return {
        "pickle": {
            **common,
            "transport": "pickle",
            "pickled_bytes_per_shard": pickle_bytes,
        },
        "shared": {
            **common,
            "transport": "shared",
            "pickled_bytes_per_shard": shared_bytes,
            "seconds_per_estimate": seconds / trials,
            "seconds_per_batch": seconds,
            "bitwise_equal_to_serial": bitwise,
            "payload_reduction_vs_pickle": (
                pickle_bytes / shared_bytes if shared_bytes else None
            ),
        },
    }


def emit(smoke: bool, json_path: Path) -> dict:
    repeats = 2 if smoke else 3
    geometry = SMOKE_GEOMETRY if smoke else FULL_GEOMETRY
    trials = SMOKE_TRIALS if smoke else FULL_TRIALS
    payload = {
        "benchmark": "bench_dataflow",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": available_cpus(),
        "dataflow": {
            "precision": _precision_rows(geometry, trials, repeats),
            "transport": _transport_rows(geometry, trials, 2, repeats),
        },
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
        "--json", type=Path, default=BENCH_JSON,
        help=f"output path (default {BENCH_JSON.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    payload = emit(args.smoke, args.json)
    print(f"wrote {args.json} (cpus={payload['cpus']})")
    speedups = {}
    for backend, rows in payload["dataflow"]["precision"].items():
        fast = rows["float32"]
        speedups[backend] = fast.get("speedup_vs_float64") or 0.0
        print(
            f"  precision [{backend}]: float64 "
            f"{rows['float64']['estimates_per_second']:.1f} est/s vs "
            f"float32 {fast['estimates_per_second']:.1f} est/s "
            f"({speedups[backend]:.2f}x)"
        )
    transport = payload["dataflow"]["transport"]
    print(
        f"  transport [jobs=2]: pickling the rows would ship "
        f"{transport['pickle']['pickled_bytes_per_shard']:,} B/shard vs "
        f"shared {transport['shared']['pickled_bytes_per_shard']:,} B/shard "
        f"({transport['shared']['payload_reduction_vs_pickle']:.0f}x smaller)"
    )

    if args.smoke:
        return 0
    failures = []
    fast_enough = [
        backend
        for backend, speedup in speedups.items()
        if speedup >= MIN_SPEEDUP
    ]
    if len(fast_enough) < MIN_FAST_BACKENDS:
        failures.append(
            f"float32 >= {MIN_SPEEDUP:.1f}x on only {len(fast_enough)} "
            f"backend(s) ({speedups}); need {MIN_FAST_BACKENDS}"
        )
    shared_bytes = transport["shared"]["pickled_bytes_per_shard"]
    if shared_bytes > MAX_SHARED_BYTES:
        failures.append(
            f"shared-transport submission pickles to {shared_bytes} B "
            f"(> {MAX_SHARED_BYTES} B) — descriptor payload regressed"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
