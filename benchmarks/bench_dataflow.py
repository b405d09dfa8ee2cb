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

Every timing is a budget median taken by ``benchmarks/_timing.py``
(the transport row on every CPU the process started with, as its two
workers run side by side; the others on one pinned CPU).  The rows
sit in two sections: ``dataflow.smoke`` at tiny geometries and
``dataflow.full`` at the paper point.  A full run writes both, so
the perf guard compares CI's ``--smoke`` rows against the committed
baseline; ``--smoke`` writes only the smoke section (no gating).

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_dataflow.py
"""

import argparse
import json
import pickle
import platform
import sys
from functools import partial
from pathlib import Path

import numpy as np

from repro.engine import Engine
from repro.engine.shm import SharedArraySegment
from repro.pipeline import PipelineConfig
from repro.pipeline.config import FLOAT32_BACKENDS
from repro.signals.noise import awgn

from _timing import CPUS, all_cpus, call_seconds, full_only, median_seconds

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_dataflow.json"

#: Full geometry: the paper operating point (K=256, N=32 -> 127x127).
FULL_GEOMETRY = dict(fft_size=256, num_blocks=32)
FULL_TRIALS = 16

#: Tiny --smoke geometry (CI's run; full runs record it too).
SMOKE_GEOMETRY = dict(fft_size=32, num_blocks=8)
SMOKE_TRIALS = 8

#: Non-smoke gates: float32 must deliver >= MIN_SPEEDUP estimates/sec
#: over float64 on >= MIN_FAST_BACKENDS backends, and a shared-memory
#: shard submission must pickle to no more than MAX_SHARED_BYTES.
MIN_SPEEDUP = 2.0
MIN_FAST_BACKENDS = 2
MAX_SHARED_BYTES = 16 * 1024


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


def _precision_rows(geometry: dict, trials: int) -> dict:
    """estimates/sec per (backend, precision) on one trial block; the
    two precisions of a backend are timed in turn, in one run."""
    rows = {}
    for backend in FLOAT32_BACKENDS:
        configs = [
            PipelineConfig(backend=backend, precision=precision, **geometry)
            for precision in ("float64", "float32")
        ]
        signals = _trial_block(configs[0], trials)
        with Engine() as engine:
            for config in configs:
                engine.statistics(signals, config=config)  # warm plan
            seconds = np.median(
                call_seconds(
                    *(
                        partial(engine.statistics, signals, config=config)
                        for config in configs
                    )
                ),
                axis=0,
            ).tolist()
        rows[backend] = {
            config.precision: {
                **_operating_point(config, trials),
                "backend": backend,
                "precision": config.precision,
                "seconds_per_estimate": batch / trials,
                "estimates_per_second": trials / batch,
            }
            for config, batch in zip(configs, seconds)
        }
        float64, float32 = seconds
        rows[backend]["float32"]["speedup_vs_float64"] = float64 / float32
    return rows


def _transport_rows(geometry: dict, trials: int, jobs: int) -> dict:
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
    with all_cpus(), Engine(jobs=jobs) as engine:
        engine.statistics(signals, config=config)  # warm pool + plan
        seconds = median_seconds(
            lambda: engine.statistics(signals, config=config)
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


def _section(geometry: dict, trials: int) -> dict:
    return {
        "precision": _precision_rows(geometry, trials),
        "transport": _transport_rows(geometry, trials, 2),
    }


def emit(smoke: bool, json_path: Path) -> dict:
    dataflow = {"smoke": _section(SMOKE_GEOMETRY, SMOKE_TRIALS)}
    if not smoke:
        dataflow["full"] = full_only(_section(FULL_GEOMETRY, FULL_TRIALS))
    payload = {
        "benchmark": "bench_dataflow",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": CPUS,
        "dataflow": dataflow,
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
    for section, rows in payload["dataflow"].items():
        for backend, row in rows["precision"].items():
            print(
                f"  {section} precision [{backend}]: float64 "
                f"{row['float64']['estimates_per_second']:.1f} est/s vs "
                f"float32 {row['float32']['estimates_per_second']:.1f} "
                f"est/s ({row['float32']['speedup_vs_float64']:.2f}x)"
            )
        pickled = rows["transport"]["pickle"]
        shared = rows["transport"]["shared"]
        print(
            f"  {section} transport [jobs=2]: pickling the rows would ship "
            f"{pickled['pickled_bytes_per_shard']:,} B/shard vs shared "
            f"{shared['pickled_bytes_per_shard']:,} B/shard "
            f"({shared['payload_reduction_vs_pickle']:.0f}x smaller)"
        )

    if args.smoke:
        return 0
    full = payload["dataflow"]["full"]
    speedups = {
        backend: rows["float32"].get("speedup_vs_float64") or 0.0
        for backend, rows in full["precision"].items()
    }
    transport = full["transport"]
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
