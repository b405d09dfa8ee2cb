"""Harness health — interpreted vs trace-compiled SoC execution.

Not a paper artifact: measures the host-side cost of the cycle-level
tiled-SoC substrate in its two execution modes — the instruction-level
interpreter and the trace-compiled vectorised replay
(:mod:`repro.montium.compiler`) — and emits the machine-readable
``BENCH_soc_compiled.json`` at the repo root.  The headline row is the
paper's operating point (K = 256, 127 x 127, Q = 4), where the
acceptance bar is a >= 10x reduction in seconds-per-estimate with the
compiled results **bitwise equal** to the interpreter's.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_soc_compiled.py --benchmark-only -s

or regenerate just the JSON without pytest::

    PYTHONPATH=src python benchmarks/bench_soc_compiled.py

``--smoke`` measures only the tiny operating point (fast CI artifact
run; the 10x gate at the paper point is skipped).
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.montium.compiler import clear_trace_cache, compile_platform
from repro.engine import Engine
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.signals.noise import awgn
from repro.soc import PlatformConfig, SoCRunner, aaf_drbpf

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_soc_compiled.json"

#: Tiny operating point: cheap enough for the interpreter anywhere.
TINY = PlatformConfig(num_tiles=2, fft_size=16, m=3)
TINY_BLOCKS = 4
#: The paper's operating point (K = 256, M = 63, Q = 4).
PAPER_BLOCKS = 4

#: Batched Monte-Carlo comparison geometry (interpreted loop must stay
#: affordable, so it runs small).
BATCH_CONFIG_KWARGS = dict(
    fft_size=16, num_blocks=4, m=3, backend="soc", soc_tiles=2
)
BATCH_TRIALS = 12


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _mode_row(platform_config: PlatformConfig, num_blocks: int, repeats: int) -> dict:
    """Interpreted vs compiled seconds-per-estimate at one point."""
    samples = awgn(platform_config.fft_size * num_blocks, seed=73)
    interpreted_runner = SoCRunner(platform_config)
    # Cold-compile timing: clear the cache so this compile both gets
    # measured and seeds the cache the compiled runner reuses.
    clear_trace_cache()
    compiled_started = time.perf_counter()
    trace = compile_platform(platform_config)
    compile_seconds = time.perf_counter() - compiled_started
    compiled_runner = SoCRunner(platform_config, compiled=True)

    interpreted_result = interpreted_runner.run(samples, num_blocks)  # warm-up
    compiled_result = compiled_runner.run(samples, num_blocks)
    bitwise_equal = bool(
        np.array_equal(
            interpreted_result.dscf.values, compiled_result.dscf.values
        )
    ) and interpreted_result.cycle_tables == compiled_result.cycle_tables

    interpreted_seconds = _median_seconds(
        lambda: interpreted_runner.run(samples, num_blocks), repeats=repeats
    )
    compiled_seconds = _median_seconds(
        lambda: compiled_runner.run(samples, num_blocks), repeats=max(repeats, 5)
    )
    return {
        "fft_size": platform_config.fft_size,
        "m": platform_config.m,
        "tiles": platform_config.num_tiles,
        "num_blocks": num_blocks,
        "dscf_grid": f"{platform_config.extent}x{platform_config.extent}",
        "interpreted_seconds_per_estimate": interpreted_seconds,
        "compiled_seconds_per_estimate": compiled_seconds,
        "compile_seconds_one_off": compile_seconds,
        "trace_probe_blocks": trace.num_blocks_compiled,
        "speedup": interpreted_seconds / compiled_seconds,
        "bitwise_equal": bitwise_equal,
    }


def _batched_monte_carlo() -> dict:
    """Compiled batched soc trials vs the interpreted per-trial loop."""
    interpreted_config = PipelineConfig(**BATCH_CONFIG_KWARGS)
    compiled_config = PipelineConfig(**BATCH_CONFIG_KWARGS, soc_compiled=True)
    signals = np.stack(
        [
            awgn(interpreted_config.samples_per_decision, seed=74 + trial)
            for trial in range(BATCH_TRIALS)
        ]
    )
    interpreted_pipeline = DetectionPipeline(interpreted_config)
    plan = Engine().plan(compiled_config)
    plan.statistics(signals[:2])  # warm-up (compiles + caches the trace)
    interpreted_pipeline.statistic(signals[0])

    loop_seconds = _median_seconds(
        lambda: [interpreted_pipeline.statistic(signal) for signal in signals],
        repeats=3,
    )
    batch_seconds = _median_seconds(
        lambda: plan.statistics(signals), repeats=5
    )
    batch_statistics = plan.statistics(signals)
    loop_statistics = np.array(
        [interpreted_pipeline.statistic(signal) for signal in signals]
    )
    return {
        "fft_size": interpreted_config.fft_size,
        "num_blocks": interpreted_config.num_blocks,
        "m": interpreted_config.m,
        "trials": BATCH_TRIALS,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "batch_bitwise_equals_interpreted_loop": bool(
            (batch_statistics == loop_statistics).all()
        ),
    }


def collect_metrics(smoke: bool = False) -> dict:
    rows = {"tiny": _mode_row(TINY, TINY_BLOCKS, repeats=3)}
    if not smoke:
        rows["paper"] = _mode_row(aaf_drbpf(), PAPER_BLOCKS, repeats=3)
    return {
        "benchmark": "bench_soc_compiled",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "operating_points": rows,
        "batched_monte_carlo": _batched_monte_carlo(),
    }


def emit_benchmark_json(path: Path = BENCH_JSON, smoke: bool = False) -> dict:
    metrics = collect_metrics(smoke=smoke)
    path.write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def test_emit_benchmark_json():
    """Write BENCH_soc_compiled.json and gate the compiled speedup.

    The acceptance bar is >= 10x at the paper's K = 256, 127 x 127,
    Q = 4 operating point, with bitwise interpreter parity; the actual
    measured figure (hundreds of x) is recorded in the JSON.
    """
    metrics = emit_benchmark_json()
    paper = metrics["operating_points"]["paper"]
    print(
        f"\nsoc interpreted vs compiled at K=256, {paper['dscf_grid']}, "
        f"N={paper['num_blocks']}: {paper['speedup']:.0f}x "
        f"(interpreted {paper['interpreted_seconds_per_estimate']:.2f} s, "
        f"compiled {paper['compiled_seconds_per_estimate'] * 1e3:.1f} ms, "
        f"one-off compile {paper['compile_seconds_one_off']:.2f} s)"
    )
    assert paper["bitwise_equal"]
    assert metrics["operating_points"]["tiny"]["bitwise_equal"]
    assert metrics["batched_monte_carlo"]["batch_bitwise_equals_interpreted_loop"]
    assert paper["speedup"] >= 10.0, (
        "trace-compiled soc engine lost its speedup: "
        f"{paper['speedup']:.1f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="measure only the tiny operating point (fast CI artifact "
        "run; no 10x gate)",
    )
    args = parser.parse_args(argv)
    metrics = emit_benchmark_json(smoke=args.smoke)
    print(json.dumps(metrics, indent=2))
    if args.smoke:
        tiny = metrics["operating_points"]["tiny"]
        print(
            f"\ncompiled speedup: {tiny['speedup']:.1f}x "
            "(tiny smoke geometry, not gated)"
        )
        return 0
    paper = metrics["operating_points"]["paper"]
    meets_bar = paper["speedup"] >= 10.0 and paper["bitwise_equal"]
    print(
        f"\ncompiled speedup at the paper operating point: "
        f"{paper['speedup']:.0f}x, bitwise_equal={paper['bitwise_equal']} "
        f"({'meets' if meets_bar else 'BELOW'} the 10x bitwise bar)"
    )
    return 0 if meets_bar else 1


if __name__ == "__main__":
    sys.exit(main())
