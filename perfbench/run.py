"""The repository's benchmark: over-the-wire sensing at the paper point.

Run from the repository root::

    python3 perfbench/run.py --workload hop-stream --seed 1 --seconds 30 --trace 0

Workloads (K=256, M=63 -- the 127x127 grid -- vectorized float64):

``hop-stream``    detect-every-hop streaming over loopback TCP (N=32, hop 64)
``dwell-window``  one fresh 8192-sample window per decision over TCP (N=32)
``pd-sweep``      the golden Pd operating point, in-process (N=8)

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ones.  Every run checks every answer it times against the
offline engine (serve workloads) or the golden fixture (``pd-sweep``);
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` beside
this file for what each workload stresses and what stays unmeasured.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the generator and the server
# child share one CPU, and the in-process sweep is timed the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import Meter  # noqa: E402


WORKLOADS = ("hop-stream", "dwell-window", "pd-sweep")
#: Seconds of in-process sweeping between two host-speed readings.
SLICE_S = 1.0
SETUP_REPEATS = 5
SWEEP_SETUP_REPEATS = 15
REPLAY_DECISIONS = {"hop-stream": 256, "dwell-window": 64}
PLAN_STAGES = (
    "plans.block_spectra_us",
    "plans.gram_us",
    "plans.normalise_us",
    "plans.peak_us",
)


def _median(values) -> float:
    return float(statistics.median(values))


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


@dataclass
class Stretch:
    """A slice of in-process sweeping: its rate and batch latencies."""

    rate: float  # trials per second
    latencies_ms: list  # one per Monte-Carlo batch
    speed: float  # mean host speed of the readings before and after it
    traced: bool


def slice_rates(slices: list, traced: bool = False) -> list:
    """Each slice's rate at nominal host speed."""
    return [
        piece.rate / piece.speed for piece in slices if piece.traced == traced
    ]


def sliced_metrics(slices: list) -> dict:
    """Throughput and latency of the untraced slices, at nominal speed.

    Each figure is taken per slice and scaled by the slice's host speed,
    and the median over slices is reported: a second in which the host
    stalled the CPU moves one slice, not the figure.
    """
    untraced = [piece for piece in slices if not piece.traced]
    return {
        "decisions_per_s": _median(slice_rates(untraced)),
        "decision_p50_ms": _median(
            [_quantile(p.latencies_ms, 0.50) * p.speed for p in untraced]
        ),
        "decision_p99_ms": _median(
            [_quantile(p.latencies_ms, 0.99) * p.speed for p in untraced]
        ),
    }


def overhead(untraced: list, traced: list) -> float:
    """Throughput lost to tracing: 1 - traced / untraced (medians)."""
    if not untraced or not traced:
        return 0.0
    return 1.0 - _median(traced) / _median(untraced)


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def serve_oracle(inputs, decisions: list) -> int:
    """Mismatches of served decisions against the offline engine.

    Every successful decision is checked: its statistic bitwise against
    ``Engine.statistics`` on the window it scored, its threshold
    bitwise against ``Engine.calibrate_threshold``, and the decision
    flag against the two.
    """
    from repro.engine import Engine, PlanCache

    config = inputs.config
    engine = Engine(jobs=1, cache=PlanCache())
    threshold = engine.calibrate_threshold(config)
    named: dict = {}
    for decision in decisions:
        if decision.ok:
            where = (decision.session, decision.reply["blocks"], decision.index)
            named.setdefault(inputs.window_key(*where), where)
    keys = list(named)
    expected = {}
    for start in range(0, len(keys), 64):
        chunk = keys[start : start + 64]
        windows = np.stack([inputs.window(*named[key]) for key in chunk])
        expected.update(
            zip(chunk, engine.statistics(windows, config=config).tolist())
        )
    mismatches = 0
    for decision in decisions:
        if not decision.ok:
            continue
        reply = decision.reply
        key = inputs.window_key(decision.session, reply["blocks"], decision.index)
        statistic = expected[key]
        if (
            reply["statistic"] != statistic
            or reply["threshold"] != threshold
            or reply["detected"] != (statistic > threshold)
        ):
            mismatches += 1
    return mismatches


def server_shed(stats: dict) -> int:
    return stats["shed_overload"] + stats["shed_deadline"] + stats["shed_circuit"]


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import serve_inputs
    from loadgen import pin_cpu, probe_setup, run_load

    server_cpu = pin_cpu()
    inputs = serve_inputs(workload, seed)
    checked: list = []
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            elapsed, decision = asyncio.run(
                probe_setup(workload, inputs, server_cpu)
            )
            setups.append(elapsed)
            checked.append(decision)
    load = asyncio.run(run_load(workload, inputs, seconds, server_cpu, trace))
    checked += load.warmup + load.decisions
    mismatches = serve_oracle(inputs, checked)
    failed = sum(not d.ok for d in load.decisions)
    stats = load.stats
    slices = load.slices
    latencies = [
        (d.finished - d.started) * 1e3 for d in load.decisions if d.ok
    ] or [0.0]
    print(
        json.dumps(
            {
                "failed_frac": failed / max(1, len(load.decisions)),
                "server_failed": stats["failed"],
                "server_shed": server_shed(stats),
                "server_retried": stats["retried"],
                "mismatches": mismatches,
                "host_speed": _median([p.speed for p in slices]),
                "unscaled_decisions_per_s": _median([p.rate for p in slices]),
                "unscaled_decision_p50_ms": _quantile(latencies, 0.50),
                "unscaled_decision_p99_ms": _quantile(latencies, 0.99),
                "stats": stats,
            }
        )
    )
    result = {
        "correct": mismatches == 0 and failed == 0,
        "attempted": len(load.decisions),
        "failed": failed,
    }
    if trace:
        result["metrics"] = serve_trace_metrics(workload, inputs, load)
        return result
    result["metrics"] = {
        "setup_s": _median(setups),
        **sliced_metrics(slices),
        "rss_mb": load.final["maxrss_kb"] / 1024,
    }
    return result


def serve_trace_metrics(workload, inputs, load) -> dict:
    from layers import serve_layers

    stats = load.stats
    spans = load.final["spans"]
    decisions = max(1, len(load.decisions))
    layers = serve_layers(inputs, REPLAY_DECISIONS[workload])
    cpu_ms = load.cpu_s * 1e3 / decisions
    accounted = (
        layers["server.decode_ms"]
        + layers["server.reply_encode_ms"]
        + layers["session.ingest_ms"]
        + layers["session.window_spectra_ms"]
        + layers["engine.spectra_statistics_ms"]
    )
    latency = stats["latency"]
    detect, engine = spans["service.detect"], spans["engine.spectra_statistics"]
    return {
        "client.request_bytes": load.request_bytes / decisions,
        **layers,
        "service.detect_p50_ms": latency["p50_latency_seconds"] * 1e3,
        "service.detect_p99_ms": latency["p99_latency_seconds"] * 1e3,
        "service.detect_wait_ms": detect["median_ms"] - engine["median_ms"],
        "service.ingest_insitu_ms": spans["service.ingest"]["median_ms"],
        "service.detect_calls": detect["calls"],
        "service.ingest_calls": spans["service.ingest"]["calls"],
        "engine.calls": engine["calls"],
        "engine.spectra_statistics_insitu_ms": engine["median_ms"],
        "scheduler.coalescing_factor": stats["coalescing_factor"],
        "scheduler.batches": stats["batches"],
        "service.served_spectra_frac": stats["served_spectra"]
        / max(1, stats["served"]),
        "service.failed": stats["failed"],
        "service.shed": server_shed(stats),
        "service.retried": stats["retried"],
        "cache.hit_rate": stats["plan_cache"]["hit_rate"],
        "repro.cpu_ms": cpu_ms,
        "unaccounted_ms": cpu_ms - accounted,
        "trace.overhead_frac": overhead(
            slice_rates(load.slices), slice_rates(load.slices, traced=True)
        ),
    }


# ----------------------------------------------------------------------
# pd-sweep
# ----------------------------------------------------------------------
def sweep_setup(inputs, meter: Meter) -> float:
    """Plan build plus calibration on a fresh plan cache, in seconds at
    nominal host speed."""
    from repro.engine import Engine, PlanCache

    engine = Engine(jobs=1, cache=PlanCache())
    speed = meter.speed()
    started = time.perf_counter()
    engine.plan(inputs.config)
    engine.calibrate_threshold(
        inputs.config, noise_factory=lambda trial: inputs.noise[trial]
    )
    elapsed = time.perf_counter() - started
    return elapsed * (speed + meter.speed()) / 2


def sweep_loop(engine, inputs, seconds: float, trace: bool) -> dict:
    """Repeat whole sweeps for *seconds*; check each against the fixture.

    Sweeps are grouped into slices of about ``SLICE_S`` seconds with a
    host-speed reading between two slices, as on the serve workloads.
    With *trace*, every odd slice records a span per engine call, so
    traced and untraced slices interleave within the one run.
    """
    config = inputs.config
    fixture = inputs.fixture
    golden = {entry["snr_db"]: entry["pd"] for entry in fixture["points"]}
    trials_per_sweep = len(inputs.noise) + sum(len(b) for b in inputs.h1.values())
    slices, spans, mismatches, sweeps = [], [], 0, 0
    cpu_s = 0.0
    meter = Meter("pd-sweep")
    speed = meter.speed()
    phase_end = time.perf_counter() + seconds
    while True:
        traced = trace and len(slices) % 2 == 1
        started = time.perf_counter()
        slice_end = min(started + SLICE_S, phase_end)
        batch_ms, trials = [], 0
        cpu_before = time.process_time()
        while not trials or time.perf_counter() < slice_end:
            sweep_start = time.perf_counter()
            threshold = engine.calibrate_threshold(
                config, noise_factory=lambda trial: inputs.noise[trial]
            )
            if traced:
                spans.append(time.perf_counter() - sweep_start)
            mismatches += threshold != fixture["threshold"]
            for snr_db in inputs.snr_order:
                batch = inputs.h1[snr_db]
                batch_start = time.perf_counter()
                statistic = engine.monte_carlo_statistics(
                    lambda trial: batch[trial], len(batch), config=config
                )
                batch_ms.append((time.perf_counter() - batch_start) * 1e3)
                if traced:
                    spans.append(batch_ms[-1] / 1e3)
                mismatches += float(np.mean(statistic > threshold)) != golden[snr_db]
            trials += trials_per_sweep
            sweeps += 1
        elapsed = time.perf_counter() - started
        cpu_s += time.process_time() - cpu_before
        after = meter.speed()
        slices.append(
            Stretch(trials / elapsed, batch_ms, (speed + after) / 2, traced)
        )
        speed = after
        if time.perf_counter() >= phase_end - SLICE_S / 4:
            break
    return {
        "trials": sweeps * trials_per_sweep,
        "slices": slices,
        "engine_calls": len(spans),
        "mismatches": mismatches,
        "cpu_s": cpu_s,
    }


def run_sweep(seed: int, seconds: float, trace: bool) -> dict:
    from inputs import sweep_inputs
    from loadgen import pin_cpu
    from repro.engine import Engine, PlanCache

    pin_cpu()
    inputs = sweep_inputs(seed)
    engine = Engine(jobs=1, cache=PlanCache())
    meter = Meter("pd-sweep")
    setups = [sweep_setup(inputs, meter) for _ in range(SWEEP_SETUP_REPEATS)]
    phase = sweep_loop(engine, inputs, seconds, trace)
    print(json.dumps({"mismatches": phase["mismatches"]}))
    result = {
        "correct": phase["mismatches"] == 0,
        "attempted": phase["trials"],
        "failed": 0,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": _median(setups),
            **sliced_metrics(phase["slices"]),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    from layers import sweep_layers

    layers = sweep_layers(inputs, repeats=20)
    cpu_ms = phase["cpu_s"] * 1e3 / max(1, phase["trials"])
    metrics = {name: 0.0 for name in SERVE_ONLY_LAYER_METRICS}
    metrics.update(
        {
            **layers,
            "engine.calls": phase["engine_calls"],
            "cache.hit_rate": engine.cache.stats.hit_rate,
            "repro.cpu_ms": cpu_ms,
            "unaccounted_ms": cpu_ms - sum(layers[k] for k in PLAN_STAGES) / 1e3,
            "trace.overhead_frac": overhead(
                slice_rates(phase["slices"]),
                slice_rates(phase["slices"], traced=True),
            ),
        }
    )
    result["metrics"] = metrics
    return result


#: Layers pd-sweep never enters (no wire, server, session or service):
#: reported as zero time and zero calls on that workload.
SERVE_ONLY_LAYER_METRICS = (
    "client.request_bytes",
    "client.encode_ms",
    "server.decode_ms",
    "server.reply_encode_ms",
    "session.ingest_ms",
    "session.window_spectra_ms",
    "service.detect_p50_ms",
    "service.detect_p99_ms",
    "service.detect_wait_ms",
    "service.ingest_insitu_ms",
    "service.detect_calls",
    "service.ingest_calls",
    "engine.spectra_statistics_insitu_ms",
    "scheduler.coalescing_factor",
    "scheduler.batches",
    "service.served_spectra_frac",
    "service.failed",
    "service.shed",
    "service.retried",
)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = HERE.parent / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(
            f"perfbench: no repro package at {source}; run from the root "
            f"of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    if args.workload == "pd-sweep":
        result = run_sweep(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_serve(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(result["metrics"]) != set(units):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(units))}"
        )
    result["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
