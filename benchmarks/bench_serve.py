"""Serving health — latency/throughput of detection-as-a-service.

Not a paper artifact: measures what the :mod:`repro.serve` subsystem
buys and emits the machine-readable ``BENCH_serve.json`` at the repo
root (tracked across PRs and guarded by
``benchmarks/check_perf_regression.py``).

A closed-loop generator drives C concurrent clients (C = 1 / 4 / 16)
submitting detection windows at the paper's K = 256, 127 x 127
operating point; each client awaits its decision and immediately
submits the next, so offered load rises with C.  Three service modes
are measured:

* ``coalesced`` — the full :class:`~repro.serve.SensingService`:
  concurrent requests ride shared engine batches (``max_batch = 32``),
  thresholds are calibrated once per operating point and cached, plans
  come from the process-wide cache;
* ``queued_serial`` — the same service with ``max_batch = 1``:
  requests queue through the scheduler but execute one engine call
  each.  Isolates pure batch coalescing from the service's caching.
  (At K = 256 the per-window Gram is BLAS-bound, so on a single-core
  host this mode tracks ``coalesced`` closely; the batching win grows
  with available cores and shrinking per-window compute — the smoke
  geometry shows it directly.)
* ``naive_serial`` — one-request-at-a-time service with **no shared
  state**: each request is handled in isolation exactly the way the
  offline CLI does it — a fresh ``DetectionPipeline`` with a fresh
  plan and a fresh Monte-Carlo threshold calibration.  This is the
  service a user would write without :mod:`repro.serve`, and what the
  >= 2x throughput gate compares against.

Every served decision is checked bitwise against the offline
:class:`~repro.pipeline.DetectionPipeline` on the same window
(statistic *and* threshold) — the serving layer must never trade
correctness for throughput.

The ladder runs at the smoke geometry on every run (``serve.smoke``)
and, on full runs, at the paper point too (``serve.full``, marked
``full_only`` for the perf guard), so the guard compares CI's
``--smoke`` ladder against a committed baseline.  Each ladder point
runs :data:`LADDER_REPEATS` times and its row holds the median of
every timing; a smoke run serves :data:`SMOKE_REQUESTS` requests, so
each p99 rests on at least 1,000 latencies.

The load ladder calls ``detect_samples``, the engine route.  A
``session_detect`` block times the session route instead, the one
``repro serve`` takes for detect-every-hop streams: open a session,
prefill one window, then repeat a one-hop ingest followed by a timed
``detect`` (``p50_latency_seconds``/``p99_latency_seconds`` over
:data:`SESSION_DETECTS` detects and the mean ``seconds_per_detect``,
detect only; medians over :data:`SESSION_REPEATS` sessions, each on a
fresh service).  It runs at the smoke geometry and at K = 256,
N = 32, hop 64 (the perfbench ``hop-stream`` point) on both
``--smoke`` and full runs, and every decision must take the spectra
route and equal the offline pipeline bit for bit.

A ``cold_start`` row times a fresh interpreter from launch to its first
served decision (``cold_start_seconds``, gated by the perf guard) and
splits it into stages, each a median of five launches: interpreter
start (``interpreter_seconds``), the child's imports, ``repro.serve``
first (``import_seconds``), service start plus the first threshold
calibration (``threshold_seconds``) and the first session
open/ingest/detect (``decision_seconds``), plus the child's peak RSS.
The smoke geometry's row is recorded on full runs too, so the CI smoke
run always has a baseline to compare against.

A ``wire_decode`` block times the server's ingest-payload decode,
:func:`repro.serve.decode_samples`, against the stdlib reference
``base64.b64decode(payload, validate=True)`` in the same run
(``decode_seconds`` per line), at a
64-sample line (below the vector-decode crossover, so both run the
stdlib call) and an 8192-sample line (one paper-point window, decoded
in numpy).  Its ``ingest_line`` rows time a whole ingest line the
way the server takes it, :func:`repro.serve.parse_request` plus the
decode of a payload the parse left as text, against ``json.loads``
plus :func:`~repro.serve.decode_samples` (the ``json_loads`` rows),
at the same two sizes.  Both ``--smoke`` and full runs write the same
rows, and the decoded bits must equal the reference's.  The 8192-sample
line skips the JSON scan of its payload, so the run fails unless its
``ingest_line`` row is at least :data:`INGEST_LINE_MIN_SPEEDUP` times
faster than its ``json_loads`` row: losing the shortcut costs about
1.5-2x, which the perf guard sees against a baseline too, but which
is plain within one run.

Every timing goes through ``benchmarks/_timing.py``: the wire-decode
rows are budget medians, and the ladder, session and cold-start rows,
which keep their own clocks, are scaled to nominal host speed by it.
The run is pinned to one CPU (``cpus`` in the JSON reads 1) and one
BLAS thread.  Regenerate the JSON as CI runs it (the environment is
recorded in the JSON)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_serve.py

``--smoke`` runs only the tiny geometry's ladder (CI's run; the
>= 2x gate applies to full runs only).
"""

import argparse
import asyncio
import base64
import json
import os
import platform
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.engine import Engine, PlanCache, available_cpus
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.serve import (
    SensingService,
    decode_samples,
    encode_samples,
    parse_request,
)
from repro.signals.noise import awgn

from _timing import call_seconds, full_only, nominal, scaled

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: The paper operating point: K = 256 with the default M = 63 pruning,
#: i.e. the 127 x 127 (f, a) grid of Section 4.
FULL_CONFIG = PipelineConfig(fft_size=256, num_blocks=32)
FULL_CLIENTS = (1, 4, 16)
#: Requests per ladder run and mode, split evenly over the clients.
FULL_REQUESTS = {"service": 96, "naive": 32}

#: Tiny --smoke geometry (CI's run; full runs record it too, so the
#: perf guard compares it).  A request takes at most ~2 ms here, so
#: every run serves 1,000 of them and its p99 is their 10th-slowest.
SMOKE_CONFIG = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=8)
SMOKE_CLIENTS = (1, 4)
SMOKE_REQUESTS = {"service": 1000, "naive": 1000}

MAX_BATCH_COALESCED = 32

#: Runs per load-ladder point.  A row's timings are the medians over
#: them, so one scheduling hiccup on a shared host cannot move a
#: sub-millisecond quantile past the perf guard's tolerance (with 5,
#: the smoke p99s were the rows most often outside 0.8-1.25x).
LADDER_REPEATS = 11
#: Row fields that are medians over the repeats (the rest are the
#: operating point, or fault counters summed over the repeats).
_MEDIAN_FIELDS = (
    "seconds_total",
    "seconds_per_request",
    "requests_per_second",
    "offered_load_rps",
    "p50_latency_seconds",
    "p99_latency_seconds",
    "coalescing_factor",
    "batches",
)
_SUMMED_FIELDS = (
    "shed_overload",
    "retried",
    "failed",
    "shed_deadline",
    "degraded_batches",
)

#: Ingest-line sizes of the wire-decode rows: one hop (64 samples, a
#: 1368-character line) and one K = 256, N = 32 window (8192 samples,
#: 174,764 characters).  The same on smoke and full runs.
WIRE_DECODE_SAMPLES = (64, 8192)
WIRE_DECODE_SEED = 7200
#: Least same-run speedup of the server's parse over ``json.loads`` +
#: ``decode_samples`` on the 8192-sample ingest line (about 2x here).
INGEST_LINE_MIN_SPEEDUP = 1.3

#: Session-route rows: the smoke geometry and the perfbench
#: ``hop-stream`` point, the same on smoke and full runs.
SESSION_CONFIGS = (
    SMOKE_CONFIG,
    PipelineConfig(fft_size=256, num_blocks=32, hop=64),
)
#: Sessions per row (medians reported) and timed one-hop ingest +
#: detect rounds per session.
SESSION_REPEATS = 11
SESSION_DETECTS = 1000
SESSION_SEED = 7300

#: Fresh-interpreter launches per cold-start row (medians reported).
COLD_START_REPEATS = 5
COLD_START_SEED = 7100

#: The cold-start child: one served decision, timed stage by stage.
#: It prints one JSON line the moment the decision is made.
_COLD_START_CHILD = """
import time
started = time.perf_counter()
import repro.serve
import asyncio, json, resource, sys
from repro.pipeline import PipelineConfig
from repro.signals.noise import awgn
imported = time.perf_counter()

config = PipelineConfig(**json.loads(sys.argv[1]))


async def run():
    async with repro.serve.SensingService(config) as service:
        await service.threshold()
        calibrated = time.perf_counter()
        session = service.open_session()
        service.ingest(
            session, awgn(config.samples_per_decision, seed=int(sys.argv[2]))
        )
        result = await service.detect(session)
        return calibrated, time.perf_counter(), result


calibrated, decided, result = asyncio.run(run())
# Linux's ru_maxrss survives exec, so it would report the launching
# process's peak; VmHWM is this interpreter's own.
try:
    with open("/proc/self/status") as status:
        peak_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb = peak / 1024 if sys.platform == "darwin" else peak
print(json.dumps({
    "import_seconds": imported - started,
    "threshold_seconds": calibrated - imported,
    "decision_seconds": decided - calibrated,
    "peak_rss_mb": peak_kb / 1024,
    "statistic": result["statistic"],
    "threshold": result["threshold"],
}), flush=True)
"""


def _windows(config: PipelineConfig, clients: int) -> list[np.ndarray]:
    return [
        awgn(config.samples_per_decision, seed=7000 + index)
        for index in range(clients)
    ]


def _offline_reference(
    config: PipelineConfig, windows: list[np.ndarray]
) -> tuple[list[float], float]:
    """Bitwise ground truth: offline pipeline statistics + threshold."""
    pipeline = DetectionPipeline(config)
    pipeline.calibrate()
    return [pipeline.statistic(window) for window in windows], float(
        pipeline.threshold
    )


def _row(
    config: PipelineConfig,
    clients: int,
    mode: str,
    max_batch: int,
    total: int,
    elapsed: float,
    latencies: list[float],
    snapshot: dict | None,
) -> dict:
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "clients": clients,
        "mode": mode,
        "max_batch": max_batch,
        "requests": total,
        "seconds_total": elapsed,
        "seconds_per_request": elapsed / total,
        "requests_per_second": total / elapsed if elapsed > 0 else None,
        "offered_load_rps": total / elapsed if elapsed > 0 else None,
        "p50_latency_seconds": float(np.quantile(latencies, 0.50)),
        "p99_latency_seconds": float(np.quantile(latencies, 0.99)),
        "coalescing_factor": snapshot["coalescing_factor"] if snapshot else 1.0,
        "batches": snapshot["batches"] if snapshot else total,
        "shed_overload": snapshot["shed_overload"] if snapshot else 0,
        # Fault-tolerance counters: all structurally zero in a clean
        # benchmark run (no injection) — non-zero here means the run
        # itself hit real faults and recovered, worth seeing in the
        # artifact trail.
        "retried": snapshot["retried"] if snapshot else 0,
        "failed": snapshot["failed"] if snapshot else 0,
        "shed_deadline": snapshot["shed_deadline"] if snapshot else 0,
        "degraded_batches": snapshot["degraded_batches"] if snapshot else 0,
        "bitwise_equal_to_offline": True,  # asserted by the caller
    }


async def _service_loop(
    config: PipelineConfig,
    clients: int,
    requests_per_client: int,
    max_batch: int,
) -> dict:
    """One load point against the real service (coalesced or queued)."""
    windows = _windows(config, clients)
    latencies: list[float] = []
    results: list[dict | None] = [None] * clients

    service = SensingService(
        config,
        max_queue_depth=max(64, 4 * clients),
        max_batch=max_batch,
    )

    async def client(index: int) -> None:
        window = windows[index]
        for _ in range(requests_per_client):
            started = time.perf_counter()
            results[index] = await service.detect_samples(window)
            latencies.append(time.perf_counter() - started)

    async with service:
        # Warm the plan cache and the threshold cache outside the
        # measured window: every row measures steady-state serving,
        # not the one-off calibration (the naive baseline pays it per
        # request — that is precisely its cost model).
        await service.detect_samples(windows[0])
        started = time.perf_counter()
        await asyncio.gather(*(client(index) for index in range(clients)))
        elapsed = time.perf_counter() - started
        snapshot = service.metrics.snapshot()

    statistics, threshold = _offline_reference(config, windows)
    for offline, result in zip(statistics, results):
        assert result["statistic"] == offline and result["threshold"] == threshold, (
            f"served decision diverged from the offline pipeline: "
            f"{result!r} vs statistic {offline!r}, threshold {threshold!r}"
        )

    total = clients * requests_per_client
    mode = "queued_serial" if max_batch == 1 else "coalesced"
    return _row(
        config, clients, mode, max_batch, total, elapsed, latencies, snapshot
    )


async def _naive_loop(
    config: PipelineConfig, clients: int, requests_per_client: int
) -> dict:
    """One load point against a stateless one-request-at-a-time server.

    Each request is handled in isolation — fresh engine with plan
    caching disabled, fresh pipeline, fresh threshold calibration —
    and the single worker serves strictly sequentially (the
    ``asyncio.Lock`` is the one-at-a-time discipline).
    """
    windows = _windows(config, clients)
    latencies: list[float] = []
    results: list[tuple[float, float] | None] = [None] * clients
    worker = asyncio.Lock()

    def handle(window: np.ndarray) -> tuple[float, float]:
        with Engine(cache=PlanCache(maxsize=0, name="naive-serve")) as engine:
            pipeline = DetectionPipeline(config, engine=engine)
            pipeline.calibrate()
            return pipeline.statistic(window), float(pipeline.threshold)

    async def client(index: int) -> None:
        window = windows[index]
        for _ in range(requests_per_client):
            started = time.perf_counter()
            async with worker:
                results[index] = await asyncio.to_thread(handle, window)
            latencies.append(time.perf_counter() - started)

    started = time.perf_counter()
    await asyncio.gather(*(client(index) for index in range(clients)))
    elapsed = time.perf_counter() - started

    statistics, threshold = _offline_reference(config, windows)
    for offline, result in zip(statistics, results):
        assert result == (offline, threshold), (
            f"naive decision diverged from the offline pipeline: "
            f"{result!r} vs ({offline!r}, {threshold!r})"
        )

    total = clients * requests_per_client
    return _row(
        config, clients, "naive_serial", 1, total, elapsed, latencies, None
    )


def _cold_start_once(config: PipelineConfig) -> dict:
    """Launch one fresh interpreter and time it to its first decision."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    geometry = {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "calibration_trials": config.calibration_trials,
    }
    launched = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable, "-c", _COLD_START_CHILD,
            json.dumps(geometry), str(COLD_START_SEED),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = child.stdout.readline()
    cold_start = time.perf_counter() - launched
    _, errors = child.communicate()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"cold-start child failed:\n{errors}")
    sample = json.loads(line)
    sample["cold_start_seconds"] = cold_start
    sample["interpreter_seconds"] = cold_start - (
        sample["import_seconds"]
        + sample["threshold_seconds"]
        + sample["decision_seconds"]
    )
    return sample


def _cold_start_row(config: PipelineConfig) -> dict:
    """Medians of :data:`COLD_START_REPEATS` fresh-interpreter launches."""
    samples = [
        scaled(*nominal(lambda: _cold_start_once(config)))
        for _ in range(COLD_START_REPEATS)
    ]
    window = awgn(config.samples_per_decision, seed=COLD_START_SEED)
    (statistic,), threshold = _offline_reference(config, [window])
    for sample in samples:
        assert (sample["statistic"], sample["threshold"]) == (
            statistic, threshold
        ), (
            f"cold-start decision diverged from the offline pipeline: "
            f"{sample!r} vs ({statistic!r}, {threshold!r})"
        )
    stages = (
        "cold_start_seconds",
        "interpreter_seconds",
        "import_seconds",
        "threshold_seconds",
        "decision_seconds",
        "peak_rss_mb",
    )
    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "mode": "cold_start",
        "repeats": COLD_START_REPEATS,
        **{
            stage: float(np.median([sample[stage] for sample in samples]))
            for stage in stages
        },
        "bitwise_equal_to_offline": True,  # asserted above
    }


async def _session_latencies(
    config: PipelineConfig, stream: np.ndarray
) -> tuple[list[float], list[dict]]:
    """One session on a fresh service: prefill one window, then a
    one-hop ingest and a timed ``detect`` per remaining hop."""
    window = config.samples_per_decision
    latencies, results = [], []
    async with SensingService(config) as service:
        session = service.open_session()
        service.ingest(session, stream[:window])
        # The threshold calibration and the plan build stay untimed.
        await service.detect(session)
        for start in range(window, len(stream), config.hop):
            service.ingest(session, stream[start : start + config.hop])
            started = time.perf_counter()
            results.append(await service.detect(session))
            latencies.append(time.perf_counter() - started)
    return latencies, results


def _session_detect_row(config: PipelineConfig) -> dict:
    """Per-detect latency of the session route: :data:`SESSION_DETECTS`
    detects on each of :data:`SESSION_REPEATS` sessions fed the same
    stream, each session scaled to nominal host speed on its own."""
    window = config.samples_per_decision
    stream = awgn(window + SESSION_DETECTS * config.hop, seed=SESSION_SEED)
    repeats: list[np.ndarray] = []
    results: list[dict] = []
    for _ in range(SESSION_REPEATS):
        (latencies, session_results), factor = nominal(
            lambda: asyncio.run(_session_latencies(config, stream))
        )
        repeats.append(np.asarray(latencies) * factor)
        results.extend(session_results)

    windows = [
        stream[(index + 1) * config.hop :][:window]
        for index in range(SESSION_DETECTS)
    ]
    statistics, threshold = _offline_reference(config, windows)
    for index, result in enumerate(results):
        offline = statistics[index % SESSION_DETECTS]
        assert result["serve_path"] == "spectra", result
        assert result["statistic"] == offline and result["threshold"] == threshold, (
            f"session decision diverged from the offline pipeline: "
            f"{result!r} vs statistic {offline!r}, threshold {threshold!r}"
        )

    def median(reduce) -> float:
        return float(np.median([reduce(latencies) for latencies in repeats]))

    return {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "m": config.m,
        "hop": config.hop,
        "serve_path": "spectra",
        "requests": SESSION_DETECTS,
        "repeats": SESSION_REPEATS,
        "seconds_per_detect": median(np.mean),
        "p50_latency_seconds": median(lambda xs: np.quantile(xs, 0.50)),
        "p99_latency_seconds": median(lambda xs: np.quantile(xs, 0.99)),
        "bitwise_equal_to_offline": True,  # asserted above
    }


def _session_detect() -> dict:
    return {
        f"fft_size={config.fft_size}": _session_detect_row(config)
        for config in SESSION_CONFIGS
    }


def _reference_decode(payload: str) -> np.ndarray:
    """The stdlib decode :func:`decode_samples` must equal."""
    return np.frombuffer(base64.b64decode(payload, validate=True), "<c16")


def _decode_seconds(functions: dict, argument) -> dict:
    """The budget median of each of *functions* on *argument*, called
    in turn within each round."""
    times = call_seconds(
        *(partial(function, argument) for function in functions.values())
    )
    return dict(zip(functions, np.median(times, axis=0).tolist()))


def _wire_decode_rows(num_samples: int) -> dict:
    """``decode_seconds`` per line for the server decode and the stdlib
    reference on the same payload."""
    payload = encode_samples(awgn(num_samples, seed=WIRE_DECODE_SEED))
    expected = _reference_decode(payload).view(np.uint64)
    decoded = decode_samples(payload)
    assert np.array_equal(decoded.view(np.uint64), expected), (
        f"decode_samples diverged from base64.b64decode at "
        f"{num_samples} samples"
    )
    seconds = _decode_seconds(
        {"decode_samples": decode_samples, "b64decode": _reference_decode},
        payload,
    )
    rows = {
        name: {
            "num_samples": num_samples,
            "payload_chars": len(payload),
            "decoder": name,
            "decode_seconds": value,
        }
        for name, value in seconds.items()
    }
    rows["decode_samples"]["bitwise_equal_to_b64decode"] = True  # asserted
    rows["decode_samples"]["speedup_vs_b64decode"] = (
        rows["b64decode"]["decode_seconds"]
        / rows["decode_samples"]["decode_seconds"]
    )
    return rows


def _served_samples(line: bytes) -> np.ndarray:
    """An ingest line's samples as the server takes them: the parse,
    then the decode of a payload the parse left as text."""
    samples = parse_request(line)["samples"]
    if isinstance(samples, np.ndarray):
        return samples
    return decode_samples(samples)


def _json_loads_samples(line: bytes) -> np.ndarray:
    """The reference: ``json.loads`` the whole line, then decode."""
    return decode_samples(json.loads(line)["samples"])


def _ingest_line_rows(num_samples: int) -> dict:
    """``decode_seconds`` per whole ingest line for the server's parse
    and the ``json.loads`` reference on the same line."""
    samples = awgn(num_samples, seed=WIRE_DECODE_SEED)
    request = {"op": "ingest", "session": "s1"}
    request["samples"] = encode_samples(samples)
    line = json.dumps(request).encode() + b"\n"
    expected = _json_loads_samples(line).view(np.uint64)
    assert np.array_equal(_served_samples(line).view(np.uint64), expected), (
        f"parse_request diverged from json.loads + decode_samples at "
        f"{num_samples} samples"
    )
    seconds = _decode_seconds(
        {"ingest_line": _served_samples, "json_loads": _json_loads_samples},
        line,
    )
    rows = {
        name: {
            "num_samples": num_samples,
            "line_bytes": len(line),
            "parser": name,
            "decode_seconds": value,
        }
        for name, value in seconds.items()
    }
    rows["ingest_line"]["bitwise_equal_to_json_loads"] = True  # asserted
    rows["ingest_line"]["speedup_vs_json_loads"] = (
        rows["json_loads"]["decode_seconds"]
        / rows["ingest_line"]["decode_seconds"]
    )
    return rows


def _wire_decode() -> dict:
    names = ("decode_samples", "b64decode", "ingest_line", "json_loads")
    rows = {name: {} for name in names}
    for num_samples in WIRE_DECODE_SAMPLES:
        label = f"samples={num_samples}"
        for name, row in _wire_decode_rows(num_samples).items():
            rows[name][label] = row
        for name, row in _ingest_line_rows(num_samples).items():
            rows[name][label] = row
    return rows


def _combined(runs: list[dict]) -> dict:
    """One row from a load point's runs: timings are the medians, fault
    counters the sums."""
    row = dict(runs[0])
    for key in _MEDIAN_FIELDS:
        row[key] = float(np.median([run[key] for run in runs]))
    for key in _SUMMED_FIELDS:
        row[key] = sum(run[key] for run in runs)
    row["repeats"] = len(runs)
    return row


def _ladder(config: PipelineConfig, clients_ladder, requests: dict) -> dict:
    """Every load point :data:`LADDER_REPEATS` times at nominal host
    speed.  The repeats go round the whole ladder, so one point's runs
    are spread over it and a slow spell of the host lands in one run of
    several points rather than in every run of one."""
    points = {}
    for clients in clients_ladder:
        label = f"clients={clients}"
        service = -(-requests["service"] // clients)
        naive = -(-requests["naive"] // clients)
        points[("coalesced", label)] = (
            _service_loop, config, clients, service, MAX_BATCH_COALESCED
        )
        points[("queued_serial", label)] = (
            _service_loop, config, clients, service, 1
        )
        points[("naive_serial", label)] = (_naive_loop, config, clients, naive)
    runs = {point: [] for point in points}
    for _ in range(LADDER_REPEATS):
        for point, (measure, *args) in points.items():
            runs[point].append(
                scaled(*nominal(lambda: asyncio.run(measure(*args))))
            )
    rows: dict[str, dict] = {
        "coalesced": {},
        "queued_serial": {},
        "naive_serial": {},
    }
    for (mode, label), point_runs in runs.items():
        rows[mode][label] = _combined(point_runs)
    return rows


def emit(smoke: bool, json_path: Path) -> dict:
    ladders = {"smoke": (SMOKE_CONFIG, SMOKE_CLIENTS, SMOKE_REQUESTS)}
    if not smoke:
        ladders["full"] = (FULL_CONFIG, FULL_CLIENTS, FULL_REQUESTS)
    rows = {section: _ladder(*ladder) for section, ladder in ladders.items()}
    cold_start = {
        f"fft_size={SMOKE_CONFIG.fft_size}": _cold_start_row(SMOKE_CONFIG)
    }
    if not smoke:
        full_only(rows["full"])
        cold_start[f"fft_size={FULL_CONFIG.fft_size}"] = full_only(
            _cold_start_row(FULL_CONFIG)
        )
    session_detect = _session_detect()
    wire_decode = _wire_decode()
    # The headline speedup is the run's own geometry: the paper point
    # on full runs.
    headline = "smoke" if smoke else "full"
    config, clients_ladder, _ = ladders[headline]
    top = f"clients={max(clients_ladder)}"
    coalesced = rows[headline]["coalesced"][top]
    naive = rows[headline]["naive_serial"][top]
    queued = rows[headline]["queued_serial"][top]
    payload = {
        "benchmark": "bench_serve",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": available_cpus(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "serve": {
            **rows,
            "session_detect": session_detect,
            "cold_start": cold_start,
            "wire_decode": wire_decode,
            "coalescing_speedup": {
                "fft_size": config.fft_size,
                "num_blocks": config.num_blocks,
                "m": config.m,
                "clients": max(clients_ladder),
                "throughput_speedup_vs_naive": (
                    coalesced["requests_per_second"]
                    / naive["requests_per_second"]
                ),
                "throughput_speedup_vs_queued": (
                    coalesced["requests_per_second"]
                    / queued["requests_per_second"]
                ),
                "coalescing_factor": coalesced["coalescing_factor"],
            },
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
        help="tiny geometry for CI artifact runs (no speedup gate)",
    )
    parser.add_argument(
        "--json", type=Path, default=BENCH_JSON,
        help=f"output path (default {BENCH_JSON.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    payload = emit(args.smoke, args.json)
    print(f"wrote {args.json} (cpus={payload['cpus']})")
    for section in ("smoke", "full"):
        for mode, mode_rows in payload["serve"].get(section, {}).items():
            for label, row in mode_rows.items():
                print(
                    f"  {section} {mode} [{label}]: "
                    f"p50 {row['p50_latency_seconds'] * 1e3:.1f} ms, "
                    f"p99 {row['p99_latency_seconds'] * 1e3:.1f} ms, "
                    f"{row['requests_per_second']:.1f} req/s "
                    f"(coalescing {row['coalescing_factor']:.2f})"
                )
    for label, row in payload["serve"]["session_detect"].items():
        print(
            f"  session detect [{label}, hop {row['hop']}]: "
            f"p50 {row['p50_latency_seconds'] * 1e3:.3f} ms, "
            f"p99 {row['p99_latency_seconds'] * 1e3:.3f} ms, "
            f"mean {row['seconds_per_detect'] * 1e3:.3f} ms"
        )
    for label, row in payload["serve"]["cold_start"].items():
        print(
            f"  cold start [{label}]: {row['cold_start_seconds']:.3f} s "
            f"(interpreter {row['interpreter_seconds']:.3f}, "
            f"import {row['import_seconds']:.3f}, "
            f"threshold {row['threshold_seconds']:.3f}, "
            f"decision {row['decision_seconds']:.3f}), "
            f"peak RSS {row['peak_rss_mb']:.0f} MB"
        )
    for label, row in payload["serve"]["wire_decode"]["decode_samples"].items():
        reference = payload["serve"]["wire_decode"]["b64decode"][label]
        print(
            f"  wire decode [{label}, {row['payload_chars']} chars]: "
            f"{row['decode_seconds'] * 1e6:.1f} us "
            f"(b64decode {reference['decode_seconds'] * 1e6:.1f} us, "
            f"{row['speedup_vs_b64decode']:.2f}x)"
        )
    for label, row in payload["serve"]["wire_decode"]["ingest_line"].items():
        reference = payload["serve"]["wire_decode"]["json_loads"][label]
        print(
            f"  ingest line [{label}, {row['line_bytes']} bytes]: "
            f"{row['decode_seconds'] * 1e6:.1f} us "
            f"(json.loads + decode_samples "
            f"{reference['decode_seconds'] * 1e6:.1f} us, "
            f"{row['speedup_vs_json_loads']:.2f}x)"
        )
    gate = payload["serve"]["coalescing_speedup"]
    print(
        f"  speedup at clients={gate['clients']}: "
        f"{gate['throughput_speedup_vs_naive']:.1f}x vs naive "
        f"one-at-a-time, "
        f"{gate['throughput_speedup_vs_queued']:.2f}x vs queued-serial"
    )

    dwell = payload["serve"]["wire_decode"]["ingest_line"][
        f"samples={max(WIRE_DECODE_SAMPLES)}"
    ]
    if dwell["speedup_vs_json_loads"] < INGEST_LINE_MIN_SPEEDUP:
        print(
            f"FAIL: the server parses a {dwell['line_bytes']}-byte ingest "
            f"line only {dwell['speedup_vs_json_loads']:.2f}x faster than "
            f"json.loads + decode_samples (< {INGEST_LINE_MIN_SPEEDUP}x): "
            f"its payload no longer skips the JSON scan",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        return 0
    if gate["throughput_speedup_vs_naive"] < 2.0:
        print(
            f"FAIL: coalesced throughput "
            f"{gate['throughput_speedup_vs_naive']:.2f}x < 2.0x vs the "
            f"one-request-at-a-time baseline at clients={gate['clients']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
