"""Perf-regression guard over the committed ``BENCH_*.json`` baselines.

Compares every timing figure (any key in :data:`TIMING_KEYS`) in
freshly-generated benchmark JSON against the committed baselines and
fails when any entry regresses by more than the tolerance factor
(default 2x — wide enough to absorb runner noise, tight enough to
catch a backend accidentally falling off its fast path).

Entries are matched by their JSON path (file, then nested keys).  A
record is only compared when its *operating point* — the geometry
keys listed in :data:`OPERATING_POINT_KEYS` that appear in both
records — is identical; a smoke-geometry run therefore skips the
full-geometry baselines instead of producing an apples-to-oranges
failure.  New and retired entries are reported as informational.

Because the committed baselines come from whatever machine last
regenerated them, absolute ratios conflate machine speed with real
regressions.  The default ``--calibrate median`` mode therefore
normalises every ratio by the median current/baseline ratio across
all compared entries (when at least three are compared): a uniformly
slower CI runner shifts the median and passes, while a single backend
falling off its fast path sticks out and fails.  The raw ratios are
always printed.  ``--calibrate none`` restores absolute comparison.

Memory figures (any key in :data:`MEMORY_KEYS`) are gated at the same
tolerance but always absolutely: bytes do not scale with runner speed,
so the median speed factor never touches them.  A batch path that
starts building whole-batch tensors again fails here.

CI usage (the bench-smoke job)::

    cp BENCH_*.json bench-baseline/         # before regenerating
    python benchmarks/bench_estimators.py --smoke
    ...
    python benchmarks/check_perf_regression.py \
        --baseline bench-baseline --current . --tolerance 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Geometry keys that must match for a timing comparison to be valid.
#: ``jobs`` and ``backend`` key the engine benchmark's sharding ladder
#: and plan-cache rows (BENCH_engine.json) so a jobs=2 smoke run never
#: compares against a jobs=4 baseline.
OPERATING_POINT_KEYS = (
    "fft_size",
    "num_blocks",
    "m",
    "tiles",
    "num_channels",
    "num_samples",
    "trials",
    "averaging_length",
    "dscf_grid",
    "jobs",
    "backend",
    "precision",
    "transport",
    "clients",
    "mode",
    "max_batch",
    "requests",
    # BENCH_streaming.json rows: the detect-every-hop ladder keys each
    # geometry by its hop stride and detection statistic (coherence vs
    # raw peak-|S|), and each timing by its detection route (spectra
    # fast path vs sample-domain engine path) — an engine-path figure
    # must never gate a spectra-path one.
    "hop",
    "normalize",
    "serve_path",
    # BENCH_calibration.json rows: a monte-carlo setup figure must
    # never gate an analytic one, and the threshold setup cost scales
    # with the target pfa's trial demand, so both key the operating
    # point.
    "calibration",
    "pfa",
)

#: Recognised timing fields (seconds; lower is better).  The per-sweep
#: keys come from BENCH_engine.json's plan-cache rows: a regression in
#: ``warm_seconds_per_sweep`` means plans stopped being cache hits, one
#: in ``cold_seconds_per_sweep`` that plan building itself slowed down.
#: The serve keys come from BENCH_serve.json's load-ladder rows:
#: ``seconds_per_request`` is inverse served throughput, the latency
#: quantiles catch the service getting slower without the throughput
#: moving (e.g. a scheduler stall lengthening the queue).
TIMING_KEYS = (
    "seconds_per_estimate",
    "interpreted_seconds_per_estimate",
    "compiled_seconds_per_estimate",
    "cold_seconds_per_sweep",
    "warm_seconds_per_sweep",
    "seconds_per_request",
    "p50_latency_seconds",
    "p99_latency_seconds",
    # BENCH_calibration.json: wall-clock to produce one detection
    # threshold under the row's calibration policy.
    "calibration_seconds",
    # BENCH_streaming.json: wall-clock per detect-every-hop decision on
    # the row's serve path (window extraction + statistic).
    "seconds_per_detect",
    # BENCH_serve.json cold-start rows: a fresh interpreter's launch to
    # its first served decision (imports, calibration, first detect).
    "cold_start_seconds",
    # BENCH_estimators.json batch-vs-loop rows: the batch plan's
    # Monte-Carlo time per trial.
    "batch_seconds_per_trial",
    # BENCH_serve.json wire-decode rows: one ingest line's base64 decode,
    # for the server's decoder and for the stdlib reference beside it.
    "decode_seconds",
)

#: Recognised memory fields (bytes; lower is better), compared without
#: the speed normalisation.  ``peak_bytes`` is the tracemalloc peak of
#: BENCH_engine.json's large-trial calibration row.
MEMORY_KEYS = ("peak_bytes",)

#: Fault-tolerance counters (BENCH_serve.json load-ladder rows).  Not
#: timings and never gated: a clean benchmark run records zeros, so a
#: non-zero value is surfaced as an informational note — the run
#: absorbed real faults (retries, sheds, degraded batches), which can
#: distort the timing figures it sits next to.
COUNTER_KEYS = ("retried", "failed", "shed_deadline", "degraded_batches")


def collect_timings(node, path=()):
    """Yield ``(path, record)`` for every dict carrying a timing or a
    memory figure."""
    if isinstance(node, dict):
        if any(key in node for key in TIMING_KEYS + MEMORY_KEYS):
            yield path, node
        for key, value in node.items():
            yield from collect_timings(value, path + (str(key),))


def operating_points_match(baseline: dict, current: dict) -> bool:
    """True when every shared geometry key is identical."""
    return all(
        baseline[key] == current[key]
        for key in OPERATING_POINT_KEYS
        if key in baseline and key in current
    )


def gather_comparisons(name: str, baseline: dict, current: dict):
    """Pair up timings of one benchmark JSON file.

    Returns ``(comparisons, notes)``: comparisons are
    ``(label, baseline, current, is_memory)`` rows ready for the
    tolerance check (seconds, or bytes when *is_memory*), notes are
    informational strings (new entries, retired entries,
    operating-point changes).
    """
    baseline_entries = dict(collect_timings(baseline))
    current_entries = dict(collect_timings(current))
    comparisons, notes = [], []
    for path, record in current_entries.items():
        prefix = f"{name}:{'.'.join(path)}"
        for key in COUNTER_KEYS:
            value = record.get(key)
            if isinstance(value, (int, float)) and value:
                notes.append(
                    f"{prefix}.{key}: non-zero fault-tolerance counter "
                    f"({value}) in current run - timings nearby may be "
                    f"recovery-skewed"
                )
        reference = baseline_entries.get(path)
        if reference is None:
            notes.append(f"{prefix}: new entry (no baseline)")
            continue
        if not operating_points_match(reference, record):
            notes.append(f"{prefix}: operating point changed - skipped")
            continue
        for key in TIMING_KEYS + MEMORY_KEYS:
            if key not in record and key not in reference:
                continue
            label = prefix if key == TIMING_KEYS[0] else f"{prefix}.{key}"
            if key not in record:
                # A baseline timing the fresh run no longer emits (e.g.
                # a benchmark dropped a field): note it, don't crash.
                notes.append(
                    f"{label}: baseline key absent from current run - skipped"
                )
                continue
            if key not in reference:
                notes.append(f"{label}: new timing key (no baseline)")
                continue
            base_seconds = reference[key]
            now_seconds = record[key]
            if not isinstance(base_seconds, (int, float)) or base_seconds <= 0:
                notes.append(f"{label}: unusable baseline - skipped")
                continue
            if not isinstance(now_seconds, (int, float)) or now_seconds <= 0:
                notes.append(f"{label}: unusable current value - skipped")
                continue
            comparisons.append(
                (
                    label,
                    float(base_seconds),
                    float(now_seconds),
                    key in MEMORY_KEYS,
                )
            )
    for path in baseline_entries:
        if path not in current_entries:
            notes.append(
                f"{name}:{'.'.join(path)}: retired entry (in baseline, "
                "absent from current run)"
            )
    return comparisons, notes


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current", type=Path, default=Path("."),
        help="directory holding the freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=2.0,
        help="maximum allowed current/baseline slowdown factor (default 2.0)",
    )
    parser.add_argument(
        "--calibrate", choices=("median", "none"), default="median",
        help="normalise ratios by the median across entries to cancel "
        "machine-speed differences (default median)",
    )
    args = parser.parse_args(argv)

    baseline_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no BENCH_*.json baselines under {args.baseline}", file=sys.stderr)
        return 2

    comparisons, notes = [], []
    baseline_names = {path.name for path in baseline_files}
    # Fresh BENCH files with no committed baseline (a newly added
    # benchmark) are informational, never a failure.
    for current_path in sorted(args.current.glob("BENCH_*.json")):
        if current_path.name not in baseline_names:
            notes.append(
                f"{current_path.name}: new benchmark file (no baseline) "
                "- skipped"
            )
    for baseline_path in baseline_files:
        current_path = args.current / baseline_path.name
        if not current_path.exists():
            notes.append(f"{baseline_path.name}: no current run - skipped")
            continue
        file_comparisons, file_notes = gather_comparisons(
            baseline_path.name,
            json.loads(baseline_path.read_text()),
            json.loads(current_path.read_text()),
        )
        comparisons.extend(file_comparisons)
        notes.extend(file_notes)

    calibration = 1.0
    timings = [row for row in comparisons if not row[3]]
    if args.calibrate == "median" and len(timings) >= 3:
        calibration = max(
            _median([now / base for _label, base, now, _ in timings]), 1e-12
        )
        print(
            f"machine-speed calibration factor (median current/baseline): "
            f"{calibration:.2f}x"
        )

    failures = []
    for label, base, now, is_memory in comparisons:
        ratio = now / base
        # Bytes are machine-independent: never speed-normalised.
        normalised = ratio if is_memory else ratio / calibration
        verdict = f"{ratio:.2f}x"
        if args.calibrate == "median" and not is_memory:
            verdict += f" (norm {normalised:.2f}x)"
        if normalised > args.tolerance:
            verdict += f"  REGRESSION (> {args.tolerance:.1f}x)"
            failures.append(label)
        scale, unit = (2.0**-20, "MiB") if is_memory else (1e3, "ms")
        print(
            f"  {label:<70s} {base * scale:10.3f} {unit} -> "
            f"{now * scale:10.3f} {unit}  {verdict}"
        )
    for note in notes:
        print(f"  [info] {note}")

    if failures:
        print(
            f"\n{len(failures)} figure(s) regressed beyond "
            f"{args.tolerance:.1f}x: " + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("\nno perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
