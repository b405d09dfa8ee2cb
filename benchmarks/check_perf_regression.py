"""Perf-regression guard over the committed ``BENCH_*.json`` baselines.

Compares every timing figure (any key in :data:`TIMING_KEYS`) in
freshly-generated benchmark JSON against the committed baselines and
fails when any entry regresses by more than the tolerance factor
(default 2x).  Every benchmark row is timed by
``benchmarks/_timing.py``: a budget median on one pinned CPU and one
BLAS thread, scaled to nominal host speed by a reference kernel timed
between slices of its calls.  On unchanged code most rows then read
within 0.8-1.25x of their baselines, but in 5 of 8 smoke sets 1-13 of
the 73 CI rows still fell outside that band (up to 1.47x), so the
tolerance stays at 2x until two back-to-back smoke sets keep every row
inside it.

Entries are matched by their JSON path (file, then nested keys), and a
record is only compared when its *operating point* - the geometry keys
listed in :data:`OPERATING_POINT_KEYS` that appear in both records -
is identical.  Every row must be compared: a new entry, a retired
entry, a changed operating point or an unusable value fails the guard,
unless the baseline row carries ``"full_only": true`` (a geometry only
full runs write, absent from CI's ``--smoke`` run).  Full runs of the
bench scripts record their ``--smoke`` geometries too, so the smoke
run has a baseline for every row it writes.

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

    Returns ``(comparisons, notes, uncompared)``: comparisons are
    ``(label, baseline, current, is_memory)`` rows ready for the
    tolerance check (seconds, or bytes when *is_memory*), notes are
    informational strings (fault counters, full-only rows a run left
    out), and uncompared are the figures neither side can be compared
    on: a new entry or timing key, a retired one, a changed operating
    point or an unusable value.  Each of those fails the guard unless
    the baseline row is marked ``"full_only": true``.
    """
    baseline_entries = dict(collect_timings(baseline))
    current_entries = dict(collect_timings(current))
    comparisons, notes, uncompared = [], [], []

    def not_compared(label: str, reason: str, reference: dict | None) -> None:
        if reference is not None and reference.get("full_only"):
            notes.append(f"{label}: full-only row, {reason}")
        else:
            uncompared.append(f"{label}: {reason}")

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
            not_compared(prefix, "new entry (no baseline)", None)
            continue
        if not operating_points_match(reference, record):
            not_compared(prefix, "operating point changed", reference)
            continue
        for key in TIMING_KEYS + MEMORY_KEYS:
            if key not in record and key not in reference:
                continue
            label = prefix if key == TIMING_KEYS[0] else f"{prefix}.{key}"
            if key not in record:
                not_compared(
                    label, "baseline key absent from current run", reference
                )
                continue
            if key not in reference:
                not_compared(label, "new timing key (no baseline)", reference)
                continue
            base_seconds = reference[key]
            now_seconds = record[key]
            if not isinstance(base_seconds, (int, float)) or base_seconds <= 0:
                not_compared(label, "unusable baseline", reference)
                continue
            if not isinstance(now_seconds, (int, float)) or now_seconds <= 0:
                not_compared(label, "unusable current value", reference)
                continue
            comparisons.append(
                (
                    label,
                    float(base_seconds),
                    float(now_seconds),
                    key in MEMORY_KEYS,
                )
            )
    for path, reference in baseline_entries.items():
        if path not in current_entries:
            not_compared(
                f"{name}:{'.'.join(path)}",
                "retired entry (in baseline, absent from current run)",
                reference,
            )
    return comparisons, notes, uncompared


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

    comparisons, notes, uncompared = [], [], []
    # A file on one side only is compared against an empty record, so
    # each of its rows fails as new or retired (bar full-only rows).
    current_files = sorted(args.current.glob("BENCH_*.json"))
    names = sorted({path.name for path in baseline_files + current_files})
    for name in names:
        records = [
            json.loads(path.read_text()) if path.exists() else {}
            for path in (args.baseline / name, args.current / name)
        ]
        file_comparisons, file_notes, file_uncompared = gather_comparisons(
            name, *records
        )
        comparisons.extend(file_comparisons)
        notes.extend(file_notes)
        uncompared.extend(file_uncompared)

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
    for item in uncompared:
        print(f"  UNCOMPARED {item}")

    if failures:
        print(
            f"\n{len(failures)} figure(s) regressed beyond "
            f"{args.tolerance:.1f}x: " + ", ".join(failures),
            file=sys.stderr,
        )
    if uncompared:
        print(
            f"\n{len(uncompared)} figure(s) not compared (a row that is "
            "not full-only must be in both runs at the same operating "
            "point)",
            file=sys.stderr,
        )
    if failures or uncompared:
        return 1
    print("\nno perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
