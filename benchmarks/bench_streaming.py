"""Streaming fast path — spectra reuse vs per-detect recompute.

Not a paper artifact: measures what the session-resident spectra fast
path buys at detect-every-hop cadence and emits the machine-readable
``BENCH_streaming.json`` at the repo root (tracked across PRs and
guarded by ``benchmarks/check_perf_regression.py``).

One :class:`~repro.serve.SensingSession` is driven hop-by-hop; at
every hop both detection routes run on the *identical* window:

* ``engine`` — the sample-domain path: extract ``window_samples()``
  and run :meth:`Engine.statistics`, which re-windows and re-FFTs all
  N blocks before the Gram accumulation.  This is what every detect
  cost before the fast path.
* ``spectra`` — the fast path: ``window_spectra()`` hands the ring's
  already-computed block spectra (reconciled to the batch phase
  convention) to :meth:`Engine.spectra_statistics`, skipping the
  windowing + FFT pass entirely.  Only the hop's one new block was
  FFT'd, at ingest time.

Each route's ``seconds_per_detect`` is a budget median taken by
``benchmarks/_timing.py``: every round ingests the next hop (untimed),
then runs both routes on that window, and every round's two statistics
must be **bitwise identical** — the fast path must never trade
correctness for speed.

The ladder spans the regimes honestly.  At the paper's K = 256,
127 x 127 point the (2M+1)^2 Gram accumulation dominates the N FFTs
roughly 31:1, so skipping the FFTs moves the needle only ~1.2x —
those rows are kept to document the cap.  At wide-K / small-M
geometries (channelised front ends scanning a few cyclic frequencies
per band) the FFT pass *is* the detect and reuse reaches ~5x under
the coherence statistic; with ``normalize=False`` (the raw peak-|S|
statistic, ``PipelineConfig.normalize``) the full-K coherence
denominator pass — the one cost both paths share — drops out too and
the fast path wins ~8x.  The *last* ladder row (wide-K, peak-|S|)
gates >= 5x.

Regenerate the JSON::

    PYTHONPATH=src python benchmarks/bench_streaming.py

``--smoke`` runs only the tiny K = 64 geometry (CI's run, no gating);
a full run records it too and marks the full ladder's rows
``full_only`` for the perf guard.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.engine import Engine, available_cpus
from repro.pipeline import PipelineConfig
from repro.serve import SensingSession
from repro.signals.noise import awgn

from _timing import call_seconds, full_only

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_streaming.json"

#: (fft_size, num_blocks, hop, m, normalize, stream hops) ladder; the
#: timed rounds cycle through the stream's hops.  The
#: first two rows are the paper operating point (K = 256, M = 63 ->
#: 127 x 127), where the Gram plane dominates and spectra reuse is
#: honestly modest.  The wide-K / small-M rows are the fast path's
#: home regime — once under the coherence statistic, once under the
#: raw peak-|S| statistic; the *last* row is the >= 5x gate.
FULL_LADDER = (
    (256, 8, 256, None, True, 24),
    (256, 32, 64, None, True, 24),
    (4096, 64, 512, 8, True, 12),
    (4096, 64, 512, 8, False, 12),
)
SMOKE_LADDER = ((64, 8, 64, 6, True, 6),)

#: Seconds of detect rounds (both routes) per row: the wide-K rows'
#: engine route takes ~8 ms a detect, so their medians rest on over
#: 100 detects.
ROUTE_BUDGET_SECONDS = 1.0

#: Minimum spectra-path speedup on the last (reuse-regime) ladder row.
SPEEDUP_GATE = 5.0


def _bench_row(
    fft_size: int,
    num_blocks: int,
    hop: int,
    m: int | None,
    normalize: bool,
    hops: int,
) -> list[dict]:
    """Time both serve paths detect-every-hop on one shared stream."""
    kwargs = {} if m is None else {"m": m}
    config = PipelineConfig(
        fft_size=fft_size,
        num_blocks=num_blocks,
        hop=hop,
        normalize=normalize,
        **kwargs,
    )
    session = SensingSession(config)
    window = config.samples_per_decision
    stream = awgn(window + hops * hop, power=1.0, seed=42)
    session.ingest(stream[:window])
    position = window

    def next_hop() -> None:
        """Ingest the stream's next hop, wrapping round its last one."""
        nonlocal position
        session.ingest(stream[position : position + hop])
        position = window + (position - window + hop) % (hops * hop)

    statistics = {"engine": [], "spectra": []}
    with Engine(jobs=1) as engine:

        def via_engine() -> None:
            statistics["engine"].append(
                engine.statistics(
                    session.window_samples()[None], config=config
                )[0]
            )

        def via_spectra() -> None:
            statistics["spectra"].append(
                engine.spectra_statistics(
                    session.window_spectra()[None], config=config
                )[0]
            )

        # Warm the plan cache outside the measured window: both paths
        # share one cached plan, and every row measures steady-state
        # detection, not plan construction.
        via_engine()
        via_spectra()
        times = call_seconds(
            via_engine, via_spectra, setup=next_hop,
            budget=ROUTE_BUDGET_SECONDS,
        )
    for index, (engine_statistic, spectra_statistic) in enumerate(
        zip(statistics["engine"], statistics["spectra"])
    ):
        assert spectra_statistic == engine_statistic, (
            f"spectra fast path diverged from the engine path at "
            f"K={fft_size}, N={num_blocks}, hop={hop}, round {index}: "
            f"{spectra_statistic!r} vs {engine_statistic!r}"
        )

    geometry = {
        "fft_size": config.fft_size,
        "num_blocks": config.num_blocks,
        "hop": config.hop,
        "m": config.m,
        "normalize": config.normalize,
        "mode": "detect_every_hop",
    }
    rows = {
        name: {
            **geometry,
            "serve_path": name,
            "detects": len(times),
            "seconds_per_detect": seconds,
            "detects_per_second": 1.0 / seconds,
        }
        for name, seconds in zip(
            ("engine", "spectra"), np.median(times, axis=0).tolist()
        )
    }
    rows["spectra"]["speedup_vs_engine"] = (
        rows["engine"]["seconds_per_detect"]
        / rows["spectra"]["seconds_per_detect"]
    )
    rows["spectra"]["bitwise_equal_to_engine"] = True  # asserted every round
    return [rows["engine"], rows["spectra"]]


def _ladder(ladder) -> dict:
    rows = {}
    for fft_size, num_blocks, hop, m, normalize, hops in ladder:
        statistic = "coherence" if normalize else "peak-abs"
        label = f"K={fft_size},N={num_blocks},hop={hop},{statistic}"
        engine_row, spectra_row = _bench_row(
            fft_size, num_blocks, hop, m, normalize, hops
        )
        rows[label] = {"engine": engine_row, "spectra": spectra_row}
    return rows


def emit(smoke: bool, json_path: Path) -> dict:
    rows = _ladder(SMOKE_LADDER)
    if not smoke:
        rows.update(full_only(_ladder(FULL_LADDER)))
    gate_label = list(rows)[-1]
    payload = {
        "benchmark": "bench_streaming",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": available_cpus(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "streaming": {
            **rows,
            "spectra_speedup": {
                "gate_row": gate_label,
                "speedup_vs_engine": rows[gate_label]["spectra"][
                    "speedup_vs_engine"
                ],
                "gate": None if smoke else SPEEDUP_GATE,
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
    for label, paths in payload["streaming"].items():
        if label == "spectra_speedup":
            continue
        engine_row, spectra_row = paths["engine"], paths["spectra"]
        print(
            f"  {label} m={engine_row['m']}: engine "
            f"{engine_row['seconds_per_detect'] * 1e3:.2f} ms/detect, "
            f"spectra {spectra_row['seconds_per_detect'] * 1e3:.2f} "
            f"ms/detect -> {spectra_row['speedup_vs_engine']:.2f}x "
            f"(bitwise-identical)"
        )

    gate = payload["streaming"]["spectra_speedup"]
    print(
        f"  gate row {gate['gate_row']}: "
        f"{gate['speedup_vs_engine']:.2f}x spectra vs engine"
    )
    if args.smoke:
        return 0
    if gate["speedup_vs_engine"] < SPEEDUP_GATE:
        print(
            f"FAIL: spectra fast path {gate['speedup_vs_engine']:.2f}x < "
            f"{SPEEDUP_GATE:.1f}x vs the engine path on the reuse-regime "
            f"row {gate['gate_row']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
