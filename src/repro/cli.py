"""Command-line interface: ``repro-cfd`` / ``python -m repro``.

Subcommands
-----------
``table1``
    Print the paper's Table 1 from the analytic model and (optionally)
    from an executing platform simulation.
``scaling``
    Print the Section 5 scaling study over tile counts.
``sense``
    Generate a synthetic band (BPSK licensed user in noise at a chosen
    SNR), run the cyclostationary detector and the energy-detector
    baseline, and report both decisions.
``map``
    Walk the two-step mapping methodology for a chosen (K, Q) and print
    the derived architecture figures.
``classify``
    Estimate the symbol rate of a synthetic licensed user from its
    cyclic-autocorrelation features.
``backends``
    List the registered estimator backends the detection pipeline can
    execute on (``sense --backend <name>`` selects one), with their
    one-line descriptions and complexity classes — including the
    full-plane ``fam``/``ssca`` estimators from
    :mod:`repro.estimators`.
``scan``
    Blindly scan a wideband multi-emitter scenario preset with the
    :class:`~repro.scanner.BandScanner`: channelize, detect per
    sub-band on any registered backend, attribute modulation classes,
    and score the occupancy map against the planted ground truth.
    ``--smoke`` runs a small geometry and writes batched-vs-per-band
    timings to ``BENCH_scanner.json`` for the CI bench-smoke job.
``sweep``
    Pd-vs-SNR sweep per estimator backend through
    :meth:`repro.engine.Engine.map_operating_points` — identical
    realisations per backend, one table of operating points.
``serve``
    Run the streaming sensing service (:mod:`repro.serve`): a
    line-delimited JSON TCP server with chunked per-session ingestion,
    request coalescing into engine batches, bounded-queue backpressure,
    and a latency/coalescing metrics surface.  ``--smoke`` self-drives
    one loopback client and exits (for CI).  Only serve-capable
    backends are accepted (see ``backends``).

``sense``, ``scan``, ``sweep`` and ``serve`` all accept ``--jobs N`` (shard the
Monte-Carlo trial batches across N worker processes; bitwise equal to
``--jobs 1``) and ``--cache/--no-cache`` (reuse execution plans via
the shared :class:`~repro.engine.PlanCache`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from . import __version__
from .core.scf import default_m
from .engine import (
    MAX_TESTED_JOBS,
    Engine,
    PlanCache,
    plan_support,
    shared_plan_cache,
    spectra_refusal,
)
from ._compute import PRECISIONS
from .errors import ConfigurationError
from .pipeline import PipelineConfig, available_backends, get_backend
from .pipeline.config import FLOAT32_BACKENDS
from .serve import (
    SensingServer,
    SensingService,
    encode_samples,
    session_capable,
)
from .signals.noise import awgn


def _cmd_table1(args: argparse.Namespace) -> int:
    from .perf import format_budget_table, table1_budget

    budget = table1_budget(
        fft_size=args.fft_size, m=args.m, num_cores=args.tiles
    )
    print(format_budget_table(budget, title="Table 1 (analytic model)"))
    print(
        f"\nintegration step at {args.clock_mhz:.0f} MHz: "
        f"{budget.step_time_us(args.clock_mhz * 1e6):.2f} us"
    )
    if args.simulate:
        from .soc import PlatformConfig, SoCRunner

        config = PlatformConfig(
            num_tiles=args.tiles,
            fft_size=args.fft_size,
            m=args.m,
            clock_hz=args.clock_mhz * 1e6,
        )
        runner = SoCRunner(config)
        samples = awgn(args.fft_size * args.blocks, seed=0)
        result = runner.run(samples, args.blocks)
        print("\nExecuting platform simulation (per tile, all blocks):")
        for task, cycles in result.cycle_tables[0]:
            print(f"  {task:<20s} {cycles}")
        print(f"  per-step total       {result.cycles_per_step}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .perf import format_scaling_table, scaling_study

    rows = scaling_study(
        tile_counts=tuple(args.tiles),
        fft_size=args.fft_size,
        m=args.m,
        clock_hz=args.clock_mhz * 1e6,
    )
    print(format_scaling_table(rows, title="Section 5 scaling study"))
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-engine knobs shared by sense/scan/sweep."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sharded Monte-Carlo execution "
        "(bitwise equal to --jobs 1; default 1)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse execution plans through the shared plan cache "
        "(--no-cache rebuilds every plan, executor included, per use)",
    )
    parser.add_argument(
        "--precision",
        choices=PRECISIONS,
        default="float64",
        help="estimator arithmetic: float64 (bitwise parity reference) "
        "or float32 (complex64 fast paths on the batch backends: "
        f"{', '.join(FLOAT32_BACKENDS)})",
    )
    parser.add_argument(
        "--calibration",
        choices=("monte-carlo", "analytic"),
        default="monte-carlo",
        help="threshold calibration policy: monte-carlo (the (1-pfa) "
        "quantile of --calibration-trials noise-only trials) or "
        "analytic (closed-form CFAR threshold from the coherence "
        "statistic's null distribution - zero calibration trials; "
        "see repro.core.cfar for supported geometries)",
    )


def _make_engine(args: argparse.Namespace) -> Engine:
    """Build the :class:`~repro.engine.Engine` the CLI flags describe."""
    cache = None if args.cache else PlanCache(maxsize=0, name="disabled")
    injector = None
    plan_source = getattr(args, "inject", None)
    if plan_source:
        from .faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.load(plan_source))
    return Engine(jobs=args.jobs, cache=cache, fault_injector=injector)


def _print_engine_summary(engine: Engine, precision: str = "float64") -> None:
    stats = engine.cache.stats
    caching = (
        "off"
        if stats.maxsize == 0
        else f"{stats.size} plan(s), {stats.hits} hit(s), "
        f"{stats.misses} miss(es)"
    )
    transport = engine.last_transport or "in-process"
    shm_note = (
        "shared-memory transport used"
        if transport == "shared"
        else "shared-memory transport not used"
    )
    print(
        f"\nengine: jobs={engine.jobs}, plan cache {caching}, "
        f"precision {precision}, transport {transport} ({shm_note})"
    )


def _cmd_sense(args: argparse.Namespace) -> int:
    from .core.detection import EnergyDetector
    from .pipeline import DetectionPipeline
    from .signals.modulators import bpsk_signal

    if args.soc_compiled and args.backend != "soc":
        raise ConfigurationError(
            "--soc-compiled selects the trace-compiled SoC engine and "
            f"only applies to --backend soc (got {args.backend!r})"
        )
    fft_size = args.fft_size
    num_blocks = args.blocks
    samples_needed = fft_size * num_blocks
    rng = np.random.default_rng(args.seed)
    noise = awgn(samples_needed, power=1.0, rng=rng)
    occupied = not args.vacant
    if occupied:
        user = bpsk_signal(
            samples_needed, 1e6, samples_per_symbol=args.sps, rng=rng
        )
        amplitude = float(np.sqrt(10.0 ** (args.snr_db / 10.0)))
        samples = noise + amplitude * user.samples
    else:
        samples = noise

    engine = _make_engine(args)
    with engine:
        pipeline = DetectionPipeline(
            PipelineConfig(
                fft_size=fft_size,
                num_blocks=num_blocks,
                backend=args.backend,
                soc_compiled=args.soc_compiled,
                pfa=args.pfa,
                calibration=args.calibration,
                calibration_trials=args.calibration_trials,
                precision=args.precision,
            ),
            engine=engine,
        )
        pipeline.calibrate()
        report = pipeline.detect(samples)
    print(report)

    energy = EnergyDetector(
        noise_power=1.0,
        num_samples=samples_needed,
        noise_uncertainty_db=args.noise_uncertainty_db,
    )
    print(energy.detect(samples, pfa=args.pfa))
    print(
        f"\nground truth: band {'OCCUPIED' if occupied else 'vacant'} "
        f"(BPSK at {args.snr_db:+.1f} dB SNR)"
        if occupied
        else "\nground truth: band vacant"
    )
    _print_engine_summary(engine, precision=args.precision)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .mapping import Fold, SpaceTimeDelayDiagram, minimal_register_structure
    from .mapping.ascii_art import render_figure5, render_figure7, render_figure9
    from .perf import (
        format_budget_table,
        platform_area_mm2,
        platform_power_mw,
        table1_budget,
    )

    m = default_m(args.fft_size) if args.m is None else args.m
    extent = 2 * m + 1
    fold = Fold(extent, args.tiles)
    print(
        f"DSCF for K={args.fft_size}: f, a in [-{m}, {m}] -> "
        f"P = F = {extent}"
    )
    structure = minimal_register_structure(m)
    print(
        f"systolic array: {structure.num_processors} PEs, "
        f"{structure.total_registers} registers/chain "
        f"(2 chains, counter-flowing)"
    )
    if args.figures:
        example_m = min(m, 3)
        print("\nFigure 5 (space-time delay, conjugate flow, example):")
        print(
            render_figure5(
                SpaceTimeDelayDiagram.build(
                    example_m, f_values=tuple(range(0, example_m + 1))
                )
            )
        )
        print("\nFigure 7 (register-based array, example):")
        print(render_figure7(example_m))
    print("\nFigure 8/9 fold:")
    print(render_figure9(fold))
    budget = table1_budget(fft_size=args.fft_size, m=m, num_cores=args.tiles)
    print()
    print(format_budget_table(budget))
    print(
        f"\nplatform: {args.tiles} tiles, "
        f"{platform_area_mm2(args.tiles):.0f} mm^2, "
        f"{platform_power_mw(args.tiles):.0f} mW at 100 MHz"
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .core.cyclic_autocorrelation import estimate_symbol_rate
    from .signals.modulators import LinearModulator

    rng = np.random.default_rng(args.seed)
    modulator = LinearModulator(args.modulation, args.sps)
    signal = modulator.signal(args.samples, 1e6, rng=rng)
    received = signal.samples + 10 ** (-args.snr_db / 20.0) * awgn(
        args.samples, rng=rng
    )
    candidates = sorted(set(args.candidates + [args.sps]))
    decided = estimate_symbol_rate(
        received, candidates, max_lag=2 * max(candidates)
    )
    print(
        f"transmitted: {args.modulation} at {args.sps} samples/symbol, "
        f"{args.snr_db:+.1f} dB SNR"
    )
    print(f"candidates scanned: {candidates}")
    print(f"classified symbol rate: fs/{decided}")
    print("correct!" if decided == args.sps else "misclassified")
    return 0 if decided == args.sps else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    import json
    import time

    from .analysis.occupancy import (
        attribute_emitters,
        format_attribution,
        occupancy_confusion,
    )
    from .scanner import BandScanner
    from .signals.wideband import scenario_preset

    if args.soc_compiled and args.backend != "soc":
        raise ConfigurationError(
            "--soc-compiled selects the trace-compiled SoC engine and "
            f"only applies to --backend soc (got {args.backend!r})"
        )
    # --smoke only swaps in CI-sized defaults; explicit flags win.
    if args.smoke:
        preset_default, geometry_default = "linear-pair", (32, 32, 10)
        if args.bench_json is None:
            args.bench_json = "BENCH_scanner.json"
    else:
        preset_default, geometry_default = "five-emitter", (64, 64, 40)
    preset = preset_default if args.preset is None else args.preset
    fft_size = geometry_default[0] if args.fft_size is None else args.fft_size
    blocks = geometry_default[1] if args.blocks is None else args.blocks
    trials = (
        geometry_default[2]
        if args.calibration_trials is None
        else args.calibration_trials
    )

    sample_rate = args.sample_rate_mhz * 1e6
    scenario, num_bands = scenario_preset(preset, sample_rate_hz=sample_rate)
    config = PipelineConfig(
        fft_size=fft_size,
        num_blocks=blocks,
        backend=args.backend,
        soc_compiled=args.soc_compiled,
        pfa=args.pfa,
        calibration=args.calibration,
        calibration_trials=trials,
        scan_bands=num_bands,
        sample_rate_hz=sample_rate,
        precision=args.precision,
    )
    # try/finally (not `with`): the worker pool must be reaped on
    # any scan failure, and `recovered` is computed after teardown.
    engine = _make_engine(args)
    try:
        scanner = BandScanner(config, leak_margin=args.leak_margin, engine=engine)
        capture, truth = scenario.realize(scanner.required_samples, seed=args.seed)
        scanner.calibrate()

        print(
            f"scanning preset {preset!r}: {len(scenario.emitters)} emitters, "
            f"{num_bands} bands x {scanner.band_samples} sub-band samples "
            f"({scanner.required_samples} capture samples at "
            f"{args.sample_rate_mhz:.1f} MHz), backend {args.backend}"
        )
        occupancy = scanner.scan(capture)
        print(occupancy.summary())

        attributions = attribute_emitters(truth, occupancy)
        print(format_attribution(attributions))
        confusion = occupancy_confusion(
            truth.band_mask(num_bands), occupancy.decisions
        )
        print(
            f"band confusion: tp={confusion.true_positive} "
            f"fp={confusion.false_positive} fn={confusion.false_negative} "
            f"tn={confusion.true_negative}  precision {confusion.precision:.2f} "
            f"recall {confusion.recall:.2f} f1 {confusion.f1:.2f}"
        )

        if args.bench_json:
            bands = scanner.channelize(capture)

            def best_of(callable_, repeats=3):
                timings = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    callable_()
                    timings.append(time.perf_counter() - start)
                return min(timings)

            batched = best_of(
                lambda: scanner.band_statistics(bands, batched=True)
            )
            per_band = best_of(
                lambda: scanner.band_statistics(bands, batched=False)
            )
            point = {
                "fft_size": fft_size,
                "num_blocks": blocks,
                "num_samples": scanner.band_samples,
                "trials": num_bands,
            }
            payload = {
                "scanner": {
                    "preset": preset,
                    "backend": args.backend,
                    "num_bands": num_bands,
                    "batched": {
                        **point,
                        "seconds_per_estimate": batched / num_bands,
                        "seconds_per_scan": batched,
                    },
                    "per_band": {
                        **point,
                        "seconds_per_estimate": per_band / num_bands,
                        "seconds_per_scan": per_band,
                    },
                    "speedup": per_band / batched if batched > 0 else None,
                }
            }
            with open(args.bench_json, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(
                f"\nwrote {args.bench_json}: batched {batched * 1e3:.2f} ms vs "
                f"per-band {per_band * 1e3:.2f} ms per scan "
                f"({per_band / batched:.1f}x)"
            )

        _print_engine_summary(engine, precision=args.precision)
    finally:
        engine.close()
    recovered = all(entry.detected for entry in attributions)
    return 0 if recovered else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import pd_vs_snr_by_backend
    from .signals.modulators import bpsk_signal

    if args.soc_compiled and "soc" not in args.backends:
        raise ConfigurationError(
            "--soc-compiled selects the trace-compiled SoC engine and "
            "only applies when 'soc' is among --backends"
        )
    if args.precision == "float32":
        unsupported = [
            name for name in args.backends if name not in FLOAT32_BACKENDS
        ]
        if unsupported:
            raise ConfigurationError(
                f"--precision float32 only applies to the batch backends "
                f"{FLOAT32_BACKENDS}; drop {unsupported} from --backends "
                f"or use --precision float64"
            )
    config = PipelineConfig(
        fft_size=args.fft_size,
        num_blocks=args.blocks,
        pfa=args.pfa,
        calibration=args.calibration,
        soc_compiled=args.soc_compiled,
        calibration_seed=args.seed,
        precision=args.precision,
    )
    samples = config.samples_per_decision
    snrs = np.linspace(args.snr_start, args.snr_stop, args.points)
    h0_base = args.seed
    h1_base = args.seed + 50_000

    def h0_factory(trial: int) -> np.ndarray:
        return awgn(samples, power=1.0, seed=h0_base + trial)

    def h1_factory(snr_db: float, trial: int) -> np.ndarray:
        # One rng per trial, noise then signal drawn sequentially (as
        # in `sense`), so the noise and the symbol stream stay
        # statistically independent.
        rng = np.random.default_rng(h1_base + trial)
        noise = awgn(samples, power=1.0, rng=rng)
        user = bpsk_signal(
            samples, 1e6, samples_per_symbol=args.sps, rng=rng
        )
        amplitude = float(np.sqrt(10.0 ** (snr_db / 10.0)))
        return noise + amplitude * user.samples

    engine = _make_engine(args)
    with engine:
        sweeps = pd_vs_snr_by_backend(
            config,
            h0_factory,
            h1_factory,
            snrs,
            backends=tuple(args.backends),
            pfa=args.pfa,
            trials=args.trials,
            engine=engine,
        )
    print(
        f"Pd vs SNR at Pfa={args.pfa:g} (K={args.fft_size}, "
        f"N={args.blocks}, {args.trials} trials/point, BPSK at "
        f"{args.sps} samples/symbol):\n"
    )
    header = "SNR dB".rjust(8) + "".join(
        name.rjust(14) for name in sweeps
    )
    print(header)
    for index, snr_db in enumerate(snrs):
        row = f"{snr_db:8.1f}" + "".join(
            f"{sweep.points[index].pd:14.3f}" for sweep in sweeps.values()
        )
        print(row)
    print()
    for name, sweep in sweeps.items():
        try:
            sensitivity = sweep.snr_for_pd(0.9)
        except ConfigurationError:  # pragma: no cover - defensive
            continue
        print(f"{name}: interpolated Pd=0.9 sensitivity {sensitivity:+.1f} dB")
    _print_engine_summary(engine, precision=args.precision)
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    cache = shared_plan_cache()
    print("registered estimator backends (sense --backend <name>):\n")
    for name in available_backends():
        capabilities = get_backend(name).capabilities
        flags = ", ".join(
            label
            for label, enabled in (
                ("batch", capabilities.supports_batch),
                ("streaming", capabilities.supports_streaming),
                ("cycle-accurate", capabilities.cycle_accurate),
                ("full-plane", not capabilities.dscf_exact),
            )
            if enabled
        )
        print(f"  {name:<12s} {capabilities.description}")
        if capabilities.complexity:
            print(f"  {'':<12s} complexity {capabilities.complexity}")
        print(f"  {'':<12s} plan: {plan_support(name)}")
        precisions = (
            "float32 + float64 (single-precision fast path)"
            if name in FLOAT32_BACKENDS
            else "float64 only (parity reference)"
        )
        print(f"  {'':<12s} precision: {precisions}")
        if not session_capable(name):
            serving = "offline only (neither streaming nor batched execution)"
        elif spectra_refusal(
            PipelineConfig(backend=name), serving=True
        ) is None:
            serving = (
                "session-capable; spectra fast path + engine fallback "
                "(serve_path=auto routes float64 detects "
                "through the session's resident spectra)"
            )
        else:
            serving = "session-capable; engine path only"
        print(f"  {'':<12s} serve: {serving}")
        caching = "shared engine LRU"
        entries = cache.backend_entries(name)
        if entries:
            caching += f"; {entries} plan(s) cached this process"
        print(f"  {'':<12s} cache: {caching}")
        print(f"  {'':<12s} [{flags or 'sequential'}]")
    stats = cache.stats
    print(
        f"\nshared plan cache: capacity {stats.maxsize} plans per "
        f"process (this process: {stats.size} cached, {stats.hits} "
        f"hit(s), {stats.misses} miss(es)); sharded execution "
        f"bitwise-verified up to jobs={MAX_TESTED_JOBS}"
    )
    print(
        "precision policy: float64 is the bitwise parity reference on "
        "every backend; --precision float32 selects the tiled "
        "single-precision fast path on the batch backends "
        f"{', '.join(FLOAT32_BACKENDS)}. Sharded runs ship trial blocks "
        "through zero-copy shared memory (descriptor-only pickling)."
    )
    return 0


async def _serve_smoke_client(
    server: SensingServer, injected: bool = False
) -> None:
    """Self-drive one loopback client through the whole protocol.

    The client sends exactly one window, so the served statistic must
    equal the offline engine's on it, bit for bit, on either route.
    With *injected* (``--inject`` was given) the client additionally
    verifies the plan's faults actually fired and were absorbed: the
    final ``health`` probe must report recovered faults or serve-layer
    retries, and must not be degraded.
    """
    config = server.service.config
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)

    async def rpc(request: dict) -> dict:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise ConfigurationError(
                f"smoke client request failed: {reply.get('error')}: "
                f"{reply.get('message')}"
            )
        return reply

    try:
        opened = await rpc({"op": "open"})
        session = opened["session"]
        samples = awgn(config.samples_per_decision, power=1.0, seed=0)
        chunk = 4 * config.fft_size
        for start in range(0, samples.size, chunk):
            await rpc(
                {
                    "op": "ingest",
                    "session": session,
                    "samples": encode_samples(samples[start : start + chunk]),
                }
            )
        result = await rpc({"op": "detect", "session": session})
        print(
            f"smoke: statistic={result['statistic']:.6g} "
            f"threshold={result['threshold']:.6g} "
            f"detected={result['detected']} (noise-only input)"
        )
        offline = server.service.engine.statistics(samples[None], config)[0]
        if result["statistic"] != offline:
            raise ConfigurationError(
                f"smoke detect served statistic {result['statistic']!r} "
                f"but the offline engine gives {float(offline)!r} on the "
                "same window"
            )
        expected_path = server.service.resolve_serve_path()
        if result.get("serve_path") != expected_path:
            raise ConfigurationError(
                f"smoke detect took serve_path="
                f"{result.get('serve_path')!r} but the service config "
                f"resolves to {expected_path!r}"
            )
        stats = (await rpc({"op": "stats"}))["stats"]
        path_counter = f"served_{expected_path}"
        if stats[path_counter] < 1:
            raise ConfigurationError(
                f"smoke detect resolved to the {expected_path!r} path "
                f"but stats[{path_counter!r}] is {stats[path_counter]}: "
                "the scheduler never recorded a completion on that route"
            )
        print(
            f"smoke: serve_path={expected_path} "
            f"served_spectra={stats['served_spectra']} "
            f"served_engine={stats['served_engine']}"
        )
        latency = stats["latency"]["p50_latency_seconds"]
        print(
            f"smoke: served={stats['served']} batches={stats['batches']} "
            f"coalescing={stats['coalescing_factor']:.2f} "
            f"p50={latency * 1e3:.2f} ms"
        )
        health = await rpc({"op": "health"})
        engine_health = health["engine_health"]
        print(
            f"smoke: health={health['status']} "
            f"circuit={health['circuit']['state']} "
            f"recovered_faults={engine_health['recovered_faults']} "
            f"retried={stats['retried']}"
        )
        if health["status"] != "ok":
            raise ConfigurationError(
                f"smoke health probe reports {health['status']!r}"
            )
        if injected:
            absorbed = engine_health["recovered_faults"] + stats["retried"]
            if absorbed == 0:
                raise ConfigurationError(
                    "--inject was given but the smoke run recorded no "
                    "recovered faults or retries: the plan never fired"
                )
        await rpc({"op": "close", "session": session})
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _cmd_serve(args: argparse.Namespace) -> int:
    config = PipelineConfig(
        fft_size=args.fft_size,
        num_blocks=args.blocks,
        backend=args.backend,
        pfa=args.pfa,
        calibration=args.calibration,
        calibration_trials=args.calibration_trials,
        precision=args.precision,
        serve_path=args.serve_path,
    )
    engine = _make_engine(args)

    async def run() -> None:
        service = SensingService(
            config,
            engine=engine,
            max_queue_depth=args.max_queue_depth,
            max_batch=args.max_batch,
        )
        server = SensingServer(service, host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        print(
            f"serving on {host}:{port} — backend {config.backend}, "
            f"K={config.fft_size}, N={config.num_blocks}, "
            f"queue<={args.max_queue_depth}, batch<={args.max_batch}"
        )
        try:
            if args.smoke:
                await _serve_smoke_client(server, injected=bool(args.inject))
            else:  # pragma: no cover - interactive foreground mode
                await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass  # pragma: no cover - operator stop
        finally:
            await server.close()

    with engine:
        asyncio.run(run())
        _print_engine_summary(engine, precision=args.precision)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cfd`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cfd",
        description=(
            "Cyclostationary Feature Detection on a tiled-SoC "
            "(DATE 2007) - reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="print Table 1")
    table1.add_argument("--fft-size", type=int, default=256)
    table1.add_argument("--m", type=int, default=63)
    table1.add_argument("--tiles", type=int, default=4)
    table1.add_argument("--clock-mhz", type=float, default=100.0)
    table1.add_argument("--blocks", type=int, default=2)
    table1.add_argument(
        "--simulate",
        action="store_true",
        help="also run the executing platform simulation",
    )
    table1.set_defaults(func=_cmd_table1)

    scaling = subparsers.add_parser("scaling", help="Section 5 scaling study")
    scaling.add_argument("--tiles", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    scaling.add_argument("--fft-size", type=int, default=256)
    scaling.add_argument("--m", type=int, default=63)
    scaling.add_argument("--clock-mhz", type=float, default=100.0)
    scaling.set_defaults(func=_cmd_scaling)

    sense = subparsers.add_parser("sense", help="sense a synthetic band")
    sense.add_argument("--fft-size", type=int, default=64)
    sense.add_argument("--blocks", type=int, default=64)
    sense.add_argument("--snr-db", type=float, default=-3.0)
    sense.add_argument("--sps", type=int, default=8)
    sense.add_argument("--pfa", type=float, default=0.05)
    sense.add_argument("--seed", type=int, default=0)
    sense.add_argument("--vacant", action="store_true", help="noise only")
    sense.add_argument("--noise-uncertainty-db", type=float, default=0.0)
    sense.add_argument("--calibration-trials", type=int, default=50)
    sense.add_argument(
        "--backend",
        choices=available_backends(),
        default="vectorized",
        help="estimator backend executing the DSCF (see `backends`)",
    )
    sense.add_argument(
        "--soc-compiled",
        action="store_true",
        help="with --backend soc: execute on the trace-compiled engine "
        "(bit-identical results, vectorised replay, batched calibration)",
    )
    _add_engine_arguments(sense)
    sense.set_defaults(func=_cmd_sense)

    sweep = subparsers.add_parser(
        "sweep",
        help="Pd-vs-SNR sweep per estimator backend "
        "(Engine.map_operating_points)",
    )
    sweep.add_argument("--fft-size", type=int, default=32)
    sweep.add_argument("--blocks", type=int, default=32)
    sweep.add_argument("--snr-start", type=float, default=-12.0)
    sweep.add_argument("--snr-stop", type=float, default=0.0)
    sweep.add_argument("--points", type=int, default=5)
    sweep.add_argument("--trials", type=int, default=20)
    sweep.add_argument("--sps", type=int, default=8)
    sweep.add_argument("--pfa", type=float, default=0.1)
    sweep.add_argument("--seed", type=int, default=20_000)
    sweep.add_argument(
        "--backends",
        nargs="+",
        default=["vectorized", "fam", "ssca"],
        help="estimator backends to sweep side by side on identical "
        "realisations (batch-capable backends only; soc needs "
        "--soc-compiled)",
    )
    sweep.add_argument(
        "--soc-compiled",
        action="store_true",
        help="with 'soc' in --backends: sweep the trace-compiled "
        "platform model",
    )
    _add_engine_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    backends = subparsers.add_parser(
        "backends", help="list the registered estimator backends"
    )
    backends.set_defaults(func=_cmd_backends)

    serve = subparsers.add_parser(
        "serve",
        help="run the streaming sensing service (JSON-lines TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (0 picks a free port and prints it)",
    )
    serve.add_argument("--fft-size", type=int, default=64)
    serve.add_argument("--blocks", type=int, default=64)
    serve.add_argument("--pfa", type=float, default=0.05)
    serve.add_argument("--calibration-trials", type=int, default=50)
    serve.add_argument(
        "--backend",
        choices=available_backends(),
        default="vectorized",
        help="estimator backend; must be serve-capable (see `backends`)",
    )
    serve.add_argument(
        "--serve-path",
        choices=("auto", "engine", "spectra"),
        default="auto",
        help="session detect route: 'auto' takes the spectra fast path "
        "when the backend is dscf-exact under the full float64 search, "
        "'engine' forces the sample-domain batch path, 'spectra' "
        "requires the fast path (rejected for ineligible configs)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="backpressure limit: pending requests beyond this are shed "
        "with ServiceOverloadedError",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most requests one coalesced engine batch may carry",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="self-drive one loopback client through the protocol and "
        "exit (for CI)",
    )
    serve.add_argument(
        "--inject",
        default=None,
        metavar="PLAN",
        help="deterministic fault plan: inline 'site:kind[:hits[:secs]]' "
        "specs joined by ';', or a JSON plan file path (see "
        "repro.faults); with --smoke the client also verifies the "
        "faults were absorbed",
    )
    _add_engine_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    scan = subparsers.add_parser(
        "scan", help="blindly scan a wideband multi-emitter scenario"
    )
    from .signals.wideband import SCENARIO_PRESETS

    scan.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default=None,
        help="wideband scenario preset to plant and recover "
        "(default: five-emitter, or linear-pair under --smoke)",
    )
    scan.add_argument("--fft-size", type=int, default=None,
                      help="per-sub-band DSCF block length K "
                      "(default 64, or 32 under --smoke)")
    scan.add_argument("--blocks", type=int, default=None,
                      help="per-sub-band integration length N "
                      "(default 64, or 32 under --smoke)")
    scan.add_argument("--sample-rate-mhz", type=float, default=8.0)
    scan.add_argument("--seed", type=int, default=7)
    scan.add_argument("--pfa", type=float, default=0.05)
    scan.add_argument("--calibration-trials", type=int, default=None,
                      help="noise-only Monte-Carlo trials "
                      "(default 40, or 10 under --smoke)")
    scan.add_argument(
        "--leak-margin", type=float, default=1.6,
        help="threshold guard rejecting channelizer-sidelobe leakage "
        "from strong adjacent emitters (1.0 = pure CFAR)",
    )
    scan.add_argument(
        "--backend",
        choices=available_backends(),
        default="vectorized",
        help="estimator backend deciding each sub-band (see `backends`)",
    )
    scan.add_argument(
        "--soc-compiled",
        action="store_true",
        help="with --backend soc: execute on the trace-compiled engine",
    )
    scan.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run; writes BENCH_scanner.json unless "
        "--bench-json overrides the path",
    )
    scan.add_argument(
        "--bench-json",
        default=None,
        help="write batched-vs-per-band scan timings to this JSON file",
    )
    _add_engine_arguments(scan)
    scan.set_defaults(func=_cmd_scan)

    mapping = subparsers.add_parser("map", help="walk the mapping methodology")
    mapping.add_argument("--fft-size", type=int, default=256)
    mapping.add_argument("--m", type=int, default=None)
    mapping.add_argument("--tiles", type=int, default=4)
    mapping.add_argument("--figures", action="store_true")
    mapping.set_defaults(func=_cmd_map)

    classify = subparsers.add_parser(
        "classify", help="classify a licensed user's symbol rate"
    )
    classify.add_argument("--modulation", default="bpsk",
                          choices=["bpsk", "qpsk", "qam16"])
    classify.add_argument("--sps", type=int, default=8)
    classify.add_argument("--snr-db", type=float, default=6.0)
    classify.add_argument("--samples", type=int, default=16384)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument(
        "--candidates", type=int, nargs="+", default=[4, 8, 16]
    )
    classify.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
