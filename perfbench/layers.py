"""Per-layer replay: each layer's public calls timed on the workload's inputs.

The traced run replays the same seeded inputs through the same public
calls the live path makes, one layer at a time, with spans taken from
this file around each call (nothing inside ``src/`` is instrumented).
Every figure is a median over the replayed calls.  Stage splits that
the plan API only exposes cumulatively (normalise = ``surfaces`` minus
``dscf_values``) are differenced within one repetition, then medianed;
the peak is the statistic's reduction over ``searched_columns``, timed
on the surfaces the plan returned.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.engine import Engine, PlanCache
from repro.serve import SensingSession, decode_samples, encode_samples


def _clock(call):
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def plan_stages(plan, batches: list, repeats: int) -> dict:
    """Per-trial microseconds of the plan's four batch stages."""
    columns = plan.searched_columns
    rows = []
    for rep in range(repeats):
        signals = batches[rep % len(batches)]
        block, spectra = _clock(lambda: plan.block_spectra(signals))
        gram, _ = _clock(lambda: plan.dscf_values(signals, spectra=spectra))
        surfaces, planes = _clock(
            lambda: plan.surfaces(signals, spectra=spectra)
        )
        # The statistic's own reduction over the searched columns.
        peak, _ = _clock(lambda: planes[:, :, columns].max(axis=(1, 2)))
        scale = 1e6 / len(signals)
        rows.append(
            (block * scale, gram * scale, (surfaces - gram) * scale, peak * scale)
        )
    block, gram, normalise, peak = (statistics.median(col) for col in zip(*rows))
    return {
        "plans.block_spectra_us": block,
        "plans.gram_us": gram,
        "plans.normalise_us": normalise,
        "plans.peak_us": peak,
    }


def engine_setup(config, repeats: int) -> dict:
    """Cold plan build and warm calibration, each medianed."""
    builds, calibrations = [], []
    for _ in range(repeats):
        engine = Engine(jobs=1, cache=PlanCache())
        build, _ = _clock(lambda: engine.plan(config))
        calibrate, _ = _clock(lambda: engine.calibrate_threshold(config))
        builds.append(build)
        calibrations.append(calibrate)
    return {
        "cache.plan_build_s": statistics.median(builds),
        "engine.calibrate_s": statistics.median(calibrations),
    }


def spectra_statistics_ms(engine: Engine, config, spectra: list) -> float:
    """Median ms of one ``Engine.spectra_statistics`` call per entry."""
    times = [
        _clock(lambda s=s: engine.spectra_statistics(s, config=config))[0]
        for s in spectra
    ]
    return statistics.median(times) * 1e3


def serve_layers(inputs, decisions: int) -> dict:
    """Replay *decisions* decisions of a serve workload layer by layer.

    Sessions are rebuilt in this process from the same lines the
    generator sends; each decision's chunk is encoded (client), parsed
    (server), ingested and windowed (session) and scored (engine), and
    the two replies the server would write are encoded.
    """
    config = inputs.config
    engine = Engine(jobs=1, cache=PlanCache())
    engine.plan(config)
    sessions = []
    for index, name in enumerate(inputs.sessions):
        session = SensingSession(config, session_id=name)
        if inputs.prefill_lines[index]:
            prefill = json.loads(inputs.prefill_lines[index])
            session.ingest(decode_samples(prefill["samples"]))
        sessions.append(session)
    threshold = engine.calibrate_threshold(config)
    times = {key: [] for key in ("encode", "decode", "reply", "ingest", "window")}
    spectra, windows = [], []
    for count in range(decisions):
        index = count % len(sessions)
        session = sessions[index]
        line, pool = inputs.chunk_line(index, count // len(sessions))
        chunk = inputs.chunk_samples(index, pool)
        encode, _ = _clock(
            lambda: json.dumps(
                {
                    "op": "ingest",
                    "session": session.session_id,
                    "samples": encode_samples(chunk),
                }
            ).encode()
        )
        decode, samples = _clock(
            lambda: decode_samples(json.loads(line)["samples"])
        )
        ingest, info = _clock(lambda: session.ingest(samples))
        window, resident = _clock(session.window_spectra)
        statistic = float(
            engine.spectra_statistics(resident, config=config)[0]
        )
        detect_reply = {
            "ok": True,
            "statistic": statistic,
            "threshold": threshold,
            "backend": config.backend,
            "serve_path": "spectra",
            "detected": statistic > threshold,
            "session": session.session_id,
            "blocks": session.blocks_ingested,
            "total_samples": session.total_samples,
        }
        reply, _ = _clock(
            lambda: (
                json.dumps({"ok": True, **info}).encode(),
                json.dumps(detect_reply).encode(),
            )
        )
        for key, value in zip(
            ("encode", "decode", "reply", "ingest", "window"),
            (encode, decode, reply, ingest, window),
        ):
            times[key].append(value * 1e3)
        spectra.append(resident)
        windows.append(session.window_samples()[None])
    plan = engine.plan(config)
    medians = {key: statistics.median(values) for key, values in times.items()}
    return {
        "client.encode_ms": medians["encode"],
        "server.decode_ms": medians["decode"],
        "server.reply_encode_ms": medians["reply"],
        "session.ingest_ms": medians["ingest"],
        "session.window_spectra_ms": medians["window"],
        "engine.spectra_statistics_ms": spectra_statistics_ms(
            engine, config, spectra
        ),
        **plan_stages(plan, windows, repeats=len(windows)),
        **engine_setup(config, repeats=5),
    }


def sweep_layers(inputs, repeats: int) -> dict:
    """Plan stages and engine calls on the pd-sweep's own trial batches."""
    config = inputs.config
    engine = Engine(jobs=1, cache=PlanCache())
    plan = engine.plan(config)
    batches = [inputs.h1[snr] for snr in inputs.snr_order]
    stages = plan_stages(plan, batches, repeats)
    per_trial_spectra = [
        plan.block_spectra(batch[trial : trial + 1])
        for batch in batches
        for trial in range(0, len(batch), 4)
    ]
    return {
        **stages,
        "engine.spectra_statistics_ms": spectra_statistics_ms(
            engine, config, per_trial_spectra
        ),
        **engine_setup(config, repeats=5),
    }
