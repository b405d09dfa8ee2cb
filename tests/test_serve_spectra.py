"""Spectra fast-path battery: session spectra reuse end to end.

The load-bearing contract: a detect served from the session-resident
ring spectra (``serve_path="spectra"``) is **bitwise identical** to
the sample-domain engine path and to the offline
:class:`~repro.pipeline.DetectionPipeline` — at every hop, across
chunkings, window functions, overlapped hops, checkpoint/restore, and
plan flavours (batch Gram and per-trial loop).
"""

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.engine import Engine, spectra_refusal
from repro.engine.shm import live_segment_names
from repro.errors import ConfigurationError, SessionStateError
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.serve import (
    SensingServer,
    SensingService,
    SensingSession,
    ServiceMetrics,
    encode_samples,
)
from repro.signals.noise import awgn

TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)

#: Geometries spanning non-overlapped, overlapped and tapered windows.
GEOMETRIES = (
    PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20),
    PipelineConfig(
        fft_size=32, num_blocks=8, hop=8, calibration_trials=20
    ),
    PipelineConfig(
        fft_size=64,
        num_blocks=16,
        hop=48,
        window="hann",
        calibration_trials=20,
    ),
)


def _stream(num_samples: int, seed: int) -> np.ndarray:
    return awgn(num_samples, power=1.0, seed=seed)


def _drive(session: SensingSession, stream: np.ndarray, chunk: int):
    """Ingest *stream* in *chunk*-sample pieces."""
    for start in range(0, stream.size, chunk):
        session.ingest(stream[start : start + chunk])


class TestWindowSpectra:
    """The session's reconciled ring vs the batch-plan front end."""

    @pytest.mark.parametrize("config", GEOMETRIES)
    def test_matches_batch_block_spectra_at_every_hop(self, config):
        stream = _stream(config.samples_per_decision + 6 * config.hop, seed=1)
        session = SensingSession(config)
        with Engine(jobs=1) as engine:
            plan = engine.plan(config)
            position = 0
            for start in range(0, stream.size, 7):
                session.ingest(stream[start : start + 7])
                if not session.ready:
                    continue
                if session.blocks_ingested == position:
                    continue
                position = session.blocks_ingested
                offline = plan.block_spectra(session.window_samples()[None])
                assert np.array_equal(session.window_spectra(), offline[0])

    def test_not_ready_raises_session_state_error(self):
        session = SensingSession(TINY)
        session.ingest(_stream(TINY.fft_size, seed=2))
        with pytest.raises(SessionStateError):
            session.window_spectra()

    def test_many_tiny_chunks_ingest_bitwise_equal_one_shot(self):
        # Pins the pending-chunk ingestion path: a stream of 1-sample
        # chunks must produce the exact window a single ingest does.
        stream = _stream(TINY.samples_per_decision + 21, seed=3)
        tiny, bulk = SensingSession(TINY), SensingSession(TINY)
        _drive(tiny, stream, chunk=1)
        bulk.ingest(stream)
        assert np.array_equal(tiny.window_samples(), bulk.window_samples())
        assert np.array_equal(tiny.window_spectra(), bulk.window_spectra())
        assert tiny.blocks_ingested == bulk.blocks_ingested

    def test_checkpoint_with_pending_chunk_restores_bitwise(self):
        # Checkpoint mid-stream while sub-block samples sit unflushed
        # in the pending list; the restored session must continue
        # bitwise in both domains.
        config = GEOMETRIES[2]
        stream = _stream(config.samples_per_decision + 3 * config.hop, seed=4)
        cut = config.samples_per_decision // 2 + 5  # mid-block
        original = SensingSession(config)
        _drive(original, stream[:cut], chunk=13)
        restored = SensingSession.from_state(config, original.state())
        _drive(original, stream[cut:], chunk=13)
        _drive(restored, stream[cut:], chunk=13)
        assert np.array_equal(
            original.window_samples(), restored.window_samples()
        )
        assert np.array_equal(
            original.window_spectra(), restored.window_spectra()
        )


class TestSpectraStatistics:
    """`Engine.spectra_statistics` vs `Engine.statistics`, bitwise."""

    @pytest.mark.parametrize("backend", ["vectorized", "streaming"])
    @pytest.mark.parametrize("config", GEOMETRIES)
    def test_bitwise_equal_to_sample_path_every_hop(self, config, backend):
        config = config.with_backend(backend)
        stream = _stream(config.samples_per_decision + 5 * config.hop, seed=5)
        session = SensingSession(config)
        session.ingest(stream[: config.samples_per_decision])
        with Engine(jobs=1) as engine:
            position = config.samples_per_decision
            while position + config.hop <= stream.size:
                session.ingest(stream[position : position + config.hop])
                position += config.hop
                via_samples = engine.statistics(
                    session.window_samples()[None], config=config
                )
                via_spectra = engine.spectra_statistics(
                    session.window_spectra()[None], config=config
                )
                assert np.array_equal(via_spectra, via_samples)

    def test_stacked_sessions_share_one_spectra_batch(self):
        streams = [
            _stream(TINY.samples_per_decision, seed=6 + i) for i in range(4)
        ]
        sessions = []
        for stream in streams:
            session = SensingSession(TINY)
            session.ingest(stream)
            sessions.append(session)
        stacked = np.stack([s.window_spectra() for s in sessions])
        with Engine(jobs=1) as engine:
            batched = engine.spectra_statistics(stacked, config=TINY)
            singles = [
                engine.statistics(s.window_samples()[None], config=TINY)[0]
                for s in sessions
            ]
        assert np.array_equal(batched, np.array(singles))

    def test_executor_backends_have_no_spectra_entry(self):
        spectra = np.zeros((1, TINY.num_blocks, TINY.fft_size), complex)
        soc = dataclasses.replace(
            TINY, backend="soc", fft_size=16, m=3, soc_tiles=2
        )
        refused = (
            TINY.with_backend("fam"),
            TINY.with_backend("ssca"),
            soc,
            dataclasses.replace(soc, soc_compiled=True),
        )
        with Engine(jobs=1) as engine:
            for config in refused:
                with pytest.raises(ConfigurationError):
                    engine.spectra_statistics(spectra, config=config)

    def test_shape_and_argument_validation(self):
        with Engine(jobs=1) as engine:
            with pytest.raises(ConfigurationError):
                engine.spectra_statistics(
                    np.zeros((2, 3), complex), config=TINY
                )  # 2-D promotes to one trial of (2, 3): wrong geometry
            with pytest.raises(TypeError):
                engine.spectra_statistics(
                    np.zeros(
                        (1, TINY.num_blocks, TINY.fft_size), complex
                    )
                )  # no config


class TestServePathConfig:
    """The `serve_path` knob: validation and eligibility."""

    def test_eligibility_table(self):
        # The one spectra-route rule: static, per configuration.
        for backend in ("vectorized", "streaming", "reference"):
            assert spectra_refusal(TINY.with_backend(backend)) is None
        for backend in ("soc", "fam", "ssca"):
            assert "raw samples" in spectra_refusal(
                TINY.with_backend(backend)
            )
        single = dataclasses.replace(TINY, precision="float32")
        assert spectra_refusal(single) is None  # the engine accepts it
        assert "float64" in spectra_refusal(single, serving=True)

    def test_bad_literal_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(fft_size=32, num_blocks=8, serve_path="fast")

    @staticmethod
    def _assert_rejected_before_first_detect(config):
        with pytest.raises(ConfigurationError, match="serve_path='spectra'"):
            SensingService(config)
        service = SensingService(TINY)
        with pytest.raises(ConfigurationError, match="serve_path='spectra'"):
            service.open_session(config)
        session = SensingSession(TINY)
        with pytest.raises(ConfigurationError, match="serve_path='spectra'"):
            service.restore_session(session.state(), config=config)
        assert service.stats()["sessions"] == 0

    def test_spectra_path_rejects_float32(self):
        self._assert_rejected_before_first_detect(
            PipelineConfig(
                fft_size=32,
                num_blocks=8,
                serve_path="spectra",
                precision="float32",
            )
        )

    def test_spectra_path_rejects_ineligible_backend_at_service(self):
        config = dataclasses.replace(
            TINY.with_backend("fam"), serve_path="spectra"
        )
        with pytest.raises(ConfigurationError):
            SensingService(config)

    def test_resolve_serve_path_routes(self):
        service = SensingService(TINY)
        assert service.resolve_serve_path() == "spectra"
        assert (
            service.resolve_serve_path(TINY.with_backend("fam")) == "engine"
        )
        forced = dataclasses.replace(TINY, serve_path="engine")
        assert service.resolve_serve_path(forced) == "engine"


class TestServiceSpectraPath:
    """End-to-end service routing, parity and per-path metrics."""

    def test_session_detect_takes_spectra_path_bitwise_every_hop(self):
        config = GEOMETRIES[2]
        stream = _stream(config.samples_per_decision + 4 * config.hop, seed=9)
        pipeline = DetectionPipeline(config)
        pipeline.calibrate()

        async def run():
            results = []
            async with SensingService(config) as service:
                session = service.open_session()
                service.ingest(session, stream[: config.samples_per_decision])
                position = config.samples_per_decision
                while position + config.hop <= stream.size:
                    service.ingest(
                        session, stream[position : position + config.hop]
                    )
                    position += config.hop
                    results.append(await service.detect(session))
                return results, service.metrics.snapshot()

        results, snapshot = asyncio.run(run())
        assert len(results) == 4
        for index, result in enumerate(results):
            hops = index + 1
            window = stream[
                hops * config.hop : hops * config.hop
                + config.samples_per_decision
            ]
            assert result["serve_path"] == "spectra"
            assert result["statistic"] == pipeline.statistic(window)
            assert result["threshold"] == pipeline.threshold
        assert snapshot["served_spectra"] == len(results)
        assert snapshot["served_engine"] == 0
        assert snapshot["latency_spectra"]["count"] == len(results)

    @pytest.mark.parametrize("backend", ["fam", "ssca"])
    def test_full_plane_backends_fall_back_to_engine_path(self, backend):
        config = TINY.with_backend(backend)
        stream = _stream(config.samples_per_decision, seed=10)

        async def run():
            async with SensingService(config) as service:
                session = service.open_session()
                service.ingest(session, stream)
                result = await service.detect(session)
                return result, service.metrics.snapshot()

        result, snapshot = asyncio.run(run())
        pipeline = DetectionPipeline(config)
        assert result["serve_path"] == "engine"
        assert result["statistic"] == pipeline.statistic(stream)
        assert snapshot["served_engine"] == 1
        assert snapshot["served_spectra"] == 0
        assert snapshot["latency_engine"]["count"] == 1

    def test_forced_engine_path_stays_bitwise(self):
        config = dataclasses.replace(TINY, serve_path="engine")
        stream = _stream(config.samples_per_decision, seed=11)

        async def run():
            async with SensingService(config) as service:
                session = service.open_session()
                service.ingest(session, stream)
                return await service.detect(session)

        result = asyncio.run(run())
        assert result["serve_path"] == "engine"
        assert result["statistic"] == DetectionPipeline(config).statistic(
            stream
        )

    def test_detect_samples_is_always_engine_path(self):
        stream = _stream(TINY.samples_per_decision, seed=12)

        async def run():
            async with SensingService(TINY) as service:
                return await service.detect_samples(stream)

        assert asyncio.run(run())["serve_path"] == "engine"

    def test_spectra_batches_score_on_the_loop_thread(self):
        # The routing rule: spectra groups are scored inline on the
        # event loop, sample groups in a worker thread (that route may
        # shard, rebuild a pool or wait on shared memory).
        stream = _stream(TINY.samples_per_decision, seed=16)
        threads = {"spectra_statistics": [], "statistics": []}

        async def run():
            engine = Engine(jobs=1)
            for name, calls in threads.items():
                call = getattr(engine, name)

                def recorded(*args, _call=call, _calls=calls, **kwargs):
                    _calls.append(threading.get_ident())
                    return _call(*args, **kwargs)

                setattr(engine, name, recorded)
            async with SensingService(TINY, engine=engine) as service:
                session = service.open_session()
                service.ingest(session, stream)
                spectra = await service.detect(session, with_threshold=False)
                samples = await service.detect_samples(
                    stream, with_threshold=False
                )
            engine.close()
            return threading.get_ident(), spectra, samples

        loop_thread, spectra, samples = asyncio.run(run())
        assert spectra["serve_path"] == "spectra"
        assert samples["serve_path"] == "engine"
        assert spectra["statistic"] == samples["statistic"]
        assert threads["spectra_statistics"] == [loop_thread]
        assert len(threads["statistics"]) == 1
        assert threads["statistics"][0] != loop_thread

    def test_coalesced_spectra_detects_stay_bitwise(self):
        streams = [
            _stream(TINY.samples_per_decision, seed=13 + i) for i in range(5)
        ]

        async def run():
            async with SensingService(TINY, max_batch=8) as service:
                ids = []
                for stream in streams:
                    session = service.open_session()
                    service.ingest(session, stream)
                    ids.append(session)
                results = await asyncio.gather(
                    *(service.detect(session) for session in ids)
                )
                return results, service.metrics.snapshot()

        results, snapshot = asyncio.run(run())
        pipeline = DetectionPipeline(TINY)
        pipeline.calibrate()
        for stream, result in zip(streams, results):
            assert result["serve_path"] == "spectra"
            assert result["statistic"] == pipeline.statistic(stream)
        assert snapshot["served_spectra"] == len(streams)
        # Concurrent spectra-domain requests sharing one plan key must
        # have ridden shared stacked Gram calls.
        assert snapshot["batches"] < len(streams)

    def test_checkpoint_restore_mid_stream_stays_bitwise(self):
        config = GEOMETRIES[1]
        stream = _stream(config.samples_per_decision + 2 * config.hop, seed=18)
        cut = config.samples_per_decision // 2 + 3  # mid-block checkpoint

        async def run():
            async with SensingService(config) as service:
                original = service.open_session()
                service.ingest(original, stream[:cut])
                state = service.checkpoint_session(original)
                service.ingest(original, stream[cut:])
                first = await service.detect(original)
                # The restored twin continues from the mid-block
                # checkpoint (same id, so the original closes first).
                service.close_session(original)
                restored = service.restore_session(state)
                service.ingest(restored, stream[cut:])
                second = await service.detect(restored)
                return first, second

        first, second = asyncio.run(run())
        assert first["serve_path"] == second["serve_path"] == "spectra"
        assert first["statistic"] == second["statistic"]
        # Anchor both to the offline pipeline on the last N complete
        # blocks of the stream.
        blocks = (stream.size - config.fft_size) // config.hop + 1
        start = (blocks - config.num_blocks) * config.hop
        window = stream[start : start + config.samples_per_decision]
        pipeline = DetectionPipeline(config)
        assert first["statistic"] == pipeline.statistic(window)

    def test_no_shared_memory_segments_leak(self):
        stream = _stream(TINY.samples_per_decision, seed=19)

        async def run():
            async with SensingService(TINY) as service:
                session = service.open_session()
                service.ingest(session, stream)
                await service.detect(session)

        asyncio.run(run())
        assert live_segment_names() == ()

    def test_tcp_stats_op_carries_per_path_counters(self):
        stream = _stream(TINY.samples_per_decision, seed=21)

        async def run():
            service = SensingService(TINY)
            server = SensingServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            async def rpc(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            session = (await rpc({"op": "open"}))["session"]
            await rpc(
                {
                    "op": "ingest",
                    "session": session,
                    "samples": encode_samples(stream),
                }
            )
            detect = await rpc({"op": "detect", "session": session})
            stats = await rpc({"op": "stats"})
            writer.close()
            await writer.wait_closed()
            await server.close()
            return detect, stats["stats"]

        detect, stats = asyncio.run(run())
        assert detect["ok"] and detect["serve_path"] == "spectra"
        assert stats["served_spectra"] == 1
        assert stats["served_engine"] == 0
        assert stats["latency_spectra"]["count"] == 1

    def test_metrics_snapshot_carries_per_path_keys(self):
        snapshot = ServiceMetrics().snapshot()
        for key in (
            "served_spectra",
            "served_engine",
            "latency_spectra",
            "latency_engine",
        ):
            assert key in snapshot
        metrics = ServiceMetrics()
        metrics.record_served(0.5)  # default path is engine
        assert metrics.served_engine == 1 and metrics.served_spectra == 0
