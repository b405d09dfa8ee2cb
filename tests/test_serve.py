"""Detection-as-a-service battery: sessions, coalescing, backpressure.

The load-bearing contract throughout: every statistic served through
the coalescing scheduler is bitwise identical to the equivalent
offline :class:`~repro.pipeline.DetectionPipeline` run — across
chunkings, concurrency, checkpoint/restore, and estimator backends.
"""

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.fourier import block_spectra
from repro.core.scf import StreamingDSCF, dscf
from repro.engine.shm import (
    SharedArraySegment,
    _reap_live_segments,
    live_segment_names,
)
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    SessionStateError,
    SignalError,
)
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.serve import (
    LatencyReservoir,
    SensingServer,
    SensingService,
    SensingSession,
    ServiceMetrics,
    decode_samples,
    encode_samples,
    require_serve_capable,
    serve_backends,
    session_capable,
)
from repro.signals.noise import awgn

TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)


def _stream(num_samples: int, seed: int) -> np.ndarray:
    return awgn(num_samples, power=1.0, seed=seed)


def _offline_window(config: PipelineConfig, stream: np.ndarray) -> np.ndarray:
    """The last N complete blocks of *stream*, as the offline run sees it."""
    blocks = (stream.size - config.fft_size) // config.hop + 1
    start = (blocks - config.num_blocks) * config.hop
    return stream[start : start + config.samples_per_decision]


class TestStreamingWindow:
    """The bounded-window StreamingDSCF the sessions are built on."""

    def test_sliding_window_matches_batch_dscf_at_every_step(self):
        k, m, window = 16, 3, 5
        rng = np.random.default_rng(3)
        streaming = StreamingDSCF(k, m, window_blocks=window)
        spectra = rng.standard_normal((12, k)) + 1j * rng.standard_normal((12, k))
        for count in range(1, 13):
            streaming.update(spectra[count - 1])
            recent = spectra[max(0, count - window) : count]
            assert np.array_equal(
                streaming.result().values, dscf(recent, m=m)
            )
            assert streaming.num_blocks == min(count, window)
            assert streaming.total_blocks == count

    def test_checkpoint_restore_is_bitwise_mid_stream(self):
        k, m, window = 16, 3, 4
        rng = np.random.default_rng(4)
        spectra = rng.standard_normal((9, k)) + 1j * rng.standard_normal((9, k))
        original = StreamingDSCF(k, m, window_blocks=window)
        for spectrum in spectra[:6]:
            original.update(spectrum)
        restored = StreamingDSCF.from_state(original.state())
        for spectrum in spectra[6:]:
            original.update(spectrum)
            restored.update(spectrum)
        assert np.array_equal(
            original.result().values, restored.result().values
        )

    def test_reset_returns_to_empty(self):
        streaming = StreamingDSCF(16, 3, window_blocks=4)
        streaming.update(np.ones(16, dtype=np.complex128))
        streaming.reset()
        assert streaming.num_blocks == 0
        with pytest.raises(SignalError):
            streaming.result()

    def test_from_state_rejects_corrupted_state(self):
        streaming = StreamingDSCF(16, 3, window_blocks=4)
        streaming.update(np.ones(16, dtype=np.complex128))
        state = streaming.state()
        state.pop("fft_size")
        with pytest.raises(ConfigurationError):
            StreamingDSCF.from_state(state)


class TestSensingSession:
    def test_chunking_is_invariant(self):
        """Any chunking of the same stream yields identical session state."""
        stream = _stream(TINY.samples_per_decision + 100, seed=5)
        rng = np.random.default_rng(6)
        reference = SensingSession(TINY)
        reference.ingest(stream)
        for trial in range(3):
            session = SensingSession(TINY)
            position = 0
            while position < stream.size:
                step = int(rng.integers(1, 97))
                session.ingest(stream[position : position + step])
                position += step
            assert np.array_equal(
                session.window_samples(), reference.window_samples()
            )
            assert np.array_equal(
                session.scf_result().values, reference.scf_result().values
            )

    def test_window_is_last_n_blocks_of_the_stream(self):
        stream = _stream(TINY.samples_per_decision + 77, seed=7)
        session = SensingSession(TINY)
        session.ingest(stream)
        assert np.array_equal(
            session.window_samples(), _offline_window(TINY, stream)
        )

    def test_online_scf_matches_batch_dscf_over_window_blocks(self):
        stream = _stream(TINY.samples_per_decision + 3 * TINY.hop, seed=8)
        session = SensingSession(TINY)
        session.ingest(stream)
        blocks = session.blocks_ingested
        spectra = np.stack(
            [
                block_spectra(
                    stream[index * TINY.hop :][: TINY.fft_size],
                    TINY.fft_size,
                    num_blocks=1,
                    window=TINY.window,
                )[0]
                for index in range(blocks - TINY.num_blocks, blocks)
            ]
        )
        assert np.array_equal(
            session.scf_result().values, dscf(spectra, m=TINY.m)
        )

    def test_not_ready_and_closed_raise(self):
        session = SensingSession(TINY)
        session.ingest(_stream(TINY.fft_size, seed=9))
        with pytest.raises(SessionStateError):
            session.window_samples()
        session.close()
        with pytest.raises(SessionStateError):
            session.ingest(_stream(8, seed=10))

    def test_checkpoint_restore_continues_bitwise(self):
        stream = _stream(2 * TINY.samples_per_decision, seed=11)
        half = stream.size // 2
        session = SensingSession(TINY)
        session.ingest(stream[:half])
        clone = SensingSession.from_state(TINY, session.state())
        session.ingest(stream[half:])
        clone.ingest(stream[half:])
        assert np.array_equal(session.window_samples(), clone.window_samples())
        assert np.array_equal(
            session.scf_result().values, clone.scf_result().values
        )

    def test_restore_rejects_mismatched_config(self):
        session = SensingSession(TINY)
        session.ingest(_stream(TINY.samples_per_decision, seed=12))
        other = PipelineConfig(
            fft_size=64, num_blocks=8, calibration_trials=20
        )
        with pytest.raises(ConfigurationError):
            SensingSession.from_state(other, session.state())

    def test_serve_capability_gate(self):
        assert session_capable("vectorized")
        assert not session_capable("reference")
        assert "reference" not in serve_backends()
        assert "vectorized" in serve_backends()
        with pytest.raises(ConfigurationError):
            require_serve_capable(TINY.with_backend("reference"))
        with pytest.raises(ConfigurationError):
            SensingSession(TINY.with_backend("reference"))


class TestCoalescing:
    """Coalesced execution must be invisible in the statistics."""

    @pytest.mark.parametrize("backend", ["vectorized", "fam", "ssca"])
    def test_concurrent_detects_bitwise_equal_offline(self, backend):
        config = TINY.with_backend(backend)
        windows = [
            _stream(config.samples_per_decision, seed=20 + index)
            for index in range(6)
        ]

        async def run():
            async with SensingService(config, max_batch=8) as service:
                return await asyncio.gather(
                    *(
                        service.detect_samples(window, with_threshold=False)
                        for window in windows
                    )
                ), service.metrics.snapshot()

        results, snapshot = asyncio.run(run())
        pipeline = DetectionPipeline(config)
        for window, result in zip(windows, results):
            assert result["statistic"] == pipeline.statistic(window)
        # The six concurrent requests must not have run one-per-batch.
        assert snapshot["batches"] < len(windows)
        assert snapshot["coalescing_factor"] > 1.0

    def test_session_detect_matches_offline_pipeline_with_threshold(self):
        stream = _stream(TINY.samples_per_decision + 50, seed=30)

        async def run():
            async with SensingService(TINY) as service:
                session = service.open_session()
                service.ingest(session, stream)
                return await service.detect(session)

        result = asyncio.run(run())
        pipeline = DetectionPipeline(TINY)
        pipeline.calibrate()
        offline = pipeline.statistic(_offline_window(TINY, stream))
        assert result["statistic"] == offline
        assert result["threshold"] == pipeline.threshold
        assert result["detected"] == bool(offline > pipeline.threshold)

    def test_mixed_configs_group_into_separate_engine_batches(self):
        other = PipelineConfig(
            fft_size=64, num_blocks=8, calibration_trials=20
        )
        tiny_windows = [
            _stream(TINY.samples_per_decision, seed=40 + i) for i in range(3)
        ]
        other_windows = [
            _stream(other.samples_per_decision, seed=50 + i) for i in range(3)
        ]

        async def run():
            async with SensingService(TINY, max_batch=16) as service:
                return await asyncio.gather(
                    *(
                        service.detect_samples(
                            window, config=TINY, with_threshold=False
                        )
                        for window in tiny_windows
                    ),
                    *(
                        service.detect_samples(
                            window, config=other, with_threshold=False
                        )
                        for window in other_windows
                    ),
                )

        results = asyncio.run(run())
        for window, result in zip(tiny_windows, results[:3]):
            assert result["statistic"] == DetectionPipeline(TINY).statistic(
                window
            )
        for window, result in zip(other_windows, results[3:]):
            assert result["statistic"] == DetectionPipeline(other).statistic(
                window
            )


class TestMultiSession:
    """Satellite: interleaved sessions == sequential offline runs."""

    def test_round_robin_sessions_bitwise_equal_sequential_offline(self):
        streams = [
            _stream(TINY.samples_per_decision + 64, seed=60 + index)
            for index in range(4)
        ]

        async def run():
            async with SensingService(TINY) as service:
                sessions = [service.open_session() for _ in streams]
                # Round-robin chunked ingestion across all sessions,
                # with a checkpoint/restore cycle mid-stream for one.
                position = 0
                chunk = 41
                while any(position < s.size for s in streams):
                    for sid, stream in zip(sessions, streams):
                        piece = stream[position : position + chunk]
                        if piece.size:
                            service.ingest(sid, piece)
                    position += chunk
                    if position == chunk:  # once, early in the stream
                        state = service.checkpoint_session(sessions[0])
                        service.close_session(sessions[0])
                        sessions[0] = service.restore_session(state)
                return await asyncio.gather(
                    *(service.detect(sid) for sid in sessions)
                )

        results = asyncio.run(run())
        pipeline = DetectionPipeline(TINY)
        pipeline.calibrate()
        for stream, result in zip(streams, results):
            offline = pipeline.statistic(_offline_window(TINY, stream))
            assert result["statistic"] == offline
            assert result["threshold"] == pipeline.threshold


class TestBackpressureAndDeadlines:
    def test_overload_sheds_typed_error_and_server_stays_live(self):
        window = _stream(TINY.samples_per_decision, seed=70)

        async def run():
            async with SensingService(
                TINY, max_queue_depth=4, max_batch=4
            ) as service:
                flood = await asyncio.gather(
                    *(
                        service.detect_samples(window, with_threshold=False)
                        for _ in range(32)
                    ),
                    return_exceptions=True,
                )
                # The service must still serve after the spike.
                after = await service.detect_samples(
                    window, with_threshold=False
                )
                return flood, after, service.metrics.snapshot()

        flood, after, snapshot = asyncio.run(run())
        shed = [f for f in flood if isinstance(f, ServiceOverloadedError)]
        served = [f for f in flood if isinstance(f, dict)]
        assert shed, "overload produced no backpressure sheds"
        assert served, "overload served nothing"
        assert len(shed) + len(served) == 32
        offline = DetectionPipeline(TINY).statistic(window)
        for result in served + [after]:
            assert result["statistic"] == offline
        assert snapshot["shed_overload"] == len(shed)
        assert snapshot["max_queue_depth"] <= 4
        # Accounting: accepted == completed once the queue drains
        # (the post-spike probe is in `offered` too).
        assert (
            snapshot["offered"]
            == snapshot["served"]
            + snapshot["shed_deadline"]
            + snapshot["failed"]
        )
        # No shared-memory segments may survive the spike.
        assert live_segment_names() == ()

    def test_expired_deadline_sheds_with_typed_error(self):
        window = _stream(TINY.samples_per_decision, seed=71)

        async def run():
            async with SensingService(TINY) as service:
                # Fill the worker with a batch so the deadline request
                # waits in the queue past its (already expired) budget.
                others = [
                    asyncio.ensure_future(
                        service.detect_samples(window, with_threshold=False)
                    )
                    for _ in range(3)
                ]
                with pytest.raises(DeadlineExceededError):
                    await service.detect_samples(
                        window,
                        with_threshold=False,
                        deadline_seconds=-1.0,
                    )
                await asyncio.gather(*others)
                return service.metrics.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot["shed_deadline"] == 1
        assert snapshot["served"] == 3

    def test_unknown_session_raises(self):
        async def run():
            async with SensingService(TINY) as service:
                with pytest.raises(SessionStateError):
                    service.ingest("nope", _stream(8, seed=72))
                with pytest.raises(SessionStateError):
                    await service.detect("nope")

        asyncio.run(run())


class TestServer:
    """The line-delimited JSON TCP front end."""

    def test_protocol_round_trip_and_error_replies(self):
        stream = _stream(TINY.samples_per_decision, seed=80)

        async def run():
            service = SensingService(TINY)
            server = SensingServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            async def rpc(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            opened = await rpc({"op": "open"})
            session = opened["session"]
            for start in range(0, stream.size, 64):
                ingest = await rpc(
                    {
                        "op": "ingest",
                        "session": session,
                        "samples": encode_samples(stream[start : start + 64]),
                    }
                )
                assert ingest["ok"]
            detect = await rpc({"op": "detect", "session": session})
            stats = await rpc({"op": "stats"})
            unknown = await rpc({"op": "detect", "session": "ghost"})
            malformed = await rpc({"op": "frobnicate"})
            closed = await rpc({"op": "close", "session": session})
            writer.close()
            await writer.wait_closed()
            await server.close()
            return opened, detect, stats, unknown, malformed, closed

        opened, detect, stats, unknown, malformed, closed = asyncio.run(run())
        assert opened["ok"] and detect["ok"] and closed["ok"]
        pipeline = DetectionPipeline(TINY)
        pipeline.calibrate()
        assert detect["statistic"] == pipeline.statistic(stream)
        assert detect["threshold"] == pipeline.threshold
        assert stats["stats"]["served"] == 1
        assert stats["stats"]["latency"]["count"] == 1
        assert unknown == {
            "ok": False,
            "error": "SessionStateError",
            "message": unknown["message"],
        }
        assert malformed["error"] == "ConfigurationError"

    def test_sample_codec_round_trips(self):
        samples = _stream(33, seed=81)
        assert np.array_equal(decode_samples(encode_samples(samples)), samples)
        with pytest.raises(ConfigurationError):
            decode_samples([1.0, 2.0, 3.0])  # odd length


class TestServerRobustness:
    """A hostile or broken client must never take the server down."""

    async def _server(self, **kwargs) -> SensingServer:
        server = SensingServer(SensingService(TINY), **kwargs)
        await server.start()
        return server

    @staticmethod
    async def _rpc(reader, writer, payload: bytes) -> dict:
        writer.write(payload)
        await writer.drain()
        return json.loads(await reader.readline())

    def test_malformed_json_and_bad_utf8_get_typed_replies(self):
        async def run():
            server = await self._server()
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                garbage = await self._rpc(reader, writer, b"{not json]\n")
                binary = await self._rpc(reader, writer, b"\xff\xfe\x01\n")
                array = await self._rpc(reader, writer, b"[1, 2, 3]\n")
                # The connection survived all three: a real op works.
                stats = await self._rpc(
                    reader, writer, json.dumps({"op": "stats"}).encode() + b"\n"
                )
            finally:
                writer.close()
                await writer.wait_closed()
                await server.close()
            return garbage, binary, array, stats

        garbage, binary, array, stats = asyncio.run(run())
        assert garbage["ok"] is False
        assert garbage["error"] == "JSONDecodeError"
        assert binary["ok"] is False
        assert binary["error"] in ("UnicodeDecodeError", "JSONDecodeError")
        assert array["ok"] is False
        assert array["error"] == "ConfigurationError"
        assert stats["ok"] is True

    def test_unexpected_exception_gets_typed_reply_and_keeps_connection(
        self, monkeypatch, caplog
    ):
        def broken_calibration(*args, **kwargs):
            raise RuntimeError("calibration backend exploded")

        async def run():
            server = await self._server()
            monkeypatch.setattr(
                server.service.engine, "calibrate_threshold", broken_calibration
            )
            reader, writer = await asyncio.open_connection(*server.address)

            async def rpc(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                return json.loads(line)

            try:
                session = (await rpc({"op": "open"}))["session"]
                stream = _stream(TINY.samples_per_decision, seed=83)
                await rpc(
                    {
                        "op": "ingest",
                        "session": session,
                        "samples": encode_samples(stream),
                    }
                )
                detect = await rpc({"op": "detect", "session": session})
                # Same connection, still answering.
                health = await rpc({"op": "health"})
            finally:
                writer.close()
                await writer.wait_closed()
                await server.close()
            return detect, health

        with caplog.at_level("ERROR", logger="repro.serve.server"):
            detect, health = asyncio.run(run())
        assert detect == {
            "ok": False,
            "error": "RuntimeError",
            "message": "calibration backend exploded",
        }
        assert health["ok"] is True
        # The traceback is recorded for the operator.
        assert any(
            record.exc_info and record.exc_info[0] is RuntimeError
            for record in caplog.records
        )

    def test_oversized_line_replies_typed_then_closes_cleanly(self):
        async def run():
            server = await self._server(max_line_bytes=1024)
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                writer.write(b"x" * 4096 + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                trailing = await reader.read()  # server closed after reply
            finally:
                writer.close()
                await writer.wait_closed()
            # The listener itself survived: a fresh connection works.
            reader2, writer2 = await asyncio.open_connection(*server.address)
            health = await self._rpc(
                reader2, writer2, json.dumps({"op": "health"}).encode() + b"\n"
            )
            writer2.close()
            await writer2.wait_closed()
            await server.close()
            return reply, trailing, health

        reply, trailing, health = asyncio.run(run())
        assert reply["ok"] is False
        assert reply["error"] == "RequestTooLargeError"
        assert trailing == b""
        assert health["ok"] is True

    def test_abrupt_disconnect_mid_line_leaves_server_alive(self):
        async def run():
            server = await self._server()
            # A client that dies mid-request: bytes written, no newline.
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b'{"op": "sta')
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the handler observe the EOF
            # Another that sends nothing at all.
            _, silent = await asyncio.open_connection(*server.address)
            silent.close()
            await silent.wait_closed()
            reader2, writer2 = await asyncio.open_connection(*server.address)
            stats = await self._rpc(
                reader2, writer2, json.dumps({"op": "stats"}).encode() + b"\n"
            )
            writer2.close()
            await writer2.wait_closed()
            await server.close()
            return stats

        stats = asyncio.run(run())
        # The half-written fragment was discarded, never dispatched.
        assert stats["ok"] is True
        assert stats["stats"]["served"] == 0


class TestMetrics:
    def test_latency_reservoir_quantiles_and_wraparound(self):
        reservoir = LatencyReservoir(capacity=4)
        assert reservoir.quantile(0.5) is None
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            reservoir.record(value)
        # Ring keeps the last 4 values: 3, 4, 5, 6.
        assert reservoir.quantile(0.5) == pytest.approx(4.5)
        assert reservoir.quantile(1.0) == 6.0
        assert reservoir.count == 6

    def test_service_metrics_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.record_offered(queue_depth=2)
        metrics.record_batch(3)
        metrics.record_served(0.01)
        snapshot = metrics.snapshot()
        assert snapshot["offered"] == 1
        assert snapshot["coalescing_factor"] == 3.0
        assert snapshot["max_queue_depth"] == 2
        assert snapshot["latency"]["count"] == 1


class TestShmSafetyNet:
    """Satellite: atexit reaping of still-live parent-owned segments."""

    def test_reap_unlinks_live_segments(self):
        segment = SharedArraySegment(np.ones(64, dtype=np.complex128))
        name = segment.name.lstrip("/")
        assert segment.name in live_segment_names()
        assert os.path.exists(f"/dev/shm/{name}")
        _reap_live_segments()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert live_segment_names() == ()
        segment.destroy()  # idempotent after the reap

    def test_abandoned_segment_does_not_leak_past_interpreter_exit(self):
        code = (
            "import sys; sys.path.insert(0, 'src');\n"
            "import numpy as np\n"
            "from repro.engine.shm import SharedArraySegment\n"
            "segment = SharedArraySegment(np.ones(256, dtype=np.complex128))\n"
            "print(segment.name)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        name = result.stdout.strip().lstrip("/")
        assert name
        assert not os.path.exists(f"/dev/shm/{name}")
