"""Detection-as-a-service battery: sessions, coalescing, backpressure.

The load-bearing contract throughout: every statistic served through
the coalescing scheduler is bitwise identical to the equivalent
offline :class:`~repro.pipeline.DetectionPipeline` run — across
chunkings, concurrency, checkpoint/restore, and estimator backends.
"""

import asyncio
import base64
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fourier import framed_spectra
from repro.core.scf import dscf
from repro.core.windows import get_window
from repro.engine import Engine
from repro.engine.shm import (
    SharedArraySegment,
    _reap_live_segments,
    live_segment_names,
)
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NonFiniteInputError,
    ServiceOverloadedError,
    SessionStateError,
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
    parse_request,
    require_serve_capable,
    serve_backends,
    session_capable,
)
from repro.serve.server import VECTOR_DECODE_MIN_CHARS, _vector_b64decode
from repro.signals.noise import awgn

TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)


def _stream(num_samples: int, seed: int) -> np.ndarray:
    return awgn(num_samples, power=1.0, seed=seed)


def _offline_window(config: PipelineConfig, stream: np.ndarray) -> np.ndarray:
    """The last N complete blocks of *stream*, as the offline run sees it."""
    blocks = (stream.size - config.fft_size) // config.hop + 1
    start = (blocks - config.num_blocks) * config.hop
    return stream[start : start + config.samples_per_decision]


def _bits(value):
    """*value* with every float array viewed as raw uint64 words.

    Equality on the result is bit-for-bit (signed zeros, NaN payloads);
    dicts compare key by key, other values as they are.
    """
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        bits = np.ascontiguousarray(value).view(np.uint64)
        return (value.shape, bits.tolist())
    return value


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

    @pytest.mark.parametrize("hop", [32, 16, 8, 12])
    def test_scf_result_is_offline_dscf_of_window(self, hop):
        config = PipelineConfig(
            fft_size=32, num_blocks=8, hop=hop, calibration_trials=20
        )
        stream = _stream(config.samples_per_decision + 3 * hop + 5, seed=8)
        session = SensingSession(config)
        session.ingest(stream[:40])
        with pytest.raises(SessionStateError):
            session.scf_result()
        session.ingest(stream[40:])
        offline = Engine().plan(config).block_spectra(
            session.window_samples()[None]
        )[0]
        result = session.scf_result()
        assert _bits(result.values) == _bits(dscf(offline, m=config.m))
        assert result.num_blocks == config.num_blocks

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

    @staticmethod
    def _corrupt(state: dict, corruption: str) -> dict:
        state = dict(state)
        if corruption == "ring-shape":
            state["ring"] = state["ring"][1:]
        elif corruption == "negative-blocks":
            state["blocks"] = -3
        elif corruption == "cut-buffer":
            state["buffer"] = state["buffer"][:10]
        elif corruption == "shifted-buffer":
            state["buffer_start"] += 100
        elif corruption == "blocks-off-by-one":
            state["blocks"] += 1
        else:  # buffer-after-window: consistent length, late start
            window_start = (state["blocks"] - TINY.num_blocks) * TINY.hop
            late = window_start + 1
            state["buffer"] = state["buffer"][late - state["buffer_start"] :]
            state["buffer_start"] = late
        return state

    @pytest.mark.parametrize("route", ["session", "service"])
    @pytest.mark.parametrize(
        "corruption",
        [
            "ring-shape", "negative-blocks", "cut-buffer",
            "shifted-buffer", "blocks-off-by-one", "buffer-after-window",
        ],
    )
    def test_restore_rejects_corrupted_state(self, corruption, route):
        session = SensingSession(TINY)
        session.ingest(
            _stream(TINY.samples_per_decision + 3 * TINY.hop + 5, seed=13)
        )
        state = self._corrupt(session.state(), corruption)
        if route == "session":
            with pytest.raises(ConfigurationError):
                SensingSession.from_state(TINY, state)
        else:
            service = SensingService(TINY)
            with pytest.raises(ConfigurationError):
                service.restore_session(state)
            assert service.stats()["sessions"] == 0

    def test_serve_capability_gate(self):
        assert session_capable("vectorized")
        assert not session_capable("reference")
        assert "reference" not in serve_backends()
        assert "vectorized" in serve_backends()
        with pytest.raises(ConfigurationError):
            require_serve_capable(TINY.with_backend("reference"))
        with pytest.raises(ConfigurationError):
            SensingSession(TINY.with_backend("reference"))


class TestNonFiniteIngest:
    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf]
    )
    def test_rejects_before_any_state_changes(self, bad):
        stream = _stream(TINY.samples_per_decision + 40, seed=9)
        session = SensingSession(TINY)
        session.ingest(stream[:50])  # leaves a partial block pending
        before = _bits(session.state())
        chunk = stream[50:].copy()
        chunk[17] = bad
        with pytest.raises(NonFiniteInputError):
            session.ingest(chunk)
        assert _bits(session.state()) == before
        assert session.total_samples == 50
        session.ingest(stream[50:])
        reference = SensingSession(TINY, session_id=session.session_id)
        reference.ingest(stream)
        assert _bits(session.state()) == _bits(reference.state())


class TestBulkIngest:
    """One bulk FFT per chunk is bitwise the per-block front end."""

    @staticmethod
    def _config(hop: int, window: str) -> PipelineConfig:
        return PipelineConfig(
            fft_size=32, num_blocks=6, hop=hop, window=window,
            calibration_trials=20,
        )

    @staticmethod
    def _per_block(config: PipelineConfig, stream: np.ndarray):
        """A ring fed one un-phased centered spectrum per block, block
        b in row b % N; returns it and the block count."""
        ring = np.zeros(
            (config.num_blocks, config.fft_size), dtype=np.complex128
        )
        taper = get_window(config.window, config.fft_size)
        blocks = max((stream.size - config.fft_size) // config.hop + 1, 0)
        for index in range(blocks):
            block = stream[index * config.hop :][: config.fft_size]
            ring[index % config.num_blocks] = np.fft.fftshift(
                np.fft.fft(block * taper)
            )
        return ring, blocks

    @staticmethod
    def _batch_phase(config: PipelineConfig) -> np.ndarray:
        starts = np.arange(config.num_blocks) * config.hop
        bins = np.arange(config.fft_size)
        phase = np.exp(-2j * np.pi * np.outer(starts, bins) / config.fft_size)
        return np.fft.fftshift(phase, axes=1)

    def _assert_matches_per_block(self, session, stream):
        """Ring, window and offline spectra bitwise equal to the
        per-block path (signed zeros included)."""
        config = session.config
        ring, blocks = self._per_block(config, stream)
        assert session.blocks_ingested == blocks
        state = session.state()
        assert _bits(state["ring"]) == _bits(ring)
        # The buffer is the stream's tail from a start no later than the
        # detection window's.
        start = state["buffer_start"]
        assert start <= max(0, blocks - config.num_blocks) * config.hop
        assert _bits(state["buffer"]) == _bits(stream[start:])
        if session.ready:
            oldest = blocks % config.num_blocks
            in_order = np.concatenate([ring[oldest:], ring[:oldest]])
            expected = in_order * self._batch_phase(config)
            resident = session.window_spectra()
            assert _bits(resident) == _bits(expected)
            offline = Engine().plan(config).block_spectra(
                session.window_samples()[None]
            )[0]
            assert _bits(resident) == _bits(offline)

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("hop", [8, 16, 32])
    @pytest.mark.parametrize(
        "chunking",
        ["1-sample", "63-sample", "window", "three-windows", "zeros"],
    )
    def test_ring_and_window_spectra_bitwise_vs_per_block(
        self, hop, window, chunking
    ):
        config = self._config(hop, window)
        span = config.samples_per_decision
        stream = _stream(3 * span + 5, seed=hop)
        step = {
            "1-sample": 1, "63-sample": 63, "window": span,
            "three-windows": 3 * span, "zeros": 63,
        }[chunking]
        if chunking == "zeros":
            # Signed zeros: a ring holding anything but the un-phased
            # FFT, or a second phase multiply on the way out, would flip
            # the sign of some zero bins against the offline plan.
            stream = np.zeros_like(stream)
            stream.real[::2] = -0.0
            stream.imag[1::3] = -0.0
        session = SensingSession(config)
        for start in range(0, stream.size, step):
            session.ingest(stream[start : start + step])
            self._assert_matches_per_block(session, stream[: start + step])

    def test_long_chunk_on_small_hop_ffts_at_most_a_window_at_once(
        self, monkeypatch
    ):
        import repro.serve.session as session_module

        config = self._config(1, "hann")
        stream = _stream(4 * config.samples_per_decision + 300, seed=4)
        calls = []

        def recording(batch, gather, *args, **kwargs):
            calls.append(gather.shape[0])
            return framed_spectra(batch, gather, *args, **kwargs)

        monkeypatch.setattr(session_module, "framed_spectra", recording)
        session = SensingSession(config)
        session.ingest(stream)
        # Only the last N blocks reach the ring, so only they are
        # transformed, in one FFT.
        assert calls == [config.num_blocks]
        self._assert_matches_per_block(session, stream)

    @pytest.mark.parametrize("hop", [8, 16, 32])
    def test_window_sized_chunk_leaves_exactly_the_new_window(self, hop):
        config = self._config(hop, "hann")
        span = config.samples_per_decision
        stream = _stream(3 * span, seed=hop + 2)
        session = SensingSession(config)
        for start in range(0, stream.size, span):
            session.ingest(stream[start : start + span])
            # The previous window is dropped before the flush, not
            # copied and then trimmed: the buffer owns the new window's
            # samples and nothing else.
            buffer = session._buffer
            owner = buffer if buffer.base is None else buffer.base
            assert owner.size == span
            assert session._buffer_start == start
            assert _bits(buffer) == _bits(stream[start : start + span])
            assert _bits(session.window_samples()) == _bits(buffer)
        self._assert_matches_per_block(session, stream)

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("hop", [8, 16, 32])
    def test_checkpoint_restore_mid_stream_stays_bitwise(self, hop, window):
        config = self._config(hop, window)
        stream = _stream(3 * config.samples_per_decision + 5, seed=hop + 1)
        original = SensingSession(config)
        cut = stream.size // 2
        for start in range(0, cut, 63):
            original.ingest(stream[start : min(start + 63, cut)])
        restored = SensingSession.from_state(config, original.state())
        for start in range(cut, stream.size, 63):
            original.ingest(stream[start : start + 63])
            restored.ingest(stream[start : start + 63])
        assert _bits(restored.state()) == _bits(original.state())
        self._assert_matches_per_block(restored, stream)


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
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        edges = np.array(
            [-0.0, 0.0, tiny, -tiny, 3 * tiny, big, -big, np.pi], dtype=float
        )
        samples = np.concatenate(
            [
                edges + 1j * edges[::-1],
                edges * 1j,
                _stream(33, seed=81),
            ]
        )
        decoded = decode_samples(encode_samples(samples))
        assert decoded.dtype == np.complex128
        assert _bits(decoded) == _bits(samples)
        with pytest.raises(ConfigurationError, match="base64"):
            decode_samples([1.0, 2.0])  # the retired float-list format
        with pytest.raises(ConfigurationError, match="base64"):
            decode_samples("AAAA\u00e9AAA")  # non-ASCII text
        # A strided view encodes its values, not its memory.
        assert _bits(decode_samples(encode_samples(samples[::3]))) == _bits(
            samples[::3]
        )

    @pytest.mark.parametrize(
        "chunk, separators",
        [(8192, (", ", ": ")), (8192, (",", ":")), (64, (", ", ": "))],
    )
    def test_detect_over_tcp_equals_engine_on_both_decode_paths(
        self, chunk, separators
    ):
        """An 8192-sample line takes the numpy decoder straight from the
        line's bytes (with either separator style), a 64-sample line the
        stdlib decoder after ``json.loads``; all serve the engine's
        statistic bit for bit."""
        config = PipelineConfig(fft_size=256, num_blocks=32)
        stream = _stream(config.samples_per_decision, seed=86)
        payloads = [
            encode_samples(stream[start : start + chunk])
            for start in range(0, stream.size, chunk)
        ]
        vectorised = [len(text) >= VECTOR_DECODE_MIN_CHARS for text in payloads]
        assert set(vectorised) == {chunk == 8192}

        def encode(request):
            return json.dumps(request, separators=separators).encode() + b"\n"

        probe = parse_request(
            encode({"op": "ingest", "session": "s", "samples": payloads[0]})
        )
        assert isinstance(probe["samples"], np.ndarray) == (chunk == 8192)

        async def run():
            server = SensingServer(SensingService(config))
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            async def rpc(request):
                writer.write(encode(request))
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                session = (await rpc({"op": "open"}))["session"]
                for text in payloads:
                    ingest = await rpc(
                        {"op": "ingest", "session": session, "samples": text}
                    )
                    assert ingest["ok"], ingest
                return await rpc(
                    {"op": "detect", "session": session, "threshold": False}
                )
            finally:
                writer.close()
                await writer.wait_closed()
                await server.close()

        detect = asyncio.run(run())
        assert detect["ok"], detect
        expected = Engine().statistics(stream[None], config=config)[0]
        served = np.float64(detect["statistic"])
        assert served.view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_paper_point_ingest_line_fits_the_byte_budget(self):
        config = PipelineConfig(fft_size=256, num_blocks=32)
        assert config.samples_per_decision == 8192
        window = _stream(config.samples_per_decision, seed=82)
        request = {"op": "ingest", "session": "s1"}
        request["samples"] = encode_samples(window)
        line = json.dumps(request).encode() + b"\n"
        assert len(line) <= 180_000


def _excess_padding(payload: str) -> bool:
    """Whether *payload* ends in more ``=`` than its final quantum can
    take: one after three data characters, two after two, three after
    one, none after a complete quantum."""
    data = payload.rstrip("=")
    padding = len(payload) - len(data)
    return padding > {0: 0, 1: 3, 2: 2, 3: 1}[len(data) % 4]


def _reference_decode(payload):
    """The decode every payload must match, as ``("ok", uint64 words)``
    or ``("error", message)``: excess padding is rejected with one
    message on every Python version, everything else has the outcome of
    ``base64.b64decode(payload, validate=True)`` plus the 16-byte
    check."""
    if _excess_padding(payload):
        return "error", "samples is not valid base64: Excess padding not allowed"
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as error:
        return "error", f"samples is not valid base64: {error}"
    if len(raw) % 16:
        return "error", (
            f"samples decode to {len(raw)} bytes, not a multiple of the "
            f"16-byte complex128 sample"
        )
    return "ok", np.frombuffer(raw, dtype=np.uint64).tolist()


def _decode_outcome(payload):
    try:
        decoded = decode_samples(payload)
    except ConfigurationError as error:
        return "error", str(error)
    assert decoded.dtype == np.dtype("<c16")
    assert not decoded.flags.writeable
    return "ok", decoded.view(np.uint64).tolist()


def _payload(num_samples: int, seed: int) -> str:
    """Base64 of *num_samples* random 16-byte words (any bit pattern)."""
    raw = np.random.default_rng(seed).bytes(16 * num_samples)
    return base64.b64encode(raw).decode("ascii")


#: Sample counts whose payloads straddle the vector-decode crossover
#: (a sample is 16 bytes, 64/3 characters) and reach about 3x it.
_CROSSOVER_SAMPLES = VECTOR_DECODE_MIN_CHARS * 3 // 64
_MAX_BATTERY_SAMPLES = 3 * _CROSSOVER_SAMPLES

def _replace(text: str, at: int, char: str) -> str:
    return text[:at] + char + text[at + 1 :]


def _insert(text: str, at: int, char: str) -> str:
    return text[:at] + char + text[at:]


#: Text corruptions: each maps (valid payload, position) to the
#: corrupted payload.
_CORRUPTIONS = {
    # Kept out of the last quantum, where "=" may be valid padding.
    "equals-mid-body": lambda text, at: _replace(
        text, min(at, len(text) - 5), "="
    ),
    "excess-padding": lambda text, at: text + "====",
    "extra-pad-char": lambda text, at: text + "=",
    "missing-padding": lambda text, at: (
        text.rstrip("=") if text.endswith("=") else text[:-1]
    ),
    "non-alphabet": lambda text, at: _replace(text, at, "*"),
    "url-safe-alphabet": lambda text, at: _replace(text, at, "-"),
    "space": lambda text, at: _replace(text, at, " "),
    "newline": lambda text, at: _insert(text, at, "\n"),
    "trailing-newline": lambda text, at: text + "\n",
    "non-ascii": lambda text, at: _replace(text, at, "\u00e9"),
    "non-ascii-inserted": lambda text, at: _insert(text, at, "\u00e9"),
    "dropped-char": lambda text, at: text[:at] + text[at + 1 :],
    "not-16-bytes": lambda text, at: base64.b64encode(
        base64.b64decode(text)[:-5]
    ).decode(),
}


class TestSampleDecodeEquivalence:
    """The numpy decoder accepts, decodes and rejects exactly as
    ``base64.b64decode(payload, validate=True)`` does, on both sides of
    :data:`VECTOR_DECODE_MIN_CHARS`.  The reference is the stdlib call,
    never ``binascii`` directly: Python 3.10's ``binascii`` has no
    ``strict_mode``, and its ``b64decode`` validates with a regex.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        num_samples=st.integers(0, _MAX_BATTERY_SAMPLES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_samples=_CROSSOVER_SAMPLES - 1, seed=1)
    @example(num_samples=_CROSSOVER_SAMPLES, seed=2)
    @example(num_samples=_CROSSOVER_SAMPLES + 1, seed=3)
    @example(num_samples=_MAX_BATTERY_SAMPLES, seed=4)
    def test_round_trip_bitwise_on_both_paths(self, num_samples, seed):
        text = _payload(num_samples, seed)
        assert _decode_outcome(text) == _reference_decode(text)
        # The numpy path itself decodes every valid payload, whatever
        # its size, so the bits above are its own above the crossover.
        raw = _vector_b64decode(text)
        assert raw is not None and not raw.flags.writeable
        assert raw.tobytes() == base64.b64decode(text)

    @settings(max_examples=150, deadline=None)
    @given(
        corruption=st.sampled_from(sorted(_CORRUPTIONS)),
        num_samples=st.integers(1, _MAX_BATTERY_SAMPLES),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(corruption="equals-mid-body", num_samples=1000, fraction=0.5,
             seed=5)
    @example(corruption="non-ascii", num_samples=1000, fraction=0.0, seed=6)
    @example(corruption="newline", num_samples=1000, fraction=1.0, seed=7)
    @example(corruption="missing-padding", num_samples=1000, fraction=0.0,
             seed=8)
    @example(corruption="excess-padding", num_samples=1001, fraction=0.0,
             seed=9)
    def test_corrupted_text_fails_with_the_stdlib_message(
        self, corruption, num_samples, fraction, seed
    ):
        text = _payload(num_samples, seed)
        at = min(int(fraction * len(text)), len(text) - 1)
        corrupted = _CORRUPTIONS[corruption](text, at)
        expected = _reference_decode(corrupted)
        assert _decode_outcome(corrupted) == expected
        assert expected[0] == "error"
        # At any size the numpy path either defers or agrees.
        try:
            reference = base64.b64decode(corrupted, validate=True)
        except ValueError:
            reference = None
        raw = _vector_b64decode(corrupted)
        assert raw is None or raw.tobytes() == reference

    def test_payload_type_and_sizes_below_one_quantum(self):
        for text in ("", "AA==", "AAAA", "A", "====", "AAAA====", "AAAAAAA="):
            assert _decode_outcome(text) == _reference_decode(text)
            raw = _vector_b64decode(text)
            assert raw is None or raw.tobytes() == base64.b64decode(text)
        with pytest.raises(ConfigurationError, match="base64 string"):
            decode_samples(b"AAAA")

    @pytest.mark.parametrize("num_samples", [3, 1, 2, 3 * _CROSSOVER_SAMPLES])
    @pytest.mark.parametrize("extra", ["=", "==", "===", "===="])
    def test_excess_padding_fails_alike_on_every_python(
        self, num_samples, extra
    ):
        # Python 3.10's b64decode accepts "AAAA==", 3.11's and 3.12's
        # accept "AAAA====": the served input must not depend on that.
        text = encode_samples(np.zeros(num_samples)) + extra
        with pytest.raises(
            ConfigurationError,
            match="^samples is not valid base64: Excess padding not allowed$",
        ):
            decode_samples(text)

    def test_padding_the_final_quantum_needs_still_decodes(self):
        for num_samples in (1, 2, 3 * _CROSSOVER_SAMPLES + 1):
            window = np.arange(num_samples) * (1 - 2j)
            text = encode_samples(window)
            assert text.endswith("=")
            assert np.array_equal(decode_samples(text), window)
        for text in ("=", "==", "AAA==", "AA===", "A===="):
            assert _decode_outcome(text) == (
                "error",
                "samples is not valid base64: Excess padding not allowed",
            )


#: Payload edits that only a JSON text can carry: each maps (valid
#: payload, position) to raw text placed between the value's quotes.
_JSON_TEXT_EDITS = {
    # "\/" and "\u0041"-style escapes decode to alphabet characters,
    # so the request is valid and must decode as json.loads's string.
    "escaped-slash": lambda text, at: text[:at] + "\\/" + text[at + 1 :],
    "escaped-letter": lambda text, at: (
        text[:at] + "\\u%04x" % ord(text[at]) + text[at + 1 :]
    ),
    # Sixteen escapes keep a 16-byte multiple even if each escape were
    # read as its five alphabet characters.
    "escaped-run": lambda text, at: (
        text[:at]
        + "".join("\\u%04x" % ord(char) for char in text[at : at + 16])
        + text[at + 16 :]
    ),
    "escaped-quote": lambda text, at: text[:at] + '\\"' + text[at:],
    "control-char": lambda text, at: text[:at] + "\x01" + text[at:],
    "raw-tab": lambda text, at: text[:at] + "\t" + text[at:],
    "raw-non-ascii": lambda text, at: text[:at] + "é" + text[at:],
}

#: Fields added beside the request's own: (raw key text, raw value
#: text, whether it goes first).
_EXTRA_FIELDS = {
    "none": (),
    "duplicate-last": (('"samples"', '""', False),),
    "duplicate-first": (('"samples"', '""', True),),
    "duplicate-valid-last": (('"samples"', '"AAAAAAAAAAAAAAAAAAAAAA=="', False),),
    "escaped-duplicate": (('"\\u0073amples"', '""', False),),
    "samples-as-value": (('"tag"', '"samples"', True),),
    "samples-in-key": (('"my samples"', '"x"', False),),
    "quoted-samples-in-value": (('"note"', '"a \\"samples\\": b"', False),),
    "nested-samples": (('"meta"', '{"samples": ""}', False),),
}

#: What surrounds the object on the line.
_WRAPPERS = {
    "object": lambda text: text.encode(),
    "utf8-bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "utf-16": lambda text: text.encode("utf-16"),
    "list": lambda text: f"[{text}]".encode(),
    "trailing-garbage": lambda text: (text + " x").encode(),
    "second-object": lambda text: (text + '{"op": "open"}').encode(),
    "leading-space": lambda text: ("  " + text).encode(),
}


def _request_line(
    payload: str,
    *,
    op="ingest",
    session="s1",
    order=(0, 1, 2),
    item_sep=", ",
    key_sep=": ",
    extra="none",
    wrapper="object",
    raw_payload=False,
    ensure_ascii=True,
) -> bytes:
    """One request line built field by field, so separators, key order,
    repeated keys and raw escapes inside the payload are all under the
    test's control.  *raw_payload* puts *payload* between the quotes
    as it is (it may hold JSON escapes); otherwise it is JSON-encoded."""
    value = f'"{payload}"' if raw_payload else json.dumps(
        payload, ensure_ascii=ensure_ascii
    )
    fields = [
        ('"op"', json.dumps(op)),
        ('"session"', json.dumps(session, ensure_ascii=ensure_ascii)),
        ('"samples"', value),
    ]
    fields = [fields[index] for index in order]
    fields = [
        field
        for field in fields
        if not (field[0] == '"op"' and op is None)
        and not (field[0] == '"session"' and session is None)
    ]
    for key, text, first in _EXTRA_FIELDS[extra]:
        fields.insert(0 if first else len(fields), (key, text))
    body = item_sep.join(f"{key}{key_sep}{text}" for key, text in fields)
    return _WRAPPERS[wrapper]("{" + body + "}\n")


def _parsed_view(request) -> dict:
    """*request* with its ingest payload decoded: ``("ok", uint64
    words)`` or ``("error", message)``.  A payload the parse already
    decoded shows up as decoded on any op, so a shortcut taken for a
    request that is not an ingest differs from the reference."""
    if not isinstance(request, dict):
        return request
    view = dict(request)
    samples = view.get("samples")
    if isinstance(samples, np.ndarray):
        assert samples.dtype == np.dtype("<c16")
        assert not samples.flags.writeable
        view["samples"] = ("ok", samples.view(np.uint64).tolist())
    elif view.get("op") == "ingest" and "samples" in view:
        view["samples"] = _decode_outcome(samples)
    return view


def _json_parse(line: bytes) -> dict:
    """The reference parse: ``json.loads`` and the object check."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ConfigurationError("request must be a JSON object")
    return request


def _parse_outcome(parse, line: bytes):
    try:
        request = parse(line)
    except Exception as error:
        return "error", type(error).__name__, str(error)
    return "ok", _parsed_view(request)


class _RecordingService:
    """Just enough of a service to dispatch every op and record what
    an ingest was handed."""

    def __init__(self):
        self.ingested = []

    def open_session(self, session_id=None):
        return session_id or "s1"

    def ingest(self, session_id, samples):
        self.ingested.append(
            (session_id, samples.dtype.str, samples.view(np.uint64).tolist())
        )
        return {"session": session_id, "samples": int(samples.size)}

    async def detect(self, session_id, deadline_seconds=None,
                     with_threshold=True):
        return {"session": session_id}

    def stats(self):
        return {}

    def health(self):
        return {"status": "ok"}

    def close_session(self, session_id):
        pass


def _dispatched(line: bytes, parse) -> tuple:
    """The reply line the server writes for *line*, and what reached
    the service, with :func:`parse_request` replaced by *parse*."""
    import repro.serve.server as server_module

    service = _RecordingService()
    server = SensingServer(service)
    with mock.patch.object(server_module, "parse_request", parse):
        reply = asyncio.run(server._dispatch_line(line))
    return json.dumps(reply), service.ingested


@st.composite
def _request_lines(draw):
    num_samples = draw(st.integers(0, _MAX_BATTERY_SAMPLES))
    text = _payload(num_samples, draw(st.integers(0, 2**32 - 1)))
    edit = draw(
        st.sampled_from(
            ["valid"] * 4 + sorted(_CORRUPTIONS) + sorted(_JSON_TEXT_EDITS)
        )
    )
    raw_payload = edit in _JSON_TEXT_EDITS
    if edit != "valid" and text:
        # Edits stay off the final quantum, where "=" may be padding.
        at = int(draw(st.floats(0.0, 1.0)) * max(len(text) - 5, 0))
        edits = _JSON_TEXT_EDITS if raw_payload else _CORRUPTIONS
        text = edits[edit](text, at)
    return _request_line(
        text,
        op=draw(st.sampled_from(["ingest"] * 4 + ["detect", "open", None])),
        session=draw(st.sampled_from(["s1"] * 3 + [None, "sé"])),
        order=draw(st.permutations((0, 1, 2))),
        item_sep=draw(st.sampled_from([", ", ",", " ,\t"])),
        key_sep=draw(st.sampled_from([": ", ":", " : ", ":  "])),
        extra=draw(st.sampled_from(["none"] * 6 + sorted(_EXTRA_FIELDS))),
        wrapper=draw(st.sampled_from(["object"] * 6 + sorted(_WRAPPERS))),
        raw_payload=raw_payload,
        ensure_ascii=draw(st.booleans()),
    )


#: Named lines, each at a payload size above the crossover, that pin one
#: condition of the shortcut apiece.
_DWELL_PAYLOAD = _payload(3 * _CROSSOVER_SAMPLES, seed=90)
_NAMED_LINES = {
    "default": {},
    "compact": {"item_sep": ",", "key_sep": ":"},
    "spaced-colon": {"key_sep": " : "},
    "samples-first": {"order": (2, 0, 1)},
    **{f"extra-{name}": {"extra": name} for name in _EXTRA_FIELDS},
    **{f"wrapper-{name}": {"wrapper": name} for name in _WRAPPERS},
    "no-session": {"session": None},
    "non-ascii-session": {"session": "sé", "ensure_ascii": False},
    "detect-with-samples": {"op": "detect"},
    "no-op": {"op": None},
    **{
        f"edit-{name}": {"raw_payload": True, "edit": edit}
        for name, edit in _JSON_TEXT_EDITS.items()
    },
    **{
        f"corrupt-{name}": {"edit": corruption}
        for name, corruption in _CORRUPTIONS.items()
    },
}


def _named_line(name: str) -> bytes:
    options = dict(_NAMED_LINES[name])
    edit = options.pop("edit", None)
    text = _DWELL_PAYLOAD
    if edit is not None:
        text = edit(text, len(text) // 2)
    return _request_line(text, **options)


class TestRequestParseEquivalence:
    """:func:`parse_request` is ``json.loads`` + :func:`decode_samples`:
    the same request with uint64-equal samples, or the same exception
    type and message, and the server's reply to the line is the reply
    the full ``json.loads`` path gives, byte for byte."""

    @staticmethod
    def _check(line: bytes) -> None:
        served = _parse_outcome(parse_request, line)
        assert served == _parse_outcome(_json_parse, line)
        assert _dispatched(line, parse_request) == _dispatched(
            line, _json_parse
        )

    @settings(max_examples=200, deadline=None)
    @given(line=_request_lines())
    def test_parse_equals_json_loads_and_decode(self, line):
        self._check(line)

    @pytest.mark.parametrize("name", sorted(_NAMED_LINES))
    def test_named_lines(self, name):
        self._check(_named_line(name))

    @pytest.mark.parametrize(
        "name, decoded",
        [
            ("default", True),
            ("compact", True),
            ("samples-first", True),
            ("extra-samples-in-key", True),
            ("wrapper-utf8-bom", True),
            ("non-ascii-session", True),
            ("spaced-colon", False),
            ("extra-duplicate-last", False),
            ("extra-escaped-duplicate", False),
            ("extra-samples-as-value", False),
            ("extra-quoted-samples-in-value", False),
            ("wrapper-utf-16", False),
            ("detect-with-samples", False),
            ("edit-escaped-slash", False),
        ],
    )
    def test_shortcut_is_taken_only_where_it_is_sure(self, name, decoded):
        request = parse_request(_named_line(name))
        assert isinstance(request["samples"], np.ndarray) == decoded

    def test_short_lines_never_take_the_shortcut(self):
        line = _request_line(_payload(64, seed=91))
        assert len(line) < VECTOR_DECODE_MIN_CHARS
        assert isinstance(parse_request(line)["samples"], str)


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

    @staticmethod
    async def _json_rpc(reader, writer, request: dict) -> dict:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=10)
        return json.loads(line)

    def test_malformed_sample_payloads_get_typed_replies(self):
        stream = _stream(TINY.samples_per_decision, seed=84)
        payloads = {
            "non-string": 12345,
            "non-alphabet": "AAAA*AAA",
            "bad-padding": "AAAAA",
            "not-16-bytes": base64.b64encode(bytes(15)).decode(),
            "legacy-float-list": [1.0, 2.0, 3.0, 4.0],
        }

        async def run():
            server = await self._server()
            reader, writer = await asyncio.open_connection(*server.address)

            def rpc(request):
                return self._json_rpc(reader, writer, request)

            try:
                session = (await rpc({"op": "open"}))["session"]
                replies = {
                    name: await rpc(
                        {"op": "ingest", "session": session, "samples": bad}
                    )
                    for name, bad in payloads.items()
                }
                # The same connection still serves valid requests.
                ingest = await rpc(
                    {
                        "op": "ingest",
                        "session": session,
                        "samples": encode_samples(stream),
                    }
                )
                detect = await rpc({"op": "detect", "session": session})
            finally:
                writer.close()
                await writer.wait_closed()
                await server.close()
            return replies, ingest, detect

        replies, ingest, detect = asyncio.run(run())
        for name, reply in replies.items():
            assert reply["ok"] is False, name
            assert reply["error"] == "ConfigurationError", name
        assert "base64" in replies["legacy-float-list"]["message"]
        assert ingest["ok"] and ingest["total_samples"] == stream.size
        pipeline = DetectionPipeline(TINY)
        assert detect["statistic"] == pipeline.statistic(stream)

    def test_non_finite_chunks_get_typed_replies_and_change_nothing(self):
        stream = _stream(TINY.samples_per_decision + TINY.hop, seed=85)
        head = stream[: TINY.samples_per_decision]
        nan_chunk = stream[head.size :].copy()
        nan_chunk[3] = complex(np.nan, 1.0)
        inf_chunk = stream[head.size :].copy()
        inf_chunk[-1] = complex(1.0, -np.inf)

        async def run():
            server = await self._server()
            reader, writer = await asyncio.open_connection(*server.address)

            def rpc(request):
                return self._json_rpc(reader, writer, request)

            def ingest(samples):
                return rpc(
                    {
                        "op": "ingest",
                        "session": session,
                        "samples": encode_samples(samples),
                    }
                )

            try:
                session = (await rpc({"op": "open"}))["session"]
                before = await ingest(head)
                bad = [await ingest(nan_chunk), await ingest(inf_chunk)]
                unchanged = await ingest(np.zeros(0, dtype=complex))
                after = await ingest(stream[head.size :])
                detect = await rpc({"op": "detect", "session": session})
            finally:
                writer.close()
                await writer.wait_closed()
                await server.close()
            return before, bad, unchanged, after, detect

        before, bad, unchanged, after, detect = asyncio.run(run())
        for reply in bad:
            assert reply["ok"] is False
            assert reply["error"] == "NonFiniteInputError"
        for field in ("blocks", "total_samples"):
            assert unchanged[field] == before[field]
        assert after["total_samples"] == stream.size
        assert after["blocks"] == before["blocks"] + 1
        offline = DetectionPipeline(TINY).statistic(stream[TINY.hop :])
        assert _bits(np.array([detect["statistic"]])) == _bits(
            np.array([offline])
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
