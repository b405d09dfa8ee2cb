"""Chaos battery: injected kill/hang/corrupt/flood, end-to-end recovery.

The contract under test everywhere: recovery must be *invisible in the
numbers*.  Whatever the fault plan kills, hangs, corrupts or floods,
``Engine.statistics`` and every served ``detect`` reply stay bitwise
identical to the fault-free run, ``health`` keeps answering, and
``/dev/shm`` ends clean.
"""

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.shm import live_segment_names
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    ServiceOverloadedError,
)
from repro.faults import NO_FAULTS, FaultInjector, FaultPlan, FaultSpec
from repro.pipeline import DetectionPipeline, PipelineConfig
from repro.serve import CircuitBreaker, SensingServer, SensingService, encode_samples
from repro.signals.noise import awgn

TINY = PipelineConfig(fft_size=32, num_blocks=8, calibration_trials=20)


def _signals(count: int, seed0: int = 100) -> np.ndarray:
    return np.stack(
        [awgn(TINY.samples_per_decision, seed=seed0 + i) for i in range(count)]
    )


def _shm_entries() -> list[str]:
    return [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial answer every chaos run must reproduce."""
    signals = _signals(8)
    with Engine(jobs=1) as engine:
        return signals, engine.statistics(signals, config=TINY)


class TestFaultPlan:
    def test_parse_round_trips_through_json(self):
        plan = FaultPlan.parse(
            "worker.start:kill:0; shm.publish:corrupt:1-2; "
            "engine.batch:error:*; serve.batch:slow:0,2:0.25"
        )
        assert plan.sites() == (
            "worker.start",
            "shm.publish",
            "engine.batch",
            "serve.batch",
        )
        assert plan.specs[0].hits == (0,)
        assert plan.specs[1].hits == (1, 2)
        assert plan.specs[2].hits is None
        assert plan.specs[3] == FaultSpec(
            site="serve.batch", kind="slow", hits=(0, 2), seconds=0.25
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_match_respects_hits_and_order(self):
        plan = FaultPlan.parse("engine.batch:error:1;engine.batch:slow:*")
        assert plan.match("engine.batch", 0).kind == "slow"
        assert plan.match("engine.batch", 1).kind == "error"
        assert plan.match("serve.batch", 0) is None
        assert not NO_FAULTS
        assert NO_FAULTS.match("engine.batch", 0) is None

    def test_hang_gets_a_default_duration(self):
        spec = FaultPlan.parse("worker.start:hang").specs[0]
        assert spec.seconds and spec.seconds > 0

    @pytest.mark.parametrize(
        "text",
        [
            "nowhere:error",  # unknown site
            "engine.batch:frobnicate",  # unknown kind
            "engine.batch:kill",  # kill only makes sense in workers
            "worker.start:vanish",  # vanish needs a segment site
            "engine.batch:error:-1",  # negative hit
            "engine.batch:error:5-2",  # empty range
            "engine.batch",  # no kind
            "",  # no specs at all
        ],
    )
    def test_invalid_specs_raise_typed(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_load_takes_a_file_or_inline_text(self, tmp_path):
        plan = FaultPlan.parse("worker.start:kill:0")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        assert FaultPlan.load(str(path)) == plan
        assert FaultPlan.load("worker.start:kill:0") == plan


class TestEngineRecovery:
    """Every injected engine fault must recover bitwise, shm clean."""

    @pytest.mark.parametrize(
        "plan_text",
        [
            "worker.start:error:0",  # shard raises once
            "worker.attach:error:0",  # attach raises once
            "worker.start:kill:0",  # worker hard-crashes (SIGKILL-alike)
            "shm.publish:vanish:0",  # segment unlinked under the workers
            "shm.publish:corrupt:0",  # segment truncated under the workers
            "worker.start:slow:0:0.1",  # slow shard, no failure at all
            "worker.start:error:0;shm.publish:vanish:1",  # compound
        ],
    )
    def test_transient_faults_recover_bitwise(self, plan_text, reference):
        signals, expected = reference
        injector = FaultInjector(FaultPlan.parse(plan_text))
        with Engine(jobs=2, fault_injector=injector) as engine:
            out = engine.statistics(signals, config=TINY)
            assert np.array_equal(out, expected)
            assert not engine.health.degraded
            if "slow" in plan_text:
                assert engine.health.shard_failures == 0
            else:
                assert engine.health.shard_failures > 0
                assert engine.health.recovered_faults
        assert live_segment_names() == ()
        assert _shm_entries() == []

    def test_worker_kill_rebuilds_the_pool(self, reference):
        signals, expected = reference
        injector = FaultInjector(FaultPlan.parse("worker.start:kill:0"))
        with Engine(jobs=2, fault_injector=injector) as engine:
            out = engine.statistics(signals, config=TINY)
            assert np.array_equal(out, expected)
            assert engine.health.pool_rebuilds >= 1
            # The rebuilt pool keeps serving follow-up batches.
            again = engine.statistics(signals, config=TINY)
            assert np.array_equal(again, expected)
        assert _shm_entries() == []

    def test_hung_shard_trips_the_watchdog(self, reference):
        signals, expected = reference
        injector = FaultInjector(FaultPlan.parse("worker.start:hang:0:5.0"))
        with Engine(
            jobs=2, fault_injector=injector, watchdog_seconds=0.4
        ) as engine:
            out = engine.statistics(signals, config=TINY)
            assert np.array_equal(out, expected)
            assert engine.health.watchdog_timeouts >= 1
            assert engine.health.pool_rebuilds >= 1
            assert not engine.health.degraded
        assert live_segment_names() == ()

    def test_hard_fault_degrades_to_serial_bitwise(self, reference):
        signals, expected = reference
        injector = FaultInjector(FaultPlan.parse("worker.start:error:*"))
        with Engine(
            jobs=2, fault_injector=injector, max_shard_retries=1
        ) as engine:
            out = engine.statistics(signals, config=TINY)
            assert np.array_equal(out, expected)
            assert engine.health.degraded
            assert engine.health.degraded_shards == 2
            assert engine.last_transport == "degraded-serial"
        assert live_segment_names() == ()
        assert _shm_entries() == []

    def test_same_plan_fires_identically_across_runs(self, reference):
        signals, expected = reference

        def run():
            injector = FaultInjector(
                FaultPlan.parse("worker.start:error:0;shm.publish:vanish:2")
            )
            with Engine(jobs=2, fault_injector=injector) as engine:
                out = engine.statistics(signals, config=TINY)
                return out, engine.health.snapshot(), injector.fired

        first_out, first_health, first_fired = run()
        second_out, second_health, second_fired = run()
        assert np.array_equal(first_out, expected)
        assert np.array_equal(first_out, second_out)
        assert first_health == second_health
        assert first_fired == second_fired

    def test_engine_batch_fault_surfaces_to_the_caller(self, reference):
        signals, _ = reference
        injector = FaultInjector(FaultPlan.parse("engine.batch:error:0"))
        with Engine(jobs=1, fault_injector=injector) as engine:
            with pytest.raises(InjectedFaultError):
                engine.statistics(signals, config=TINY)
            # The next batch (occurrence 1) is clean: recovery from
            # this site belongs to the serve layer's retry budget.
            out = engine.statistics(signals, config=TINY)
        assert out.shape == (len(signals),)


class _Client:
    """One line-delimited JSON connection to a test server."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server: SensingServer) -> "_Client":
        reader, writer = await asyncio.open_connection(*server.address)
        return cls(reader, writer)

    async def rpc(self, request: dict) -> dict:
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _probe_health(address: tuple, delay: float) -> tuple[dict, float]:
    """Send one ``health`` request *delay* seconds after connecting, from
    the calling thread's own event loop; returns the reply and its
    latency.  A prober on the server's loop cannot see that loop stall:
    its own timer waits out the stall with it."""

    async def probe():
        client = _Client(*await asyncio.open_connection(*address))
        try:
            await asyncio.sleep(delay)
            started = time.perf_counter()
            reply = await client.rpc({"op": "health"})
            return reply, time.perf_counter() - started
        finally:
            await client.close()

    return asyncio.run(probe())


class TestServeChaos:
    """Fault plans driven end-to-end through the TCP server."""

    def _window(self, seed: int = 200) -> np.ndarray:
        return awgn(TINY.samples_per_decision, seed=seed)

    def _offline(self, window: np.ndarray) -> float:
        return DetectionPipeline(TINY).statistic(window)

    async def _serve(self, engine: Engine, **service_kwargs):
        service = SensingService(TINY, engine=engine, **service_kwargs)
        server = SensingServer(service)
        await server.start()
        return server

    async def _open_and_ingest(self, client: _Client, window: np.ndarray) -> str:
        session = (await client.rpc({"op": "open"}))["session"]
        ingest = await client.rpc(
            {
                "op": "ingest",
                "session": session,
                "samples": encode_samples(window),
            }
        )
        assert ingest["ok"]
        return session

    def test_detect_retries_through_a_transient_engine_fault(self):
        window = self._window()

        async def run():
            injector = FaultInjector(FaultPlan.parse("engine.batch:error:0"))
            engine = Engine(jobs=1, fault_injector=injector)
            server = await self._serve(engine, retry_budget=1)
            client = await _Client.connect(server)
            try:
                health_before = await client.rpc({"op": "health"})
                session = await self._open_and_ingest(client, window)
                detect = await client.rpc(
                    {"op": "detect", "session": session, "threshold": False}
                )
                health_after = await client.rpc({"op": "health"})
                stats = (await client.rpc({"op": "stats"}))["stats"]
            finally:
                await client.close()
                await server.close()
                engine.close()
            return health_before, detect, health_after, stats

        health_before, detect, health_after, stats = asyncio.run(run())
        assert health_before["ok"] and health_before["status"] == "ok"
        assert detect["ok"], detect
        assert detect["statistic"] == self._offline(window)
        assert health_after["status"] == "ok"
        assert stats["retried"] == 1
        assert stats["failed"] == 0
        assert stats["served"] == 1
        assert live_segment_names() == ()
        assert _shm_entries() == []

    def test_worker_kill_recovers_through_the_server(self):
        window = self._window(seed=201)

        async def run():
            # A single served window runs in-process (one trial never
            # shards), so the kill targets the 8-trial threshold
            # calibration — the sharded engine work a detect triggers.
            injector = FaultInjector(FaultPlan.parse("worker.start:kill:0"))
            engine = Engine(jobs=2, fault_injector=injector)
            server = await self._serve(engine)
            client = await _Client.connect(server)
            try:
                session = await self._open_and_ingest(client, window)
                detect = await client.rpc(
                    {"op": "detect", "session": session}
                )
                health = await client.rpc({"op": "health"})
            finally:
                await client.close()
                await server.close()
                engine.close()
            return detect, health

        detect, health = asyncio.run(run())
        assert detect["ok"], detect
        pipeline = DetectionPipeline(TINY)
        pipeline.calibrate()
        assert detect["statistic"] == pipeline.statistic(window)
        assert detect["threshold"] == pipeline.threshold
        # The kill was absorbed below the serve layer: no degradation.
        assert health["status"] == "ok"
        assert health["engine_health"]["pool_rebuilds"] >= 1
        assert health["engine_health"]["recovered_faults"] >= 1
        assert _shm_entries() == []

    def test_circuit_breaker_opens_then_recovers_after_cooldown(self):
        window = self._window(seed=202)

        async def run():
            # Two hard failures trip the breaker (retry budget zero so
            # each failed batch surfaces); occurrence 2 is clean, so
            # the half-open probe after the cooldown closes it again.
            injector = FaultInjector(FaultPlan.parse("serve.batch:error:0-1"))
            engine = Engine(jobs=1, fault_injector=injector)
            breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=0.3)
            server = await self._serve(
                engine, retry_budget=0, breaker=breaker
            )
            client = await _Client.connect(server)
            try:
                session = await self._open_and_ingest(client, window)
                request = {
                    "op": "detect",
                    "session": session,
                    "threshold": False,
                }
                failures = [await client.rpc(request) for _ in range(2)]
                fast_fail = await client.rpc(request)
                health_open = await client.rpc({"op": "health"})
                await asyncio.sleep(0.35)
                probe = await client.rpc(request)
                health_closed = await client.rpc({"op": "health"})
                stats = (await client.rpc({"op": "stats"}))["stats"]
            finally:
                await client.close()
                await server.close()
                engine.close()
            return failures, fast_fail, health_open, probe, health_closed, stats

        failures, fast_fail, health_open, probe, health_closed, stats = (
            asyncio.run(run())
        )
        for reply in failures:
            assert reply == {
                "ok": False,
                "error": "InjectedFaultError",
                "message": reply["message"],
            }
        assert fast_fail["error"] == "CircuitOpenError"
        assert health_open["status"] == "degraded"
        assert health_open["circuit"]["state"] == "open"
        assert probe["ok"], probe
        assert probe["statistic"] == self._offline(window)
        assert health_closed["status"] == "ok"
        assert health_closed["circuit"]["state"] == "closed"
        assert stats["circuit"]["opens"] == 1
        assert stats["shed_circuit"] == 1
        assert stats["failed"] == 2
        assert stats["served"] == 1

    def test_in_flight_deadline_sheds_instead_of_serving_stale(self):
        window = self._window(seed=203)

        async def run():
            # The batch itself stalls 0.5s; the request's 0.1s budget
            # expires mid-flight, so its (bitwise-correct!) result must
            # be discarded, not served stale.
            injector = FaultInjector(
                FaultPlan.parse("serve.batch:slow:0:0.5")
            )
            engine = Engine(jobs=1, fault_injector=injector)
            server = await self._serve(engine)
            client = await _Client.connect(server)
            prober = await _Client.connect(server)
            try:
                session = await self._open_and_ingest(client, window)
                detect_task = asyncio.ensure_future(
                    client.rpc(
                        {
                            "op": "detect",
                            "session": session,
                            "threshold": False,
                            "deadline": 0.1,
                        }
                    )
                )
                # health must answer promptly *while* the batch stalls.
                await asyncio.sleep(0.2)
                start = asyncio.get_running_loop().time()
                health_during = await prober.rpc({"op": "health"})
                health_latency = asyncio.get_running_loop().time() - start
                shed = await detect_task
                after = await client.rpc(
                    {"op": "detect", "session": session, "threshold": False}
                )
                stats = (await client.rpc({"op": "stats"}))["stats"]
            finally:
                await client.close()
                await prober.close()
                await server.close()
                engine.close()
            return health_during, health_latency, shed, after, stats

        health_during, health_latency, shed, after, stats = asyncio.run(run())
        assert health_during["ok"]
        assert health_latency < 0.2
        assert shed["error"] == "DeadlineExceededError"
        assert after["ok"]
        assert after["statistic"] == self._offline(window)
        assert stats["shed_deadline"] == 1
        assert stats["shed_deadline_in_flight"] == 1
        assert stats["served"] == 1

    def test_health_answers_from_another_loop_while_a_spectra_batch_stalls(
        self,
    ):
        window = self._window(seed=204)

        async def run():
            # The spectra route scores on the event loop, but its
            # serve.batch fault fires in a worker thread: a 0.5 s slow
            # fault holds the batch, never the loop.
            injector = FaultInjector(FaultPlan.parse("serve.batch:slow:0:0.5"))
            engine = Engine(jobs=1, fault_injector=injector)
            server = await self._serve(engine)
            client = await _Client.connect(server)
            loop = asyncio.get_running_loop()
            try:
                session = await self._open_and_ingest(client, window)
                probe = loop.run_in_executor(
                    None, _probe_health, server.address, 0.2
                )
                detect = await client.rpc(
                    {"op": "detect", "session": session, "threshold": False}
                )
                health, latency = await probe
            finally:
                await client.close()
                await server.close()
                engine.close()
            return detect, health, latency

        detect, health, latency = asyncio.run(run())
        assert detect["ok"], detect
        assert detect["serve_path"] == "spectra"
        assert detect["statistic"] == self._offline(window)
        assert health["ok"] and health["status"] == "ok"
        assert latency < 0.1

    def test_flood_under_faults_keeps_accounting_and_parity(self):
        windows = [self._window(seed=210 + i) for i in range(4)]
        expected = [self._offline(w) for w in windows]

        async def run():
            injector = FaultInjector(
                FaultPlan.parse("worker.start:error:0;worker.start:kill:3")
            )
            engine = Engine(jobs=2, fault_injector=injector)
            service = SensingService(
                engine=engine,
                config=TINY,
                max_queue_depth=4,
                max_batch=2,
                retry_budget=1,
            )
            async with service:
                flood = await asyncio.gather(
                    *(
                        service.detect_samples(
                            windows[i % len(windows)], with_threshold=False
                        )
                        for i in range(24)
                    ),
                    return_exceptions=True,
                )
                snapshot = service.stats()
            engine.close()
            return flood, snapshot

        flood, snapshot = asyncio.run(run())
        shed = [f for f in flood if isinstance(f, ServiceOverloadedError)]
        served = [f for f in flood if isinstance(f, dict)]
        assert len(shed) + len(served) == 24
        assert served, "flood served nothing"
        for result in served:
            assert result["statistic"] in expected
        assert (
            snapshot["offered"]
            == snapshot["served"]
            + snapshot["shed_deadline"]
            + snapshot["failed"]
        )
        assert snapshot["engine_health"]["recovered_faults"] >= 1
        assert live_segment_names() == ()
        assert _shm_entries() == []

    def test_drained_shutdown_never_orphans_a_retried_request(self):
        window = self._window(seed=220)

        async def run():
            # Every serve batch fails and the retry budget keeps
            # re-queueing: close(drain=True) must still resolve the
            # request's future (with an error), never hang.
            injector = FaultInjector(FaultPlan.parse("serve.batch:error:*"))
            engine = Engine(jobs=1, fault_injector=injector)
            service = SensingService(
                engine=engine, config=TINY, retry_budget=3
            )
            await service.start()
            task = asyncio.ensure_future(
                service.detect_samples(window, with_threshold=False)
            )
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.close(drain=True), timeout=5.0)
            engine.close()
            with pytest.raises(
                (InjectedFaultError, ServiceOverloadedError)
            ):
                await task

        asyncio.run(run())
